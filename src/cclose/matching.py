"""Matchings, the half-integral vertex-cover LP, crowns, and swap-stable
independent sets.

Everything is hand-rolled on sorted vertex ids so results are deterministic;
half-integral optima are not unique, and downstream reduction rules must not
care which one they get.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from .errors import ExtractionError
from .graph import Graph
from .instances import Bipartition


@dataclass(frozen=True)
class Matching:
    """A set of vertex-disjoint edges, stored as (min, max) pairs."""

    edges: frozenset[tuple[int, int]]

    @classmethod
    def of(cls, pairs: Iterable[tuple[int, int]]) -> "Matching":
        return cls(frozenset((min(u, v), max(u, v)) for u, v in pairs))

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __len__(self) -> int:
        return len(self.edges)

    def saturates(self, vs: Iterable[int]) -> bool:
        return set(vs) <= self.vertices


def validate_matching(g: Graph, m: Matching) -> None:
    seen: set[int] = set()
    for u, v in m.edges:
        if not g.has_edge(u, v):
            raise ValueError(f"matching edge ({u}, {v}) is not in the graph")
        if u in seen or v in seen:
            raise ValueError(f"matching edges share endpoint at ({u}, {v})")
        seen.add(u)
        seen.add(v)


@dataclass(frozen=True)
class VclpPartition:
    """The half-integral optimum of the vertex-cover LP, as a vertex split."""

    v0: frozenset[int]
    v1: frozenset[int]
    v_half: frozenset[int]
    lp_cost: Fraction

    def value_of(self, v: int) -> Fraction:
        if v in self.v0:
            return Fraction(0)
        if v in self.v1:
            return Fraction(1)
        if v in self.v_half:
            return Fraction(1, 2)
        raise ValueError(f"vertex {v} not covered by the partition")


@dataclass(frozen=True)
class CrownDecomposition:
    """An independent set I, its neighborhood H, and a matching saturating H.

    ``independent`` may be empty (the degenerate marker when V0 is empty);
    rules treat that as "not applicable" rather than an error.
    """

    independent: frozenset[int]
    head: frozenset[int]
    saturating_matching: Matching


# -- bipartite matching and König covers --------------------------------------


def _kuhn(g: Graph, left: list[int]) -> dict[int, int]:
    """Maximum bipartite matching by augmenting paths, in sorted-id order.

    Each search is a depth-first walk over an explicit stack, so path length
    is not bounded by the interpreter's recursion limit. The walk tries
    neighbours in ascending id order, which fixes the matching returned.
    """
    nbrs = {u: sorted(g.neighbors(u)) for u in left}
    match: dict[int, int] = {}
    for root in left:
        if root in match:
            continue
        seen: set[int] = set()
        stack = [(root, iter(nbrs[root]))]
        # via[i] is the right vertex stack[i] is trying; it leads to stack[i + 1].
        via: list[int] = []
        while stack:
            for w in stack[-1][1]:
                if w not in seen:
                    break
            else:
                stack.pop()
                if via:
                    via.pop()
                continue
            seen.add(w)
            via.append(w)
            partner = match.get(w)
            if partner is None:
                for (u, _), v in zip(stack, via):
                    match[v] = u
                    match[u] = v
                break
            stack.append((partner, iter(nbrs[partner])))
    return match


def bipartite_matching_with_cover(
    g: Graph, parts: Bipartition
) -> tuple[Matching, frozenset[int]]:
    """A maximum matching plus a König vertex cover of the same size.

    The equal-size cover certifies maximality of the matching (and minimality
    of the cover) instance by instance.
    """
    parts.validate(g)
    left = sorted(parts.left_of(g))
    match = _kuhn(g, left)
    edges = {(min(u, match[u]), max(u, match[u])) for u in left if u in match}

    # König: alternate from unmatched left vertices; cover is the unreached
    # left side plus the reached right side.
    reached: set[int] = set()
    frontier = [u for u in left if u not in match]
    reached.update(frontier)
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.neighbors(u):
                if w in reached:
                    continue
                reached.add(w)
                partner = match.get(w)
                if partner is not None and partner not in reached:
                    reached.add(partner)
                    nxt.append(partner)
        frontier = nxt
    left_set = set(left)
    cover = frozenset(
        v
        for v in g.vertex_ids
        if (v in left_set and v not in reached) or (v not in left_set and v in reached)
    )
    matching = Matching(frozenset(edges))
    if len(cover) != len(matching):
        raise ExtractionError("König certificate failed: cover size != matching size")
    for u, v in g.edges():
        if u not in cover and v not in cover:
            raise ExtractionError(f"König cover misses edge ({u}, {v})")
    return matching, cover


def max_matching_bipartite(g: Graph, parts: Bipartition) -> Matching:
    matching, _ = bipartite_matching_with_cover(g, parts)
    return matching


# -- general matching (blossom contraction) -----------------------------------


def max_matching_general(g: Graph) -> Matching:
    """Exact maximum matching in an arbitrary graph.

    Classic blossom algorithm: BFS an alternating forest from each exposed
    vertex, contracting odd cycles via the ``base`` array. Vertices are
    scanned in sorted order, so the result is deterministic.
    """
    ids = list(g.vertex_ids)
    pos = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    adj = [sorted(pos[w] for w in g.neighbors(v)) for v in ids]
    match = [-1] * n
    parent = [-1] * n
    base = list(range(n))

    def lca(a: int, b: int) -> int:
        used = [False] * n
        while True:
            a = base[a]
            used[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if used[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting(root: int) -> int:
        nonlocal parent, base
        parent = [-1] * n
        base = list(range(n))
        in_queue = [False] * n
        queue = [root]
        in_queue[root] = True
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for w in adj[v]:
                if base[v] == base[w] or match[v] == w:
                    continue
                if w == root or (match[w] != -1 and parent[match[w]] != -1):
                    # Odd cycle: contract the blossom at the LCA.
                    b = lca(v, w)
                    blossom = [False] * n
                    mark_path(v, b, w, blossom)
                    mark_path(w, b, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = b
                            if not in_queue[i]:
                                in_queue[i] = True
                                queue.append(i)
                elif parent[w] == -1:
                    parent[w] = v
                    if match[w] == -1:
                        return w
                    if not in_queue[match[w]]:
                        in_queue[match[w]] = True
                        queue.append(match[w])
        return -1

    for v in range(n):
        if match[v] == -1:
            w = find_augmenting(v)
            while w != -1:
                pv = parent[w]
                next_w = match[pv]
                match[w] = pv
                match[pv] = w
                w = next_w

    edges = {
        (min(ids[i], ids[match[i]]), max(ids[i], ids[match[i]]))
        for i in range(n)
        if match[i] != -1
    }
    return Matching(frozenset(edges))


# -- vertex-cover LP ----------------------------------------------------------


def double_cover(g: Graph) -> tuple[Graph, Bipartition]:
    """The bipartite double cover: v splits into 2v (left) and 2v+1 (right);
    each edge uv becomes u'v'' and v'u''."""
    vertices = [2 * v for v in g.vertex_ids] + [2 * v + 1 for v in g.vertex_ids]
    edges = []
    for u, v in g.edges():
        edges.append((2 * u, 2 * v + 1))
        edges.append((2 * v, 2 * u + 1))
    dg = Graph(vertices, edges)
    return dg, Bipartition(frozenset(2 * v for v in g.vertex_ids))


def vclp_half_integral(g: Graph) -> VclpPartition:
    """An optimal half-integral solution of the vertex-cover LP.

    A minimum vertex cover of the bipartite double cover (via König) halves
    into an optimal fractional cover: x_v = |{v', v''} ∩ cover| / 2.
    """
    dg, parts = double_cover(g)
    _, cover = bipartite_matching_with_cover(dg, parts)
    v0, v1, v_half = set(), set(), set()
    for v in g.vertex_ids:
        hits = (2 * v in cover) + (2 * v + 1 in cover)
        (v0, v_half, v1)[hits].add(v)
    cost = Fraction(2 * len(v1) + len(v_half), 2)
    part = VclpPartition(frozenset(v0), frozenset(v1), frozenset(v_half), cost)
    for u, v in g.edges():
        assert part.value_of(u) + part.value_of(v) >= 1, "LP infeasibility"
    return part


def crown_from_vclp(g: Graph, p: VclpPartition) -> CrownDecomposition:
    """The crown (V0, V1) carried by an optimal half-integral solution.

    V0 is independent and, at optimality, N(V0) = V1 with a matching
    saturating V1 inside the V0-V1 bipartite graph. A saturation failure
    would contradict the crown property and is raised as a hard error.
    With V0 empty, a degenerate empty crown is returned instead.
    """
    if p.v0 | p.v1 | p.v_half != set(g.vertex_ids):
        raise ValueError("partition does not cover the graph")
    if not p.v0:
        return CrownDecomposition(frozenset(), frozenset(), Matching(frozenset()))
    neighborhood: set[int] = set()
    for v in p.v0:
        neighborhood |= g.neighbors(v)
    if neighborhood - p.v1:
        raise ExtractionError("V0 has a neighbor outside V1; solution not optimal")
    if not g.is_independent_set(p.v0):
        raise ExtractionError("V0 is not independent; solution not feasible")
    # Only the V0-V1 cross edges matter; V1 may have internal edges.
    sub = Graph(
        sorted(p.v0 | p.v1),
        [
            (u, v)
            for u, v in g.edges()
            if (u in p.v0) != (v in p.v0) and {u, v} <= (p.v0 | p.v1)
        ],
    )
    matching, _ = bipartite_matching_with_cover(sub, Bipartition(frozenset(p.v0)))
    if not matching.saturates(p.v1):
        raise ExtractionError("crown matching fails to saturate V1")
    return CrownDecomposition(frozenset(p.v0), frozenset(p.v1), matching)


# -- swap-stable independent sets ----------------------------------------------


def _greedy_maximal_is(g: Graph, seed: set[int]) -> set[int]:
    out = set(seed)
    for v in g.vertex_ids:
        if v not in out and not (g.neighbors(v) & out):
            out.add(v)
    return out


def _find_swap(g: Graph, independent: set[int]) -> tuple[int, int, int] | None:
    """A (v, x, y) with (I \\ {v}) ∪ {x, y} independent, or None.

    Outside vertices with all their I-neighbors equal to {v} are the only
    candidates for x and y, so they are bucketed per member first.
    """
    buckets: dict[int, list[int]] = {v: [] for v in independent}
    for u in g.vertex_ids:
        if u in independent:
            continue
        hits = g.neighbors(u) & independent
        if len(hits) == 1:
            buckets[next(iter(hits))].append(u)
    for v in sorted(buckets):
        candidates = sorted(buckets[v])
        for i, x in enumerate(candidates):
            non_nbrs = set(candidates[i + 1:]) - g.neighbors(x)
            if non_nbrs:
                return v, x, min(non_nbrs)
    return None


def two_maximal_independent_set(g: Graph) -> frozenset[int]:
    """A maximal independent set stable under one-out/two-in swaps.

    Greedy construction followed by swap passes to a fixpoint; each swap
    grows the set by one, so at most n passes run.
    """
    independent = _greedy_maximal_is(g, set())
    while True:
        swap = _find_swap(g, independent)
        if swap is None:
            return frozenset(independent)
        v, x, y = swap
        independent.remove(v)
        independent.add(x)
        independent.add(y)
        independent = _greedy_maximal_is(g, independent)


def is_two_maximal(g: Graph, independent: Iterable[int]) -> bool:
    iset = set(independent)
    if not g.is_independent_set(iset):
        return False
    if any(not (g.neighbors(v) & iset) for v in g.vertex_ids if v not in iset):
        return False  # not even maximal
    return _find_swap(g, iset) is None
