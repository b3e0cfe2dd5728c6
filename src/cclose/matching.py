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


_DEAD = float("inf")


def _kuhn(g: Graph, left: list[int]) -> dict[int, int]:
    """Maximum bipartite matching by augmenting paths, in sorted-id order.

    Maps each matched vertex to its partner, in both directions. Each search
    is a depth-first walk over an explicit stack, so path length is not
    bounded by the interpreter's recursion limit. The walk tries neighbours
    in ascending id order, which fixes the matching returned.

    Right vertices that reach no free vertex are marked dead and skipped by
    every later walk. A finished subtree under right vertex w is dead when
    all it met outside itself was dead, that is, when its lowlink (the
    least discovery index of a live vertex it met) is not below w's own; a
    failed search marks all it reached. A dead set is closed under
    alternating steps and holds no free vertex, so no augmenting path
    enters it, no augmentation changes it, and it stays dead. Without the
    pruning, a walk into a dead vertex would only wander inside that closed
    set and come back, marking no live vertex as seen. Live vertices are
    therefore visited in the same order, and the matching is the same.
    """
    nbrs = {u: sorted(g.neighbors(u)) for u in left}
    # stamp[w] is w's discovery index, which counts from the search's base,
    # or _DEAD. A stamp below base is from an earlier search: w is unseen.
    stamp = {w: -1 for ws in nbrs.values() for w in ws}
    stride = len(stamp)
    match: dict[int, int] = {}
    base = 0
    for root in left:
        if root in match:
            continue
        base += stride
        # The live right vertices this search reached, in discovery order;
        # w sits at stamp[w] - base, and a dead subtree is always a suffix.
        live: list[int] = []
        # todo[i] holds the untried neighbours of the i-th left vertex on the
        # path; via[i] is the one it is trying, whose partner is the next.
        todo = [iter(nbrs[root])]
        via: list[int] = []
        # low is the lowlink of the subtree on top; lows keeps those below it.
        low = base
        lows: list[int] = []
        while todo:
            for w in todo[-1]:
                seen = stamp[w]
                if seen < base:
                    break
                if seen < low:
                    low = seen
            else:
                todo.pop()
                if not via:
                    for x in live:
                        stamp[x] = _DEAD
                    continue
                w = via.pop()
                if low >= stamp[w]:
                    cut = stamp[w] - base
                    for x in live[cut:]:
                        stamp[x] = _DEAD
                    del live[cut:]
                    low = lows.pop()
                else:
                    low = min(low, lows.pop())
                continue
            via.append(w)
            partner = match.get(w)
            if partner is None:
                u = root
                for v in via:
                    nxt = match.get(v)
                    match[u] = v
                    match[v] = u
                    u = nxt
                break
            lows.append(low)
            low = stamp[w] = base + len(live)
            live.append(w)
            todo.append(iter(nbrs[partner]))
    return match


def _hopcroft_karp(g: Graph, left: list[int]) -> dict[int, int]:
    """Maximum bipartite matching by shortest augmenting paths.

    Hopcroft & Karp (1973), O(E√V). Each phase layers the left vertices by
    alternating distance from the free ones, then augments along layered
    paths found by depth-first search on an explicit stack; a left vertex
    that leads nowhere leaves the layering for the rest of the phase. Maps
    each matched vertex to its partner, in both directions. Which maximum
    matching it returns is not specified.
    """
    nbrs = {u: list(g.neighbors(u)) for u in left}
    match: dict[int, int] = {}
    while True:
        free = [u for u in left if u not in match]
        dist = dict.fromkeys(free, 0)
        frontier = free
        found = False
        while frontier and not found:
            nxt = []
            for u in frontier:
                d = dist[u] + 1
                for w in nbrs[u]:
                    x = match.get(w)
                    if x is None:
                        found = True
                    elif x not in dist:
                        dist[x] = d
                        nxt.append(x)
            frontier = nxt
        if not found:
            return match
        untried = {u: iter(nbrs[u]) for u in dist}
        for root in free:
            stack = [root]
            # via[i] is the right vertex stack[i] is trying; it leads to stack[i + 1].
            via: list[int] = []
            while stack:
                u = stack[-1]
                d = dist[u] + 1
                for w in untried[u]:
                    x = match.get(w)
                    if x is None or dist.get(x) == d:
                        break
                else:
                    del dist[u]
                    stack.pop()
                    if via:
                        via.pop()
                    continue
                via.append(w)
                if x is None:
                    for u, v in zip(stack, via):
                        match[u] = v
                        match[v] = u
                    break
                stack.append(x)


def _konig_cover(g: Graph, left: list[int], match: dict[int, int]) -> frozenset[int]:
    """The König vertex cover of a maximum matching, certified.

    ``match`` maps each matched vertex to its partner, in both directions.
    Alternate from the unmatched left vertices; the cover is the unreached
    left side plus the reached right side. ``match`` must pair left vertices
    with distinct neighbours, and the cover must be as large as the matching
    and cover every edge, which certifies the matching maximum and the cover
    minimum, instance by instance.
    """
    size = 0
    for u in left:
        w = match.get(u)
        if w is not None:
            if match.get(w) != u or not g.has_edge(u, w):
                raise ExtractionError(f"({u}, {w}) is not a matching edge")
            size += 1
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
    if len(cover) != size:
        raise ExtractionError("König certificate failed: cover size != matching size")
    for u, v in g.edges():
        if u not in cover and v not in cover:
            raise ExtractionError(f"König cover misses edge ({u}, {v})")
    return cover


def bipartite_matching_with_cover(
    g: Graph, parts: Bipartition
) -> tuple[Matching, frozenset[int]]:
    """Kuhn's maximum matching plus a König vertex cover of the same size.

    The equal-size cover certifies maximality of the matching (and minimality
    of the cover) instance by instance.
    """
    parts.validate(g)
    left = sorted(parts.left_of(g))
    match = _kuhn(g, left)
    cover = _konig_cover(g, left, match)
    return Matching.of((u, match[u]) for u in left if u in match), cover


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
    into an optimal fractional cover: x_v = |{v', v''} ∩ cover| / 2. The
    König cover does not depend on which maximum matching it is built from
    (Dulmage & Mendelsohn 1958): its reached vertices are the left vertices
    some maximum matching leaves free and their neighbours. So Hopcroft–Karp
    gives the same partition as Kuhn's matching, only faster.
    """
    dg, _ = double_cover(g)
    left = [2 * v for v in g.vertex_ids]
    cover = _konig_cover(dg, left, _hopcroft_karp(dg, left))
    hits = {v: (2 * v in cover) + (2 * v + 1 in cover) for v in g.vertex_ids}
    v0, v1, v_half = set(), set(), set()
    for v, h in hits.items():
        (v0, v_half, v1)[h].add(v)
    for u, v in g.edges():
        assert hits[u] + hits[v] >= 2, "LP infeasibility"
    cost = Fraction(2 * len(v1) + len(v_half), 2)
    return VclpPartition(frozenset(v0), frozenset(v1), frozenset(v_half), cost)


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
