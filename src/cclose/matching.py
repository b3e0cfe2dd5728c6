"""Matchings, the half-integral vertex-cover LP, crowns, and swap-stable
independent sets.

Everything is hand-rolled on sorted vertex ids so results are deterministic;
half-integral optima are not unique, and downstream reduction rules must not
care which one they get.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from heapq import heappop, heappush

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
    # The maximum matching of the double cover the split was read from, as
    # u -> w for its edges u'w''. Many matchings give the same split, so it
    # takes no part in equality.
    matching: Mapping[int, int] = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class CrownDecomposition:
    """An independent set I and a matching that saturates its neighborhood H
    (the head, which is the partition's V1).

    ``independent`` may be empty (the degenerate marker when V0 is empty);
    rules treat that as "not applicable" rather than an error.
    """

    independent: frozenset[int]
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
    least discovery index of a live vertex it met) is not below w's own. A
    dead set is closed under alternating steps and holds no free vertex, so
    no augmenting path enters it, no augmentation changes it, and it stays
    dead. Without the pruning, a walk into a dead vertex would only wander
    inside that closed set and come back, marking no live vertex as seen.
    Live vertices are therefore visited in the same order, and the matching
    is the same.

    Two cases need no code. No root is matched before its own search, since
    an augmentation matches only its root among the left vertices. And a
    failed search has already marked all it reached: each child subtree of
    the root meets no live vertex outside itself, because its earlier
    siblings were cut when they finished, so it is cut in turn, and the live
    list is empty once the path is.
    """
    nbrs = {u: sorted(g.neighbors(u)) for u in left}
    # stamp[w] is w's discovery index, which counts from the search's base,
    # or _DEAD. A stamp below base is from an earlier search: w is unseen.
    stamp = {w: -1 for ws in nbrs.values() for w in ws}
    stride = len(stamp)
    match: dict[int, int] = {}
    base = 0
    for root in left:
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
                    break
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


def _karp_sipser(adj: Mapping[int, frozenset[int]]) -> dict[int, int]:
    """A Karp–Sipser matching of the double cover of ``adj``, as u ↦ w for
    its edges u'w''.

    Karp & Sipser (FOCS 1981), with the least-degree choice of Duff, Kaya
    & Uçar (ACM TOMS 2011). Each step matches a free vertex u of least free
    degree, which is one with a single free neighbour whenever there is
    one, with its free neighbour w of least free degree, ties by id.
    Matching a vertex of free degree one loses nothing: some maximum
    matching holds that edge. The greedy runs on the graph itself and
    takes each matched edge both ways, as u'w'' and w'u''. The two copies
    of a vertex then keep equal free degrees, so a step is a Karp–Sipser
    step of the double cover followed by its mirror image.

    Free degrees only fall. The vertices wait in buckets by free degree,
    the initial ones in id order and a vertex whose degree falls pushed
    again on top, and a popped entry whose degree is stale is skipped. The
    lowest bucket that can hold a live entry falls by at most two per step,
    so the run is O(n + m).
    """
    free = dict(zip(adj, map(len, adj.values())))
    queue: list[list[int]] = [[] for _ in range(max(free.values(), default=0) + 1)]
    for v in sorted(adj, reverse=True):
        queue[free[v]].append(v)
    mate: dict[int, int] = {}
    floor = 1
    while floor < len(queue):
        bucket = queue[floor]
        if not bucket:
            floor += 1
            continue
        u = bucket.pop()
        if u in mate or free[u] != floor:
            continue
        least = len(queue)
        for x in adj[u]:
            if x not in mate:
                d = free[x]
                if d < least or d == least and x < w:
                    least, w = d, x
        mate[u] = w
        mate[w] = u
        for x in adj[u]:
            if x not in mate:
                d = free[x] = free[x] - 1
                queue[d].append(x)
        for x in adj[w]:
            if x not in mate:
                d = free[x] = free[x] - 1
                queue[d].append(x)
        floor = max(floor - 2, 1)
    return mate


def _hopcroft_karp(
    adj: Mapping[int, Iterable[int]], left: Iterable[int], start: Mapping[int, int] | None = None
) -> tuple[dict[int, int], dict[int, int]]:
    """Maximum bipartite matching by shortest augmenting paths.

    Hopcroft & Karp (1973), O(E√V). ``adj`` maps each left vertex to its
    right neighbours; the two sides are separate even where their ids
    coincide. Each phase layers the left vertices by alternating distance
    from the free ones, then augments along layered paths found by
    depth-first search on an explicit stack; a left vertex that leads
    nowhere leaves the layering for the rest of the phase.

    ``start`` is a matching to grow from, as left-to-right pairs; a pair that
    is not an edge, or whose right vertex is already taken, is skipped.
    Returns the left-to-right and the right-to-left match maps. Which
    maximum matching it returns is not specified.
    """
    ml: dict[int, int] = {}
    mr: dict[int, int] = {}
    for u, w in (start or {}).items():
        if u in adj and w in adj[u] and w not in mr:
            ml[u] = w
            mr[w] = u
    while True:
        free = [u for u in left if u not in ml]
        dist = dict.fromkeys(free, 0)
        frontier = free
        reached: set[int] = set()
        found = False
        while frontier and not found:
            # The right vertices first met from this layer; the partners of
            # the matched ones form the next layer.
            step = set().union(*map(adj.__getitem__, frontier)) - reached
            reached |= step
            depth = dist[frontier[0]] + 1
            frontier = [mr[w] for w in step if w in mr]
            found = len(frontier) < len(step)
            dist.update(dict.fromkeys(frontier, depth))
        if not found:
            return ml, mr
        untried = {u: iter(adj[u]) for u in dist}
        for root in free:
            stack = [root]
            # via[i] is the right vertex stack[i] is trying; it leads to stack[i + 1].
            via: list[int] = []
            while stack:
                u = stack[-1]
                d = dist[u] + 1
                for w in untried[u]:
                    x = mr.get(w)
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
                    for u, w in zip(stack, via):
                        ml[u] = w
                        mr[w] = u
                    break
                stack.append(x)


def _konig_cover(
    adj: Mapping[int, Iterable[int]], left: Iterable[int], ml: Mapping[int, int], mr: Mapping[int, int]
) -> tuple[frozenset[int], frozenset[int]]:
    """The König vertex cover of a maximum matching, certified.

    ``ml`` and ``mr`` are the matching's left-to-right and right-to-left
    maps, and ``adj`` maps each left vertex to its right neighbours. Alternate
    from the unmatched left vertices; the cover is the unreached left side
    plus the reached right side, returned as those two sets. The maps must
    pair left vertices with distinct neighbours, and the cover must be as
    large as the matching and cover every edge, which certifies the matching
    maximum and the cover minimum, instance by instance.
    """
    for u, w in ml.items():
        if mr.get(w) != u or w not in adj[u]:
            raise ExtractionError(f"({u}, {w}) is not a matching edge")
    if len(mr) != len(ml):
        raise ExtractionError("the two match maps disagree")
    frontier = [u for u in left if u not in ml]
    reached_left = set(frontier)
    reached_right: set[int] = set()
    while frontier:
        # A matched left vertex is reached only through its partner, so the
        # partners of the newly reached right vertices are all new.
        step = set().union(*map(adj.__getitem__, frontier)) - reached_right
        reached_right |= step
        frontier = [mr[w] for w in step if w in mr]
        reached_left.update(frontier)
    cover_left = frozenset(u for u in left if u not in reached_left)
    if len(cover_left) + len(reached_right) != len(ml):
        raise ExtractionError("König certificate failed: cover size != matching size")
    for u in reached_left:
        if not reached_right.issuperset(adj[u]):
            raise ExtractionError(f"König cover misses an edge at left vertex {u}")
    return cover_left, frozenset(reached_right)


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
    ml = {u: match[u] for u in left if u in match}
    cover_left, cover_right = _konig_cover(g._adj, left, ml, {w: u for u, w in ml.items()})
    return Matching.of(ml.items()), cover_left | cover_right


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


def vclp_half_integral(g: Graph, start: Mapping[int, int] | None = None) -> VclpPartition:
    """An optimal half-integral solution of the vertex-cover LP.

    A minimum vertex cover of the bipartite double cover (via König) halves
    into an optimal fractional cover: x_v = |{v', v''} ∩ cover| / 2. The
    double cover has a left copy v' and a right copy v'' of every vertex and
    an edge u'w'' for every edge uw in either orientation, so g's own
    adjacency is the double cover's, read from the left; Hopcroft–Karp and
    the König search run on it with separate left and right match maps, and
    the double cover is never built. The certificate holds on it: the cover
    is as large as the matching and meets every pair u'w''.

    The König cover does not depend on which maximum matching it is built
    from (Dulmage & Mendelsohn 1958): its reached vertices are the left
    vertices some maximum matching leaves free and their neighbours. So
    Hopcroft–Karp gives the same partition as Kuhn's matching, and a solve
    may grow any matching of the double cover instead of an empty one:
    ``start`` (pairs u ↦ w for the edges u'w''; pairs that are not edges of
    ``g`` or share a w are dropped) warm-starts it, and the result carries
    the maximum matching it was read from as ``matching``. A solve with no
    ``start``, or an empty one, grows ``_karp_sipser``'s matching, which
    is usually maximum or close to it, so that few augmentations are left
    to search for. The start changes which maximum matching comes out,
    never the cover or the partition.

    A vertex is in V1 when both its copies are in the cover, in V_half
    when one is, and in V0 when neither is.
    """
    adj = g._adj
    # Every vertex has a left copy, so adj is also the list of left vertices.
    ml, mr = _hopcroft_karp(adj, adj, start or _karp_sipser(adj))
    cover_left, cover_right = _konig_cover(adj, adj, ml, mr)
    # An edge uw gives the pairs u'w'' and w'u'', and the certified cover
    # meets both, so the two ends of every edge hold two hits between them.
    v0 = frozenset(adj.keys() - cover_left - cover_right)
    return VclpPartition(v0, cover_left & cover_right, cover_left ^ cover_right, ml)


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
        return CrownDecomposition(frozenset(), Matching(frozenset()))
    if frozenset().union(*map(g.neighbors, p.v0)) - p.v1:
        raise ExtractionError("V0 has a neighbor outside V1; solution not optimal")
    if not g.is_independent_set(p.v0):
        raise ExtractionError("V0 is not independent; solution not feasible")
    # Only the V0-V1 cross edges matter; V1 may have internal edges.
    sub = g.between(p.v0, p.v1)
    matching, _ = bipartite_matching_with_cover(sub, Bipartition(frozenset(p.v0)))
    if not matching.saturates(p.v1):
        raise ExtractionError("crown matching fails to saturate V1")
    return CrownDecomposition(frozenset(p.v0), matching)


# -- swap-stable independent sets ----------------------------------------------


def _greedy_maximal_is(g: Graph, seed: set[int]) -> set[int]:
    adj = g._adj
    out = set(seed)
    for v in g.vertex_ids:
        if v not in out and out.isdisjoint(adj[v]):
            out.add(v)
    return out


def _bucket_swap(adj: Mapping[int, frozenset[int]], bucket: Iterable[int]) -> tuple[int, int] | None:
    """The first x of ``bucket`` in id order that misses a later member, and
    the first member y after x that it misses; None when the bucket is a
    clique. Each x is tested with one ``issuperset`` over the later members."""
    members = sorted(bucket)
    for i, x in enumerate(members):
        row, later = adj[x], members[i + 1:]
        if not row.issuperset(later):
            return x, next(y for y in later if y not in row)
    return None


def _find_swap(g: Graph, independent: set[int]) -> tuple[int, int, int] | None:
    """A (v, x, y) with (I \\ {v}) ∪ {x, y} independent, or None.

    Outside vertices with all their I-neighbors equal to {v} are the only
    candidates for x and y, so they are bucketed per member first; v is the
    smallest member whose bucket holds a swap, and x, y are that bucket's
    ``_bucket_swap``. The buckets are built from scratch, so this is the
    independent check behind ``is_two_maximal``.
    """
    adj = g._adj
    buckets: dict[int, list[int]] = {v: [] for v in independent}
    for u in g.vertex_ids:
        if u in independent:
            continue
        hits = adj[u] & independent
        if len(hits) == 1:
            buckets[next(iter(hits))].append(u)
    for v in sorted(buckets):
        if len(buckets[v]) > 1 and (swap := _bucket_swap(adj, buckets[v])) is not None:
            return v, *swap
    return None


def two_maximal_independent_set(g: Graph) -> frozenset[int]:
    """A maximal independent set stable under one-out/two-in swaps.

    A greedy maximal set in id order, then swaps to a fixpoint, each followed
    by a greedy refill in id order. Each swap is ``_find_swap``'s: the
    smallest member v whose bucket (the outside vertices whose one member
    neighbour is v) holds a swap, then that bucket's ``_bucket_swap`` x and
    y. Each swap grows the set by one.

    The search state is kept between swaps instead of rebuilt, as in the
    local search of Andrade, Resende & Werneck (J. Heuristics 2012). Each
    outside vertex keeps its tightness, its number of member neighbours, and
    the sum of their ids, which is the one neighbour's id at tightness 1.
    Each 1-tight vertex sits in its neighbour's bucket. A heap holds the
    members whose bucket gained a vertex since it was last checked; a bucket
    gains a swap only by gaining a vertex, and one that lost its swap by
    losing members is dropped when it reaches the top. The refill visits
    v's neighbours in id order and adds those left with no member
    neighbour: no other vertex lost one, so these are the only vertices the
    full greedy rescan could add, in the order it adds them.

    A swap costs the degrees of the vertices that enter or leave the set,
    plus a sort and a pass over each bucket that grew, so on a sparse graph
    the whole search is near-linear in its size rather than quadratic.
    """
    adj = g._adj
    independent = _greedy_maximal_is(g, set())
    tight = dict.fromkeys(adj, 0)
    owners = dict.fromkeys(adj, 0)
    buckets: dict[int, set[int]] = {v: set() for v in independent}
    for u in adj:
        if u not in independent:
            hits = adj[u] & independent
            tight[u], owners[u] = len(hits), sum(hits)
            if len(hits) == 1:
                buckets[owners[u]].add(u)
    grown = set(independent)

    def enter(x: int) -> None:
        independent.add(x)
        grown.add(x)
        bucket = buckets[x] = set()
        for u in adj[x]:
            tight[u] += 1
            owners[u] += x
            if tight[u] == 1:
                bucket.add(u)
            elif tight[u] == 2:
                buckets[owners[u] - x].discard(u)

    def leave(v: int) -> None:
        independent.remove(v)
        del buckets[v]
        for u in adj[v]:
            tight[u] -= 1
            owners[u] -= v
            if tight[u] == 1:
                buckets[owners[u]].add(u)
                grown.add(owners[u])

    heap: list[int] = []
    while True:
        for v in grown:
            if v in independent and len(buckets[v]) > 1:
                heappush(heap, v)
        grown.clear()
        while heap:
            v = heappop(heap)
            if v in independent and (swap := _bucket_swap(adj, buckets[v])) is not None:
                break
        else:
            return frozenset(independent)
        x, y = swap
        leave(v)
        enter(x)
        enter(y)
        for u in sorted(adj[v]):
            if not tight[u] and u not in independent:
                enter(u)


def is_two_maximal(g: Graph, independent: Iterable[int]) -> bool:
    iset = set(independent)
    if not g.is_independent_set(iset):
        return False
    if any(iset.isdisjoint(g.neighbors(v)) for v in g.vertex_ids if v not in iset):
        return False  # not even maximal
    return _find_swap(g, iset) is None
