"""Shared test utilities: independent brute-force oracles, the canonical
small-graph catalog, and closure-respecting random generators.

The oracles here deliberately avoid the library's own code paths so they can
serve as ground truth.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from hypothesis import strategies as st

from cclose import Graph, cliques_of_size, compute_closure, is_c_closed, maximal_cliques
from cclose.errors import ExtractionError, ParseError
from cclose.instances import (
    BLACK,
    LEFT,
    RIGHT,
    WHITE,
    Bipartition,
    Coloring,
    Decided,
    Instance,
    Problem,
    Reduced,
    RuleRecord,
    Witness,
    lift,
    replay,
)
from cclose.kernel_ds import (
    _decide_cluster_bwtds,
    _rr_high_degree,
    per_vertex_black_bound,
    rr_black_count,
    rr_clique,
    rr_clique_no,
    rr_common_neighborhood,
)
from cclose.kernel_im import (
    _decide_cluster_im,
    partition_bound_violation,
    rr_leaf_rules,
    rr_lp_thresholds,
)
from cclose.kernel_is import _greedy_low_degree_is
from cclose.matching import (
    VclpPartition,
    _find_swap,
    _greedy_maximal_is,
    bipartite_matching_with_cover,
    max_matching_general,
    vclp_half_integral,
)
from cclose.oracle import oracle_answer, validate_witness


def complete_graph(n: int) -> Graph:
    vs = range(n)
    return Graph(vs, [(i, j) for i in vs for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """A star with center 0 and the given number of leaves."""
    return Graph(range(leaves + 1), [(0, i) for i in range(1, leaves + 1)])


def validate_graph(g: Graph) -> None:
    """Check structural invariants (symmetry, no loops, known endpoints)."""
    for v, nbrs in g._adj.items():
        if v in nbrs:
            raise AssertionError(f"self-loop at {v}")
        for w in nbrs:
            if w not in g._adj:
                raise AssertionError(f"dangling endpoint {w}")
            if v not in g._adj[w]:
                raise AssertionError(f"asymmetric edge ({v}, {w})")


def clique_count_bound_holds(g: Graph) -> bool:
    """Check the clique-count bound 3^((c-1)/3) * n^2 for c-closed graphs.

    Compared exactly by cubing both sides, so no floating point is involved.
    """
    count = len(maximal_cliques(g))
    c = compute_closure(g).c
    return count ** 3 <= 3 ** (c - 1) * g.n ** 6


def lp_value(p: VclpPartition, v: int) -> Fraction:
    """The LP value of ``v`` under the partition: 0, 1 or 1/2."""
    if v in p.v0:
        return Fraction(0)
    if v in p.v1:
        return Fraction(1)
    if v in p.v_half:
        return Fraction(1, 2)
    raise ValueError(f"vertex {v} not covered by the partition")


def lp_cost(p: VclpPartition) -> Fraction:
    """The LP objective of the partition: |V1| + |V1/2| / 2."""
    return Fraction(2 * len(p.v1) + len(p.v_half), 2)


def oracle_yes(problem: Problem, g: Graph, k: int) -> bool:
    """``oracle_answer`` for the instance of ``problem`` (IS, IM or IRS) on
    ``g`` with budget ``k``."""
    return oracle_answer(Instance(problem=problem, graph=g, k=k))


def closure_by_matrix(g: Graph) -> int:
    """Closure via an adjacency-matrix product; independent of the pair scan."""
    import numpy as np

    ids = list(g.vertex_ids)
    n = len(ids)
    if n < 2:
        return 1
    idx = {v: i for i, v in enumerate(ids)}
    adj = np.zeros((n, n), dtype=np.int64)
    for u, v in g.edges():
        adj[idx[u], idx[v]] = adj[idx[v], idx[u]] = 1
    common = adj @ adj
    nonadjacent = (adj == 0) & ~np.eye(n, dtype=bool)
    upper = np.triu(nonadjacent)
    if not upper.any():
        return 1
    return int(common[upper].max()) + 1


def pair_scan_closure(g: Graph) -> tuple[int, tuple[int, int] | None]:
    """Closure and the lexicographically smallest maximizing nonadjacent
    pair, by intersecting the neighbourhoods of every pair in id order."""
    best = 0
    best_pair = None
    for u, v in combinations(g.vertex_ids, 2):
        if g.has_edge(u, v):
            continue
        shared = len(g.neighbors(u) & g.neighbors(v))
        if shared > best:
            best = shared
            best_pair = (u, v)
    return best + 1, best_pair


@lru_cache(maxsize=1)
def atlas_graphs() -> tuple[Graph, ...]:
    """All 1253 graphs on up to seven vertices, from the networkx atlas."""
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for nxg in graph_atlas_g():
        out.append(Graph(range(nxg.number_of_nodes()), [tuple(e) for e in nxg.edges()]))
    return tuple(out)


def brute_max_matching(g: Graph) -> int:
    """Exponential branch on the smallest live vertex; fine for n <= 12."""
    neighbors = {v: frozenset(g.neighbors(v)) for v in g.vertex_ids}

    @lru_cache(maxsize=None)
    def rec(avail: frozenset) -> int:
        live = [v for v in sorted(avail) if neighbors[v] & avail]
        if not live:
            return 0
        v = live[0]
        best = rec(avail - {v})
        for w in sorted(neighbors[v] & avail):
            best = max(best, 1 + rec(avail - {v, w}))
        return best

    result = rec(frozenset(g.vertex_ids))
    rec.cache_clear()
    return result


def recursive_kuhn(g: Graph, left: list[int]) -> dict[int, int]:
    """Kuhn's augmenting-path matching, recursive, neighbours in id order.

    Maps each matched vertex to its partner, in both directions.
    """
    match: dict[int, int] = {}

    def try_augment(u: int, seen: set[int]) -> bool:
        for w in sorted(g.neighbors(u)):
            if w in seen:
                continue
            seen.add(w)
            if w not in match or try_augment(match[w], seen):
                match[w] = u
                match[u] = w
                return True
        return False

    for u in left:
        if u not in match:
            try_augment(u, set())
    return match


def double_cover(g: Graph) -> tuple[Graph, Bipartition]:
    """The bipartite double cover, built: v splits into 2v (left) and 2v+1
    (right); each edge uv becomes u'v'' and v'u''."""
    vertices = [2 * v for v in g.vertex_ids] + [2 * v + 1 for v in g.vertex_ids]
    edges = []
    for u, v in g.edges():
        edges.append((2 * u, 2 * v + 1))
        edges.append((2 * v, 2 * u + 1))
    dg = Graph(vertices, edges)
    return dg, Bipartition(frozenset(2 * v for v in g.vertex_ids))


def kuhn_vclp(g: Graph) -> VclpPartition:
    """The vertex-cover LP from Kuhn's matching on the double cover, halved."""
    dg, parts = double_cover(g)
    _, cover = bipartite_matching_with_cover(dg, parts)
    v0, v1, v_half = set(), set(), set()
    for v in g.vertex_ids:
        (v0, v_half, v1)[(2 * v in cover) + (2 * v + 1 in cover)].add(v)
    return VclpPartition(frozenset(v0), frozenset(v1), frozenset(v_half))


def _neighbor_masks(g: Graph) -> tuple[list[int], list[int]]:
    """Open and closed neighbourhood bitmasks over the sorted vertex ids."""
    pos = {v: i for i, v in enumerate(g.vertex_ids)}
    nbr = [0] * g.n
    for u, v in g.edges():
        nbr[pos[u]] |= 1 << pos[v]
        nbr[pos[v]] |= 1 << pos[u]
    return nbr, [nb | (1 << i) for i, nb in enumerate(nbr)]


def scan_is(g: Graph) -> int:
    """Maximum independent-set size, by a scan of all 2^n vertex subsets."""
    nbr, _ = _neighbor_masks(g)
    best = 0
    for mask in range(1 << g.n):
        if mask.bit_count() > best and _is_independent_mask(mask, nbr):
            best = mask.bit_count()
    return best


def _is_independent_mask(mask: int, nbr: list[int]) -> bool:
    m = mask
    while m:
        i = (m & -m).bit_length() - 1
        if nbr[i] & mask:
            return False
        m &= m - 1
    return True


def scan_im(g: Graph) -> int:
    """Maximum induced-matching size, by a scan of all 2^n vertex subsets: a
    subset hosts an induced matching of size |S|/2 exactly when every member
    has exactly one neighbour inside S."""
    nbr, _ = _neighbor_masks(g)
    best = 0
    for mask in range(1 << g.n):
        size = mask.bit_count()
        if size > 2 * best and not size % 2 and _is_induced_matching_mask(mask, nbr):
            best = size // 2
    return best


def reference_im_conflicts(g: Graph) -> list[int]:
    """The IM oracle's conflict mask of each edge, the edges in (min, max)
    order over the sorted ids, by the per-edge loop: every pair is tested
    for an edge, and edge ab's mask is or'ed bit by bit over the vertices of
    N[a] ∪ N[b], from the edges touching each."""
    nbr, cnbr = _neighbor_masks(g)
    edges = [(a, b) for a in range(g.n) for b in range(a + 1, g.n) if nbr[a] >> b & 1]
    touching = [0] * g.n
    for e, (a, b) in enumerate(edges):
        touching[a] |= 1 << e
        touching[b] |= 1 << e
    conflict = []
    for a, b in edges:
        near = cnbr[a] | cnbr[b]
        mask = 0
        while near:
            low = near & -near
            mask |= touching[low.bit_length() - 1]
            near ^= low
        conflict.append(mask)
    return conflict


def _is_induced_matching_mask(mask: int, nbr: list[int]) -> bool:
    m = mask
    while m:
        i = (m & -m).bit_length() - 1
        if (nbr[i] & mask).bit_count() != 1:
            return False
        m &= m - 1
    return True


def scan_irs(g: Graph, open_privacy: bool = False) -> int:
    """Maximum irredundant-set size, by a scan of all 2^n vertex subsets,
    with the closed privacy of ``oracle.oracle_answer``; ``open_privacy`` gives
    the literal open-neighbourhood reading, under which a member itself can
    serve as another member's private neighbour."""
    nbr, cnbr = _neighbor_masks(g)
    other = nbr if open_privacy else cnbr
    best = 0
    for mask in range(1 << g.n):
        if mask.bit_count() > best and _is_irredundant_mask(mask, cnbr, other):
            best = mask.bit_count()
    return best


def scan_tds(g: Graph, coloring: Coloring | None = None, r: int = 1) -> int | None:
    """Minimum size of a set r-dominating every black vertex, or None, by a
    size-ascending scan of vertex subsets that builds each mask bit by bit
    and stops at the first hit. With no coloring every vertex is black."""
    _, cnbr = _neighbor_masks(g)
    pos = {v: i for i, v in enumerate(g.vertex_ids)}
    if coloring is None:
        black = list(range(g.n))
    else:
        black = [pos[v] for v in g.vertex_ids if v not in coloring.white]
    if not black:
        return 0
    full = (1 << g.n) - 1
    if any((cnbr[b] & full).bit_count() < r for b in black):
        return None
    n = g.n
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            mask = 0
            for i in combo:
                mask |= 1 << i
            if all((cnbr[b] & mask).bit_count() >= r for b in black):
                return size
    raise AssertionError("unreachable: D = V is feasible")


def _is_irredundant_mask(mask: int, cnbr: list[int], other: list[int]) -> bool:
    m = mask
    while m:
        i = (m & -m).bit_length() - 1
        blocked = 0
        rest = mask & ~(1 << i)
        while rest:
            j = (rest & -rest).bit_length() - 1
            blocked |= other[j]
            rest &= rest - 1
        if not cnbr[i] & ~blocked:
            return False
        m &= m - 1
    return True


def brute_maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    """Subset enumeration; fine for n <= 14."""
    ids = list(g.vertex_ids)
    cliques = [
        combo
        for size in range(1, len(ids) + 1)
        for combo in combinations(ids, size)
        if g.is_clique(combo)
    ]
    out = []
    for clique in cliques:
        cs = set(clique)
        extendable = any(
            cs <= g.neighbors(v) for v in ids if v not in cs
        )
        if not extendable:
            out.append(tuple(sorted(clique)))
    if not ids:
        return []
    out.sort()
    return out


def pairwise_clique(g: Graph, vs) -> bool:
    """Whether the members of ``vs`` are distinct vertices of ``g``, every
    pair of them adjacent; a reference for ``Graph.is_clique`` built on
    ``has_vertex`` and ``has_edge`` alone."""
    vs = list(vs)
    return (
        len(set(vs)) == len(vs)
        and all(g.has_vertex(v) for v in vs)
        and all(g.has_edge(u, v) for u, v in combinations(vs, 2))
    )


def mask_induced_matching(g: Graph, edges) -> bool:
    """Whether ``edges`` are edges of ``g`` with 2·|edges| distinct ends, and
    every end has exactly one neighbour among the ends (its partner), by
    the bitmask scan of ``scan_im``."""
    edges = list(edges)
    ends = {v for e in edges for v in e}
    if len(ends) != 2 * len(edges) or not all(g.has_edge(u, v) for u, v in edges):
        return False
    nbr, _ = _neighbor_masks(g)
    return _is_induced_matching_mask(_mask_of(g, ends), nbr)


def mask_irredundant(g: Graph, vs) -> bool:
    """Whether the members of ``vs`` are vertices of ``g``, each with a
    private closed neighbour, by the bitmask scan of ``scan_irs``."""
    members = set(vs)
    if not all(g.has_vertex(v) for v in members):
        return False
    _, cnbr = _neighbor_masks(g)
    return _is_irredundant_mask(_mask_of(g, members), cnbr, cnbr)


def _mask_of(g: Graph, vs) -> int:
    pos = {v: i for i, v in enumerate(g.vertex_ids)}
    return sum(1 << pos[v] for v in vs)


@st.composite
def scattered_graphs(draw, max_size=8):
    """A graph on up to ``max_size`` ids drawn from 0..20, and a list of up
    to 6 members drawn from 0..21, repeats and ids outside the graph
    allowed."""
    ids = sorted(draw(st.sets(st.integers(0, 20), max_size=max_size)))
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(ids, [pair for pair, flag in zip(pairs, flags) if flag])
    members = st.sampled_from(ids) | st.integers(0, 21) if ids else st.integers(0, 21)
    return g, draw(st.lists(members, max_size=6))


def brute_cliques_of_size(g: Graph, size: int) -> list[tuple[int, ...]]:
    """Every ``size``-subset that is a clique, in lexicographic order."""
    return [combo for combo in combinations(g.vertex_ids, size) if pairwise_clique(g, combo)]


def brute_hitting_set(universe, sets, k_max=None) -> int | None:
    """Minimum hitting-set size by ascending subset scan (None if > k_max)."""
    ground = sorted(universe)
    limit = len(ground) if k_max is None else min(k_max, len(ground))
    for size in range(limit + 1):
        for combo in combinations(ground, size):
            chosen = set(combo)
            if all(chosen & s for s in sets):
                return size
    return None


def edge_keeps_closure(g: Graph, u: int, v: int, c: int) -> bool:
    """Would adding edge uv keep a c-closed graph c-closed?

    Only pairs (u, w) with w adjacent to v and (v, w) with w adjacent to u
    gain a common neighbor, so checking those suffices.
    """
    for a, b in ((u, v), (v, u)):
        for w in g.neighbors(b):
            if w == a or g.has_edge(a, w):
                continue
            if len(g.neighbors(a) & g.neighbors(w)) + 1 >= c:
                return False
    return True


def random_c_closed_graph(
    n: int,
    c: int,
    p: float,
    seed: int,
    base_edges=(),
    forbidden_pairs=frozenset(),
) -> Graph:
    """Random graph kept c-closed by rejecting closure-breaking edges.

    ``base_edges`` are installed first (they must themselves be safe);
    ``forbidden_pairs`` are never added, which lets callers plant independent
    sets.
    """
    rng = random.Random(seed)
    g = Graph(range(n), base_edges)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
    rng.shuffle(pairs)
    for u, v in pairs:
        key = (min(u, v), max(u, v))
        if key in forbidden_pairs or rng.random() >= p:
            continue
        if edge_keeps_closure(g, u, v, c):
            g = g.with_edges([(u, v)])
    return g


def random_c_closed_bipartite(
    nl: int, nr: int, c: int, p: float, seed: int, base_edges=()
) -> tuple[Graph, Bipartition]:
    """Random bipartite graph with all same-side co-degrees below c."""
    rng = random.Random(seed)
    left = list(range(nl))
    right = list(range(nl, nl + nr))
    g = Graph(range(nl + nr), base_edges)
    pairs = [(u, v) for u in left for v in right if not g.has_edge(u, v)]
    rng.shuffle(pairs)
    for u, v in pairs:
        if rng.random() < p and edge_keeps_closure(g, u, v, c):
            g = g.with_edges([(u, v)])
    return g, Bipartition(frozenset(left))


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(range(n), edges)


def community_graphs(seed, count):
    """Graphs shaped like the social_kernel benchmark's: 50 vertices, planted
    cliques of 10, 9, 8, 7, 6, 5, 5 vertices and sparse cross edges, kept
    4-closed."""
    rng = random.Random(seed)
    for _ in range(count):
        order = rng.sample(range(50), 50)
        planted, start = [], 0
        for size in (10, 9, 8, 7, 6, 5, 5):
            planted += combinations(sorted(order[start:start + size]), 2)
            start += size
        yield random_c_closed_graph(50, 4, 0.06, rng.randrange(2 ** 31), base_edges=planted)


def restart_two_maximal_independent_set(g: Graph) -> frozenset[int]:
    """The swap-stable independent set by restarting: a greedy maximal set,
    then, while ``_find_swap`` finds a swap, the swap and a greedy pass over
    every vertex again. Each swap grows the set by one, so at most n passes
    run."""
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


# -- restart-from-the-top reference pipelines ----------------------------------
#
# The kernels below restart their rule list from the first rule after every
# change, which is the plain meaning of "exhaust the rules in order". With the
# full-scan white-removal rules they call, they are the references that the
# library's single ascending passes must match record for record.


def restart_rr_white_removal(inst, keep=frozenset()):
    """White removal with a dominator scan over every vertex; the smallest
    removable white outside ``keep`` goes."""
    assert inst.r is not None
    g = inst.graph
    black = inst.black_vertices()
    for w in sorted(inst.white_vertices()):
        if w in keep:
            continue
        demand = g.neighbors(w) & black
        dominators = 0
        for v in g.vertex_ids:
            if v == w:
                continue
            if demand <= (g.closed_neighborhood(v) & black):
                dominators += 1
                if dominators >= inst.r:
                    return RuleRecord(
                        rule="RR6",
                        vertices_removed=(w,),
                        payload={"white": w, "black_demand": sorted(demand)},
                    )
    return None


def restart_kernelize_bwtds(inst, c):
    r = inst.r
    if not inst.black_vertices():
        return Decided(inst, (), True, Witness.vertex_set((), Problem.BW_TDS))
    if inst.k == 0:
        return Decided(inst, (), False)
    if c == 1:
        return _decide_cluster_bwtds(inst)

    trace = []
    guard = 8 * (inst.graph.n + inst.k + 10)
    for _ in range(guard):
        if not inst.black_vertices():
            return Decided(inst, tuple(trace), True, Witness.vertex_set((), Problem.BW_TDS))
        record = rr_clique(inst, c, iter(maximal_cliques(inst.graph)))
        if record is None and r <= c - 1:
            for i in range(1, c - r + 1):
                cliques = iter(cliques_of_size(inst.graph, c - i))
                record = rr_common_neighborhood(inst, c, i, cliques)
                if record is not None:
                    break
        if record is None and r >= c and rr_clique_no(inst, c):
            return Decided(inst, tuple(trace), False)
        if record is None and rr_black_count(inst, c):
            return Decided(inst, tuple(trace), False)
        if record is None:
            record = restart_rr_white_removal(inst)
        if record is None:
            break
        inst = replay(inst, record)
        trace.append(record)
    else:
        raise ExtractionError("BW-TDS pipeline failed to reach a fixpoint")

    bound = per_vertex_black_bound(c, inst.k, r)
    assert len(inst.black_vertices()) <= inst.k * bound + inst.k
    reduced = Instance(
        problem=Problem.BW_TDS,
        graph=inst.graph,
        k=inst.k,
        r=r,
        coloring=inst.coloring,
        bipartition=inst.bipartition,
    )
    return Reduced(reduced, tuple(trace))


def restart_rr_white_leaf(inst):
    g = inst.graph
    black = inst.black_vertices()
    for w in sorted(inst.white_vertices()):
        hits = len(g.neighbors(w) & black)
        if hits <= 1:
            return RuleRecord(
                rule="RR9",
                vertices_removed=(w,),
                payload={"white": w, "black_neighbors": hits, "extended_zero_case": hits == 0},
            )
    return None


def restart_kernelize_bipartite_bwds(inst, c):
    original = inst
    trace = []
    forced = []
    while True:
        black = inst.black_vertices()
        if not black:
            witness = Witness.vertex_set(forced, Problem.BW_TDS)
            if not validate_witness(original, witness):
                raise ExtractionError("forced-vertex witness fails validation")
            return Decided(inst, tuple(trace), True, witness)
        if inst.k == 0:
            return Decided(inst, tuple(trace), False)
        record = _rr_high_degree(inst, c)
        if record is not None:
            forced.append(record.vertices_removed[0])
            inst = replay(inst, record)
            trace.append(record)
            continue
        if len(black) > c * inst.k * inst.k:
            return Decided(inst, tuple(trace), False)
        record = restart_rr_white_leaf(inst)
        if record is not None:
            inst = replay(inst, record)
            trace.append(record)
            continue
        break

    reduced = Instance(
        problem=Problem.BW_TDS,
        graph=inst.graph,
        k=inst.k,
        r=1,
        coloring=inst.coloring,
        bipartition=inst.bipartition.restricted_to(inst.graph) if inst.bipartition else None,
    )
    return Reduced(reduced, tuple(trace))


def restart_rr_simplicial_twin(inst):
    """RR16 by a pairwise scan of the simplicial vertices: the first pair
    (u, v), u < v, with equal closed neighborhoods loses v."""
    g = inst.graph
    simplicial = [v for v in g.vertex_ids if g.is_clique(g.neighbors(v))]
    closed = {v: g.closed_neighborhood(v) for v in simplicial}
    for i, u in enumerate(simplicial):
        for v in simplicial[i + 1:]:
            if closed[u] == closed[v]:
                return RuleRecord(
                    rule="RR16",
                    vertices_removed=(v,),
                    payload={"kept": u, "removed": v},
                )
    return None


def restart_kernelize_is(inst, c):
    k = inst.k
    if k == 0:
        return Decided(inst, (), True, Witness.vertex_set((), Problem.IS))
    g = inst.graph
    threshold = (c - 1) * (k - 1) + 1
    trace = []
    while True:
        target = next((v for v in g.vertex_ids if g.degree(v) >= threshold), None)
        if target is None:
            break
        g = g.without_vertices([target])
        trace.append(
            RuleRecord(rule="RR1", vertices_removed=(target,), payload={"degree_threshold": threshold})
        )
    reduced = Instance(problem=Problem.IS, graph=g, k=k)
    if g.n >= threshold * k:
        witness = Witness.vertex_set(_greedy_low_degree_is(g, k), Problem.IS)
        return Decided(reduced, tuple(trace), True, witness)
    return Reduced(reduced, tuple(trace))


def unpruned_rr_neighborhood_matching(inst, c):
    """RR10 with blossom run on every vertex's neighborhood, whatever its
    degree."""
    g = inst.graph
    need = 2 * c * inst.k
    for v in g.vertex_ids:
        m = max_matching_general(g.induced(g.neighbors(v)))
        if len(m) >= need:
            return RuleRecord(
                rule="RR10",
                vertices_removed=(v,),
                payload={"vertex": v, "neighborhood_matching": len(m)},
            )
    return None


def reference_rr_leaf_rules(inst, p):
    """RR13-RR15 stated per vertex, each leaf found by a degree scan over
    every vertex of the graph: the first LP-one vertex with two or more
    leaves keeps its smallest (RR13); else the first LP-zero v0 and then
    the first LP-one v1 != v0 without a leaf whose closed neighbourhood
    holds N[v0] gets a fresh leaf (RR14); else the first LP-zero vertex of
    degree at least 2 all of whose neighbours have a leaf goes (RR15)."""
    g = inst.graph

    def leaves_of(v):
        return [u for u in g.vertex_ids if g.degree(u) == 1 and g.has_edge(u, v)]

    def closed(v):
        return {u for u in g.vertex_ids if u == v or g.has_edge(u, v)}

    for v1 in sorted(p.v1):
        leaves = leaves_of(v1)
        if len(leaves) >= 2:
            return RuleRecord(
                rule="RR13",
                vertices_removed=tuple(leaves[1:]),
                payload={"kept_leaf": leaves[0], "anchor": v1},
            )
    for v0 in sorted(p.v0):
        for v1 in sorted(p.v1):
            if v1 != v0 and not leaves_of(v1) and closed(v0) <= closed(v1):
                leaf = max(g.vertex_ids) + 1
                return RuleRecord(
                    rule="RR14",
                    vertices_added=(leaf,),
                    edges_added=((leaf, v1),),
                    payload={"anchor": v1, "shadowed": v0},
                )
    for v0 in sorted(p.v0):
        nbrs = closed(v0) - {v0}
        if len(nbrs) >= 2 and all(leaves_of(u) for u in nbrs):
            return RuleRecord(rule="RR15", vertices_removed=(v0,), payload={"vertex": v0})
    return None


def restart_kernelize_im(inst, c):
    """The Induced Matching pipeline with its rounds written out: RR10 first,
    then the LP thresholds, the leaf rules and isolated-vertex removal on one
    LP solve per round."""
    if inst.problem is not Problem.IM:
        raise ValueError(f"expected an IM instance, got {inst.problem}")
    if not is_c_closed(inst.graph, c):
        raise ValueError("graph is not c-closed")
    if inst.k == 0:
        return Decided(inst, (), True, Witness.edge_set((), Problem.IM))
    if c == 1:
        return _decide_cluster_im(inst)

    original = inst
    trace = []
    guard = 20 * (inst.graph.n + inst.k + 10)
    for _ in range(guard):
        record = unpruned_rr_neighborhood_matching(inst, c)
        if record is not None:
            inst = replay(inst, record)
            trace.append(record)
            continue
        p = vclp_half_integral(inst.graph)
        witness = rr_lp_thresholds(inst, c, p)
        if witness is not None:
            return Decided(inst, tuple(trace), True, lift(original, trace, witness))
        record = rr_leaf_rules(inst, p)
        if record is None:
            isolated = inst.graph.isolated_vertices()
            if isolated:
                record = RuleRecord(rule="drop-isolated", vertices_removed=tuple(isolated))
        if record is None:
            break
        inst = replay(inst, record)
        trace.append(record)
    else:
        raise ExtractionError("IM pipeline failed to reach a fixpoint")

    assert partition_bound_violation(c, inst.k, p) is None
    reduced = Instance(problem=Problem.IM, graph=inst.graph, k=inst.k)
    return Reduced(reduced, tuple(trace))


def renumbered(
    g: Graph, coloring: Coloring | None = None, bipartition: Bipartition | None = None
) -> tuple[Graph, Coloring | None, Bipartition | None]:
    """``g`` rebuilt on 0..n-1 by sorted id, with the white vertices and the
    left side of ``g`` mapped along: the numbering ``serialize_graph`` writes."""
    rank = {v: i for i, v in enumerate(sorted(g.vertex_ids))}
    graph = Graph(rank.values(), [(rank[u], rank[v]) for u, v in g.edges()])
    if coloring is not None:
        coloring = Coloring(frozenset(rank[v] for v in coloring.white if v in rank))
    if bipartition is not None:
        bipartition = Bipartition(frozenset(rank[v] for v in bipartition.left if v in rank))
    return graph, coloring, bipartition


def reference_parse_graph(text: str) -> tuple[Graph, Coloring | None, Bipartition | None]:
    """The two-pass parser that ``graphio.parse_graph`` replaced: each
    endpoint through the field helpers, duplicates found in a set of edge
    keys, and the graph built from the collected edge list."""
    n: int | None = None
    edges: list[tuple[int, int]] = []
    seen_edges: set[tuple[int, int]] = set()
    colors: dict[int, str] = {}
    sides: dict[int, str] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "p":
            if n is not None:
                raise ParseError("duplicate p record", lineno)
            n = _int_field(fields, 1, lineno)
            if len(fields) != 2:
                raise ParseError("p record takes exactly one field", lineno)
            if n < 0:
                raise ParseError("vertex count must be nonnegative", lineno)
        elif tag == "e":
            if len(fields) != 3:
                raise ParseError("e record takes exactly two fields", lineno)
            u = _vertex_field(fields, 1, n, lineno)
            v = _vertex_field(fields, 2, n, lineno)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", lineno)
            key = (min(u, v), max(u, v))
            if key in seen_edges:
                raise ParseError(f"duplicate edge ({u}, {v})", lineno)
            seen_edges.add(key)
            edges.append(key)
        elif tag == "c":
            if len(fields) != 3 or fields[2] not in (BLACK, WHITE):
                raise ParseError("c record needs a vertex and black|white", lineno)
            u = _vertex_field(fields, 1, n, lineno)
            if u in colors:
                raise ParseError(f"duplicate color for vertex {u}", lineno)
            colors[u] = fields[2]
        elif tag == "b":
            if len(fields) != 3 or fields[2] not in (LEFT, RIGHT):
                raise ParseError("b record needs a vertex and left|right", lineno)
            u = _vertex_field(fields, 1, n, lineno)
            if u in sides:
                raise ParseError(f"duplicate side for vertex {u}", lineno)
            sides[u] = fields[2]
        else:
            raise ParseError(f"unknown record type {tag!r}", lineno)

    if n is None:
        raise ParseError("missing p record", None)
    g = Graph(range(n), edges)

    coloring = None
    if colors:
        coloring = Coloring(frozenset(u for u, col in colors.items() if col == WHITE))

    bipartition = None
    if sides:
        missing = [v for v in range(n) if v not in sides]
        if missing:
            raise ParseError(f"bipartition incomplete: vertex {missing[0]} has no side", None)
        bipartition = Bipartition(frozenset(u for u, s in sides.items() if s == LEFT))
        bipartition.validate(g)

    return g, coloring, bipartition


def _int_field(fields: list[str], idx: int, lineno: int) -> int:
    try:
        return int(fields[idx])
    except (IndexError, ValueError):
        raise ParseError(f"expected an integer in field {idx}", lineno) from None


def _vertex_field(fields: list[str], idx: int, n: int | None, lineno: int) -> int:
    if n is None:
        raise ParseError("vertex record before p record", lineno)
    u = _int_field(fields, idx, lineno)
    if not 0 <= u < n:
        raise ParseError(f"vertex {u} out of range [0, {n})", lineno)
    return u
