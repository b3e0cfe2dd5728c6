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

from cclose import Graph, is_c_closed
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
    _assert_partition_bounds,
    _decide_cluster_im,
    lift_im_witness,
    rr_leaf_rules,
    rr_lp_thresholds,
)
from cclose.kernel_is import _greedy_low_degree_is
from cclose.matching import (
    VclpPartition,
    bipartite_matching_with_cover,
    double_cover,
    max_matching_general,
    vclp_half_integral,
)
from cclose.oracle import validate_witness


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


def kuhn_vclp(g: Graph) -> VclpPartition:
    """The vertex-cover LP from Kuhn's matching on the double cover, halved."""
    dg, parts = double_cover(g)
    _, cover = bipartite_matching_with_cover(dg, parts)
    v0, v1, v_half = set(), set(), set()
    for v in g.vertex_ids:
        (v0, v_half, v1)[(2 * v in cover) + (2 * v + 1 in cover)].add(v)
    cost = Fraction(2 * len(v1) + len(v_half), 2)
    return VclpPartition(frozenset(v0), frozenset(v1), frozenset(v_half), cost)


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


def brute_cliques_of_size(g: Graph, size: int) -> list[tuple[int, ...]]:
    """Every ``size``-subset that is a clique, in lexicographic order."""
    return [combo for combo in combinations(g.vertex_ids, size) if g.is_clique(combo)]


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
            g = g.with_edge(u, v)
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
            g = g.with_edge(u, v)
    return g, Bipartition(frozenset(left))


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(range(n), edges)


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
        return Decided(True, Witness.vertex_set((), Problem.BW_TDS))
    if inst.k == 0:
        return Decided(False)
    if c == 1:
        return _decide_cluster_bwtds(inst)

    trace = []
    guard = 8 * (inst.graph.n + inst.k + 10)
    for _ in range(guard):
        if not inst.black_vertices():
            return Decided(True, Witness.vertex_set((), Problem.BW_TDS))
        record = rr_clique(inst, c)
        if record is None and r <= c - 1:
            for i in range(1, c - r + 1):
                record = rr_common_neighborhood(inst, c, i)
                if record is not None:
                    break
        if record is None and r >= c and rr_clique_no(inst, c):
            return Decided(False)
        if record is None and rr_black_count(inst, c):
            return Decided(False)
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
        declared_closure=c,
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
            return Decided(True, witness)
        if inst.k == 0:
            return Decided(False)
        record = _rr_high_degree(inst, c)
        if record is not None:
            forced.append(record.vertices_removed[0])
            inst = replay(inst, record)
            trace.append(record)
            continue
        if len(black) > c * inst.k * inst.k:
            return Decided(False)
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
        declared_closure=c,
    )
    return Reduced(reduced, tuple(trace))


def restart_kernelize_is(inst, c):
    k = inst.k
    if k == 0:
        return Decided(True, Witness.vertex_set((), Problem.IS))
    g = inst.graph
    threshold = (c - 1) * (k - 1) + 1
    trace = []
    while True:
        target = next((v for v in g.vertex_ids if g.degree(v) >= threshold), None)
        if target is None:
            break
        g = g.without_vertex(target)
        trace.append(
            RuleRecord(rule="RR1", vertices_removed=(target,), payload={"degree_threshold": threshold})
        )
    if g.n >= threshold * k:
        return Decided(True, Witness.vertex_set(_greedy_low_degree_is(g, k), Problem.IS))
    reduced = Instance(problem=Problem.IS, graph=g, k=k, declared_closure=c)
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


def restart_kernelize_im(inst, c, require_witness=False):
    """The Induced Matching pipeline with its rounds written out: RR10 first,
    then the LP thresholds, the leaf rules and isolated-vertex removal on one
    LP solve per round."""
    if inst.problem is not Problem.IM:
        raise ValueError(f"expected an IM instance, got {inst.problem}")
    if not is_c_closed(inst.graph, c):
        raise ValueError("graph is not c-closed")
    if inst.k == 0:
        return Decided(True, Witness.edge_set((), Problem.IM))
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
        decided = rr_lp_thresholds(inst, c, p, require_witness)
        if decided is not None:
            witness = decided.witness
            if witness is not None:
                witness = lift_im_witness(original, witness, trace, require_witness)
            return Decided(decided.answer, witness)
        record = rr_leaf_rules(inst, c, p)
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

    _assert_partition_bounds(inst, c, p)
    reduced = Instance(problem=Problem.IM, graph=inst.graph, k=inst.k, declared_closure=c)
    return Reduced(reduced, tuple(trace))


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
