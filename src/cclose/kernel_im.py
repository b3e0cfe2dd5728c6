"""Induced Matching kernelization via the vertex-cover LP.

The pipeline destroys large cliques (neighborhoods with big matchings), caps
the LP partition classes by Ramsey-type thresholds, and cleans up the
LP-zero vertices with leaf rules. The LP split is solution-dependent, so it
is recomputed after every structural change, each solve growing the last
one's matching; each rule is correct for any optimal half-integral
solution, which makes refreshing safe.
"""

from __future__ import annotations

from collections.abc import Mapping
from math import comb

from .closure import require_c_closed
from .errors import ExtractionError
from .instances import (
    Bipartition,
    Decided,
    Instance,
    KernelOutcome,
    Problem,
    Reduced,
    RuleRecord,
    Witness,
    exhaust,
    lift,
    replay_removals,
)
from .matching import Matching, VclpPartition, crown_from_vclp, max_matching_general, vclp_half_integral
from .oracle import certified_witness
from .ramsey import (
    Clique,
    clique_or_im,
    clique_or_im_saturating,
    dense_bipartite_threshold,
    im_dense_bipartite,
    im_from_high_degree,
    saturated_threshold,
    unrestricted_threshold,
)


def rr_neighborhood_matching(inst: Instance, c: int) -> RuleRecord | None:
    """RR10: drop the smallest vertex whose neighborhood holds a maximum
    matching of size at least 2*c*k.

    A matching inside N(v) has at most deg(v)/2 edges, so a vertex of degree
    below twice the target is skipped without running blossom on its
    neighborhood; the same vertex fires, with the same payload, as in a scan
    of every neighborhood."""
    g = inst.graph
    adj = g._adj
    need = 2 * c * inst.k
    for v in g.vertex_ids:
        if len(adj[v]) < 2 * need:
            continue
        m = max_matching_general(g.induced(g.neighbors(v)))
        if len(m) >= need:
            return RuleRecord(
                rule="RR10",
                vertices_removed=(v,),
                payload={"vertex": v, "neighborhood_matching": len(m)},
            )
    return None


def rr_lp_thresholds(inst: Instance, c: int, p: VclpPartition) -> Witness | None:
    """RR11/RR12: a huge half class or one class certifies a Yes, whose
    extracted witness is returned validated on ``inst``.

    The thresholds are astronomically large for c, k >= 2.
    """
    g, k = inst.graph, inst.k
    a = 4 * c * k + 1
    half_bound, one_bound = _lp_bounds(c, k)
    if len(p.v_half) >= half_bound:
        m = max_matching_general(g.induced(p.v_half))
        witness = _im_witness(clique_or_im(g, c, m, a, k))
    elif len(p.v1) >= one_bound:
        m = crown_from_vclp(g, p)
        witness = _im_witness(clique_or_im_saturating(g, c, p.v0 & m.vertices, m, a, k))
    else:
        return None
    return certified_witness(inst, witness)


def _lp_bounds(c: int, k: int) -> tuple[int, int]:
    """RR11's bound on |V_half| and RR12's on |V_1|: a partition reaching
    either holds a size-k induced matching. Both are 0 at k = 0, where the
    empty matching is one."""
    if k == 0:
        return 0, 0
    a = 4 * c * k + 1
    return 3 * unrestricted_threshold(c, a, k), saturated_threshold(c, a, k)


def _im_witness(outcome: Clique | Matching) -> Witness:
    """An extracted induced matching as a witness. A clique of 4ck + 1
    vertices puts a matching of 2ck edges in each member's neighbourhood,
    which RR10 removes, so a clique outcome means an extractor went wrong."""
    if isinstance(outcome, Clique):
        raise ExtractionError("clique branch fired after the matching rule")
    return Witness.edge_set(outcome.edges, Problem.IM)


def rr_leaf_rules(inst: Instance, p: VclpPartition) -> RuleRecord | None:
    """The first applicable of the three LP-zero cleanup rules.

    RR13 trims duplicate leaves of an LP-one vertex; RR14 attaches a leaf to
    an LP-one vertex that dominates an LP-zero closed neighborhood; RR15
    drops an LP-zero non-leaf all of whose neighbors carry leaves.

    RR13's scan collects the leaves next to V1, and they are every leaf
    RR14 and RR15 look for: RR14 asks about LP-one vertices, and RR15 about
    neighbours of V0, which a feasible LP solution puts in V1.
    """
    g = inst.graph
    v1_leaves: set[int] = set()
    for v1 in sorted(p.v1):
        leaves = sorted(u for u in g.neighbors(v1) if g.degree(u) == 1)
        if len(leaves) > 1:
            return RuleRecord(
                rule="RR13",
                vertices_removed=tuple(leaves[1:]),
                payload={"kept_leaf": leaves[0], "anchor": v1},
            )
        v1_leaves.update(leaves)
    for v0 in sorted(p.v0):
        n0 = g.closed_neighborhood(v0)
        for v1 in sorted(p.v1):
            if v0 == v1 or not n0 <= g.closed_neighborhood(v1):
                continue
            if not g.neighbors(v1).isdisjoint(v1_leaves):
                continue
            leaf = g.fresh_id()
            return RuleRecord(
                rule="RR14",
                vertices_added=(leaf,),
                edges_added=((leaf, v1),),
                payload={"anchor": v1, "shadowed": v0},
            )
    for v0 in sorted(p.v0):
        if g.degree(v0) < 2:
            continue
        if all(not g.neighbors(v1).isdisjoint(v1_leaves) for v1 in g.neighbors(v0)):
            return RuleRecord(rule="RR15", vertices_removed=(v0,), payload={"vertex": v0})
    return None


def kernelize_im(inst: Instance, c: int) -> KernelOutcome:
    """The full pipeline: RR10, then the LP rules on a fresh LP solve, to a
    fixpoint. 1-closed graphs are decided outright by counting non-trivial
    clique components.

    The first LP solve starts from a Karp–Sipser matching of the double
    cover, and each later one is warm-started from the previous round's
    maximum matching; ``vclp_half_integral`` keeps the pairs whose
    vertices and edge survive the round's record. The partition does not
    depend on the matching it is read from (Dulmage–Mendelsohn), so the
    rounds see the partitions of cold solves, and a round after a small
    removal costs about one search phase instead of a whole solve."""
    if inst.problem is not Problem.IM:
        raise ValueError(f"expected an IM instance, got {inst.problem}")
    require_c_closed(inst.graph, c)
    if inst.k == 0:
        return Decided(inst, (), True, Witness.edge_set((), Problem.IM))
    if c == 1:
        return _decide_cluster_im(inst)

    original = inst
    matching: Mapping[int, int] = {}

    def lp_stage(i: Instance) -> Witness | RuleRecord | None:
        nonlocal matching
        p = vclp_half_integral(i.graph, matching)
        matching = p.matching
        return _lp_stage(i, c, p)

    rules = [lambda i: rr_neighborhood_matching(i, c), lp_stage]
    inst, trace, witness = exhaust(inst, rules)
    if witness is not None:
        witness = certified_witness(original, lift(original, trace, witness))
        return Decided(inst, tuple(trace), True, witness)
    return Reduced(inst, tuple(trace))


def _lp_stage(inst: Instance, c: int, p: VclpPartition) -> Witness | RuleRecord | None:
    """The round's LP solve ``p`` feeds RR11/RR12, then the leaf rules, then
    the removal of isolated vertices. When none fires, the instance is
    reduced and the same solve checks the partition bounds."""
    witness = rr_lp_thresholds(inst, c, p)
    if witness is not None:
        return witness
    record = rr_leaf_rules(inst, p)
    if record is None and (isolated := inst.graph.isolated_vertices()):
        record = RuleRecord(rule="drop-isolated", vertices_removed=tuple(isolated))
    if record is None:
        assert partition_bound_violation(c, inst.k, p) is None
    return record


def partition_bound_violation(c: int, k: int, p: VclpPartition) -> str | None:
    """The first size bound that the LP partition ``p`` of a reduced graph
    breaks, named, or None when it keeps all three."""
    half_bound, one_bound = _lp_bounds(c, k)
    if len(p.v_half) >= half_bound:
        return "V_half bound violated"
    if len(p.v1) >= one_bound:
        return "V_1 bound violated"
    if len(p.v0) > len(p.v1) + c * comb(len(p.v1), 2):
        return "V_0 bound violated"
    return None


def _decide_cluster_im(inst: Instance) -> Decided:
    """1-closed graphs are disjoint cliques: the answer is whether at least k
    components have an edge, one matched edge per such component."""
    g = inst.graph
    chosen: list[tuple[int, int]] = []
    for comp in g.components():
        if len(comp) >= 2 and len(chosen) < inst.k:
            members = sorted(comp)
            chosen.append((members[0], members[1]))
    if len(chosen) >= inst.k:
        return Decided(inst, (), True, certified_witness(inst, Witness.edge_set(chosen, Problem.IM)))
    return Decided(inst, (), False)


# -- bipartite kernels ------------------------------------------------------------


# The modes of ``kernelize_im_bipartite``, each with whether it reads c.
BIPARTITE_MODES = {"delta": False, "closure": True}


def kernelize_im_bipartite(
    inst: Instance,
    parts: Bipartition,
    mode: str = "delta",
    c: int | None = None,
) -> KernelOutcome:
    """Size-threshold kernels for bipartite graphs.

    Both modes end in one density test: enough non-isolated vertices in
    ``rest`` for the dense-bipartite bound force a Yes. In delta mode rest
    is g and the bound reads its maximum degree. In closure mode 2k
    vertices of degree >= c*k give the matching directly (private
    neighbours); otherwise rest is g without them, of maximum degree below
    c*k, and the bound reads c*k. The kernel runs on
    ``inst.on_sides(parts)``, so ``inst.bipartition`` must be None or
    ``parts``; a reduction is that instance without its isolated vertices,
    bipartition and all.
    """
    if inst.problem is not Problem.IM:
        raise ValueError(f"expected an IM instance, got {inst.problem}")
    inst = inst.on_sides(parts)
    g, k = inst.graph, inst.k
    if k == 0:
        return Decided(inst, (), True, Witness.edge_set((), Problem.IM))

    if mode == "delta":
        high, bound = (), g.max_degree()
    elif mode == "closure":
        if c is None:
            raise ValueError("closure mode needs c")
        require_c_closed(g, c)
        high, bound = [v for v in g.vertex_ids if len(g._adj[v]) >= c * k], c * k
    else:
        raise ValueError(f"unknown mode {mode!r} (expected 'delta' or 'closure')")
    if len(high) >= 2 * k:
        matching = im_from_high_degree(g, parts, c, k)
    else:
        rest = g.without_vertices(high) if high else g
        live = [v for v in rest.vertex_ids if rest._adj[v]]
        if not live or len(live) < dense_bipartite_threshold(bound, k):
            return _reduced_drop_isolated(inst)
        matching = im_dense_bipartite(rest, parts, k)
    return Decided(inst, (), True, certified_witness(inst, _im_witness(matching)))


def _reduced_drop_isolated(inst: Instance) -> Reduced:
    isolated = inst.graph.isolated_vertices()
    trace = (RuleRecord(rule="drop-isolated", vertices_removed=tuple(isolated)),) if isolated else ()
    return Reduced(replay_removals(inst, trace), trace)
