"""(BW-)Threshold Dominating Set kernelization.

The colored pipeline bounds black vertices via clique and common-neighborhood
rules, prunes redundant white vertices, and finally trades the coloring for a
small clique gadget. The black-bounding rules, RR2 and then each stage
RR3.i in increasing i, each run under ``instances.exhaust`` as one rule that
draws from a single clique listing kept between calls: their records only
whiten vertices and attach a fresh black vertex to the fired clique, so no
clique the listing has passed, nor any clique through the fresh vertex, can
fire later, and no earlier rule fires again (``sweep_black_rules`` gives the
argument). White removal runs after them as one ascending pass: dropping a
white vertex changes no black set, clique black count or budget, so no
earlier rule can fire again and a white vertex that fails the rule keeps
failing it.
"""

from __future__ import annotations

from collections.abc import Iterator
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, replace
from math import comb

from .closure import common_neighborhood, compute_closure, require_c_closed
from .cliques import cliques_of_size, maximal_cliques
from .graph import Graph
from .instances import (
    WHITE,
    Bipartition,
    Coloring,
    Decided,
    Instance,
    KernelOutcome,
    Problem,
    Reduced,
    RuleRecord,
    Witness,
    exhaust,
    lift,
    replay,
    replay_removals,
)
from .oracle import certified_witness
from .ramsey import ramsey_threshold


@dataclass(frozen=True)
class HittingSetInstance:
    """A uniform set family with a hitting budget."""

    universe: tuple[int, ...]
    sets: tuple[frozenset[int], ...]
    set_size: int
    k: int

    def __post_init__(self):
        if len(set(self.universe)) != len(self.universe):
            raise ValueError("universe has duplicate elements")
        ground = set(self.universe)
        for s in self.sets:
            if len(s) != self.set_size:
                raise ValueError(f"set {sorted(s)} does not have size {self.set_size}")
            if not s <= ground:
                raise ValueError(f"set {sorted(s)} leaves the universe")


# -- individual rules ----------------------------------------------------------


def rr_clique(inst: Instance, c: int, cliques: Iterator[tuple[int, ...]]) -> RuleRecord | None:
    """A maximal clique holding at least c*k black vertices pins r solution
    vertices inside it: attach a fresh black simplicial vertex and whiten the
    clique. No-op (None) when no clique qualifies.

    ``cliques`` stands in for the maximal cliques of ``inst.graph``: the
    candidates left of an earlier listing, which may leave out those with
    fewer than c*k vertices. The rule takes them until one fires, so the
    next call resumes after it (see ``sweep_black_rules``).
    """
    g = inst.graph
    black = inst.black_vertices()
    need = c * inst.k
    for clique in cliques:
        in_black = [v for v in clique if v in black]
        if len(in_black) >= need:
            u = g.fresh_id()
            return RuleRecord(
                rule="RR2",
                vertices_added=(u,),
                edges_added=tuple((u, v) for v in clique),
                recolored=tuple((v, WHITE) for v in clique if v in black),
                payload={"clique": list(clique), "black_count": len(in_black)},
            )
    return None


def common_neighborhood_threshold(c: int, k: int, i: int) -> int:
    """The firing threshold of stage i of the common-neighborhood rule.

    The stated threshold k^(i-1) * rho is too tight: the inductive step
    needs head room for solution vertices dominating themselves and for the
    dominator found by pigeonhole not being its own common neighbor. The
    recurrence T_1 = rho, T_i = k * T_(i-1) + 2k restores the argument and
    keeps the same asymptotics.
    """
    rho = ramsey_threshold(c, c * k, k + 1)
    bound = rho
    for _ in range(i - 1):
        bound = k * bound + 2 * k
    return bound


def rr_common_neighborhood(
    inst: Instance, c: int, i: int, cliques: Iterator[tuple[int, ...]]
) -> RuleRecord | None:
    """Stage i of the common-neighborhood rule (applies when r <= c - 1).

    A clique of size exactly c - i whose common black neighborhood P exceeds
    the stage threshold gets a fresh black simplicial vertex; the clique and
    P turn white. Stages must be exhausted in increasing i. ``cliques``
    stands in for the (c - i)-cliques of ``inst.graph`` as in ``rr_clique``.
    """
    assert inst.r is not None and 1 <= i <= c - inst.r
    g = inst.graph
    black = inst.black_vertices()
    bound = common_neighborhood_threshold(c, inst.k, i)
    for clique in cliques:
        common = common_neighborhood(g, clique) & black
        if len(common) > bound:
            u = g.fresh_id()
            whitened = sorted(set(clique) & black | common)
            return RuleRecord(
                rule=f"RR3.{i}",
                vertices_added=(u,),
                edges_added=tuple((u, v) for v in clique),
                recolored=tuple((v, WHITE) for v in whitened),
                payload={"clique": list(clique), "common_black": sorted(common), "bound": bound},
            )
    return None


def rr_clique_no(inst: Instance, c: int) -> bool:
    """With r >= c, a (c-1)-clique with more than rho common black neighbors
    certifies a No-instance. Only cliques whose members each have more than
    rho black neighbors are checked (``_black_rich_cliques``, which lists
    none when there are at most rho black vertices)."""
    assert inst.r is not None and inst.r >= c
    g = inst.graph
    black = inst.black_vertices()
    rho = ramsey_threshold(c, c * inst.k, inst.k + 1)
    return any(
        len(common_neighborhood(g, clique) & black) > rho
        for clique in _black_rich_cliques(inst, c - 1, rho)
    )


def _black_rich_cliques(inst: Instance, size: int, bound: int) -> Iterator[tuple[int, ...]]:
    """The cliques of ``size`` in ``inst.graph``, in listing order, whose
    members each have more than ``bound`` black neighbors.

    The common black neighborhood of a clique lies in the black neighborhood
    of each member, so no other clique can have more than ``bound`` common
    black neighbors. The whole graph is listed, then filtered, unless the
    instance has at most ``bound`` black vertices: a common black
    neighborhood is a set of black vertices, so no clique can then have more
    than ``bound`` of them, and nothing is listed.
    """
    g = inst.graph
    black = inst.black_vertices()
    if len(black) <= bound:
        return iter(())
    rich = {v for v in g.vertex_ids if len(g.neighbors(v) & black) > bound}
    return filter(rich.issuperset, cliques_of_size(g, size))


def per_vertex_black_bound(c: int, k: int, r: int) -> int:
    """After the clique and common-neighborhood rules, the number of black
    neighbors any single vertex can have in a Yes-instance.

    Extends the exhaustion bounds downward from clique size min(r, c-1) to
    single vertices, with the same self-domination head room as the rule
    thresholds.
    """
    if r <= c - 1:
        size = r
        bound = common_neighborhood_threshold(c, k, c - r)
    else:
        size = c - 1
        bound = ramsey_threshold(c, c * k, k + 1)
    for _ in range(size - 1):
        bound = max(k * c + k, k * bound + 2 * k)
    return bound


def rr_black_count(inst: Instance, c: int) -> bool:
    """Too many black vertices is a certified No.

    Each solution vertex covers at most per_vertex_black_bound black
    neighbors plus itself. (The paper's k^c * rho cap forgets the self
    coverage and wrongly rejects boundary Yes-instances such as a 4-closed
    wheel-like graph on five black vertices with k = 1.) At k = 0, where
    the Ramsey bound is undefined, any black vertex is a No.
    """
    assert inst.r is not None
    bound = per_vertex_black_bound(c, inst.k, inst.r) if inst.k else 0
    return len(inst.black_vertices()) > inst.k * bound + inst.k


def sweep_black_rules(inst: Instance, c: int) -> tuple[Instance, list[RuleRecord]]:
    """Exhaust RR2 and then each stage RR3.1..RR3.(c-r) in increasing i, each
    with ``exhaust`` as one rule drawing from a single listing of its cliques
    kept between calls (needs c*k >= 2).

    The records are those of restarting from RR2 after every change. A
    record on clique Q whitens vertices and adds a fresh black u with
    N(u) = Q, so black counts and common black neighborhoods only shrink,
    except where u counts:
    - RR2: Q was maximal, so Q + u takes its place in the sorted listing and
      holds one black vertex, below c*k. The next firing is the first listed
      clique after Q that still qualifies.
    - RR3.i: u is a common neighbor only of subsets of Q, and the only
      candidate of size |Q| among them is Q, whose common blacks are now
      {u} alone, below every stage threshold; a clique through u has its
      common neighbors inside Q, all white. Q + u holds one black vertex, so
      RR2 stays exhausted, and earlier stages, whose cliques are larger than
      Q, gain nothing either.
    So every record leaves the rules before its own exhausted, and the
    candidates its listing has passed short of firing. Every record also
    adds a fresh black vertex, so black vertices never run out. The stage
    candidates are filtered by ``_black_rich_cliques`` when they are listed:
    the fresh u is the only black neighbor a member of Q gains, and only Q
    counts it, so the black neighbors of a member at listing time bound the
    common black neighborhood of each of its other cliques from then on.

    A stage lists nothing when the instance has at most ``bound`` black
    vertices (``_black_rich_cliques``), as no clique can then fire it.

    RR2 lists only the maximal cliques with at least c*k vertices: it fires
    only on a clique with c*k black vertices, so with c*k vertices at least.
    A firing on Q attaches u to exactly Q, and any other maximal clique Q'
    is not a subset of Q, so it cannot gain u; the maximal cliques change
    only from Q to Q + u. The bounded listing therefore yields the same
    firings in the same order as the full one.

    ``exhaust``'s 20*(n+k+10) guard cannot trip, n counted when each run
    starts: each RR2 firing whitens at least c*k >= 2 listed blacks, each
    RR3.i firing whitens more than ``bound`` >= 1 blacks that were present
    when the stage started, and a whitened vertex never turns black again,
    so a run fires at most n/2 times.
    """
    assert inst.r is not None and c * inst.k >= 2
    rest = iter(maximal_cliques(inst.graph, c * inst.k))
    inst, trace, _ = exhaust(inst, [lambda i: rr_clique(i, c, rest)])
    for stage in range(1, c - inst.r + 1):
        bound = common_neighborhood_threshold(c, inst.k, stage)
        rest = _black_rich_cliques(inst, c - stage, bound)
        inst, records, _ = exhaust(
            inst, [lambda i, stage=stage, rest=rest: rr_common_neighborhood(i, c, stage, rest)]
        )
        trace.extend(records)
    return inst, trace


def sweep_white_removal(
    inst: Instance, keep: AbstractSet[int] = frozenset()
) -> tuple[Instance, list[RuleRecord]]:
    """Exhaust white removal in one ascending pass over the whites outside
    ``keep``, then delete every removed white at once.

    A white vertex is dropped when r other vertices each dominate all of its
    black neighborhood. Dropping one changes no black set, so every other
    white keeps its demand and can only lose dominators: a white that fails
    the rule keeps failing it. The pass therefore yields exactly the records
    of removing the smallest removable white again and again, as
    ``tests/helpers.restart_rr_white_removal`` does.

    Every removal is decided on the input graph. The demand of a white is
    black, so removing other whites changes no surviving vertex's coverage
    of it: the dominators on the shrunken graph are those on the input
    minus the whites already removed, and an empty demand, which every other
    vertex dominates, has n - |removed| - 1 of them. The records are then
    applied by one ``replay_removals``.
    """
    black = inst.black_vertices()
    removed: set[int] = set()
    trace: list[RuleRecord] = []
    for w in sorted(inst.white_vertices() - keep):
        record = _rr_white_removal_at(inst, black, w, removed)
        if record is not None:
            removed.add(w)
            trace.append(record)
    return replay_removals(inst, trace), trace


def _rr_white_removal_at(
    inst: Instance, black: AbstractSet[int], w: int, removed: AbstractSet[int]
) -> RuleRecord | None:
    """White removal tried on the white vertex ``w`` of the graph left after
    deleting the whites in ``removed`` from ``inst.graph``.

    A vertex v dominates a nonempty demand D exactly when v is in N[d] for
    every d in D, so the dominators are the intersection of those closed
    neighborhoods, less w and the whites already removed; an empty demand is
    dominated by every other vertex.
    """
    assert inst.r is not None
    g = inst.graph
    demand = g.neighbors(w) & black
    if demand:
        common = frozenset.intersection(*map(g.closed_neighborhood, demand))
        dominators = len(common.difference(removed, (w,)))
    else:
        dominators = g.n - len(removed) - 1
    if dominators < inst.r:
        return None
    return RuleRecord(
        rule="RR6",
        vertices_removed=(w,),
        payload={"white": w, "black_demand": sorted(demand)},
    )


# -- the colored pipeline --------------------------------------------------------


def kernelize_bwtds(inst: Instance, c: int) -> KernelOutcome:
    """Exhaust RR2 and then RR3.1..RR3.(c-r) with ``sweep_black_rules``, one
    clique listing per rule; then run the r >= c No-check and the
    black-count check once, and finally white removal as one ascending pass.

    The records are those of restarting from RR2 after every change, as
    ``tests/helpers.restart_kernelize_bwtds`` does (``sweep_black_rules``
    gives the argument). White removal changes no maximal clique's black
    count, no clique's common black neighborhood, no black count and no
    budget, so none of the earlier rules or checks can change its verdict
    after it; the result is the fixpoint of all the rules in the stated
    order.
    """
    if inst.problem is not Problem.BW_TDS:
        raise ValueError(f"expected a BW-TDS instance, got {inst.problem}")
    assert inst.r is not None
    require_c_closed(inst.graph, c)
    r = inst.r
    if not inst.black_vertices():
        return Decided(inst, (), True, Witness.vertex_set((), Problem.BW_TDS))
    if inst.k == 0:
        return Decided(inst, (), False)
    if c == 1:
        return _decide_cluster_bwtds(inst)

    inst, trace = sweep_black_rules(inst, c)
    if r >= c and rr_clique_no(inst, c) or rr_black_count(inst, c):
        return Decided(inst, tuple(trace), False)
    inst, removals = sweep_white_removal(inst)
    trace.extend(removals)
    assert not rr_black_count(inst, c)
    return Reduced(inst, tuple(trace))


def _decide_cluster_bwtds(inst: Instance) -> Decided:
    """Exact decision for 1-closed (cluster) graphs.

    Every black vertex sees exactly its own clique component, so each
    component holding a black vertex needs r of its vertices, independently.
    The clique rule would churn forever at c*k = 1, hence this fast path.
    """
    assert inst.r is not None
    g, r = inst.graph, inst.r
    black = inst.black_vertices()
    witness: list[int] = []
    for comp in g.components():
        if comp & black:
            if len(comp) < r:
                return Decided(inst, (), False)
            witness.extend(sorted(comp)[:r])
    if len(witness) > inst.k:
        return Decided(inst, (), False)
    return Decided(inst, (), True, certified_witness(inst, Witness.vertex_set(witness, Problem.BW_TDS)))


# -- color removal ----------------------------------------------------------------


def uncolor_gadget(inst: Instance) -> tuple[Instance, RuleRecord]:
    """Replace the coloring with a clique gadget; returns the gadget instance
    and the record whose ``replay`` on ``inst`` gives it.

    A fresh (r+1)-clique is added; its first r members are wired to every
    white vertex, and the budget grows by r. The last gadget vertex has
    degree exactly r, which forces the other r into any solution that avoids
    it, covering the whites for free, as ``instances.lift`` uses. The
    closure of the result may exceed the input's and is recomputed.
    """
    if inst.problem is not Problem.BW_TDS:
        raise ValueError(f"expected a BW-TDS instance, got {inst.problem}")
    assert inst.r is not None and inst.coloring is not None
    g, r = inst.graph, inst.r
    base = g.fresh_id()
    clique = tuple(range(base, base + r + 1))
    clique_edges = [(clique[i], clique[j]) for i in range(r + 1) for j in range(i + 1, r + 1)]
    white_edges = tuple(
        (w, clique[i]) for w in sorted(inst.white_vertices()) for i in range(r)
    )
    edges = tuple(clique_edges) + white_edges
    closure = compute_closure(g.with_vertices(clique).with_edges(edges)).c
    record = RuleRecord(
        rule="gadget",
        vertices_added=clique,
        edges_added=edges,
        k_delta=r,
        payload={"uncolor": True, "clique": list(clique), "declared_closure": closure},
    )
    return replay(inst, record), record


def all_black_twin(inst: Instance) -> Instance:
    """The BW-TDS instance of a DS or TDS instance: every vertex black, r = 1
    for DS. A kernel run on the twin has its trace replay from the twin."""
    return replace(inst, problem=Problem.BW_TDS, r=inst.r or 1, coloring=Coloring())


def kernelize_ds(inst: Instance, c: int) -> KernelOutcome:
    """Dominating Set: color everything black, run the colored pipeline with
    r = 1, then remove colors with the gadget."""
    if inst.problem is not Problem.DS:
        raise ValueError(f"expected a DS instance, got {inst.problem}")
    outcome = kernelize_bwtds(all_black_twin(inst), c)
    if isinstance(outcome, Decided):
        return replace(outcome, witness=outcome.witness and replace(outcome.witness, problem=Problem.DS))
    gadget_inst, record = uncolor_gadget(outcome.instance)
    return Reduced(gadget_inst, outcome.trace + (record,))


# -- bipartite pipeline (r = 1) ----------------------------------------------------


def kernelize_bipartite_bwds(inst: Instance, parts: Bipartition, c: int) -> KernelOutcome:
    """BW-Dominating Set on bipartite graphs: high-degree vertices are forced
    into the solution, too many blacks is a No, and whites with at most one
    black neighbor are dropped.

    Dropping a white vertex changes no vertex's black-neighbor count, so it
    cannot make RR7 fire and fixes every white's RR9 verdict: RR7 is
    exhausted first, then RR9 runs as one ascending pass that decides every
    white on the instance RR7 left and applies all the removals with one
    ``replay_removals``. RR7 fires on no vertex once the blacks are gone or
    the budget is spent, so both verdicts can wait until it is exhausted.
    The kernel runs on ``inst.on_sides(parts)``, so ``inst.bipartition``
    must be None or ``parts``, and a reduction carries ``parts``.
    """
    if inst.problem is not Problem.BW_TDS or inst.r != 1:
        raise ValueError("expected a BW-TDS instance with r = 1")
    inst = inst.on_sides(parts)
    require_c_closed(inst.graph, c)

    original = inst
    inst, trace, _ = exhaust(inst, [lambda i: _rr_high_degree(i, c)])
    black = inst.black_vertices()
    if not black:
        forced = lift(original, trace, Witness.vertex_set((), Problem.BW_TDS))
        return Decided(inst, tuple(trace), True, certified_witness(original, forced))
    # Strictly more than c*k^2 blacks: k vertices, each covering at most
    # c*k - 1 black neighbors plus themselves, cannot dominate them all; at
    # k = 0 that is any black. (Exactly c*k^2 can still be a Yes: one
    # isolated black vertex at c = k = 1.)
    if len(black) > c * inst.k * inst.k:
        return Decided(inst, tuple(trace), False)
    counts = inst.graph.closed_neighborhood_counts(black)
    leaves = [_rr_white_leaf(w, counts[w]) for w in sorted(inst.white_vertices()) if counts[w] <= 1]
    inst = replay_removals(inst, leaves)
    trace.extend(leaves)
    assert inst.graph.n <= bipartite_kernel_bound(c, inst.k), "bipartite kernel bound"
    return Reduced(inst, tuple(trace))


def bipartite_kernel_bound(c: int, k: int) -> int:
    """The vertex bound of the bipartite BW-DS kernel: at most c*k^2 blacks,
    and every white RR9 keeps has two black neighbours on one side, a
    non-adjacent pair that fewer than c vertices share in a c-closed graph."""
    return c * k * k + c * comb(c * k * k, 2)


def _rr_high_degree(inst: Instance, c: int) -> RuleRecord | None:
    """RR7: a vertex with at least c*k black neighbors is in every solution.
    No-op at k = 0, where no vertex can be taken."""
    if inst.k == 0:
        return None
    g = inst.graph
    black = inst.black_vertices()
    need = c * inst.k
    for v in g.vertex_ids:
        hit = g.neighbors(v) & black
        if len(hit) >= need:
            return RuleRecord(
                rule="RR7",
                recolored=tuple((w, WHITE) for w in sorted(hit)),
                vertices_removed=(v,),
                k_delta=-1,
                payload={"vertex": v, "black_neighbors": len(hit)},
            )
    return None


def _rr_white_leaf(w: int, hits: int) -> RuleRecord:
    """RR9, extended, on the white vertex ``w`` with ``hits`` <= 1 black
    neighbors: a white vertex with at most one black neighbor goes.

    The stated rule says "only one", but a white vertex with no black
    neighbor is equally redundant and the white-count bound needs it gone;
    the extension is flagged in the payload.
    """
    return RuleRecord(
        rule="RR9",
        vertices_removed=(w,),
        payload={"white": w, "black_neighbors": hits, "extended_zero_case": hits == 0},
    )


# -- hardness-construction generator -------------------------------------------------


def hitting_set_to_ds(hs: HittingSetInstance) -> Instance:
    """The lower-bound reduction as an instance generator.

    The universe becomes a clique; each set becomes a degree-lambda vertex
    wired to its elements. The output is (lambda+1)-closed and its DS answer
    matches the hitting-set answer.
    """
    universe = list(hs.universe)
    base = max(universe, default=-1) + 1
    set_ids = list(range(base, base + len(hs.sets)))
    edges = [
        (universe[i], universe[j])
        for i in range(len(universe))
        for j in range(i + 1, len(universe))
    ]
    for sid, members in zip(set_ids, hs.sets):
        edges.extend((u, sid) for u in sorted(members))
    g = Graph(universe + set_ids, edges)
    return Instance(problem=Problem.DS, graph=g, k=hs.k)
