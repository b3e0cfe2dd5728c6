"""Irredundant Set kernelization: simplicial-twin removal plus a Ramsey-type
size threshold whose proof doubles as a witness extractor.

Privacy is checked against closed neighborhoods of the other members, as
everywhere in the library: the literal open-neighborhood reading would make
any adjacent pair in a clique vacuously irredundant.
"""

from __future__ import annotations

from .closure import common_neighborhood, require_c_closed
from .errors import ExtractionError, PreconditionError
from .graph import Graph
from .instances import (
    Bipartition,
    Decided,
    Instance,
    KernelOutcome,
    Problem,
    Reduced,
    RuleRecord,
    Witness,
    lift,
    replay_removals,
)
from .oracle import certified_witness, is_irredundant
from .ramsey import (
    IndependentSet,
    ceil_sqrt,
    clique_or_independent_set,
    im_dense_bipartite,
    ramsey_threshold,
)


def sweep_simplicial_twins(inst: Instance) -> list[RuleRecord]:
    """Exhaust RR16 (of two simplicial vertices with equal closed
    neighborhoods, the larger-id one goes) in one pass: the records of a
    loop that, until no twins are left, removes the smallest twin of the
    smallest simplicial vertex with a larger twin, as the pairwise scan in
    tests/helpers.py does.

    The simplicial vertices are found once and grouped by closed
    neighborhood. For each group, in ascending order of its smallest member
    u, one record removes each other member in ascending order and keeps u.

    This is the restart loop's sequence, because deleting a twin v of u
    changes no group but v's. It cannot make a vertex w simplicial: w would
    be adjacent to v, hence to u, with a neighbor y not adjacent to v; once
    N(w) - v is a clique, y is adjacent to u, so y lies in N[u] = N[v],
    which it does not. Nor can it make two different closed neighborhoods
    N[w] and N[x] equal: they would differ only in v, say v in N[w]; then u
    is in N[w] - v = N[x], so x lies in N[u] = N[v], which it does not.
    Deleting v keeps every simplicial vertex simplicial, and the members of
    a group all lose v or none does, so they stay twins.
    """
    g = inst.graph
    groups: dict[frozenset[int], list[int]] = {}
    for v in g.vertex_ids:
        if g.is_clique(g.neighbors(v)):
            groups.setdefault(g.closed_neighborhood(v), []).append(v)
    return [
        RuleRecord(rule="RR16", vertices_removed=(v,), payload={"kept": u, "removed": v})
        for u, *twins in groups.values()
        for v in twins
    ]


def irs_thresholds(c: int, k: int) -> tuple[int, int, int]:
    """(alpha', alpha, T): clique-side demand, Ramsey stage, and the global
    Yes threshold. alpha' uses the exact integer ceiling of 6*c^(3/2)*k."""
    alpha_prime = ceil_sqrt(36 * k * k * c ** 3) + 2 * c * k + 1
    alpha = ramsey_threshold(c, alpha_prime, k)
    total = ramsey_threshold(c, c * alpha + 1, k)
    return alpha_prime, alpha, total


def kernelize_irs(inst: Instance, c: int) -> KernelOutcome:
    """Exhaust twin removal with ``sweep_simplicial_twins``, whose one
    grouping of the simplicial vertices gives the records of restarting RR16
    after every removal (deleting a twin makes no vertex simplicial and no
    two closed neighborhoods equal), and apply them with one
    ``replay_removals``; any graph at the global threshold is a Yes, whose
    witness is lifted over the removals and certified on ``inst``."""
    if inst.problem is not Problem.IRS:
        raise ValueError(f"expected an IRS instance, got {inst.problem}")
    require_c_closed(inst.graph, c)
    if inst.k == 0:
        return Decided(inst, (), True, Witness.vertex_set((), Problem.IRS))
    trace = tuple(sweep_simplicial_twins(inst))
    reduced = replay_removals(inst, trace)
    _, _, total = irs_thresholds(c, inst.k)
    if reduced.graph.n >= total:
        witness = lift(inst, trace, extract_irs_witness(reduced.graph, c, inst.k))
        return Decided(reduced, trace, True, certified_witness(inst, witness))
    return Reduced(reduced, trace)


def extract_irs_witness(g: Graph, c: int, k: int) -> Witness:
    """A size-k irredundant set in a twin-free c-closed graph at the threshold.

    The Ramsey dichotomy either hands over an independent set (independent
    sets are irredundant) or a huge clique; walking the clique boundary picks
    clique vertices with pairwise-unshared outside neighbors, and a second
    dichotomy plus the dense-bipartite extractor turn those into k members
    whose outside partners are private.
    """
    if k == 0:
        return Witness.vertex_set((), Problem.IRS)
    if sweep_simplicial_twins(Instance(problem=Problem.IRS, graph=g, k=k)):
        raise PreconditionError("simplicial twins remain; exhaust RR16 first")
    alpha_prime, alpha, total = irs_thresholds(c, k)
    if g.n < total:
        raise PreconditionError(f"need at least {total} vertices, got {g.n}")

    outcome = clique_or_independent_set(g, c, c * alpha + 1, k)
    if isinstance(outcome, IndependentSet):
        return Witness.vertex_set(outcome.vertices, Problem.IRS)

    clique = _extend_to_maximal_clique(g, set(outcome.vertices))
    boundary = sorted(v for v in clique if g.neighbors(v) - clique)
    if len(clique) - len(boundary) > 1:
        raise ExtractionError("more than one all-clique vertex despite twin freeness")
    work = g.without_vertices(clique - set(boundary))

    xs: list[int] = []
    ys: list[int] = []
    banned: set[int] = set()
    for _ in range(alpha):
        candidates = [v for v in boundary if v not in banned]
        if not candidates:
            raise ExtractionError("clique boundary exhausted early")
        x = candidates[0]
        outside = sorted(work.neighbors(x) - clique)
        if not outside:
            raise ExtractionError("boundary vertex lost its outside neighbor")
        y = outside[0]
        xs.append(x)
        ys.append(y)
        banned |= work.neighbors(y)

    inner = clique_or_independent_set(g.induced(ys), c, alpha_prime, k)
    if isinstance(inner, IndependentSet):
        return Witness.vertex_set(inner.vertices, Problem.IRS)

    pair_of = {y: x for x, y in zip(xs, ys)}
    order = [i for i, y in enumerate(ys) if y in inner.vertices]
    kept = order[1:]  # drop the first matched pair; the rest avoid y_first
    xs_kept = [xs[i] for i in kept]
    ys_kept = [ys[i] for i in kept]
    cross = g.between(xs_kept, ys_kept)
    assert cross.max_degree() < c, "cross graph degree must stay below c"
    matching = im_dense_bipartite(cross, Bipartition(frozenset(xs_kept)), k)
    members = [v for e in matching.sorted_edges() for v in e if v in set(xs_kept)]
    if len(members) != k:
        raise ExtractionError("dense extractor returned a malformed matching")
    if not is_irredundant(g, members):
        raise ExtractionError("constructed member set is not irredundant")
    return Witness.vertex_set(members, Problem.IRS)


def _extend_to_maximal_clique(g: Graph, clique: set[int]) -> frozenset[int]:
    while extension := common_neighborhood(g, clique) - clique:
        clique.add(min(extension))
    return frozenset(clique)
