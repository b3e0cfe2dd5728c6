"""The branching solver for (Threshold) Dominating Set.

Each node recolors satisfied black vertices white, grabs a swap-stable
independent set of the blacks, and either branches on the vertices seeing
two of its members or finishes the leaf by brute force (plain Dominating Set
gets a free Yes at the leaf instead). Branching order is by vertex id, so
the reported witness is the one from the lexicographically least accepting
path.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations
from math import comb

from .cliques import maximal_cliques
from .closure import require_c_closed
from .errors import ExtractionError
from .graph import Graph
from .instances import Coloring, Instance, Problem, Witness, exhaust, lift
from .kernel_ds import all_black_twin, rr_clique, sweep_white_removal
from .matching import is_two_maximal, two_maximal_independent_set
from .oracle import certified_witness


def solve_tds(g: Graph, c: int, r: int, k: int) -> tuple[bool, Witness | None]:
    """Decide whether k vertices can dominate every vertex r times.

    The clique preprocessing rule runs first (skipped at c*k <= 1, where it
    would churn) under ``exhaust``, drawing from a single listing of the
    maximal cliques kept between calls: a firing whitens its clique Q and
    attaches a fresh black vertex to it, so black counts only fall and Q + u,
    which takes Q's place in the listing, holds one black vertex, below c*k.
    The records are those of restarting the rule after every firing. Only
    maximal cliques with at least c*k vertices are listed: a clique with
    fewer cannot hold c*k black vertices, and no firing makes one (it grows
    only Q, to Q + u, as ``kernel_ds.sweep_black_rules`` shows, which also
    shows that ``exhaust``'s guard cannot trip). The recursion then follows
    the branch/brute-force scheme, and ``lift`` maps its solution back over
    the RR2 records to a witness validated against the original graph.
    """
    return _solve(Instance(problem=Problem.TDS, graph=g, k=k, r=r), c)


def solve_ds(g: Graph, c: int, k: int) -> tuple[bool, Witness | None]:
    """Dominating Set fast path: no clique preprocessing, and a leaf whose
    independent set fits the budget is an immediate Yes."""
    return _solve(Instance(problem=Problem.DS, graph=g, k=k), c)


def _solve(original: Instance, c: int) -> tuple[bool, Witness | None]:
    """Search the all-black twin of a DS or TDS instance, running the clique
    rule first for TDS only, and certify the lifted witness against ``original``."""
    require_c_closed(original.graph, c)
    inst = all_black_twin(original)
    k = inst.k
    ds_mode = original.problem is Problem.DS
    rr2_trace = []
    if not ds_mode and c * k >= 2:
        rest = iter(maximal_cliques(inst.graph, c * k))
        inst, rr2_trace, _ = exhaust(inst, [lambda i: rr_clique(i, c, rest)])

    solution = _branch(inst, c, inst.r, k, set(), ds_mode)
    if solution is None:
        return False, None
    witness = lift(original, rr2_trace, Witness.vertex_set(solution, original.problem))
    return True, certified_witness(original, witness)


def _branch(
    inst: Instance, c: int, r: int, budget: int, partial: set[int], ds_mode: bool
) -> set[int] | None:
    """One node of the search tree; returns a full solution set or None.

    Each recursive call spends one unit of ``budget`` and a node at budget 0
    does not branch, so the recursion is at most k levels deep below the
    root, whatever the size of the graph.
    """
    g = inst.graph
    counts = g.closed_neighborhood_counts(partial)
    unsatisfied = frozenset(v for v in inst.black_vertices() if counts[v] < r)
    if not unsatisfied:
        return set(partial)
    if budget == 0:
        return None
    demanding = g.induced(unsatisfied)
    independent = two_maximal_independent_set(demanding)
    assert is_two_maximal(demanding, independent)

    if len(independent) >= budget + 1:
        chosen = set(sorted(independent)[: budget + 1])
        pool = [v for v in g.vertex_ids if len(g.neighbors(v) & chosen) >= 2]
        if len(pool) > (c - 1) * comb(budget + 1, 2):
            raise ExtractionError(
                "branching width exceeds the (c-1)*C(k'+1,2) bound"
            )
        for v in pool:
            if v in partial:
                continue
            result = _branch(inst, c, r, budget - 1, partial | {v}, ds_mode)
            if result is not None:
                return result
        return None

    if ds_mode:
        return set(partial) | set(independent)

    # TDS leaf: prune redundant whites (never touching the partial solution),
    # then try every extension of at most `budget` vertices, smallest first.
    leaf = replace(inst, k=budget, coloring=Coloring(frozenset(set(g.vertex_ids) - unsatisfied)))
    leaf, _ = sweep_white_removal(leaf, keep=partial)
    lg = leaf.graph
    remaining = [v for v in lg.vertex_ids if v not in partial]
    demands = leaf.black_vertices()
    for size in range(budget + 1):
        for extension in combinations(remaining, size):
            candidate = set(partial) | set(extension)
            counts = lg.closed_neighborhood_counts(candidate)
            if all(counts[v] >= r for v in demands):
                return candidate
    return None

