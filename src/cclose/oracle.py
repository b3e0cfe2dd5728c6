"""Exhaustive exact solvers used as ground truth for kernels and solvers.

Everything here works on bitmasks over the sorted vertex ids, and every
oracle refuses a graph of more than ``LIMIT`` = 16 vertices with
``ResourceLimitError``. DS and TDS scan subsets in size-ascending
combinatorial order and stop at the first hit. The scan starts at the least
size whose largest black coverages |N[v] ∩ B| add up to r·|B|: every
r-dominating set D has Σ_{v∈D} |N[v] ∩ B| = Σ_{b∈B} |N[b] ∩ D| >= r·|B|, so
no smaller size can hit, and the answer is that of a scan from 0. A
candidate's mask is the sum of single-bit masks, and it is tested against
the black vertices' closed neighbourhood masks with C-level ``map``/``all``,
the demand with the fewest possible dominators first; the order and the
answers are those of a scan that builds each mask bit by bit. The
maximization problems (IS, IM, IRS) share one ordered-extension search: a
set grows only by items above its largest, in ascending order, and only
while it keeps its property, and a branch stops once its size plus the items
left cannot beat the best size found. All three properties are hereditary,
so the search is exact; ``oracle_answer`` stops it at the first set of size
k. Both orders are deterministic.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import accumulate, combinations

from .errors import ExtractionError, ResourceLimitError
from .graph import Graph
from .instances import EDGE_SET, VERTEX_SET, Coloring, Instance, Problem, Witness

# The most vertices any oracle takes: every scan is exponential in n.
LIMIT = 16


def _check_size(g: Graph) -> None:
    if g.n > LIMIT:
        raise ResourceLimitError(f"oracle limit is {LIMIT} vertices, got {g.n}")


def _index(g: Graph) -> tuple[dict[int, int], list[int], list[int]]:
    """The id->bit mapping over the sorted ids, and the open and closed
    neighborhood bitmasks."""
    ids = list(g.vertex_ids)
    pos = {v: i for i, v in enumerate(ids)}
    nbr = [0] * len(ids)
    for i, v in enumerate(ids):
        for w in g.neighbors(v):
            nbr[i] |= 1 << pos[w]
    cnbr = [nb | (1 << i) for i, nb in enumerate(nbr)]
    return pos, nbr, cnbr


# A search space for ``_reaches``: the root state, the bitmask of items a set
# may start from, and the step that adds item i to a set. The step gets the
# set's state and ``rest``, the candidates above i; it returns the grown
# set's state and the items of ``rest`` the grown set can still take. Dropping
# the others for good is exact only because the property is hereditary: an
# item that a set cannot take, no superset of it can take either.
Grow = Callable[[object, int, int], tuple[object, int]]
Space = tuple[object, int, Grow]


def _reaches(space: Space, k: int) -> bool:
    """Whether the ordered extension reaches a set of ``k`` items, k >= 1.

    A frame is a set (its state and size) with the candidates it may still
    take. It grows by its lowest candidate and stays on the stack with the
    others for the sibling branches; it is cut once its size plus its
    candidates falls short of k. The stack holds one frame per member of
    the current set, plus one, so its size is bounded by the oracle's size
    limit.
    """
    state, cands, grow = space
    stack = [(state, 0, cands)]
    while stack:
        state, size, cands = stack.pop()
        if size + cands.bit_count() < k:
            continue
        if size + 1 == k:
            return True  # any candidate completes the set
        low = cands & -cands
        rest = cands ^ low
        stack.append((state, size, rest))
        grown, grown_cands = grow(state, low.bit_length() - 1, rest)
        stack.append((grown, size + 1, grown_cands))
    return False


def _pairwise_space(conflict: list[int]) -> Space:
    """Sets of pairwise non-conflicting items: item i rules out ``conflict[i]``."""
    return None, (1 << len(conflict)) - 1, lambda _, i, rest: (None, rest & ~conflict[i])


def _is_space(g: Graph) -> Space:
    _, _, cnbr = _index(g)
    return _pairwise_space(cnbr)


def _im_conflicts(g: Graph) -> list[int]:
    """The conflict mask of each edge of ``g``, the edges in (min, max) order:
    edge ab rules out every edge with an end in N[a] ∪ N[b].

    The edges are read off the neighbourhood bitmasks, each row above its
    own bit. ``touching[x]`` holds the edges at x, and ``reach[x]`` the
    edges with an end in N[x], which is touching[x] or'ed with touching[y]
    for each edge xy. An edge has an end in N[a] ∪ N[b] exactly when it
    has one in N[a] or one in N[b], so ab's mask is reach[a] | reach[b]:
    the masks, and the oracle's answers, are those of an or over every
    vertex of N[a] ∪ N[b], at O(n + m) steps for all of them."""
    _, nbr, _ = _index(g)
    edges = []
    for a, row in enumerate(nbr):
        above = row >> a + 1
        while above:
            low = above & -above
            edges.append((a, a + low.bit_length()))
            above ^= low
    touching = [0] * g.n
    for e, (a, b) in enumerate(edges):
        touching[a] |= 1 << e
        touching[b] |= 1 << e
    reach = touching.copy()
    for a, b in edges:
        reach[a] |= touching[b]
        reach[b] |= touching[a]
    return [reach[a] | reach[b] for a, b in edges]


def _im_space(g: Graph) -> Space:
    """Induced matchings as sets of edges, in (min, max) order: an edge rules
    out every edge with an end in the closed neighbourhood of its ends."""
    return _pairwise_space(_im_conflicts(g))


def _irs_space(g: Graph) -> Space:
    """Irredundant sets. A set's state is each member's private candidates
    (its closed neighbourhood outside every other member's closed
    neighbourhood) and the union of the members' closed neighbourhoods."""
    _, _, cnbr = _index(g)

    def grow(state: tuple[list[int], int], i: int, rest: int) -> tuple[object, int]:
        privates, blocked = state
        privates = [p & ~cnbr[i] for p in privates]
        privates.append(cnbr[i] & ~blocked)
        blocked |= cnbr[i]
        keep = 0
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            if cnbr[j] & ~blocked and all(p & ~cnbr[j] for p in privates):
                keep |= low
            rest ^= low
        return (privates, blocked), keep

    return ([], 0), (1 << g.n) - 1, grow


def _counting_start(cnbr: list[int], black: list[int], r: int) -> int:
    """The least s whose s largest black coverages |N[v] ∩ B| add up to at
    least r·|B|, for demands that D = V meets.

    Double counting makes it a lower bound on every feasible size: a set D
    that r-dominates B has r·|B| <= Σ_{b∈B} |N[b] ∩ D| = Σ_{v∈D} |N[v] ∩ B|,
    and no |D| coverages add up to more than the |D| largest. At r = 1 with
    every vertex black it is the bound γ(G) >= ⌈n/(Δ+1)⌉ or better.
    """
    blacks = sum(1 << b for b in black)
    coverages = sorted(((c & blacks).bit_count() for c in cnbr), reverse=True)
    need = r * len(black)
    return next(s for s, total in enumerate(accumulate(coverages, initial=0)) if total >= need)


def oracle_ds(g: Graph) -> int:
    """Minimum dominating-set size."""
    result = oracle_tds(g)
    assert result is not None, "DS is always feasible (take all vertices)"
    return result


def oracle_tds(g: Graph, coloring: Coloring | None = None, r: int = 1) -> int | None:
    """Minimum size of a set r-dominating every black vertex, or None.

    With no coloring every vertex counts as black. Returns None when even
    D = V fails, i.e. some black vertex has a closed neighborhood smaller
    than r. An r below 1 raises ``ValueError``, as in ``solve_tds``.

    The scan starts at ``_counting_start``, not at 0: the black coverages
    |N[v] ∩ B| of any r-dominating set add up to at least r·|B|, so no set
    below that size can hit, and the first hit, and the value, are those
    of a scan from 0.
    """
    if r < 1:
        raise ValueError("r must be positive")
    _check_size(g)
    pos, _, cnbr = _index(g)
    if coloring is None:
        black = list(range(g.n))
    else:
        black = [pos[v] for v in coloring.black_of(g)]
    if not black:
        return 0
    if any(cnbr[b].bit_count() < r for b in black):
        return None
    # Hardest demand first: the black vertex with the fewest possible
    # dominators rejects most candidates, and ``all`` ignores the order.
    demands = sorted((cnbr[b] for b in black), key=int.bit_count)
    bits = [1 << i for i in range(g.n)]
    for size in range(_counting_start(cnbr, black, r), g.n + 1):
        for combo in combinations(bits, size):
            mask = sum(combo)
            hits = map(mask.__and__, demands)
            if r > 1:
                hits = map(r.__le__, map(int.bit_count, hits))
            if all(hits):
                return size
    raise AssertionError("unreachable: D = V is feasible")


# -- structural predicates ---------------------------------------------------


def r_dominates_blacks(g: Graph, d, coloring: Coloring | None, r: int) -> bool:
    """Whether ``d`` is a set of vertices of ``g`` whose closed
    neighbourhood counts reach r at every black vertex."""
    dset = set(d)
    if not all(map(g.has_vertex, dset)):
        return False
    black = coloring.black_of(g) if coloring is not None else g.vertex_ids
    counts = g.closed_neighborhood_counts(dset)
    return all(counts[v] >= r for v in black)


def is_induced_matching(g: Graph, edges) -> bool:
    """Whether ``edges``, any iterable of pairs, is an induced matching of
    ``g``: its pairs have 2·|edges| distinct ends, and the row of each end
    meets the ends in exactly its partner. A repeated or reversed pair, a
    self pair, a non-edge and an id outside the graph all fail."""
    pairs = list(edges)
    partner = {u: v for u, v in pairs} | {v: u for u, v in pairs}
    if len(partner) != 2 * len(pairs):
        return False
    ends = set(partner)
    return all(g.has_vertex(x) and g.neighbors(x) & ends == {y} for x, y in partner.items())


def is_irredundant(g: Graph, vs) -> bool:
    """Whether ``vs`` are vertices of ``g`` that each have a private closed
    neighbour: a vertex of their closed neighbourhood seen by no other
    member, whose count is therefore 1."""
    members = set(vs)
    if not all(map(g.has_vertex, members)):
        return False
    counts = g.closed_neighborhood_counts(members)
    return all(any(counts[x] == 1 for x in g.closed_neighborhood(v)) for v in members)


def validate_witness(inst: Instance, w: Witness) -> bool:
    """Problem-specific validity plus the budget check against the instance."""
    if w.problem is not inst.problem:
        raise ValueError(f"witness problem {w.problem} does not match instance {inst.problem}")
    kind, valid, space = _SOLUTIONS[inst.problem]
    if w.kind != kind or kind == VERTEX_SET and not set(w.elements) <= set(inst.graph.vertex_ids):
        return False
    within = len(w.elements) >= inst.k if space else len(w.elements) <= inst.k
    return within and valid(inst, w.elements)


def certified_witness(inst: Instance, witness: Witness) -> Witness:
    """``witness``, once ``validate_witness`` accepts it for ``inst``; a
    witness that fails validation raises ``ExtractionError``."""
    if not validate_witness(inst, witness):
        raise ExtractionError(f"extracted {inst.problem.value} witness fails validation")
    return witness


# What a solution of each problem is: its witness kind, whether a witness's
# elements are valid on an instance, and the search space of a maximization
# problem, whose witness has at least k elements (the DS family's: at most k).
_DOMINATION = (VERTEX_SET, lambda i, vs: r_dominates_blacks(i.graph, vs, i.coloring, i.r or 1), None)
_SOLUTIONS = {
    Problem.IS: (VERTEX_SET, lambda i, vs: i.graph.is_independent_set(vs), _is_space),
    Problem.DS: _DOMINATION,
    Problem.TDS: _DOMINATION,
    Problem.BW_TDS: _DOMINATION,
    Problem.IM: (EDGE_SET, lambda i, edges: is_induced_matching(i.graph, edges), _im_space),
    Problem.IRS: (VERTEX_SET, lambda i, vs: is_irredundant(i.graph, vs), _irs_space),
}


def oracle_answer(inst: Instance) -> bool:
    """The yes/no answer for an instance, straight from the oracles. A
    maximization problem's search stops at the first set of size k; the DS
    family compares the least r-dominating set with k, where a DS instance
    has no coloring and no r, which makes it TDS at r = 1."""
    g, k = inst.graph, inst.k
    space = _SOLUTIONS[inst.problem][2]
    if space is not None:
        _check_size(g)
        return k == 0 or _reaches(space(g), k)
    opt = oracle_tds(g, inst.coloring, inst.r or 1)
    return opt is not None and opt <= k
