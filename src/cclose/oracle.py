"""Exhaustive exact solvers used as ground truth for kernels and solvers.

Everything here enumerates vertex subsets over bitmasks, practical up to
roughly 16 vertices. Minimization problems scan subsets in size-ascending
combinatorial order and stop at the first hit; maximization problems scan
all masks. Both orders are deterministic.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import combinations

from .errors import ExtractionError, ResourceLimitError
from .graph import Graph
from .instances import EDGE_SET, VERTEX_SET, Coloring, Instance, Problem, Witness

DEFAULT_LIMIT = 16
HARD_LIMIT = 22


def _check_size(g: Graph, limit: int) -> None:
    if g.n > min(limit, HARD_LIMIT):
        raise ResourceLimitError(
            f"oracle limit is {min(limit, HARD_LIMIT)} vertices, got {g.n}"
        )


def _index(g: Graph) -> tuple[list[int], dict[int, int], list[int], list[int]]:
    """Sorted ids, id->bit mapping, open and closed neighborhood bitmasks."""
    ids = list(g.vertex_ids)
    pos = {v: i for i, v in enumerate(ids)}
    nbr = [0] * len(ids)
    for i, v in enumerate(ids):
        for w in g.neighbors(v):
            nbr[i] |= 1 << pos[w]
    cnbr = [nb | (1 << i) for i, nb in enumerate(nbr)]
    return ids, pos, nbr, cnbr


def oracle_is(g: Graph, limit: int = DEFAULT_LIMIT) -> int:
    """Maximum independent-set size."""
    _check_size(g, limit)
    _, _, nbr, _ = _index(g)
    n = g.n
    best = 0
    for mask in range(1 << n):
        if mask.bit_count() <= best:
            continue
        if _is_independent_mask(mask, nbr):
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


def oracle_vc(g: Graph, limit: int = DEFAULT_LIMIT) -> int:
    """Minimum vertex-cover size, by size-ascending subset scan."""
    _check_size(g, limit)
    ids, pos, _, _ = _index(g)
    edges = [(pos[u], pos[v]) for u, v in g.edges()]
    if not edges:
        return 0
    n = g.n
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            mask = 0
            for i in combo:
                mask |= 1 << i
            if all(mask & ((1 << a) | (1 << b)) for a, b in edges):
                return size
    raise AssertionError("unreachable: V covers all edges")


def oracle_ds(g: Graph, limit: int = DEFAULT_LIMIT) -> int:
    """Minimum dominating-set size."""
    result = oracle_tds(g, coloring=None, r=1, limit=limit)
    assert result is not None, "DS is always feasible (take all vertices)"
    return result


def oracle_tds(
    g: Graph,
    coloring: Coloring | None = None,
    r: int = 1,
    limit: int = DEFAULT_LIMIT,
) -> int | None:
    """Minimum size of a set r-dominating every black vertex, or None.

    With no coloring every vertex counts as black. Returns None when even
    D = V fails, i.e. some black vertex has a closed neighborhood smaller
    than r.
    """
    _check_size(g, limit)
    ids, pos, _, cnbr = _index(g)
    if coloring is None:
        black = list(range(g.n))
    else:
        black = [pos[v] for v in coloring.black_of(g)]
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


def oracle_im(g: Graph, limit: int = DEFAULT_LIMIT) -> int:
    """Maximum induced-matching size.

    A vertex subset hosts an induced matching of size |S|/2 exactly when
    every member has exactly one neighbor inside S.
    """
    _check_size(g, limit)
    _, _, nbr, _ = _index(g)
    n = g.n
    best = 0
    for mask in range(1 << n):
        size = mask.bit_count()
        if size <= 2 * best or size % 2:
            continue
        if _is_induced_matching_mask(mask, nbr):
            best = size // 2
    return best


def _is_induced_matching_mask(mask: int, nbr: list[int]) -> bool:
    m = mask
    while m:
        i = (m & -m).bit_length() - 1
        if (nbr[i] & mask).bit_count() != 1:
            return False
        m &= m - 1
    return True


def oracle_irs(g: Graph, open_privacy: bool = False, limit: int = DEFAULT_LIMIT) -> int:
    """Maximum irredundant-set size.

    Default semantics: every member v needs a private neighbor v' in N[v]
    with v' outside N[u] (closed) for every other member u. Pass
    ``open_privacy=True`` for the literal open-neighborhood variant, under
    which a member itself can serve as another member's private neighbor.
    """
    _check_size(g, limit)
    _, _, nbr, cnbr = _index(g)
    other = nbr if open_privacy else cnbr
    n = g.n
    best = 0
    for mask in range(1 << n):
        if mask.bit_count() <= best:
            continue
        if _is_irredundant_mask(mask, nbr, cnbr, other):
            best = mask.bit_count()
    return best


def _is_irredundant_mask(mask: int, nbr: list[int], cnbr: list[int], other: list[int]) -> bool:
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


# -- structural predicates ---------------------------------------------------


def r_dominates_blacks(g: Graph, d, coloring: Coloring | None, r: int) -> bool:
    dset = set(d)
    if not dset <= set(g.vertex_ids):
        return False
    black = coloring.black_of(g) if coloring is not None else g.vertex_ids
    return all(len(g.closed_neighborhood(v) & dset) >= r for v in black)


def is_induced_matching(g: Graph, edges) -> bool:
    pairs = [(min(u, v), max(u, v)) for u, v in edges]
    if len(set(pairs)) != len(pairs):
        return False
    ends: list[int] = []
    for u, v in pairs:
        if not g.has_edge(u, v):
            return False
        ends.extend((u, v))
    if len(set(ends)) != len(ends):
        return False
    endset = set(ends)
    partner = {}
    for u, v in pairs:
        partner[u] = v
        partner[v] = u
    for v in endset:
        if g.neighbors(v) & endset != {partner[v]}:
            return False
    return True


def is_irredundant(g: Graph, vs, open_privacy: bool = False) -> bool:
    members = set(vs)
    if not members <= set(g.vertex_ids):
        return False
    for v in members:
        blocked: set[int] = set()
        for u in members - {v}:
            blocked |= g.neighbors(u)
            if not open_privacy:
                blocked.add(u)
        if not g.closed_neighborhood(v) - blocked:
            return False
    return True


def validate_witness(inst: Instance, w: Witness) -> bool:
    """Problem-specific validity plus the budget check against the instance."""
    if w.problem is not inst.problem:
        raise ValueError(f"witness problem {w.problem} does not match instance {inst.problem}")
    g = inst.graph
    if w.kind == VERTEX_SET:
        if not set(w.elements) <= set(g.vertex_ids):
            return False
    if inst.problem is Problem.IS:
        return w.kind == VERTEX_SET and len(w.elements) >= inst.k and g.is_independent_set(w.elements)
    if inst.problem in (Problem.DS, Problem.TDS, Problem.BW_TDS):
        r = inst.r if inst.r is not None else 1
        return (
            w.kind == VERTEX_SET
            and len(w.elements) <= inst.k
            and r_dominates_blacks(g, w.elements, inst.coloring, r)
        )
    if inst.problem is Problem.IM:
        return w.kind == EDGE_SET and len(w.elements) >= inst.k and is_induced_matching(g, w.elements)
    if inst.problem is Problem.IRS:
        return w.kind == VERTEX_SET and len(w.elements) >= inst.k and is_irredundant(g, w.elements)
    raise AssertionError(f"unhandled problem {inst.problem}")


def certified_witness(
    inst: Instance, require: bool, extract: Callable[[], Witness]
) -> Witness | None:
    """The witness ``extract()`` builds, once ``validate_witness`` accepts it
    for ``inst``.

    An extractor that raises ``ExtractionError`` or ``ValueError``, or a
    witness that fails validation, gives None; with ``require`` set, the
    extractor's error is raised as it is, and a failed validation as an
    ``ExtractionError``.
    """
    try:
        witness = extract()
        if not validate_witness(inst, witness):
            raise ExtractionError(f"extracted {inst.problem.value} witness fails validation")
    except (ExtractionError, ValueError):
        if require:
            raise
        return None
    return witness


def oracle_answer(inst: Instance, limit: int = DEFAULT_LIMIT) -> bool:
    """The yes/no answer for an instance, straight from the oracles."""
    g, k = inst.graph, inst.k
    if inst.problem is Problem.IS:
        return oracle_is(g, limit) >= k
    if inst.problem is Problem.DS:
        return oracle_ds(g, limit) <= k
    if inst.problem in (Problem.TDS, Problem.BW_TDS):
        assert inst.r is not None
        opt = oracle_tds(g, inst.coloring, inst.r, limit)
        return opt is not None and opt <= k
    if inst.problem is Problem.IM:
        return oracle_im(g, limit) >= k
    if inst.problem is Problem.IRS:
        return oracle_irs(g, limit=limit) >= k
    raise AssertionError(f"unhandled problem {inst.problem}")
