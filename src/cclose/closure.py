"""Closure analysis: how tightly common neighborhoods force adjacency.

A graph is c-closed if every nonadjacent vertex pair has fewer than c common
neighbors; the closure of a graph is the smallest such c. Both the closure
and the c-closed test count wedges (paths u-w-v) from each vertex, as in Fox,
Roughgarden, Seshadhri, Wei & Wein, *Finding cliques in social networks*
(SICOMP 2020): a pair with a common neighbor is at distance two, so the work
is O(sum of squared degrees) and pairs farther apart are never visited.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, combinations

from .errors import PreconditionError
from .graph import Graph


@dataclass(frozen=True)
class ClosureReport:
    """Closure value plus a maximizing nonadjacent pair (absent for c = 1)."""

    c: int
    witness_pair: tuple[int, int] | None

    def __post_init__(self):
        assert self.c >= 1
        assert (self.c > 1) == (self.witness_pair is not None)


def common_neighborhood(g: Graph, vertices: Iterable[int]) -> frozenset[int]:
    """Vertices adjacent to every one of ``vertices``.

    An empty input constrains nothing, so every vertex of ``g`` qualifies.
    """
    common: frozenset[int] | None = None
    for v in vertices:
        nbrs = g.neighbors(v)
        common = nbrs if common is None else common & nbrs
    return frozenset(g.vertex_ids) if common is None else common


def compute_closure(g: Graph) -> ClosureReport:
    """Exact closure by wedge counting.

    Graphs with fewer than two vertices, and complete graphs, have closure 1
    (the constraint set is empty). The witness pair is the lexicographically
    smallest maximizer. The cost is O(sum of squared degrees), so sparse
    graphs are fast. On dense graphs the tallies approach n^3 and cost more
    than a scan of all n^2 pairs with set intersections would (G(120, 0.9):
    about 45 ms against 6 ms); no workload has such graphs, so there is no
    switch on density.

    The report is memoized on ``g`` (graphs are immutable), so a kernel's
    ``is_c_closed`` precondition on the same graph costs no second scan.
    """
    best, pair = 0, None
    for best, pair in _record_pairs(g):
        pass
    g._closure = ClosureReport(c=best + 1, witness_pair=pair)
    return g._closure


def is_c_closed(g: Graph, c: int) -> bool:
    """True iff no nonadjacent pair has at least c common neighbors, that is,
    iff the closure of ``g`` is at most c.

    Answers from the closure memoized on ``g``, and runs ``compute_closure``
    first when there is none, so every later check of the same graph, at any
    c, is free. The full scan costs about what an early exit at the first
    violating pair does on a c-closed graph, which must be scanned whole
    either way.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    report = g._closure if g._closure is not None else compute_closure(g)
    return report.c <= c


def _record_pairs(g: Graph) -> Iterator[tuple[int, tuple[int, int]]]:
    """Yield rising records (shared, (u, v)): nonadjacent pairs u < v with
    common neighbours, each record beating the last.

    u ascends, and for one u only its best pair (smallest v on a tie) can be
    a record, so the last record is the lexicographically smallest
    maximizer. For each u, tallying the neighbourhoods of its neighbours
    gives |N(u) & N(v)| for every v within distance two; a vertex of degree
    at most the current record cannot share more neighbours with anyone and
    is skipped.
    """
    adj = {v: g.neighbors(v) for v in g.vertex_ids}
    best = 0
    for u, nbrs in adj.items():
        if len(nbrs) <= best:
            continue
        shared = Counter(chain.from_iterable(map(adj.__getitem__, nbrs)))
        beaten = [
            (-k, v) for v, k in shared.items() if k > best and v > u and v not in nbrs
        ]
        if beaten:
            negated, v = min(beaten)
            best = -negated
            yield best, (u, v)


def attach_simplicial(g: Graph, c: int, clique: frozenset[int] | set[int]) -> Graph:
    """Attach a fresh vertex whose neighborhood is exactly ``clique``.

    Closure-safe by construction: the clique must be maximal in ``g`` or have
    at most c - 1 vertices, and ``g`` itself must be c-closed; the result is
    then c-closed as well.
    """
    cset = set(clique)
    if not g.is_clique(cset):
        raise ValueError("attachment target is not a clique")
    if len(cset) > c - 1 and not _is_maximal_clique(g, cset):
        raise PreconditionError(
            "clique must be maximal or have at most c - 1 vertices"
        )
    if not is_c_closed(g, c):
        raise PreconditionError("host graph is not c-closed")
    v = g.fresh_id()
    return g.with_vertex(v).with_edges((v, u) for u in cset)


def _is_maximal_clique(g: Graph, clique: set[int]) -> bool:
    return not (common_neighborhood(g, clique) - clique)


def nonadjacent_pairs(g: Graph):
    """All nonadjacent vertex pairs, lexicographically."""
    for u, v in combinations(g.vertex_ids, 2):
        if not g.has_edge(u, v):
            yield u, v
