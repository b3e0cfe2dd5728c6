"""Closure analysis: how tightly common neighborhoods force adjacency.

A graph is c-closed if every nonadjacent vertex pair has fewer than c common
neighbors; the closure of a graph is the smallest such c. The pair scan here
is the reference implementation that everything else is checked against.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import combinations

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


def common_neighbors(g: Graph, u: int, v: int) -> frozenset[int]:
    """N(u) ∩ N(v) for two distinct vertices."""
    if u == v:
        raise ValueError("common_neighbors needs two distinct vertices")
    return g.neighbors(u) & g.neighbors(v)


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
    """Exact closure by scanning all nonadjacent pairs.

    Graphs with fewer than two vertices, and complete graphs, have closure 1
    (the constraint set is empty). The witness pair is the lexicographically
    smallest maximizer.
    """
    best = 0
    best_pair: tuple[int, int] | None = None
    ids = g.vertex_ids
    for i, u in enumerate(ids):
        nbrs_u = g.neighbors(u)
        for v in ids[i + 1:]:
            if v in nbrs_u:
                continue
            shared = len(nbrs_u & g.neighbors(v))
            if shared > best:
                best = shared
                best_pair = (u, v)
    return ClosureReport(c=best + 1, witness_pair=best_pair)


def is_c_closed(g: Graph, c: int) -> bool:
    """True iff no nonadjacent pair has at least c common neighbors."""
    if c <= 0:
        raise ValueError("c must be positive")
    ids = g.vertex_ids
    for i, u in enumerate(ids):
        nbrs_u = g.neighbors(u)
        for v in ids[i + 1:]:
            if v not in nbrs_u and len(nbrs_u & g.neighbors(v)) >= c:
                return False
    return True


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
