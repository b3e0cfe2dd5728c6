"""Ramsey-type thresholds and constructive witness extractors for c-closed
graphs.

The threshold formulas are exact integer arithmetic throughout; the only
fractional quantity, 6 * Delta^(3/2) * b, is evaluated as the least integer
t with t^2 >= 36 * b^2 * Delta^3 to keep thresholds platform-independent.
Every extractor returns a witness that is verified before being handed back;
a verification failure raises ExtractionError because the backing counting
arguments say it cannot happen.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from math import comb, isqrt

from .closure import require_c_closed
from .errors import ExtractionError, PreconditionError
from .graph import Graph
from .instances import Bipartition
from .matching import (
    Matching,
    bipartite_matching_with_cover,
    two_maximal_independent_set,
    validate_matching,
)
from .oracle import is_induced_matching


@dataclass(frozen=True)
class Clique:
    vertices: frozenset[int]


@dataclass(frozen=True)
class IndependentSet:
    vertices: frozenset[int]


def ceil_sqrt(x: int) -> int:
    """Smallest integer t with t*t >= x."""
    if x < 0:
        raise ValueError("ceil_sqrt of a negative number")
    root = isqrt(x)
    return root if root * root == x else root + 1


def ramsey_threshold(c: int, a: int, b: int) -> int:
    """Vertex count forcing a size-a clique or a size-b independent set.

    (c-1) * C(b-1, 2) + (a-1)(b-1) + 1, except that a = 1 is clamped to 1:
    a single vertex is already a clique of size one.
    """
    if c < 1 or a < 1 or b < 1:
        raise ValueError("c, a, b must be positive")
    if a == 1:
        return 1
    return (c - 1) * comb(b - 1, 2) + (a - 1) * (b - 1) + 1


def matching_threshold(c: int, b: int) -> int:
    """Matching size forcing an induced matching of size b (bipartite case)."""
    if c < 1 or b < 0:
        raise ValueError("c must be positive and b nonnegative")
    return 2 * c * b * b + 2 * b


def saturated_threshold(c: int, a: int, b: int) -> int:
    """Independent-set size forcing a size-a clique or size-b induced matching
    when the set is saturated by a matching."""
    return matching_threshold(c, ramsey_threshold(c, a, b))


def unrestricted_threshold(c: int, a: int, b: int) -> int:
    """Matching size forcing a size-a clique or size-b induced matching."""
    return saturated_threshold(c, a, ramsey_threshold(c, a, b))


def dense_bipartite_threshold(max_degree: int, b: int) -> int:
    """Non-isolated vertex count forcing a size-b induced matching in a
    bipartite graph: ceil(6 * Delta^(3/2) * b) + 2 * Delta * b."""
    if max_degree < 0 or b < 0:
        raise ValueError("arguments must be nonnegative")
    return 2 * max_degree * b + ceil_sqrt(36 * b * b * max_degree ** 3)


# -- Lemma-style extractors ----------------------------------------------------


def clique_or_independent_set(g: Graph, c: int, a: int, b: int) -> Clique | IndependentSet:
    """A size-a clique or size-b independent set in a c-closed graph with at
    least ramsey_threshold(c, a, b) vertices.

    Constructive version of the Ramsey bound: a 2-maximal independent set I
    either already has b members, or the private closed neighborhoods
    C_i = N[v_i] \\ N(I \\ {v_i}) are cliques (the swap property) and the
    counting argument forces one of them to hold a vertices. C_i is the part
    of N[v_i] that counts 1 in I's closed neighbourhood counts.
    """
    if c < 1 or a < 1 or b < 1:
        raise ValueError("c, a, b must be positive")
    require_c_closed(g, c)
    if g.n < ramsey_threshold(c, a, b):
        raise PreconditionError(
            f"need at least {ramsey_threshold(c, a, b)} vertices, got {g.n}"
        )
    if a == 1:
        return Clique(frozenset({g.vertex_ids[0]}))
    independent = two_maximal_independent_set(g)
    if len(independent) >= b:
        return IndependentSet(frozenset(sorted(independent)[:b]))
    counts = g.closed_neighborhood_counts(independent)
    for v in sorted(independent):
        private = [x for x in g.closed_neighborhood(v) if counts[x] == 1]
        if len(private) >= a:
            chosen = frozenset(sorted(private)[:a])
            if not g.is_clique(chosen):
                raise ExtractionError("private neighborhood is not a clique")
            return Clique(chosen)
    raise ExtractionError("Ramsey counting violated: no clique and no large IS")


def im_from_bounded_degree(g: Graph, m: Matching, b: int) -> Matching:
    """An induced matching of size b from a matching of size >= 2 * Delta * b.

    Peels matched edges in sorted order, deleting closed neighborhoods after
    each pick; each pick destroys at most 2 * Delta matched edges.
    """
    validate_matching(g, m)
    if b < 0:
        raise ValueError("b must be nonnegative")
    delta = g.max_degree()
    if len(m) < 2 * delta * b:
        raise PreconditionError(f"need a matching of size {2 * delta * b}, got {len(m)}")
    chosen = _peel(g, m.sorted_edges(), b)
    if len(chosen) < b:
        raise ExtractionError("peeling ran out of matched edges")
    return _verified_im(g, chosen)


def _peel(g: Graph, edges: Iterable[tuple[int, int]], b: int) -> list[tuple[int, int]]:
    """Up to b of ``edges``, taken in order, each skipped when an end lies in
    the closed neighborhood of an edge already taken."""
    chosen: list[tuple[int, int]] = []
    removed: set[int] = set()
    for u, v in edges:
        if len(chosen) == b:
            break
        if u in removed or v in removed:
            continue
        chosen.append((u, v))
        removed |= g.closed_neighborhood(u) | g.closed_neighborhood(v)
    return chosen


def im_from_high_degree(g: Graph, parts: Bipartition, c: int, b: int) -> Matching:
    """An induced matching of size b from 2b vertices of degree >= c * b in a
    c-closed bipartite graph.

    Picks b high-degree vertices on one side; pairwise common neighborhoods
    are below c, so each gets a private neighbor on the other side.
    """
    parts.validate(g)
    if b < 0:
        raise ValueError("b must be nonnegative")
    if b == 0:
        return Matching(frozenset())
    high = [v for v in g.vertex_ids if g.degree(v) >= c * b]
    left = parts.left_of(g)
    sides = []
    high_left = [v for v in high if v in left]
    high_right = [v for v in high if v not in left]
    for side in sorted((high_left, high_right), key=len, reverse=True):
        if len(side) >= b:
            sides.append(side)
    if not sides:
        # 2b high-degree vertices overall put b on one side by pigeonhole.
        raise PreconditionError(f"no side holds {b} vertices of degree >= {c * b}")
    last_error = None
    for candidates in sides:
        picked = sorted(candidates)[:b]
        try:
            return _assign_private_neighbors(g, picked)
        except ExtractionError as exc:  # possible only off the c-closed contract
            last_error = exc
    raise last_error


def _assign_private_neighbors(g: Graph, picked: list[int]) -> Matching:
    """Match each picked vertex, all on one side, to its least private
    neighbour: one that no other picked vertex sees."""
    counts = g.closed_neighborhood_counts(picked)
    edges = []
    for v in picked:
        private = [x for x in g.neighbors(v) if counts[x] == 1]
        if not private:
            raise ExtractionError(f"no private neighbor for vertex {v}")
        edges.append((v, min(private)))
    return _verified_im(g, edges)


def im_bipartite_from_matching(
    g: Graph, parts: Bipartition, c: int, m: Matching, b: int
) -> Matching:
    """An induced matching of size b in a c-closed bipartite graph holding a
    matching of size >= matching_threshold(c, b).

    Either enough high-degree vertices exist for the private-neighbor
    argument, or deleting the few high-degree vertices leaves a bounded-degree
    graph whose residual matching feeds the peeling argument.
    """
    parts.validate(g)
    validate_matching(g, m)
    if b < 0:
        raise ValueError("b must be nonnegative")
    if b == 0:
        return Matching(frozenset())
    if len(m) < matching_threshold(c, b):
        raise PreconditionError(
            f"need a matching of size {matching_threshold(c, b)}, got {len(m)}"
        )
    high = {v for v in g.vertex_ids if g.degree(v) >= c * b}
    if len(high) >= 2 * b:
        return im_from_high_degree(g, parts, c, b)
    residual = g.without_vertices(high)
    surviving = Matching(frozenset(e for e in m.edges if e[0] not in high and e[1] not in high))
    return im_from_bounded_degree(residual, surviving, b)


def clique_or_im_saturating(
    g: Graph, c: int, independent: frozenset[int], m: Matching, a: int, b: int
) -> Clique | Matching:
    """A size-a clique or size-b induced matching, given an independent set of
    size >= saturated_threshold(c, a, b) saturated by a matching.

    The bipartite graph between the set and the other matched endpoints holds
    a large induced matching; its far endpoints are then run through the
    Ramsey dichotomy, and an independent far side turns the matched edges
    into an induced matching of the host graph.
    """
    if a < 1 or b < 1:
        raise ValueError("a and b must be positive")
    independent = frozenset(independent)
    if not g.is_independent_set(independent):
        raise ValueError("given set is not independent")
    validate_matching(g, m)
    if not m.saturates(independent):
        raise ValueError("matching does not saturate the independent set")
    if len(independent) < saturated_threshold(c, a, b):
        raise PreconditionError(
            f"need an independent set of size {saturated_threshold(c, a, b)}, got {len(independent)}"
        )
    if a == 1:
        return Clique(frozenset({min(independent)}))
    cross = g.between(independent, m.vertices - independent)
    cross_parts = Bipartition(frozenset(independent))
    saturating = Matching(
        frozenset(e for e in m.edges if (e[0] in independent) != (e[1] in independent))
    )
    inner = im_bipartite_from_matching(
        cross, cross_parts, c, saturating, ramsey_threshold(c, a, b)
    )
    far_ends = sorted(next(iter(set(e) - independent)) for e in inner.edges)
    outcome = clique_or_independent_set(g.induced(far_ends), c, a, b)
    if isinstance(outcome, Clique):
        return outcome
    keep = outcome.vertices
    edges = [e for e in inner.sorted_edges() if set(e) & keep]
    return _verified_im(g, edges)


def clique_or_im(g: Graph, c: int, m: Matching, a: int, b: int) -> Clique | Matching:
    """A size-a clique or size-b induced matching from any matching of size
    >= unrestricted_threshold(c, a, b) in a c-closed graph.

    One endpoint of each matched edge is pushed to an artificial independent
    side (its internal edges dropped); the saturated extractor then yields an
    intermediate induced matching, whose independent-side endpoints are run
    through the Ramsey dichotomy to certify the final matching inside g.
    """
    if a < 1 or b < 1:
        raise ValueError("a and b must be positive")
    validate_matching(g, m)
    if len(m) < unrestricted_threshold(c, a, b):
        raise PreconditionError(
            f"need a matching of size {unrestricted_threshold(c, a, b)}, got {len(m)}"
        )
    if a == 1:
        return Clique(frozenset({min(m.vertices)}))
    low_side = frozenset(e[0] for e in m.edges)
    ends = m.vertices
    split = Graph(sorted(ends), [(u, v) for u, v in g.induced(ends).edges() if not {u, v} <= low_side])
    outcome = clique_or_im_saturating(split, c, low_side, m, a, ramsey_threshold(c, a, b))
    if isinstance(outcome, Clique):
        if not g.is_clique(outcome.vertices):
            raise ExtractionError("clique from the split graph is not a clique in g")
        return outcome
    near_of = {}
    for u, v in outcome.edges:
        near = u if u in low_side else v
        if near not in low_side:
            raise ExtractionError("intermediate matching edge misses the independent side")
        near_of[near] = (u, v)
    inner = clique_or_independent_set(g.induced(sorted(near_of)), c, a, b)
    if isinstance(inner, Clique):
        return inner
    edges = [near_of[x] for x in sorted(inner.vertices)]
    return _verified_im(g, edges)


def im_dense_bipartite(g: Graph, parts: Bipartition, b: int) -> Matching:
    """An induced matching of size b in a bipartite graph with at least
    ceil(6 * Delta^(3/2) * b) + 2 * Delta * b non-isolated vertices.

    Either the maximum matching feeds the peeling argument, or a König cover
    is small and peeling the edges between the cover side and the low-degree
    uncovered vertices, in sorted order, must reach b of them on one of the
    two sides.
    """
    parts.validate(g)
    if b < 0:
        raise ValueError("b must be nonnegative")
    if b == 0:
        return Matching(frozenset())
    live = [v for v in g.vertex_ids if g._adj[v]]
    delta = g.max_degree()
    if delta == 0:
        raise PreconditionError("graph has no edges")
    if len(live) < dense_bipartite_threshold(delta, b):
        raise PreconditionError(
            f"need {dense_bipartite_threshold(delta, b)} non-isolated vertices, got {len(live)}"
        )
    if b == 1:
        return _verified_im(g, [g.edges()[0]])
    core = g.induced(live)
    core_parts = Bipartition(parts.left_of(core))
    matching, cover = bipartite_matching_with_cover(core, core_parts)
    if len(matching) >= 2 * delta * b:
        return im_from_bounded_degree(core, matching, b)
    left = core_parts.left_of(core)
    right = core_parts.right_of(core)
    for near, far in ((left, right), (right, left)):
        covered_near = cover & near
        uncovered_far = far - cover
        counts = g.closed_neighborhood_counts(covered_near)
        low = {y for y in uncovered_far if counts[y] * counts[y] < delta}
        peeled = _peel(core, core.between(covered_near, low).edges(), b)
        if len(peeled) == b:
            return _verified_im(g, peeled)
    raise ExtractionError("dense bipartite counting violated: both sides failed")


def _verified_im(g: Graph, edges) -> Matching:
    if not is_induced_matching(g, edges):
        raise ExtractionError("constructed edge set is not an induced matching")
    return Matching.of(edges)
