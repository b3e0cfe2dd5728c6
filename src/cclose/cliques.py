"""Clique listing: maximal cliques by Bron-Kerbosch with pivoting, cliques of
one fixed size by ordered neighbourhood extension."""

from __future__ import annotations

from collections.abc import Iterator
from itertools import repeat

from .graph import Graph

# The row a non-vertex is read as, so that it fails the listing certificate.
_NO_ROW: frozenset[int] = frozenset()


def maximal_cliques(g: Graph, min_size: int = 0) -> list[tuple[int, ...]]:
    """All inclusion-maximal cliques with at least ``min_size`` vertices, each
    sorted, in sorted order.

    Bron-Kerbosch with pivoting on an explicit stack, so the depth is bounded
    by memory rather than by the recursion limit: a complete graph, which is
    1-closed, stacks one frame per vertex. The pivot is a candidate with the
    most neighbours in P, the smallest id on a tie; candidates are tried in
    ascending id and the first to reach the most any could have is taken, so
    a near-complete P costs one intersection rather than |P|. The output is
    canonicalized so callers can rely on a deterministic order.

    Every clique found below a frame (R, P, X) is R plus part of P, so a child
    frame with |R| + |P| < ``min_size`` is dropped (the size bound of Tomita &
    Seki's branch and bound). Its vertex still moves from P to X, so the
    maximality test of every other frame is the unbounded one, and the output
    is the full listing filtered to cliques of at least ``min_size`` vertices.
    """
    out: list[tuple[int, ...]] = []
    adj = {v: g.neighbors(v) for v in g.vertex_ids}

    def branches(p: set[int], x: set[int]) -> Iterator[int]:
        most = len(p) if x else len(p) - 1
        pivot, best = None, -1
        for u in sorted(p | x):
            count = len(adj[u] & p)
            if count > best:
                pivot, best = u, count
                if count == most:
                    break
        return iter(sorted(p - adj[pivot]))

    if not adj:
        return out
    p = set(adj)
    stack = [((), p, set(), branches(p, set()))]
    while stack:
        r, p, x, todo = stack[-1]
        v = next(todo, None)
        if v is None:
            stack.pop()
            continue
        grown, p_v, x_v = r + (v,), p & adj[v], x & adj[v]
        p.remove(v)
        x.add(v)
        if len(grown) + len(p_v) < min_size:
            continue
        if p_v:
            stack.append((grown, p_v, x_v, branches(p_v, x_v)))
        elif not x_v:
            out.append(tuple(sorted(grown)))
    out.sort()
    return out


def cliques_of_size(g: Graph, size: int) -> list[tuple[int, ...]]:
    """All cliques with exactly ``size`` vertices, each sorted, in
    lexicographic order; size 0 yields the empty clique.

    Ordered neighbourhood extension (Chiba & Nishizeki; kClist): a partial
    clique carries its common neighbours with larger ids, in ascending order,
    and grows by each of them in turn, so the output comes out sorted without
    a sort. A branch from vertex v starts from v's larger neighbours, sorted,
    so the first level costs deg(v), not a scan of every later vertex; a
    branch stops once too few candidates remain to reach ``size``. The search
    runs on an explicit stack of (clique, candidates, next index) frames,
    depth first, so a clique of any size costs memory, not recursion depth.
    A non-empty clique two short of ``size`` pushes no frame per candidate:
    one loop pairs each candidate with the later candidates in its row,
    which lists its last two levels in the same order.
    The whole graph is listed, and each frame that yields cliques is
    certified once before they are listed: ``Graph.is_clique`` on its clique,
    each candidate's row against that clique in one pass, and, two short of
    ``size``, each listed pair v < w against w's row. These are the rows that
    ``Graph.is_clique`` would read for each listed clique, so a one-sided
    row or a non-vertex still raises ``AssertionError``.
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    if size == 0:
        return [()]
    adj = {v: g.neighbors(v) for v in g.vertex_ids}
    out: list[tuple[int, ...]] = []
    stack: list[tuple[tuple[int, ...], list[int], int]] = [((), list(adj), 0)]
    while stack:
        clique, candidates, i = stack.pop()
        pairs: list[tuple[int, int]] = []
        if len(clique) == size - 1:
            found = [clique + (v,) for v in candidates]
        elif clique and len(clique) == size - 2:
            pairs = [
                (v, w)
                for j, v in enumerate(candidates)
                for w in candidates[j + 1:]
                if w in adj[v]
            ]
            found = [clique + pair for pair in pairs]
        else:
            if i + size - len(clique) <= len(candidates):
                v = candidates[i]
                nbrs = adj[v]
                stack.append((clique, candidates, i + 1))
                if clique:
                    larger = [w for w in candidates[i + 1:] if w in nbrs]
                else:
                    larger = sorted(w for w in nbrs if w > v)
                stack.append((clique + (v,), larger, 0))
            continue
        if not found:
            continue
        if not (
            g.is_clique(clique)
            and all(map(frozenset.issuperset, map(adj.get, candidates, repeat(_NO_ROW)), repeat(clique)))
            and all(v in adj[w] for v, w in pairs)
        ):
            raise AssertionError(f"listed a non-clique in the frame of {clique}")
        out.extend(found)
    return out
