"""Clique listing: maximal cliques by Bron-Kerbosch with pivoting, cliques of
one fixed size by ordered neighbourhood extension."""

from __future__ import annotations

from .closure import compute_closure
from .graph import Graph


def maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    """All inclusion-maximal cliques, each sorted, in sorted order.

    Pivoting on a maximum-degree candidate keeps the recursion small; the
    output is canonicalized so callers can rely on a deterministic order.
    """
    out: list[tuple[int, ...]] = []
    adj = {v: g.neighbors(v) for v in g.vertex_ids}

    def expand(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            out.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda v: (len(adj[v] & p), -v))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    if g.n:
        expand(set(), set(g.vertex_ids), set())
    out.sort()
    return out


def cliques_of_size(g: Graph, size: int) -> list[tuple[int, ...]]:
    """All cliques with exactly ``size`` vertices, each sorted, in
    lexicographic order; size 0 yields the empty clique.

    Ordered neighbourhood extension (Chiba & Nishizeki; kClist): a partial
    clique carries its common neighbours with larger ids, in ascending order,
    and grows by each of them in turn, so the output comes out sorted without
    a sort. A branch stops once too few candidates remain to reach ``size``,
    and the recursion depth is ``size``, never the vertex count. Every clique
    is certified with ``Graph.is_clique`` before it is listed.
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    if size == 0:
        return [()]
    adj = {v: g.neighbors(v) for v in g.vertex_ids}
    out: list[tuple[int, ...]] = []

    def extend(clique: tuple[int, ...], candidates: list[int]) -> None:
        if len(clique) == size - 1:
            for v in candidates:
                found = clique + (v,)
                if not g.is_clique(found):
                    raise AssertionError(f"listed non-clique {found}")
                out.append(found)
            return
        need = size - len(clique)
        for i in range(len(candidates) - need + 1):
            v = candidates[i]
            nbrs = adj[v]
            extend(clique + (v,), [w for w in candidates[i + 1:] if w in nbrs])

    extend((), list(adj))
    return out


def clique_count_bound_holds(g: Graph) -> bool:
    """Check the clique-count bound 3^((c-1)/3) * n^2 for c-closed graphs.

    Compared exactly by cubing both sides, so no floating point is involved.
    """
    count = len(maximal_cliques(g))
    c = compute_closure(g).c
    return count ** 3 <= 3 ** (c - 1) * g.n ** 6
