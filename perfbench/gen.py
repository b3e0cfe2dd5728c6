"""Seeded input generators owned by the benchmark.

Graphs are built as plain adjacency dicts from a ``random.Random``;
``to_graph`` turns them into ``cclose.Graph`` values at the end, so the
library's own generators are never used. The same seed always gives the
same graphs.
"""

from __future__ import annotations

import random
from itertools import combinations, cycle
from math import log

from cclose.graph import Graph

Adj = dict[int, set[int]]
CROSS_EDGES_PER_VERTEX = 1.5
COMMUNITY_ATTEMPTS = 100


def _empty(n: int) -> Adj:
    return {v: set() for v in range(n)}


def _add(adj: Adj, u: int, v: int) -> None:
    adj[u].add(v)
    adj[v].add(u)


def closure_of(adj: Adj) -> int:
    """Smallest c such that every nonadjacent pair has fewer than c common neighbours."""
    best = 0
    for u, v in combinations(sorted(adj), 2):
        if v not in adj[u]:
            best = max(best, len(adj[u] & adj[v]))
    return best + 1


def repair_closure(adj: Adj, c: int, limit: int | None = None) -> int:
    """Add edges until the graph is c-closed; returns the number added.

    Each sweep joins, in lexicographic order, every nonadjacent pair that
    still has at least c common neighbours. Sweeps repeat until one adds
    nothing, which terminates because edges only grow. With ``limit`` set,
    the repair gives up once it has added more than ``limit`` edges.
    """
    added = 0
    changed = True
    while changed:
        changed = False
        for u, v in combinations(sorted(adj), 2):
            if v not in adj[u] and len(adj[u] & adj[v]) >= c:
                _add(adj, u, v)
                added += 1
                changed = True
                if limit is not None and added > limit:
                    return added
    return added


def count_maximal_cliques(adj: Adj) -> int:
    """Number of maximal cliques, by Bron-Kerbosch with pivoting (an
    independent count to check the library's output against)."""
    count = 0
    stack = [(set(), set(adj), set())]
    while stack:
        r, p, x = stack.pop()
        if not p and not x:
            count += 1
            continue
        pivot = max(p | x, key=lambda v: len(adj[v] & p))
        for v in list(p - adj[pivot]):
            stack.append((r | {v}, p & adj[v], x & adj[v]))
            p.remove(v)
            x.add(v)
    return count


def community_graph(
    rng: random.Random,
    n: int,
    c: int,
    clique_sizes: tuple[int, ...] = (10, 9, 8, 7, 6, 5),
) -> Adj:
    """Planted cliques joined by sparse cross edges, repaired to closure
    exactly ``c``.

    Clique sizes follow ``clique_sizes`` and repeat, so every graph of one
    size has the same cliques; which vertices form each clique, and where
    the cross edges go, is random. A draw is redrawn when its repaired
    closure falls below ``c``, because the cost of the clique rules depends
    steeply on c, or when the repair cascades past 2n added edges, which
    turns a sparse community graph into a dense blob.
    """
    for _ in range(COMMUNITY_ATTEMPTS):
        adj = _empty(n)
        order = list(range(n))
        rng.shuffle(order)
        sizes = cycle(clique_sizes)
        start = 0
        while start < n:
            block = order[start:start + next(sizes)]
            start += len(block)
            for u, v in combinations(block, 2):
                _add(adj, u, v)
        added = 0
        while added < round(CROSS_EDGES_PER_VERTEX * n / 2):
            u, v = rng.sample(range(n), 2)
            if v not in adj[u]:
                _add(adj, u, v)
                added += 1
        if repair_closure(adj, c, limit=2 * n) <= 2 * n and closure_of(adj) == c:
            return adj
    raise ValueError(f"no {c}-closed community graph on {n} vertices in {COMMUNITY_ATTEMPTS} draws")


def gnp(rng: random.Random, n: int, p: float) -> Adj:
    """Erdos-Renyi G(n, p) for 0 < p < 1, sampled by geometric skips over the
    pairs (Batagelj and Brandes 2005) so that sparse graphs are cheap."""
    adj = _empty(n)
    lp = log(1.0 - p)
    v, w = 1, -1
    while v < n:
        w += 1 + int(log(1.0 - rng.random()) / lp)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            _add(adj, v, w)
    return adj


def bipartite_graph(rng: random.Random, n: int, avg_degree: float) -> tuple[Adj, frozenset[int]]:
    """A random bipartite graph: left side is 0..n/2-1, each cross pair an edge
    with probability avg_degree / (n/2). Returns the adjacency and the left side."""
    left = n // 2
    right = n - left
    adj = _empty(n)
    p = min(1.0, avg_degree / max(1, right))
    for u in range(left):
        for v in range(left, n):
            if rng.random() < p:
                _add(adj, u, v)
    return adj, frozenset(range(left))


def whites(rng: random.Random, n: int, share: float) -> frozenset[int]:
    """A random white set of round(share * n) vertices."""
    return frozenset(rng.sample(range(n), round(share * n)))


def to_graph(adj: Adj) -> Graph:
    return Graph(sorted(adj), [(u, v) for u in sorted(adj) for v in adj[u] if u < v])
