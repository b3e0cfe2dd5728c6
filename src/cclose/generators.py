"""Deterministic instance generators.

All randomness flows from a single integer seed through ``random.Random``
(the Mersenne Twister), so identical parameters reproduce identical edge
sets on every platform.
"""

from __future__ import annotations

import random
from itertools import combinations

from .closure import is_c_closed
from .graph import Graph


def disjoint_cliques(count: int, size: int) -> Graph:
    """A disjoint union of ``count`` cliques, each on ``size`` vertices.

    With count = b - 1 and size = a - 1 this is the tight example showing the
    c-closed Ramsey threshold cannot be lowered at c = 1: no clique of size a
    and no independent set of size b.
    """
    if count <= 0 or size <= 0:
        raise ValueError("count and size must be positive")
    vertices = range(count * size)
    edges = []
    for block in range(count):
        base = block * size
        for i in range(size):
            for j in range(i + 1, size):
                edges.append((base + i, base + j))
    return Graph(vertices, edges)


def theta_graph(paths: int) -> Graph:
    """Two hubs joined by ``paths`` vertex-disjoint length-2 paths.

    The hubs are nonadjacent with ``paths`` common neighbors, so the closure
    is paths + 1 — a bounded-treewidth family of unbounded closure.
    """
    if paths <= 0:
        raise ValueError("paths must be positive")
    edges = []
    for i in range(paths):
        mid = 2 + i
        edges.append((0, mid))
        edges.append((1, mid))
    return Graph(range(paths + 2), edges)


def er_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) with a fixed seed."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(range(n), edges)


def closure_repair(n: int, p: float, c: int, seed: int) -> Graph:
    """Sample G(n, p), then add edges until the graph is c-closed.

    Each round closes the lexicographically smallest nonadjacent pair with at
    least c common neighbors; edge additions can create new violations, so
    the scan repeats until none remain. Terminates because edges only grow.
    """
    if c < 1:
        raise ValueError("c must be positive")
    g = er_graph(n, p, seed)
    while True:
        violation = None
        for u, v in combinations(g.vertex_ids, 2):
            if not g.has_edge(u, v) and len(g.neighbors(u) & g.neighbors(v)) >= c:
                violation = (u, v)
                break
        if violation is None:
            break
        g = g.with_edges([violation])
    assert is_c_closed(g, c)
    return g


MODEL_PARAMS = {
    "cliques": ("count", "size"),
    "theta": ("paths",),
    "er": ("n", "p"),
    "closure_repair": ("n", "p", "c"),
}


def generate(model: str, seed: int = 0, **params) -> Graph:
    """Dispatch by model name; the model's ``MODEL_PARAMS`` are required,
    other parameters and the seed of an unseeded model are ignored."""
    if model not in MODEL_PARAMS:
        raise ValueError(f"unknown model {model!r} (expected one of {tuple(MODEL_PARAMS)})")
    missing = [key for key in MODEL_PARAMS[model] if key not in params]
    if missing:
        raise ValueError(f"model {model!r} needs {' and '.join(missing)}")
    if model == "cliques":
        return disjoint_cliques(params["count"], params["size"])
    if model == "theta":
        return theta_graph(params["paths"])
    if model == "er":
        return er_graph(params["n"], params["p"], seed)
    return closure_repair(params["n"], params["p"], params["c"], seed)
