"""Independent Set kernelization: the degree rule and its c*k^2 kernel."""

from __future__ import annotations

from .closure import require_c_closed
from .graph import Graph
from .instances import (
    Decided,
    Instance,
    KernelOutcome,
    Problem,
    Reduced,
    RuleRecord,
    Witness,
    replay_removals,
)
from .oracle import certified_witness


def kernelize_is(inst: Instance, c: int) -> KernelOutcome:
    """Strip high-degree vertices, then either answer outright or shrink.

    A vertex of degree at least (c-1)(k-1)+1 can always be swapped out of a
    solution, so it is removed (smallest id first, for determinism). Degrees
    only fall as vertices go, so a vertex below the threshold stays below it
    and one ascending pass removes exactly what restarting from the smallest
    id after every removal would. Once the maximum degree falls below the
    threshold, a graph on (threshold)*k vertices is greedily Yes; otherwise
    the residual has at most c*k^2 vertices.
    """
    if inst.problem is not Problem.IS:
        raise ValueError(f"expected an IS instance, got {inst.problem}")
    require_c_closed(inst.graph, c)
    k = inst.k
    if k == 0:
        return Decided(inst, (), True, Witness.vertex_set((), Problem.IS))
    g = inst.graph
    threshold = (c - 1) * (k - 1) + 1
    trace: list[RuleRecord] = []
    removed: set[int] = set()
    for v in g.vertex_ids:
        if len(g.neighbors(v) - removed) >= threshold:
            removed.add(v)
            trace.append(
                RuleRecord(rule="RR1", vertices_removed=(v,), payload={"degree_threshold": threshold})
            )
    reduced = replay_removals(inst, trace)
    g = reduced.graph
    if g.n >= threshold * k:
        witness = Witness.vertex_set(_greedy_low_degree_is(g, k), Problem.IS)
        return Decided(reduced, tuple(trace), True, certified_witness(inst, witness))
    assert g.n <= independent_set_kernel_bound(c, k), "kernel exceeds the c*k^2 bound"
    return Reduced(reduced, tuple(trace))


def independent_set_kernel_bound(c: int, k: int) -> int:
    """The c*k^2 vertex bound of the IS kernel: fewer than (threshold)*k
    vertices remain, and the threshold (c-1)(k-1)+1 is at most c*k."""
    return c * k * k


def _greedy_low_degree_is(g: Graph, k: int) -> list[int]:
    """k independent vertices by repeated minimum-degree picks.

    Sound whenever n >= (max_degree + 1) * k: each pick deletes a closed
    neighborhood of at most max_degree + 1 vertices.
    """
    chosen: list[int] = []
    while len(chosen) < k:
        v = min(g.vertex_ids, key=lambda u: (g.degree(u), u))
        chosen.append(v)
        g = g.without_vertices(g.closed_neighborhood(v))
    return chosen
