"""Tracing of the library from outside, for the per-layer run.

Every public function of each ``cclose`` layer (plus ``solver._branch`` and the
private ``_rr_*`` rules of the kernel modules) is wrapped, and the wrapper is
rebound in every ``cclose`` module that imported the name, so calls between
modules are seen too. A call made while an operation is open records a span:
operation id, parent span, start and end. Hot ``Graph`` methods get no span;
their calls are counted on the enclosing span instead. Spans stay in memory
until ``write`` is called.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from cclose.instances import Reduced

LAYERS = (
    "closure", "cliques", "matching", "ramsey", "instances", "kernel_is", "kernel_ds",
    "kernel_im", "kernel_irs", "solver", "oracle", "verify", "graphio", "cli",
)
KERNEL_LAYERS = ("kernel_is", "kernel_ds", "kernel_im", "kernel_irs")
RULE_LAYERS = ("kernel_ds", "kernel_im", "kernel_irs")
# Graph methods counted per enclosing span; every method that copies the
# adjacency counts once as a copy (with_edge and without_vertex delegate).
GRAPH_COUNTERS = {
    "neighbors": "neighbors_calls",
    "is_clique": "is_clique_calls",
    "with_vertex": "copies",
    "with_vertices": "copies",
    "with_edges": "copies",
    "without_vertices": "copies",
    "induced": "copies",
}
RULE_IDS = (
    "RR1", "RR2", "RR3.i", "RR6", "RR7", "RR9", "RR10", "RR13", "RR14", "RR15", "RR16",
    "gadget", "drop-isolated",
)
OP_LAYER = "op"


@dataclass
class Span:
    id: int
    op: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float = 0.0
    error: str | None = None
    counts: Counter = field(default_factory=Counter)
    rules: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "id": self.id, "op": self.op, "parent": self.parent, "layer": self.layer,
            "name": self.name, "start": self.start, "end": self.end, "error": self.error,
            "counts": dict(self.counts), "rules": list(self.rules),
        }


def self_time(span: Span, children: list[Span]) -> float:
    """Duration of ``span`` minus the part of it that child spans cover."""
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda s: s.start):
        lo, hi = max(child.start, cursor), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (span.end - span.start) - covered


class Tracer:
    """Installs the wrappers, records spans, and removes the wrappers again."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        import cclose
        from cclose.graph import Graph

        modules = [cclose] + [
            importlib.import_module(f"cclose.{info.name}")
            for info in pkgutil.iter_modules(cclose.__path__)
        ]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for layer in LAYERS:
            mod = by_name[layer]
            for name, fn in list(vars(mod).items()):
                if not self._traced(layer, name, fn, mod):
                    continue
                wrapper = self._span_wrapper(layer, name, fn)
                for owner in modules:
                    if getattr(owner, name, None) is fn:
                        self._patch(owner, name, wrapper)
        for method, key in GRAPH_COUNTERS.items():
            self._patch(Graph, method, self._count_wrapper(key, getattr(Graph, method)))

    @staticmethod
    def _traced(layer: str, name: str, fn, mod) -> bool:
        if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
            return False
        if inspect.isgeneratorfunction(fn):
            return False  # a span would close before the caller iterates
        if not name.startswith("_"):
            return True
        return (layer, name) == ("solver", "_branch") or (
            layer in RULE_LAYERS and name.startswith("_rr_")
        )

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- recording --------------------------------------------------------------

    def begin_op(self, op_id: int, name: str) -> None:
        span = Span(len(self.spans), op_id, None, OP_LAYER, name, perf_counter())
        self.spans.append(span)
        self._stack.append(span)

    def end_op(self, error: BaseException | None = None) -> None:
        span = self._stack.pop()
        span.end = perf_counter()
        if error is not None:
            span.error = type(error).__name__
        self._stack.clear()

    def _span_wrapper(self, layer: str, name: str, fn):
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span = Span(len(spans), parent.op, parent.id, layer, name, perf_counter())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            _note_result(span, args, result)
            return result

        return wrapper

    def _count_wrapper(self, key: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                stack[-1].counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


def _note_result(span: Span, args: tuple, result) -> None:
    """Record what a span's return value says about useful work."""
    if span.name in ("cliques_of_size", "maximal_cliques"):
        span.counts["listed"] += len(result)
    elif span.layer in RULE_LAYERS and span.name.lstrip("_").startswith("rr_"):
        span.counts["rule_calls"] += 1
        span.counts["rule_hits"] += int(result is not None and result is not False)
    elif span.layer in KERNEL_LAYERS and isinstance(result, Reduced):
        span.rules = tuple(record.rule for record in result.trace)
    elif span.name == "parse_graph":
        span.counts["bytes_read"] += len(args[0])
    elif span.name == "serialize_graph":
        span.counts["bytes_written"] += len(result)


def rule_metric(rule: str) -> str:
    return "RR3.i" if rule.startswith("RR3.") else rule


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and self times, keyed by metric name."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    totals: Counter = Counter()
    per_layer: dict[str, Counter] = {layer: Counter() for layer in LAYERS}
    fired: Counter = Counter()
    failed_matching = 0
    branch_nodes = 0
    max_depth = 0
    depth: dict[int, int] = {}

    for s in spans:  # parents precede children, so depth is ready when needed
        totals.update(s.counts)
        if s.layer == OP_LAYER:
            continue
        out[f"{s.layer}.calls"] += 1
        out[f"{s.layer}.self_s"] += self_time(s, children.get(s.id, []))
        per_layer[s.layer].update(s.counts)
        parent = by_id.get(s.parent)
        if s.layer == "matching" and s.error and not (
            parent is not None and parent.layer == "matching" and parent.error
        ):
            failed_matching += 1
        if s.layer in KERNEL_LAYERS and s.rules and not _inside_kernel(s, by_id):
            fired.update(rule_metric(r) for r in s.rules)
        if s.name == "_branch":
            depth[s.id] = depth.get(s.parent, 0) + 1
            branch_nodes += 1
            max_depth = max(max_depth, depth[s.id])

    cl = per_layer["cliques"]
    out["cliques.listed"] = cl["listed"]
    out["cliques.is_clique_calls"] = cl["is_clique_calls"]
    out["cliques.useful_ratio"] = cl["listed"] / cl["is_clique_calls"] if cl["is_clique_calls"] else 0.0
    out["closure.neighbors_calls"] = per_layer["closure"]["neighbors_calls"]
    out["graph.neighbors_calls"] = totals["neighbors_calls"]
    out["graph.is_clique_calls"] = totals["is_clique_calls"]
    out["graph.copies"] = totals["copies"]
    out["matching.failed"] = failed_matching
    for layer in RULE_LAYERS:
        calls, hits = per_layer[layer]["rule_calls"], per_layer[layer]["rule_hits"]
        out[f"{layer}.rule_calls"] = calls
        out[f"{layer}.rule_hits"] = hits
        out[f"{layer}.rule_hit_ratio"] = hits / calls if calls else 0.0
    for rule in RULE_IDS:
        out[f"rules.fired.{rule}"] = fired[rule]
    out["solver.branch_nodes"] = branch_nodes
    out["solver.max_depth"] = max_depth
    out["graphio.bytes_read"] = totals["bytes_read"]
    out["graphio.bytes_written"] = totals["bytes_written"]
    return out


def _inside_kernel(span: Span, by_id: dict[int, Span]) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.layer in KERNEL_LAYERS:
            return True
        parent = by_id.get(parent.parent)
    return False


UNITS = {
    "self_s": "s",
    "useful_ratio": "ratio",
    "rule_hit_ratio": "ratio",
    "overhead_ratio": "ratio",
    "bytes_read": "bytes",
    "bytes_written": "bytes",
}


def unit_of(metric: str) -> str:
    return UNITS.get(metric.rsplit(".", 1)[-1], "count")
