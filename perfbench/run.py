"""Run one benchmark workload against the library in ``src/``.

    python3 perfbench/run.py --workload social_kernel --seed 1 --seconds 20 --trace 0

The client is a closed loop: one process, no threads, one operation at a
time. Inputs are made from ``--seed`` at set-up; the library sees only them.
Set-up makes one pass of operations. With ``--trace 0`` the run measures
passes for ``--seconds`` seconds, at least one whole pass and ``MIN_OPS``
operations, and reports the end-to-end metrics. With ``--trace 1`` it runs
one pass traced (and a quarter of it untraced, for the tracing overhead),
and reports the per-layer metrics. Every output is checked; the last line
of standard output is the JSON result. Spans and a run report are written
under ``perfbench/_out/``.

Times are host-normalized: between operations, outside their timing, the
run times a fixed stdlib loop (``probe_s``), and each operation's wall time
is scaled by ``PROBE_NOMINAL_S`` over the mean of the probes just before and
just after it. A shared host slows the loop and the library alike, so the
figures follow the program rather than the host's load. Raw wall figures
are kept in the run summary.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
MIN_OPS = 100
SETUP_REPEATS = 9
# A probe runs before an operation when this long has passed since the last
# one; an operation longer than this is therefore probed on both sides.
PROBE_GAP_S = 0.02
# About what ``probe_s`` takes on an idle 2-core Xeon (Python 3.11): with it,
# host-normalized seconds read close to wall seconds on an unloaded host.
PROBE_NOMINAL_S = 0.0002
# The traced run times every this-many-th operation untraced too, for
# ``trace.overhead_ratio``; a whole untraced pass would double its length.
TRACE_REFERENCE_STRIDE = 4


@dataclass
class OpResult:
    index: int  # position of the operation in the pass
    pass_: int  # passes over the operations completed before this one
    name: str
    seconds: float  # wall time
    error: str | None
    ok: bool
    canon: str  # the output's rendering; for a passing op, the hash of it
    kernel_vertices: int
    norm_seconds: float | None = None  # host-normalized time, set by ``drive``


def run_op(op, index: int, pass_: int, tracer=None) -> OpResult:
    """Time one operation, then check its output outside the timed region.

    An operation that raises is kept as a failed result, never dropped.
    """
    error = None
    value = None
    if tracer is not None:
        tracer.begin_op(index, op.name)
    start = perf_counter()
    try:
        value = op.call()
    except Exception as exc:  # the benchmark must keep running and report it
        error = exc
    seconds = perf_counter() - start
    if tracer is not None:
        tracer.end_op()
    if error is not None:
        # the message can depend on the stack depth, so only the type is output
        return OpResult(index, pass_, op.name, seconds, f"{type(error).__name__}: {error}",
                        False, f"raised {type(error).__name__}", 0)
    try:
        checked = op.check(value)
    except Exception as exc:  # a check that cannot read the output fails the op
        return OpResult(index, pass_, op.name, seconds, None, False, f"check raised {exc!r}", 0)
    canon = checked.canon
    if checked.ok:  # the run keeps no copies of outputs, so they do not weigh on peak RSS
        canon = hashlib.sha256(canon.encode()).hexdigest()
    return OpResult(index, pass_, op.name, seconds, None, checked.ok, canon,
                    checked.kernel_vertices)


class Normalizer:
    """Probes the host between operations and scales each operation's wall
    time by ``PROBE_NOMINAL_S`` over the mean of the probes around it."""

    def __init__(self):
        self.probes: list[float] = []
        self._last = probe_s()
        self._at = perf_counter()
        self._pending: list[OpResult] = []

    def before_op(self) -> None:
        if perf_counter() - self._at >= PROBE_GAP_S:
            self.flush()

    def after_op(self, result: OpResult) -> None:
        result.norm_seconds = self._last  # the probe before it, until flushed
        self._pending.append(result)

    def flush(self) -> None:
        after = probe_s()
        for r in self._pending:
            r.norm_seconds = r.seconds * PROBE_NOMINAL_S * 2 / (r.norm_seconds + after)
        self._pending.clear()
        self.probes.append(after)
        self._last = after
        self._at = perf_counter()


def drive(ops: list, seconds: float, min_ops: int = MIN_OPS,
          normalizer: Normalizer | None = None) -> list[OpResult]:
    """Run passes over ``ops`` until the first pass is whole, ``min_ops``
    operations are done and ``seconds`` have passed. A later pass may stop
    part-way: the pass is in shuffled order, so its start is a fair sample.
    Every result gets its host-normalized time."""
    norm = normalizer or Normalizer()
    results: list[OpResult] = []
    start = perf_counter()
    passes = 0
    while True:
        for index, op in enumerate(ops):
            norm.before_op()
            results.append(run_op(op, index, passes))
            norm.after_op(results[-1])
            if (index == len(ops) - 1 or passes > 0) and len(results) >= min_ops \
                    and perf_counter() - start >= seconds:
                norm.flush()
                return results
        passes += 1


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def digest(results: list[OpResult]) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.name}\n{r.canon}\n".encode())
    return h.hexdigest()


def summarize(results: list[OpResult]) -> dict:
    """Failures, plus the outputs digest and kernel vertices of the first
    pass. An operation run again must reproduce its first output."""
    first = [r for r in results if r.pass_ == 0]
    canon: dict[int, str] = {}
    mismatched = 0
    for r in results:
        if canon.setdefault(r.index, r.canon) != r.canon:
            mismatched += 1
    return {
        "attempted": len(results),
        "failed": sum(1 for r in results if not r.ok),
        "wrong_outputs": sum(1 for r in results if not r.ok and r.error is None) + mismatched,
        "digest": digest(first),
        "kernel_vertices": sum(r.kernel_vertices for r in first),
        "failures": sorted({f"{r.name}: {r.error or r.canon}"[:200] for r in results if not r.ok}),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


_PROBE_RNG = random.Random(1)
_PROBE_ADJ = [frozenset(_PROBE_RNG.sample(range(20), 6)) for _ in range(20)]


def probe_s() -> float:
    """Seconds a short fixed stdlib loop takes: the host's speed right now.

    The median of three timings, so that one interrupt does not count; the
    garbage collector is off meanwhile, so that the library's heap does not.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_probe_loop() for _ in range(3))
    finally:
        if enabled:
            gc.enable()


def _probe_loop() -> float:
    """Like the library's inner loops, it mixes set membership tests and
    intersections over a small adjacency with bitmask arithmetic."""
    adj = _PROBE_ADJ
    start = perf_counter()
    hits = 0
    for u in range(20):
        au = adj[u]
        for v in range(20):
            hits += v in au
            hits += len(au & adj[v])
    for mask in range(1000):
        hits += (mask & 0x5A5A).bit_count() >= 4
    return perf_counter() - start


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        # a diagnostic that makes the host's speed at start visible next to the figures
        "calibration_s": statistics.median(probe_s() for _ in range(25)),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def shuffled(ops: list, seed: int) -> list:
    """The pass in a seeded order that interleaves the operation classes, so
    that a change of host speed within a run weighs on every quantile alike."""
    ops = list(ops)
    random.Random(seed).shuffle(ops)
    return ops


def end_to_end(args, setup, workdir: Path) -> tuple[dict, dict, list[OpResult]]:
    setup_times = []
    setup_norm = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        before = probe_s()
        start = perf_counter()
        ops = setup(args.seed, workdir)
        setup_times.append(perf_counter() - start)
        setup_norm.append(setup_times[-1] * PROBE_NOMINAL_S * 2 / (before + probe_s()))
    ops = shuffled(ops, args.seed)
    norm = Normalizer()
    results = drive(ops, args.seconds, normalizer=norm)
    summary = summarize(results)
    op_seconds = [r.norm_seconds for r in results]
    wall = [r.seconds for r in results]
    ok = summary["attempted"] - summary["failed"]
    metrics = {
        "setup_s": metric(statistics.median(setup_norm), "s"),
        "ops_per_s": metric(ok / sum(op_seconds), "1/s"),
        "op_p50_s": metric(nearest_rank(op_seconds, 0.5), "s"),
        "op_p90_s": metric(nearest_rank(op_seconds, 0.9), "s"),
        "ok_frac": metric(ok / summary["attempted"], "ratio"),
        "kernel_vertices": metric(summary["kernel_vertices"], "count"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    passes = max(r.pass_ for r in results) + 1
    probes = sorted(norm.probes)
    summary.update({
        "samples": len(op_seconds),
        "samples_beyond_p90": sum(1 for s in op_seconds if s > metrics["op_p90_s"]["value"]),
        "passes": passes,
        "failed_frac": summary["failed"] / summary["attempted"],
        "setup_wall_s": setup_times,
        "wall": {
            "ops_per_s": ok / sum(wall),
            "op_p50_s": nearest_rank(wall, 0.5),
            "op_p90_s": nearest_rank(wall, 0.9),
            "setup_s": statistics.median(setup_times),
        },
        "probes": {
            "count": len(probes),
            "min_s": probes[0],
            "median_s": statistics.median(probes),
            "p90_s": nearest_rank(probes, 0.9),
        },
        "pass_op_s": [sum(r.norm_seconds for r in results if r.pass_ == i) for i in range(passes)],
    })
    return metrics, summary, results


def traced(args, setup, workdir: Path) -> tuple[dict, dict, list[OpResult]]:
    import tracer as tracing

    ops = shuffled(setup(args.seed, workdir), args.seed)
    # the untraced reference for the overhead ratio: every TRACE_REFERENCE_STRIDE-th op
    plain = [run_op(ops[i], i, 0) for i in range(0, len(ops), TRACE_REFERENCE_STRIDE)]
    t = tracing.Tracer()
    t.install()
    try:
        results = [run_op(op, i, 0, t) for i, op in enumerate(ops)]
    finally:
        t.uninstall()
    OUT.mkdir(exist_ok=True)
    t.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    layer = tracing.layer_metrics(t.spans)
    sampled = sum(results[r.index].seconds for r in plain)
    layer["trace.overhead_ratio"] = sampled / sum(r.seconds for r in plain)
    metrics = {name: metric(value, tracing.unit_of(name)) for name, value in layer.items()}
    summary = summarize(results)
    # both passes share indices, so this also counts traced outputs that differ
    summary["wrong_outputs"] = summarize(plain + results)["wrong_outputs"]
    summary["spans"] = len(t.spans)
    return metrics, summary, results


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "cclose" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {src / 'cclose'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    setup = workloads.WORKLOADS[args.workload]
    meta = metadata(args)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.trace:
            metrics, summary, results = traced(args, setup, workdir)
        else:
            metrics, summary, results = end_to_end(args, setup, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = summary["wrong_outputs"] == 0
    report = {
        "meta": meta,
        "summary": summary,
        "metrics": metrics,
        "ops": [[r.name, r.pass_, r.seconds, r.norm_seconds, r.ok] for r in results],
    }
    OUT.mkdir(exist_ok=True)
    name = f"run-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"meta": meta, "summary": {k: v for k, v in summary.items() if k != "failures"}}))
    for line in summary["failures"]:
        print(f"failed: {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
