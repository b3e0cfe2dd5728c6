"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from cclose import kernel_ds, solver  # noqa: E402
from cclose.instances import Instance, Problem  # noqa: E402
from workloads import Checked, Op  # noqa: E402


def _span(id, parent, layer, name, start, end):
    return tracer.Span(id, 0, parent, layer, name, start, end)


def test_wrapper_sees_kernel_ds_calling_cliques_of_size():
    original = kernel_ds.cliques_of_size
    g = gen.to_graph(gen.community_graph(random.Random(3), 20, 3, (5, 4, 3)))
    inst = Instance(problem=Problem.DS, graph=g, k=1)
    t = tracer.Tracer()
    t.install()
    try:
        assert kernel_ds.cliques_of_size is not original
        assert solver.rr_clique is kernel_ds.rr_clique
        assert solver.rr_clique.__wrapped__ is not None
        t.begin_op(0, "ds")
        kernel_ds.kernelize_ds(inst, 3)
        t.end_op()
    finally:
        t.uninstall()
    assert kernel_ds.cliques_of_size is original
    by_id = {s.id: s for s in t.spans}
    listing = [s for s in t.spans if s.name == "cliques_of_size"]
    assert listing
    assert all(by_id[s.parent].layer == "kernel_ds" for s in listing)
    assert all(s.counts["is_clique_calls"] > 0 for s in listing)
    metrics = tracer.layer_metrics(t.spans)
    assert metrics["cliques.calls"] >= len(listing)
    assert metrics["cliques.is_clique_calls"] == sum(s.counts["is_clique_calls"] for s in listing)
    assert metrics["rules.fired.gadget"] == 1


def test_self_time_subtracts_child_coverage():
    parent = _span(0, None, "kernel_ds", "kernelize_ds", 0.0, 10.0)
    children = [
        _span(1, 0, "cliques", "cliques_of_size", 1.0, 3.0),
        _span(2, 0, "cliques", "cliques_of_size", 2.0, 5.0),  # overlaps the first
        _span(3, 0, "ramsey", "ramsey_threshold", 8.0, 12.0),  # runs past the parent
    ]
    assert tracer.self_time(parent, children) == 10.0 - 4.0 - 2.0
    assert tracer.self_time(children[0], []) == 2.0


def test_layer_self_times_add_up_to_the_root():
    spans = [
        _span(0, None, tracer.OP_LAYER, "op", 0.0, 10.0),
        _span(1, 0, "kernel_ds", "kernelize_ds", 1.0, 9.0),
        _span(2, 1, "cliques", "cliques_of_size", 2.0, 6.0),
        _span(3, 1, "kernel_ds", "rr_clique", 6.0, 7.0),
    ]
    metrics = tracer.layer_metrics(spans)
    assert metrics["kernel_ds.calls"] == 2
    assert metrics["kernel_ds.self_s"] == 3.0 + 1.0
    assert metrics["cliques.self_s"] == 4.0


def test_raising_op_counts_as_failed_and_is_kept():
    def boom():
        raise RecursionError("maximum recursion depth exceeded")

    ops = [
        Op("fine", lambda: 1, lambda out: Checked(out == 1, "one", 5)),
        Op("raises", boom, lambda out: Checked(True, "")),
        Op("wrong", lambda: 2, lambda out: Checked(out == 1, "two")),
    ]
    results = run.drive(ops, seconds=0.0, min_ops=3)
    assert [r.name for r in results] == ["fine", "raises", "wrong"]
    summary = run.summarize(results)
    assert summary["attempted"] == 3
    assert summary["failed"] == 2
    assert summary["wrong_outputs"] == 1
    assert summary["kernel_vertices"] == 5
    assert results[1].error.startswith("RecursionError")


def test_each_op_is_scaled_by_the_probes_around_it(monkeypatch):
    probes = iter([0.002, 0.004, 0.001, 0.003])
    monkeypatch.setattr(run, "probe_s", lambda: next(probes))
    monkeypatch.setattr(run, "PROBE_GAP_S", 0.0)  # probe between every two ops
    ops = [Op("a", lambda: 1, lambda out: Checked(True, "")),
           Op("b", lambda: 2, lambda out: Checked(True, ""))]
    results = run.drive(ops, seconds=0.0, min_ops=2)
    for r, (before, after) in zip(results, [(0.004, 0.001), (0.001, 0.003)]):
        assert r.norm_seconds == r.seconds * run.PROBE_NOMINAL_S * 2 / (before + after)


def test_generators_repeat_and_hit_the_target_closure():
    a = gen.community_graph(random.Random(7), 40, 4)
    b = gen.community_graph(random.Random(7), 40, 4)
    assert a == b
    assert gen.closure_of(a) == 4
    adj, left = gen.bipartite_graph(random.Random(1), 30, 3.0)
    assert all((u in left) != (v in left) for u in adj for v in adj[u])
