import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cclose.problems as problems
import cclose.verify as verify_mod
from cclose import (
    Bipartition,
    Coloring,
    Decided,
    Graph,
    Instance,
    Problem,
    Reduced,
    RuleRecord,
    Witness,
    closure,
    compute_closure,
    kernelize_bipartite_bwds,
    kernelize_bwtds,
    kernelize_ds,
    kernelize_im,
    kernelize_im_bipartite,
    kernelize_irs,
    kernelize_is,
    oracle_answer,
    oracle_tds,
    parse_graph,
    path_graph,
    replay,
    replay_trace,
    uncolor_gadget,
    vclp_half_integral,
)
from cclose.cli import main
from cclose.kernel_ds import all_black_twin
from cclose.kernel_im import partition_bound_violation
from cclose.verify import check_instance, random_instance, run_verify, shrink_instance

from helpers import complete_graph, cycle_graph, scattered_graphs

REPO = Path(__file__).resolve().parents[1]


def test_random_instance_deterministic():
    a = random_instance("ds", 8, 3, 1, False, seed=42)
    b = random_instance("ds", 8, 3, 1, False, seed=42)
    assert a.graph == b.graph and a.k == b.k


def test_random_instance_shapes():
    inst = random_instance("bwtds", 8, 3, 2, False, seed=5)
    assert inst.problem is Problem.BW_TDS and inst.r == 2 and inst.coloring is not None
    inst = random_instance("im", 8, 3, 1, True, seed=5)
    assert inst.problem is Problem.IM and inst.bipartition is not None
    inst.bipartition.validate(inst.graph)


def test_report_shape_and_ordering():
    report = run_verify("is", n_max=6, trials=12, seed=9)
    assert [t.index for t in report.results] == list(range(12))
    blob = report.to_json()
    assert blob["schema"] == 1 and blob["status"] == "ok"
    assert blob["agreements"] == 12


def test_all_problems_agree_smoke():
    for problem in ("is", "ds", "tds", "bwtds", "im", "irs"):
        report = run_verify(problem, n_max=6, trials=15, seed=3)
        assert report.ok, (problem, [t.detail for t in report.disagreements])


def test_shrinker_minimizes(monkeypatch):
    def fake_check(problem, inst, bipartite):
        return inst.graph.m < 3, "too many edges"

    monkeypatch.setattr(verify_mod, "check_instance", fake_check)
    inst = Instance(problem=Problem.DS, graph=complete_graph(5), k=1)
    shrunk = shrink_instance("ds", inst, False)
    assert shrunk.graph.m >= 3
    # one more deletion always repairs the fake disagreement
    for v in shrunk.graph.vertex_ids:
        assert shrunk.graph.without_vertices([v]).m < 3


def test_disagreement_reported_with_reproducer(monkeypatch):
    calls = {"n": 0}

    def fake_check(problem, inst, bipartite):
        return inst.graph.n < 2, "big graph"

    monkeypatch.setattr(verify_mod, "check_instance", fake_check)
    report = run_verify("is", n_max=5, trials=10, seed=1)
    assert not report.ok
    assert report.reproducer is not None and report.reproducer.startswith("p ")


def test_disagreeing_report_renders_each_disagreement(monkeypatch):
    def fake_check(problem, inst, bipartite):
        return inst.graph.n < 4, "big graph"

    monkeypatch.setattr(verify_mod, "check_instance", fake_check)
    report = run_verify("is", n_max=6, trials=8, seed=2)
    blob = report.to_json()
    assert blob["status"] == "disagreement" and blob["agreements"] == 8 - len(report.disagreements)
    assert blob["disagreements"] and blob["disagreements"] == [
        {"index": t.index, "n": t.n, "m": t.m, "k": t.k, "c": t.c, "agreed": False, "detail": "big graph"}
        for t in report.disagreements
    ]
    assert [list(d) for d in blob["disagreements"]] == [
        ["index", "n", "m", "k", "c", "agreed", "detail"]
    ] * len(report.disagreements)
    assert json.loads(json.dumps(blob)) == blob


def test_bipartite_im_draws_run_both_modes_and_the_general_kernel(monkeypatch):
    runs = []
    pipelines = verify_mod._run_pipelines

    def spy(inst, c):
        out = pipelines(inst, c)
        runs.append(out)
        return out

    monkeypatch.setattr(verify_mod, "_run_pipelines", spy)
    assert run_verify("im", n_max=8, trials=20, seed=1, bipartite=True).ok
    assert len(runs) == 20
    names = ["kernelize_im_bipartite[delta]", "kernelize_im_bipartite[closure]", "kernelize_im"]
    assert all([kernel.name for kernel, _, _ in out] == names for out in runs)
    closure = [out[1][2] for out in runs]
    assert any(isinstance(o, Decided) for o in closure)
    assert any(isinstance(o, Reduced) and [r.rule for r in o.trace] == ["drop-isolated"] for o in closure)


def test_a_broken_general_im_kernel_is_caught_on_bipartite_draws(monkeypatch):
    monkeypatch.setattr(problems, "kernelize_im", lambda inst, c: Decided(inst, (), not oracle_answer(inst)))
    inst = _shape(Problem.IM, bipartition=SHAPE_PARTS)
    agreed, detail = check_instance("im", inst, True)
    assert not agreed and detail.startswith("kernelize_im: decided ")


def test_bipartite_ds_draws_reach_the_kernel_size_bound(monkeypatch):
    calls = []
    bound = problems.bipartite_kernel_bound

    def spy(c, k):
        calls.append((c, k))
        return bound(c, k)

    monkeypatch.setattr(problems, "bipartite_kernel_bound", spy)
    assert run_verify("ds", n_max=8, trials=20, seed=1, bipartite=True).ok
    assert calls

    monkeypatch.setattr(problems, "bipartite_kernel_bound", lambda c, k: -1)
    report = run_verify("ds", n_max=8, trials=20, seed=1, bipartite=True)
    assert len(report.disagreements) == len(calls)
    assert all(
        t.detail.startswith("kernelize_bipartite_bwds: bipartite kernel has ")
        and t.detail.endswith(" > -1 vertices")
        for t in report.disagreements
    )
    assert report.reproducer is not None


def test_size_bound_names_the_vhalf_bound_like_the_kernel():
    """Nine disjoint edges at c = 2, k = 1 put all 18 vertices in V_half,
    which reaches RR11's bound of 3 * 6 = 18."""
    g = Graph(range(18), [(2 * i, 2 * i + 1) for i in range(9)])
    reduced = Instance(problem=Problem.IM, graph=g, k=1)
    p = vclp_half_integral(g)
    assert len(p.v_half) == 18
    assert partition_bound_violation(2, 1, p) == "V_half bound violated"
    bound = problems.PIPELINES["im", False].kernels[0].bound
    assert bound(reduced, 2) == "V_half bound violated"
    smaller = Instance(problem=Problem.IM, graph=g.without_vertices([0, 1]), k=1)
    assert bound(smaller, 2) is None


BIPARTITE_IM = {"kernelize_im_bipartite[delta]", "kernelize_im_bipartite[closure]", "kernelize_im"}


@pytest.mark.parametrize(
    "problem, r, bipartite, reducing, deciding",
    [
        ("is", 1, False, {"kernelize_is"}, {"kernelize_is"}),
        ("ds", 1, False, {"kernelize_ds"}, {"kernelize_ds"}),
        ("tds", 2, False, {"kernelize_bwtds"}, {"kernelize_bwtds"}),
        ("tds", 1, False, {"kernelize_bwtds"}, {"kernelize_bwtds"}),
        ("bwtds", 2, False, {"kernelize_bwtds"}, {"kernelize_bwtds"}),
        ("bwtds", 1, False, {"kernelize_bwtds"}, {"kernelize_bwtds"}),
        ("bwtds", 1, True, {"kernelize_bwtds"}, {"kernelize_bwtds"}),
        ("ds", 1, True, {"kernelize_bipartite_bwds"}, {"kernelize_bipartite_bwds"}),
        ("im", 1, False, {"kernelize_im"}, set()),
        ("im", 1, True, BIPARTITE_IM, set()),
        ("irs", 1, False, {"kernelize_irs"}, {"kernelize_irs"}),
    ],
    ids=["is", "ds", "tds", "tds-r1", "bwtds", "bwtds-r1", "bipartite-bwtds", "bipartite-bwds", "im",
         "bipartite-im", "irs"],
)
def test_every_reduction_is_its_replayed_trace(problem, r, bipartite, reducing, deciding):
    """On the draws of each verify job at n <= 16 and seed 1, every outcome,
    decided or reduced, carries the whole instance its trace replays to from
    the instance it ran on: graph, budget, r, coloring and bipartition.
    ``deciding`` names the kernels that decide after applying records; the
    thresholds of the IM kernels are far out of reach at this size."""
    reduced, decided = set(), set()
    for idx in range(200):
        inst = random_instance(problem, 16, 3, r, bipartite, 1_000_003 + idx)
        for kernel, base, out in verify_mod._run_pipelines(inst, compute_closure(inst.graph).c):
            assert out.instance == replay_trace(base, out.trace), (kernel.name, idx)
            if isinstance(out, Reduced):
                reduced.add(kernel.name)
            elif out.trace:
                decided.add(kernel.name)
    assert reduced == reducing and decided == deciding


def test_a_removal_only_trace_scans_no_closure(monkeypatch):
    """Removing vertices keeps a graph c-closed, so verify rescans the
    closure only after a record that adds a vertex or an edge."""
    inst = Instance(problem=Problem.IS, graph=complete_graph(5), k=2)
    out = kernelize_is(inst, 1)
    assert isinstance(out, Reduced) and [r.rule for r in out.trace] == ["RR1"] * 4
    edgeless = _edgeless(Problem.IS, 4, 2)
    grown = path_added(edgeless, 1)
    scans = []
    original = closure.compute_closure

    def counted(g):
        scans.append(g.n)
        return original(g)

    monkeypatch.setattr(closure, "compute_closure", counted)
    assert verify_mod._closure_preserved(inst, out, 1) == (True, "")
    assert scans == []
    assert verify_mod._closure_preserved(edgeless, grown, 1) == (False, "rule path broke c-closedness")
    assert scans == [4]


def wrong_answer(inst, c):
    return Decided(inst, (), not oracle_answer(inst))


def crashing(inst, c):
    raise RuntimeError("boom")


def witnessless(inst, c):
    return Decided(inst, (), oracle_answer(inst))


def empty_witness(inst, c):
    return Decided(inst, (), oracle_answer(inst), Witness.vertex_set((), inst.problem))


def decided_off_its_trace(inst, c):
    """A right No whose instance its empty trace does not reproduce."""
    return Decided(replace(inst, k=inst.k + 1), (), oracle_answer(inst))


def whole_graph(inst, *_):
    return Reduced(inst, ())


def first_vertex_dropped(inst, c):
    return Reduced(replace(inst, graph=inst.graph.without_vertices(inst.graph.vertex_ids[:1])), ())


def all_but_one_removed(inst, c):
    """One replayable record that removes every vertex but the first."""
    record = RuleRecord(rule="removals", vertices_removed=tuple(inst.graph.vertex_ids[1:]))
    return Reduced(replay(inst, record), (record,))


def budget_raised(inst, c):
    return Reduced(replace(inst, k=inst.k + 1), ())


def padded_past_the_oracle(inst, c):
    """A reduction to 17 vertices, one more than the oracle takes, that its
    empty trace does not reproduce."""
    return Reduced(replace(inst, graph=inst.graph.with_vertices(range(inst.graph.n, 17))), ())


def path_added(inst, c):
    record = RuleRecord(rule="path", edges_added=((0, 1), (1, 2)))
    return Reduced(replay(inst, record), (record,))


def gadget_on_every_black(inst, c):
    gadget, record = uncolor_gadget(all_black_twin(inst))
    return Reduced(gadget, (record,))


def _edgeless(problem, n, k, **fields):
    return Instance(problem=problem, graph=Graph(range(n)), k=k, **fields)


@pytest.mark.parametrize(
    "problem, pipeline, inst, detail",
    [
        ("is", wrong_answer, _edgeless(Problem.IS, 4, 2), "kernelize_is: decided False, oracle says True"),
        ("is", crashing, _edgeless(Problem.IS, 4, 2), "pipeline error: RuntimeError('boom')"),
        ("is", witnessless, _edgeless(Problem.IS, 4, 2), "kernelize_is: decided yes without a witness"),
        ("is", empty_witness, _edgeless(Problem.IS, 4, 2), "kernelize_is: decided-yes witness fails validation"),
        ("is", whole_graph, _edgeless(Problem.IS, 5, 1), "kernelize_is: IS kernel has 5 > c*k^2 vertices"),
        (
            "is",
            first_vertex_dropped,
            _edgeless(Problem.IS, 3, 2),
            "kernelize_is: trace replay does not reproduce the outcome's instance",
        ),
        (
            "is",
            padded_past_the_oracle,
            _edgeless(Problem.IS, 4, 5),
            "kernelize_is: trace replay does not reproduce the outcome's instance",
        ),
        (
            "is",
            budget_raised,
            _edgeless(Problem.IS, 4, 2),
            "kernelize_is: trace replay does not reproduce the outcome's instance",
        ),
        ("is", path_added, _edgeless(Problem.IS, 4, 2), "kernelize_is: rule path broke c-closedness"),
        (
            "is",
            all_but_one_removed,
            _edgeless(Problem.IS, 4, 2),
            "kernelize_is: reduced instance answers False, oracle says True",
        ),
        (
            "is",
            decided_off_its_trace,
            _edgeless(Problem.IS, 4, 5),
            "kernelize_is: trace replay does not reproduce the outcome's instance",
        ),
        (
            "bwtds",
            whole_graph,
            _edgeless(Problem.BW_TDS, 3, 1, r=1, coloring=Coloring()),
            "kernelize_bwtds: black-count bound violated",
        ),
        ("ds", gadget_on_every_black, _edgeless(Problem.DS, 3, 1), "kernelize_ds: black-count bound violated"),
        ("irs", whole_graph, _edgeless(Problem.IRS, 3, 1), "kernelize_irs: IRS kernel has 3 >= 1 vertices"),
        ("im", whole_graph, _edgeless(Problem.IM, 2, 0), "kernelize_im: V_half bound violated"),
    ],
    ids=[
        "wrong-answer",
        "pipeline-error",
        "yes-without-witness",
        "witness-fails-validation",
        "oversized-kernel",
        "trace-does-not-replay",
        "past-the-oracle-trace-does-not-replay",
        "budget-raised",
        "broke-closure",
        "reduced-answers-wrong",
        "decided-off-its-trace",
        "bwtds-black-count",
        "ds-black-count-before-the-gadget",
        "irs-bound",
        "im-bound-at-k-0",
    ],
)
def test_a_broken_pipeline_is_a_named_disagreement(monkeypatch, capsys, problem, pipeline, inst, detail):
    monkeypatch.setattr(problems, f"kernelize_{problem}", pipeline)
    assert check_instance(problem, inst, False) == (False, detail)
    argv = ["verify", "--problem", problem, "--n-max", "8", "--k-max", "2", "--trials", "20"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "minimized reproducer:\n" in out
    parse_graph(out.split("minimized reproducer:\n", 1)[1])


def _bipartite_im(g, k):
    return Instance(problem=Problem.IM, graph=g, k=k, bipartition=Bipartition(g.two_color()))


@pytest.mark.parametrize(
    "inst, traces",
    [
        (Instance(problem=Problem.TDS, graph=cycle_graph(5), k=2, r=2), [False]),
        (Instance(problem=Problem.IS, graph=cycle_graph(5), k=3), [False]),
        (_bipartite_im(cycle_graph(6), 2), [False, False, False]),
        (Instance(problem=Problem.TDS, graph=cycle_graph(5), k=1, r=2), [True]),
        (Instance(problem=Problem.IS, graph=complete_graph(5), k=2), [True]),
        (Instance(problem=Problem.DS, graph=cycle_graph(5), k=2), [True]),
        (_bipartite_im(path_graph(3), 2), [False, False, True]),
        (_bipartite_im(cycle_graph(6).with_vertices([6]), 2), [True, True, True]),
    ],
    ids=[
        "tds-r2-twin",
        "is",
        "bipartite-im",
        "tds-r2-records",
        "is-records",
        "ds-gadget",
        "im-one-of-three",
        "im-all-three",
    ],
)
def test_only_a_reduction_with_records_is_decided_again(monkeypatch, inst, traces):
    """``check_instance`` asks the oracle once for the drawn instance, and
    once more for each reduction whose trace has records; a reduction with
    an empty trace is the input or its all-black twin, already decided.
    ``traces`` says, per reduction the pipelines return, whether its trace
    has records."""
    outcomes = verify_mod._run_pipelines(inst, compute_closure(inst.graph).c)
    assert [bool(out.trace) for _, _, out in outcomes if isinstance(out, Reduced)] == traces
    asked = []

    def counted(instance):
        asked.append(instance)
        return oracle_answer(instance)

    monkeypatch.setattr(verify_mod, "oracle_answer", counted)
    assert check_instance(inst.problem.value.lower(), inst, inst.bipartition is not None) == (True, "")
    assert len(asked) == 1 + traces.count(True) and asked[0] is inst


@given(scattered_graphs(max_size=12), st.integers(0, 13), st.integers(1, 3))
def test_the_all_black_twin_answers_as_its_input(case, k, r):
    """The fact that lets verify skip an empty-trace reduction of DS and TDS:
    the oracle answers the all-black twin as it answers the input, since an
    empty coloring and no coloring both make every vertex black."""
    g, _ = case
    assert oracle_tds(g, Coloring(), r) == oracle_tds(g, None, r)
    tds = Instance(problem=Problem.TDS, graph=g, k=k, r=r)
    assert oracle_answer(all_black_twin(tds)) == oracle_answer(tds)
    if r == 1:
        ds = Instance(problem=Problem.DS, graph=g, k=k)
        assert oracle_answer(all_black_twin(ds)) == oracle_answer(ds)


# A 6-cycle with a pendant path and a pendant edge: bipartite, 2-closed, and
# small enough that every kernel below runs at k = 2.
SHAPE_GRAPH = Graph(range(9), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 6), (6, 7), (3, 8)])
SHAPE_PARTS = Bipartition(SHAPE_GRAPH.two_color())
SHAPE_WHITE = Coloring(frozenset({1, 4, 7}))


def _shape(problem, **fields):
    return Instance(problem=problem, graph=SHAPE_GRAPH, k=2, **fields)


@pytest.mark.parametrize(
    "inst, mode, direct",
    [
        (_shape(Problem.IS), "delta", kernelize_is),
        (_shape(Problem.DS), "delta", kernelize_ds),
        (
            _shape(Problem.TDS, r=2),
            "delta",
            lambda i, c: kernelize_bwtds(_shape(Problem.BW_TDS, r=2, coloring=Coloring()), c),
        ),
        (_shape(Problem.BW_TDS, r=2, coloring=SHAPE_WHITE), "delta", kernelize_bwtds),
        (
            _shape(Problem.BW_TDS, r=1, coloring=SHAPE_WHITE, bipartition=SHAPE_PARTS),
            "delta",
            lambda i, c: kernelize_bipartite_bwds(i, SHAPE_PARTS, c),
        ),
        (
            _shape(Problem.IM, bipartition=SHAPE_PARTS),
            "delta",
            lambda i, c: kernelize_im_bipartite(i, SHAPE_PARTS, "delta"),
        ),
        (
            _shape(Problem.IM, bipartition=SHAPE_PARTS),
            "closure",
            lambda i, c: kernelize_im_bipartite(i, SHAPE_PARTS, "closure", c=c),
        ),
        (_shape(Problem.IM), "delta", kernelize_im),
        (_shape(Problem.IRS), "delta", kernelize_irs),
    ],
    ids=["is", "ds", "tds", "bwtds", "bipartite-bwds", "im-bipartite-delta", "im-bipartite-closure", "im", "irs"],
)
def test_kernelize_runs_the_kernel_of_each_instance_shape(inst, mode, direct):
    c = compute_closure(inst.graph).c
    assert verify_mod.kernelize(inst, c, mode) == direct(inst, c)


@pytest.mark.parametrize("r", [1, 2])
def test_bipartite_bwtds_draws_agree(r):
    """Bipartite BW-TDS draws carry no bipartition, so RR2's fresh vertex may
    close an odd cycle without a false ``BipartitionError``."""
    assert run_verify("bwtds", n_max=12, trials=200, seed=1, r=r, bipartite=True).ok


def test_reproducer_keeps_the_coloring(monkeypatch):
    """A BW-TDS kernel that errs only when a white vertex exists shrinks to
    one white vertex, and the reproducer writes it white, renumbered to 0."""

    def wrong_with_whites(inst, c):
        if inst.white_vertices():
            return Decided(inst, (), not oracle_answer(inst))
        return kernelize_bwtds(inst, c)

    monkeypatch.setattr(problems, "kernelize_bwtds", wrong_with_whites)
    report = run_verify("bwtds", n_max=6, trials=10, seed=1)
    assert not report.ok
    assert report.reproducer == "p 1\nc 0 white\n"


def run_script(script, argv):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def assert_script_rejects(script, argv, message="must be at least"):
    done = run_script(script, argv)
    assert done.returncode == 2
    assert message in done.stderr and "Traceback" not in done.stderr


@pytest.mark.parametrize("argv", [["--trials", "0"], ["--n-max", "-1"]])
def test_sweep_rejects_a_count_below_its_minimum(argv):
    assert_script_rejects("verify_sweep.py", argv)


def test_sweep_ends_with_its_totals():
    done = run_script("verify_sweep.py", ["--n-max", "4", "--trials", "3", "--seed", "2"])
    assert done.returncode == 0
    lines = done.stdout.splitlines()
    assert len(lines) == 1 + 13 + 1 and lines[-1].startswith("total: 13 jobs, 39/39 trials agreed, ")
    assert lines[-1].endswith("s wall")


@pytest.mark.parametrize("argv", [["--samples", "0"], ["--sizes", "-3"]])
def test_survey_rejects_a_count_below_its_minimum(argv):
    assert_script_rejects("closure_survey.py", argv)


@pytest.mark.parametrize("density", ["1.5", "nan"])
def test_survey_rejects_a_density_outside_the_unit_interval(density):
    assert_script_rejects("closure_survey.py", ["--densities", density], "must lie in [0, 1]")
