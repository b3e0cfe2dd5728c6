import contextlib
import hashlib
import io
import json

import pytest

from cclose import (
    Bipartition,
    Coloring,
    Graph,
    Instance,
    Problem,
    RuleRecord,
    Witness,
    cli,
    graphio,
    irs_thresholds,
    kernel_irs,
    parse_graph,
    problems,
    replay_trace,
    serialize_graph,
)
from cclose.cli import main
from cclose.errors import ExtractionError
from cclose.kernel_ds import all_black_twin

from helpers import renumbered


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def c4_file(tmp_path):
    return write(tmp_path, "c4.txt", "p 4\ne 0 1\ne 0 3\ne 1 2\ne 2 3\n")


def test_closure_command(tmp_path, capsys):
    assert main(["closure", c4_file(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "c=3" in out
    assert "witness: 0 2" in out


def test_closure_of_cluster_graph(tmp_path, capsys):
    path = write(tmp_path, "g.txt", "p 3\ne 0 1\ne 1 2\ne 0 2\n")
    main(["closure", path])
    assert "c=1" in capsys.readouterr().out


def test_cliques_command(tmp_path, capsys):
    assert main(["cliques", c4_file(tmp_path)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["0 1", "0 3", "1 2", "2 3"]
    assert main(["cliques", "--count-only", c4_file(tmp_path)]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_ramsey_command(tmp_path, capsys):
    path = write(tmp_path, "c6.txt", "p 6\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 0 5\n")
    assert main(["ramsey", "--c", "2", "--a", "3", "--b", "3", path]) == 0
    assert "independent-set: 0 2 4" in capsys.readouterr().out


def test_ramsey_below_threshold_fails(tmp_path, capsys):
    path = write(tmp_path, "c5.txt", "p 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 0 4\n")
    assert main(["ramsey", "--c", "2", "--a", "3", "--b", "3", path]) == 1


def test_kernelize_roundtrip(tmp_path, capsys):
    src = write(tmp_path, "in.txt", "p 6\ne 0 1\ne 0 2\ne 0 3\ne 0 4\ne 0 5\n")
    dst = str(tmp_path / "out.txt")
    trace = str(tmp_path / "trace.json")
    code = main(["kernelize", "--problem", "is", "-k", "2", "--emit-trace", trace, src, dst])
    assert code == 0
    out = capsys.readouterr().out
    assert "decided: yes" in out
    payload = json.loads(open(trace).read())
    assert payload["schema"] == 1
    assert [record["rule"] for record in payload["records"]] == ["RR1"]


def test_kernelize_reduced_writes_file(tmp_path, capsys):
    src = write(tmp_path, "in.txt", "p 4\ne 0 1\ne 1 2\ne 2 3\n")
    dst = str(tmp_path / "out.txt")
    assert main(["kernelize", "--problem", "ds", "-k", "1", src, dst]) == 0
    assert "reduced" in capsys.readouterr().out
    g, coloring, parts = parse_graph(open(dst).read())
    assert g.n >= 1


def test_kernelize_bipartite_ds(tmp_path, capsys):
    src = write(
        tmp_path,
        "in.txt",
        "p 4\ne 0 2\ne 0 3\ne 1 2\nb 0 left\nb 1 left\nb 2 right\nb 3 right\n",
    )
    dst = str(tmp_path / "out.txt")
    assert main(["kernelize", "--problem", "ds", "--bipartite", "-k", "1", src, dst]) == 0


def read_trace(path):
    """The rule records of an ``--emit-trace`` file."""
    with open(path) as fh:
        return [RuleRecord.from_json(rec) for rec in json.load(fh)["records"]]


@pytest.mark.parametrize(
    "edges, whites, r",
    [
        (
            [(0, 2), (0, 4), (0, 7), (0, 9), (1, 3), (1, 4), (1, 7), (2, 7), (3, 4), (3, 5),
             (3, 8), (4, 8), (4, 9)],
            [],
            2,
        ),
        (
            [(0, 1), (0, 2), (0, 3), (0, 6), (0, 7), (1, 3), (1, 4), (1, 6), (2, 3), (2, 5),
             (3, 4), (3, 7), (4, 6), (4, 7), (5, 6), (6, 7)],
            [1, 4, 5, 7],
            1,
        ),
    ],
    ids=["uncolored-r2", "colored"],
)
def test_kernelize_tds_trace_replays_to_the_written_instance(tmp_path, capsys, edges, whites, r):
    g = Graph(range(max(map(max, edges)) + 1), edges)
    coloring = Coloring(frozenset(whites))
    src = write(tmp_path, "in.txt", serialize_graph(g, coloring if whites else None))
    dst, trace = str(tmp_path / "out.txt"), str(tmp_path / "trace.json")
    argv = ["kernelize", "--problem", "tds", "-r", str(r), "-k", "1", "--emit-trace", trace]
    assert main([*argv, src, dst]) == 0
    records = read_trace(trace)
    assert records
    inst = Instance(problem=Problem.BW_TDS, graph=g, k=1, r=r, coloring=coloring)
    reduced = replay_trace(inst, records)
    expected, white, _ = renumbered(reduced.graph, reduced.coloring)
    assert open(dst).read() == serialize_graph(expected, white)
    assert capsys.readouterr().out == f"reduced: n={expected.n} m={expected.m} k={reduced.k}\n"


# The draw of trial 63 of `cclose verify --problem ds --n-max 16 --seed 1`:
# 2-closed, and decided No at k = 1 after RR2 fires three times and RR3.1
# once.
TRIAL_63 = "p 9\ne 0 6\ne 1 3\ne 2 5\ne 2 7\ne 3 4\ne 3 8\ne 6 7\n"


def test_a_decided_run_emits_the_records_it_applied(tmp_path, capsys):
    src = write(tmp_path, "in.txt", TRIAL_63)
    dst, trace = tmp_path / "out.txt", str(tmp_path / "trace.json")
    assert main(["kernelize", "--problem", "ds", "-k", "1", "--emit-trace", trace, src, str(dst)]) == 0
    assert capsys.readouterr().out == "decided: no\n" and not dst.exists()
    records = read_trace(trace)
    assert [record.rule for record in records] == ["RR2", "RR2", "RR2", "RR3.1"]
    with open(trace) as fh:
        assert [record.to_json() for record in records] == json.load(fh)["records"]
    g, _, _ = parse_graph(TRIAL_63)
    state = replay_trace(all_black_twin(Instance(problem=Problem.DS, graph=g, k=1)), records)
    assert (state.problem, state.graph.n, state.k) == (Problem.BW_TDS, 13, 1)


def test_a_run_decided_before_any_rule_emits_no_records(tmp_path, capsys):
    trace = str(tmp_path / "trace.json")
    argv = ["kernelize", "--problem", "ds", "-k", "0", "--emit-trace", trace]
    assert main([*argv, c4_file(tmp_path), str(tmp_path / "out.txt")]) == 0
    assert capsys.readouterr().out == "decided: no\n"
    with open(trace) as fh:
        assert json.load(fh) == {"schema": 1, "records": []}


@pytest.mark.parametrize("problem, k", [("ds", "3"), ("im", "2")])
def test_bipartite_flag_two_colors_a_file_without_sides(tmp_path, capsys, problem, k):
    g = Graph(range(8), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 6), (3, 7)])
    outputs = []
    for name, parts in (("sided", Bipartition(g.two_color())), ("plain", None)):
        src = write(tmp_path, f"{name}.txt", serialize_graph(g, None, parts))
        dst = tmp_path / f"{name}_out.txt"
        assert main(["kernelize", "--problem", problem, "--bipartite", "-k", k, src, str(dst)]) == 0
        outputs.append((capsys.readouterr().out, dst.read_text()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("problem", ["ds", "im"])
def test_bipartite_flag_on_an_odd_cycle_fails(tmp_path, capsys, problem):
    src = write(tmp_path, "c5.txt", "p 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 0 4\n")
    dst = tmp_path / "out.txt"
    assert main(["kernelize", "--problem", problem, "--bipartite", "-k", "1", src, str(dst)]) == 1
    assert capsys.readouterr().err == "error: graph is not bipartite\n"
    assert not dst.exists()


def test_solve_command(tmp_path, capsys):
    path = write(tmp_path, "star.txt", "p 5\ne 0 1\ne 0 2\ne 0 3\ne 0 4\n")
    assert main(["solve", "--problem", "ds", "-k", "1", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("yes")
    assert "witness: 0" in out
    assert main(["solve", "--problem", "ds", "-k", "1", "--method", "oracle", path]) == 0
    assert "optimum: 1" in capsys.readouterr().out


def test_solve_tds(tmp_path, capsys):
    path = write(tmp_path, "k3.txt", "p 3\ne 0 1\ne 0 2\ne 1 2\n")
    assert main(["solve", "--problem", "tds", "-k", "2", "-r", "2", path]) == 0
    assert capsys.readouterr().out.startswith("yes")


def test_gen_then_closure(tmp_path, capsys):
    out = str(tmp_path / "gen.txt")
    assert main(["gen", "--model", "cliques", "--count", "2", "--size", "3", "-o", out]) == 0
    capsys.readouterr()
    assert main(["closure", out]) == 0
    assert "c=1" in capsys.readouterr().out


def test_gen_er_deterministic(tmp_path):
    a = str(tmp_path / "a.txt")
    b = str(tmp_path / "b.txt")
    main(["gen", "--model", "er", "--n", "10", "--p", "0.4", "--seed", "5", "-o", a])
    main(["gen", "--model", "er", "--n", "10", "--p", "0.4", "--seed", "5", "-o", b])
    assert open(a).read() == open(b).read()


# sha256 of (stdout, written file) for `cclose gen ... -o gen.txt`, run in an
# empty directory; they pin the generators' bytes across rewrites.
GEN_GOLDEN = {
    "--model closure-repair --n 40 --p 0.2 --c 3 --seed 1": (
        "1eb0bc15ad0eac0f2dcf8b7a816cd02c8197cdaab21bf0e29e5253da59fed33c",
        "ec1dd592f27c506b6d861c66c8571fe98e5941e109494ecfe8d184bf088ff552",
    ),
    "--model theta --paths 5": (
        "c538a429a93b7d5f7d548ef7cf2a1688596e156dda142b3651dfc97874c3ba7e",
        "58ecc94e9e2a131c583be9aac5d9a9042337c26692e0e7df2afa43ad9a885f25",
    ),
}


@pytest.mark.parametrize("args", list(GEN_GOLDEN))
def test_gen_bytes_match_golden(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", *args.split(), "-o", "gen.txt"]) == 0
    written = (tmp_path / "gen.txt").read_text()
    assert (_sha(capsys.readouterr().out), _sha(written)) == GEN_GOLDEN[args]


@pytest.mark.parametrize(
    "model, given, missing",
    [
        ("cliques", ["--count", "2"], "--size"),
        ("theta", [], "--paths"),
        ("er", [], "--n and --p"),
        ("closure-repair", ["--n", "8", "--p", "0.5"], "--c"),
    ],
)
def test_gen_missing_model_parameter_is_a_usage_error(tmp_path, capsys, model, given, missing):
    out = tmp_path / "g.txt"
    assert main(["gen", "--model", model, *given, "-o", str(out)]) == 2
    assert f"error: model {model!r} needs {missing}" in capsys.readouterr().err
    assert not out.exists()


def test_verify_command_agrees(capsys):
    code = main(
        ["verify", "--problem", "ds", "--n-max", "6", "--trials", "25", "--seed", "7"]
    )
    assert code == 0
    assert "25/25 trials agree" in capsys.readouterr().out


def test_verify_json_schema(capsys):
    code = main(
        [
            "verify",
            "--problem",
            "is",
            "--n-max",
            "6",
            "--trials",
            "10",
            "--seed",
            "3",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert payload["status"] == "ok"
    assert payload["agreements"] == 10


def test_malformed_file_exits_2(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "p 2\ne 0 9\n")
    assert main(["closure", path]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("p 3\ne 0 1\ne 1 2\ne 1 0\n", "line 4: duplicate edge (1, 0)"),
        ("p 2\ne 0 " + "1" * 4301 + "\n", "line 2: expected an integer in field 2"),
    ],
    ids=["duplicate-edge", "4301-digit-id"],
)
def test_canonical_shaped_malformed_file_exits_2(tmp_path, capsys, text, message):
    assert main(["closure", write(tmp_path, "bad.txt", text)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_usage_error_exits_2(capsys):
    assert main(["kernelize", "--problem", "nope", "-k", "1", "a", "b"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--problem", "is", "--trials", "0"],
        ["verify", "--problem", "is", "--n-max", "-1"],
        ["verify", "--problem", "is", "--k-max", "-1"],
        ["kernelize", "--problem", "is", "-k", "-1", "{c4}", "{out}"],
        ["solve", "--problem", "ds", "-k", "-1", "--method", "oracle", "{c4}"],
        ["verify", "--problem", "tds", "--r", "0"],
        ["kernelize", "--problem", "tds", "-r", "0", "-k", "1", "{c4}", "{out}"],
        ["solve", "--problem", "tds", "-r", "0", "-k", "1", "{c4}"],
        ["solve", "--problem", "tds", "-r", "0", "-k", "1", "--method", "oracle", "{c4}"],
        ["solve", "--problem", "tds", "-r", "-1", "-k", "1", "{c4}"],
        ["ramsey", "--c", "0", "--a", "3", "--b", "3", "{c4}"],
        ["ramsey", "--c", "2", "--a", "0", "--b", "3", "{c4}"],
        ["ramsey", "--c", "2", "--a", "3", "--b", "-1", "{c4}"],
        ["gen", "--model", "cliques", "--count", "0", "--size", "3", "-o", "{out}"],
        ["gen", "--model", "cliques", "--count", "2", "--size", "0", "-o", "{out}"],
        ["gen", "--model", "theta", "--paths", "0", "-o", "{out}"],
        ["gen", "--model", "er", "--n", "-1", "--p", "0.5", "-o", "{out}"],
        ["gen", "--model", "closure-repair", "--n", "8", "--p", "0.5", "--c", "0", "-o", "{out}"],
    ],
    ids=[
        "verify-trials",
        "verify-n-max",
        "verify-k-max",
        "kernelize-k",
        "solve-k",
        "verify-r",
        "kernelize-r",
        "solve-r",
        "solve-oracle-r",
        "solve-negative-r",
        "ramsey-c",
        "ramsey-a",
        "ramsey-b",
        "gen-count",
        "gen-size",
        "gen-paths",
        "gen-n",
        "gen-c",
    ],
)
def test_count_below_its_minimum_is_a_usage_error(tmp_path, capsys, argv):
    paths = {"c4": c4_file(tmp_path), "out": str(tmp_path / "out.txt")}
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert "must be at least" in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["kernelize", "--problem", "is", "-k", "abc", "{c4}", "{out}"], "invalid int value: 'abc'"),
        (["gen", "--model", "er", "--n", "5", "--p", "abc", "-o", "{out}"], "invalid float value: 'abc'"),
    ],
    ids=["kernelize-k", "gen-p"],
)
def test_a_non_numeric_value_is_a_usage_error(tmp_path, capsys, argv, message):
    paths = {"c4": c4_file(tmp_path), "out": str(tmp_path / "out.txt")}
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("p", ["1.5", "-0.1", "nan"])
def test_gen_p_outside_the_unit_interval_is_a_usage_error(tmp_path, capsys, p):
    out = tmp_path / "g.txt"
    assert main(["gen", "--model", "er", "--n", "5", "--p", p, "-o", str(out)]) == 2
    assert f"must lie in [0, 1], got {p}" in capsys.readouterr().err
    assert not out.exists()


def test_resource_limit_exits_3(tmp_path, capsys):
    big = "p 30\n" + "".join(f"e {i} {i + 1}\n" for i in range(29))
    path = write(tmp_path, "big.txt", big)
    assert main(["solve", "--problem", "ds", "-k", "2", "--method", "oracle", path]) == 3


@pytest.mark.parametrize(
    "error, code, prefix",
    [
        (RecursionError("maximum recursion depth exceeded"), 3, "resource limit: maximum"),
        (MemoryError(), 3, "resource limit: MemoryError"),
        (ExtractionError("crown matching fails to saturate V1"), 1, "error: crown"),
        (AssertionError("bipartite kernel bound"), 1, "error: bipartite kernel bound\n"),
        (AssertionError(), 1, "error: AssertionError\n"),
    ],
    ids=["recursion", "memory", "extraction", "assertion", "bare-assertion"],
)
def test_pipeline_errors_map_to_exit_codes(tmp_path, capsys, monkeypatch, error, code, prefix):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(problems, "kernelize_im", failing)
    dst = str(tmp_path / "out.txt")
    assert main(["kernelize", "--problem", "im", "-k", "1", c4_file(tmp_path), dst]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(prefix)
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_an_invalid_extracted_witness_exits_1(tmp_path, capsys, monkeypatch):
    """An edgeless graph at the IRS threshold decides yes through the
    extractor; a witness too small for k is an error, not a bare yes."""
    monkeypatch.setattr(
        kernel_irs, "extract_irs_witness", lambda g, c, k: Witness.vertex_set({0}, Problem.IRS)
    )
    _, _, total = irs_thresholds(1, 2)
    src = write(tmp_path, "g.txt", f"p {total}\n")
    dst = str(tmp_path / "out.txt")
    assert main(["kernelize", "--problem", "irs", "-k", "2", src, dst]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: extracted IRS witness fails validation\n"


def test_serialize_parse_roundtrip_canonical(tmp_path):
    text = "p 3\ne 0 1\ne 1 2\nc 2 white\n"
    g, coloring, parts = parse_graph(text)
    assert serialize_graph(g, coloring, parts) == text


def test_p_above_vertex_limit_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(graphio, "MAX_VERTICES", 3)
    path = write(tmp_path, "big.txt", "p 4\n")
    assert main(["closure", path]) == 3
    captured = capsys.readouterr()
    assert captured.err == "resource limit: line 1: vertex count 4 exceeds the limit of 3\n"


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_main_is_reentrant(tmp_path, capsys, monkeypatch):
    """Flags set in one in-process call do not leak into the next."""
    seen = []
    dispatch = cli._dispatch

    def spy(args):
        seen.append(vars(args).copy())
        return dispatch(args)

    monkeypatch.setattr(cli, "_dispatch", spy)
    src = c4_file(tmp_path)
    trace = tmp_path / "trace.json"
    dst = str(tmp_path / "out.txt")
    argv = ["kernelize", "--problem", "im", "-k", "1", "--emit-trace"]
    assert main([*argv, str(trace), src, dst]) == 0
    assert trace.exists()
    trace.unlink()
    assert main(["cliques", "--count-only", src]) == 0
    assert main(["kernelize", "--problem", "im", "-k", "1", src, dst]) == 0
    assert not trace.exists()
    assert main(["cliques", src]) == 0
    assert main(["gen", "--model", "cliques", "--count", "2", "--size", "3", "-o", dst]) == 0
    assert main(["gen", "--model", "er", "--n", "4", "--p", "0.5", "-o", dst]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "4" and out[3:7] == ["0 1", "0 3", "1 2", "2 3"]
    assert seen[0]["emit_trace"] == str(trace) and seen[2]["emit_trace"] is None
    assert seen[1]["count_only"] and not seen[3]["count_only"]
    assert seen[4]["count"] == 2 and seen[5]["count"] is None and seen[5]["seed"] == 0
    commands = [args["command"] for args in seen]
    assert commands == ["kernelize", "cliques", "kernelize", "cliques", "gen", "gen"]


# sha256 of (stdout, output file or None, trace file or None) for every
# command that the benchmark's sparse_cli workload runs on its G(n, 6/n) and
# colored bipartite files. The inputs are a seeded
# `cclose gen --model er --n 1000 --p 0.006` graph and a colored bipartite
# graph derived from it. The digests were recorded with the two-pass parser
# (`helpers.reference_parse_graph`), so they pin the CLI's bytes across its
# rewrites.
GOLDEN = {
    ("gnp.txt", "closure"): (
        "a3ea85fcd2bc133c9a787f4864c8ce65fdfa54792f15dbc9b9251e1993452c59",
        None,
        None,
    ),
    ("gnp.txt", "cliques --count-only"): (
        "3224d5369273a4550b7186c8389e927cf86027e5912a7da00141f0ebbfc99ea4",
        None,
        None,
    ),
    # decided yes; the trace holds the RR1 records applied before the decision
    ("gnp.txt", "kernelize --problem is -k 2"): (
        "e0ee4c6de380432986776f9df01c7f52747d93c77697c7c3a26c68f5b7287b7e",
        None,
        "5d73ad24f984beb760da5696d32ed7387111c0e3d89920e9911eab79263a5cc3",
    ),
    ("gnp.txt", "kernelize --problem is -k 30"): (
        "dc63aab396fd14b52f1be0629748489206d042b4138101950a511d067f89e71b",
        "b720e221f608b640b10b6e117059313e6f5cef908aa90297044371f05141a316",
        "7ac815bfabffcaa9fa85f179313cbcbc80acaa1b16d2e1598d07542c98365c69",
    ),
    ("gnp.txt", "kernelize --problem im -k 3"): (
        "64923e896e61f3d745272e62e3d7666e2ed48802bb0da9bb93f1e801facbe315",
        "ce4b3e186e88cfa64d697da719dae222c5f2052cf006c49315bce31f7cab515d",
        "541db30be6935479d8f3d8effd2a32b98671bf796f1e5becb65d40ab3ffaee4b",
    ),
    ("gnp.txt", "kernelize --problem irs -k 3"): (
        "64f5ed09dfed16ea6684386273d640d47aa4a9bdde749c8779c02edcf2cf664f",
        "b720e221f608b640b10b6e117059313e6f5cef908aa90297044371f05141a316",
        "7ac815bfabffcaa9fa85f179313cbcbc80acaa1b16d2e1598d07542c98365c69",
    ),
    ("bip.txt", "kernelize --problem ds --bipartite -k 3"): (
        "c41c4ea07911dec7a597f554a4d95b6d57259f328e690d5712cb18a905d1e91e",
        None,
        "7ac815bfabffcaa9fa85f179313cbcbc80acaa1b16d2e1598d07542c98365c69",
    ),
    ("bip.txt", "kernelize --problem ds --bipartite -k 40"): (
        "961a3a039fe479672a91e55f721013446b094a414fd27e493941805b47a27088",
        "9ff91f1a39c34dbdece8caeeff8bc6f10cbc78898c6ea5ae0691557e17be6868",
        "9c8dd9554522ca1d374d2d503ba136ba82b937026eec08ae301ede114eb80e1e",
    ),
    ("bip.txt", "kernelize --problem im --bipartite --mode closure -k 3"): (
        "f4c6706c1b92c54b4e35069d90dbedc70021ecfcae4dbf8731fd7f052211ff05",
        None,
        "7ac815bfabffcaa9fa85f179313cbcbc80acaa1b16d2e1598d07542c98365c69",
    ),
    ("bip.txt", "kernelize --problem im --bipartite --mode delta -k 3"): (
        "f4c6706c1b92c54b4e35069d90dbedc70021ecfcae4dbf8731fd7f052211ff05",
        None,
        "7ac815bfabffcaa9fa85f179313cbcbc80acaa1b16d2e1598d07542c98365c69",
    ),
}


def _sha(data):
    return None if data is None else hashlib.sha256(data.encode()).hexdigest()


@pytest.fixture(scope="module")
def golden_files(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    gnp = str(workdir / "gnp.txt")
    with contextlib.redirect_stdout(io.StringIO()):
        argv = ["gen", "--model", "er", "--n", "1000", "--p", "0.006", "--seed", "5", "-o", gnp]
        assert main(argv) == 0
    g, _, _ = graphio.load_graph(gnp)
    bip = Graph(g.vertex_ids, [(u, v) for u, v in g.edges() if (u + v) % 2])
    white = Coloring(frozenset(v for v in g.vertex_ids if v % 3 == 0))
    parts = Bipartition(frozenset(v for v in g.vertex_ids if v % 2 == 0))
    graphio.save_graph(workdir / "bip.txt", bip, white, parts)
    return workdir


def _golden_run(workdir, command, name):
    """Run one command on ``workdir/name``; the digests of what it wrote."""
    argv = list(command)
    out_path = workdir / "out.txt"
    trace_path = workdir / "trace.json"
    for path in (out_path, trace_path):
        if path.exists():
            path.unlink()
    if command[0] == "kernelize":
        argv += ["--emit-trace", str(trace_path), str(workdir / name), str(out_path)]
    else:
        argv.append(str(workdir / name))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    files = [p.read_text() if p.exists() else None for p in (out_path, trace_path)]
    return [_sha(stdout.getvalue()), *map(_sha, files)]


@pytest.mark.parametrize("name, command", list(GOLDEN), ids=[" ".join(key) for key in GOLDEN])
def test_cli_bytes_match_golden(golden_files, name, command):
    assert _golden_run(golden_files, command.split(), name) == list(GOLDEN[name, command])


# How often each command scans its graph for the closure: once where the
# pipeline reads c, never where it does not (listing cliques, and the
# bipartite IM kernel in delta mode).
CLOSURE_SCANS = {"cliques --count-only": 0, "kernelize --problem im --bipartite --mode delta -k 3": 0}


def count_closure_scans(monkeypatch):
    """Route every ``compute_closure`` the library's modules hold through a
    counter; the list it returns grows by one per scan."""
    import sys

    from cclose import closure

    original = closure.compute_closure
    scans = []

    def counted(g):
        scans.append(g.n)
        return original(g)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("cclose") and getattr(module, "compute_closure", None) is original:
            monkeypatch.setattr(module, "compute_closure", counted)
    return scans


@pytest.mark.parametrize("name, command", list(GOLDEN), ids=[" ".join(key) for key in GOLDEN])
def test_closure_scans_per_command(golden_files, monkeypatch, name, command):
    scans = count_closure_scans(monkeypatch)
    assert _golden_run(golden_files, command.split(), name) == list(GOLDEN[name, command])
    assert len(scans) == CLOSURE_SCANS.get(command, 1)


@pytest.mark.parametrize("method, expected", [("oracle", 0), ("branch", 1)])
def test_solve_scans_for_the_closure_only_when_it_branches(tmp_path, capsys, monkeypatch, method, expected):
    """The oracle reads no c, so a file above its size limit exits 3
    without a closure scan."""
    scans = count_closure_scans(monkeypatch)
    path = write(tmp_path, "star.txt", "p 5\ne 0 1\ne 0 2\ne 0 3\ne 0 4\n")
    assert main(["solve", "--problem", "ds", "-k", "1", "--method", method, path]) == 0
    assert capsys.readouterr().out.startswith("yes")
    big = write(tmp_path, "big.txt", "p 30\n" + "".join(f"e {i} {i + 1}\n" for i in range(29)))
    assert main(["solve", "--problem", "ds", "-k", "2", "--method", method, big]) == (3 if method == "oracle" else 0)
    assert len(scans) == 2 * expected
