import contextlib
import hashlib
import io
import json

import pytest

from cclose import Bipartition, Coloring, Graph, cli, graphio, parse_graph, serialize_graph
from cclose.cli import main
from cclose.errors import ExtractionError


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
    assert all("rule" in record for record in payload["records"])


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


def test_usage_error_exits_2(capsys):
    assert main(["kernelize", "--problem", "nope", "-k", "1", "a", "b"]) == 2


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
    ],
    ids=["recursion", "memory", "extraction"],
)
def test_pipeline_errors_map_to_exit_codes(tmp_path, capsys, monkeypatch, error, code, prefix):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "kernelize_im", failing)
    dst = str(tmp_path / "out.txt")
    assert main(["kernelize", "--problem", "im", "-k", "1", c4_file(tmp_path), dst]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(prefix)
    assert "Traceback" not in captured.err


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
    argv = ["kernelize", "--problem", "im", "-k", "1", "--require-witness", "--emit-trace"]
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
    assert seen[0]["emit_trace"] == str(trace) and seen[0]["require_witness"]
    assert seen[2]["emit_trace"] is None and not seen[2]["require_witness"]
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
    ("gnp.txt", "kernelize --problem is -k 2"): (
        "e0ee4c6de380432986776f9df01c7f52747d93c77697c7c3a26c68f5b7287b7e",
        None,
        "7ac815bfabffcaa9fa85f179313cbcbc80acaa1b16d2e1598d07542c98365c69",
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
