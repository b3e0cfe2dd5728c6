import json

import pytest

from cclose import cli, parse_graph, serialize_graph
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
