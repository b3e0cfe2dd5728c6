"""The benchmark's workloads: seeded inputs, the operations run on them, and
the check that each operation's output is correct.

An operation is one library pipeline call, one in-process CLI round trip, or
one certification call. Each ``setup`` returns one pass: the list of
operations that a run repeats.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import re
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import gen
from cclose import cli, graphio, instances, kernel_ds, kernel_im, kernel_irs, kernel_is, oracle, solver, verify
from cclose.closure import compute_closure
from cclose.graph import Graph, path_graph
from cclose.instances import Bipartition, Coloring, Decided, Instance, Problem, Reduced, Witness


@dataclass(frozen=True)
class Checked:
    """The verdict on one output: ``canon`` renders it for the digest and
    ``kernel_vertices`` is the vertex count of a reduced instance (else 0)."""

    ok: bool
    canon: str
    kernel_vertices: int = 0


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], Checked]


def _rng(seed: int, *tags) -> random.Random:
    return random.Random(f"{seed}/" + "/".join(map(str, tags)))


# -- checks shared by the library workloads -------------------------------------


def _witness_text(w: Witness | None) -> str:
    return "-" if w is None else json.dumps(w.sorted_elements())


def _instance_text(inst: Instance) -> str:
    g = inst.graph
    whites = sorted(inst.coloring.white_of(g)) if inst.coloring else []
    return json.dumps([inst.problem.value, inst.k, inst.r, g.vertex_ids, g.edges(), whites])


def _check_decided(inst: Instance, answer: bool, witness: Witness | None) -> Checked:
    ok = True
    if answer and witness is not None:
        target = inst
        if witness.problem is not inst.problem:
            target = Instance(problem=witness.problem, graph=inst.graph, k=inst.k)
        ok = oracle.validate_witness(target, witness)
    return Checked(ok, f"decided {int(answer)} {_witness_text(witness)}")


def check_kernel(inst: Instance, out, replay_base: Instance | None = None) -> Checked:
    """A decided yes must carry a valid witness (when it has one); a reduction's
    trace, replayed from the input, must reproduce the reduced instance."""
    if isinstance(out, Decided):
        return _check_decided(inst, out.answer, out.witness)
    if not isinstance(out, Reduced):
        return Checked(False, f"unexpected {type(out).__name__}")
    replayed = instances.replay_trace(replay_base or inst, out.trace)
    ok = replayed.graph == out.instance.graph and replayed.k == out.instance.k
    trace = [record.to_json() for record in out.trace]
    return Checked(ok, _instance_text(out.instance) + json.dumps(trace), out.instance.graph.n)


def check_solve(inst: Instance, out) -> Checked:
    answer, witness = out
    return _check_decided(inst, answer, witness)


# -- social_kernel ------------------------------------------------------------------

# Every graph has the same size and closure. With several sizes the op
# classes' latencies interleave with gaps, and p50 and p90 fall into a gap
# whose place moves from seed to seed; one size keeps each quantile inside
# one op class. Many small graphs rather than a few large ones, because the
# quantiles' spread between seeds shrinks with the number of graphs: at
# n = 50 a graph's seven ops take about half a second (Python 3.11 on a
# 2-core Xeon), so a pass of 280 ops takes about 20 seconds.
SOCIAL_N = 50
SOCIAL_C = 4
SOCIAL_GRAPHS = 40
SOCIAL_K = 2
SOCIAL_R = 2
SOCIAL_WHITE = 0.3


def setup_social(seed: int, workdir: Path) -> list[Op]:
    ops: list[Op] = []
    for i in range(SOCIAL_GRAPHS):
        rng = _rng(seed, "social", i)
        g = gen.to_graph(gen.community_graph(rng, SOCIAL_N, SOCIAL_C))
        white = gen.whites(rng, SOCIAL_N, SOCIAL_WHITE)
        ops.extend(_social_ops(g, SOCIAL_C, white, str(i)))
    return ops


def _social_ops(g: Graph, c: int, white: frozenset[int], tag: str) -> list[Op]:
    k, r = SOCIAL_K, SOCIAL_R
    ds = Instance(problem=Problem.DS, graph=g, k=k)
    ds_colored = Instance(problem=Problem.BW_TDS, graph=g, k=k, r=1, coloring=Coloring())
    bw = Instance(problem=Problem.BW_TDS, graph=g, k=k, r=r, coloring=Coloring(white))
    is_ = Instance(problem=Problem.IS, graph=g, k=k)
    im = Instance(problem=Problem.IM, graph=g, k=k)
    irs = Instance(problem=Problem.IRS, graph=g, k=k)
    tds = Instance(problem=Problem.TDS, graph=g, k=k, r=r)
    return [
        Op(f"kernelize_ds/{tag}", lambda: kernel_ds.kernelize_ds(ds, c),
           lambda out: check_kernel(ds, out, ds_colored)),
        Op(f"kernelize_bwtds/{tag}", lambda: kernel_ds.kernelize_bwtds(bw, c),
           lambda out: check_kernel(bw, out)),
        Op(f"kernelize_is/{tag}", lambda: kernel_is.kernelize_is(is_, c),
           lambda out: check_kernel(is_, out)),
        Op(f"kernelize_im/{tag}", lambda: kernel_im.kernelize_im(im, c),
           lambda out: check_kernel(im, out)),
        Op(f"kernelize_irs/{tag}", lambda: kernel_irs.kernelize_irs(irs, c),
           lambda out: check_kernel(irs, out)),
        Op(f"solve_ds/{tag}", lambda: solver.solve_ds(g, c, k), lambda out: check_solve(ds, out)),
        Op(f"solve_tds/{tag}", lambda: solver.solve_tds(g, c, r, k), lambda out: check_solve(tds, out)),
    ]


# -- sparse_cli ---------------------------------------------------------------------

# Graph files: (kind, n, copies). Small graphs come in several copies so
# that a pass holds at least 100 operations. Two n = 1000 files put p90 on
# their closure-bound kernels, whose cost barely varies between seeds; with
# one, p90 falls on the IM kernels of n = 500 graphs, whose cost does.
SPARSE_FILES = (("gnp", 250, 6), ("gnp", 500, 2), ("gnp", 1000, 2),
                ("bip", 250, 6), ("bip", 500, 2), ("bip", 1000, 2))
SPARSE_DEGREE = 6.0
SPARSE_BIP_DEGREE = 3.0
SPARSE_WHITE = 0.3
PATH_N = 2000

GNP_COMMANDS = (
    ("closure",),
    ("cliques", "--count-only"),
    ("kernelize", "--problem", "is", "-k", "2"),
    ("kernelize", "--problem", "is", "-k", "30"),
    ("kernelize", "--problem", "im", "-k", "3"),
    ("kernelize", "--problem", "irs", "-k", "3"),
)
BIP_COMMANDS = (
    ("kernelize", "--problem", "ds", "--bipartite", "-k", "3"),
    ("kernelize", "--problem", "ds", "--bipartite", "-k", "40"),
    ("kernelize", "--problem", "im", "--bipartite", "--mode", "closure", "-k", "3"),
    ("kernelize", "--problem", "im", "--bipartite", "--mode", "delta", "-k", "3"),
)
# Kuhn's recursive matching overflows the interpreter stack on this path, so
# these operations fail today. They stay: the benchmark must show it.
PATH_COMMANDS = (
    ("kernelize", "--problem", "im", "-k", "3"),
    ("kernelize", "--problem", "im", "--bipartite", "--mode", "closure", "-k", "3"),
    ("kernelize", "--problem", "im", "--bipartite", "--mode", "delta", "-k", "3"),
)


@dataclass
class GraphFile:
    path: Path
    adj: gen.Adj
    _closure: int | None = None
    _cliques: int | None = None
    _loaded: tuple | None = None

    def closure(self) -> int:
        if self._closure is None:
            self._closure = gen.closure_of(self.adj)
        return self._closure

    def clique_count(self) -> int:
        if self._cliques is None:
            self._cliques = gen.count_maximal_cliques(self.adj)
        return self._cliques

    def loaded(self) -> tuple:
        if self._loaded is None:
            self._loaded = graphio.load_graph(self.path)
        return self._loaded


def setup_sparse(seed: int, workdir: Path) -> list[Op]:
    workdir.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []
    for kind, n, copies in SPARSE_FILES:
        for copy in range(copies):
            rng = _rng(seed, "sparse", kind, n, copy)
            path = workdir / f"{kind}{n}-{copy}.txt"
            if kind == "gnp":
                adj = gen.gnp(rng, n, SPARSE_DEGREE / n)
                graphio.save_graph(path, gen.to_graph(adj))
                commands = GNP_COMMANDS
            else:
                adj, left = gen.bipartite_graph(rng, n, SPARSE_BIP_DEGREE)
                white = gen.whites(rng, n, SPARSE_WHITE)
                graphio.save_graph(path, gen.to_graph(adj), Coloring(white), Bipartition(left))
                commands = BIP_COMMANDS
            ops.extend(_cli_ops(GraphFile(path, adj), commands, workdir))
    path = workdir / f"path{PATH_N}.txt"
    graphio.save_graph(path, path_graph(PATH_N))
    adj = {v: {w for w in (v - 1, v + 1) if 0 <= w < PATH_N} for v in range(PATH_N)}
    ops.extend(_cli_ops(GraphFile(path, adj), PATH_COMMANDS, workdir))
    return ops


def _cli_ops(source: GraphFile, commands, workdir: Path) -> list[Op]:
    ops = []
    for i, command in enumerate(commands):
        argv = list(command)
        outfile = None
        if command[0] == "kernelize":
            outfile = workdir / f"{source.path.stem}.out{i}.txt"
            argv += [str(source.path), str(outfile)]
        else:
            argv.append(str(source.path))
        name = " ".join(command) + f" {source.path.stem}"
        ops.append(Op(name, _cli_call(argv), _cli_check(command, source, outfile)))
    return ops


class CliExit(Exception):
    """The CLI returned a non-zero exit code."""


def _cli_call(argv: list[str]) -> Callable[[], str]:
    def call() -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise CliExit(f"exit {code}: {err.getvalue().strip()}")
        return out.getvalue()

    return call


def _cli_check(command: tuple[str, ...], source: GraphFile, outfile: Path | None):
    def check(text: str) -> Checked:
        if command[0] == "closure":
            return _check_closure_output(source, text)
        if command[0] == "cliques":
            return Checked(text.strip() == str(source.clique_count()), text)
        return _check_kernelize_output(command, source, outfile, text)

    return check


def _check_closure_output(source: GraphFile, text: str) -> Checked:
    m = re.fullmatch(r"c=(\d+)\nwitness: (none|(\d+) (\d+))\n", text)
    if m is None:
        return Checked(False, text)
    c = int(m.group(1))
    ok = c == source.closure()
    if m.group(3) is not None:
        u, v = int(m.group(3)), int(m.group(4))
        ok = ok and v not in source.adj[u] and len(source.adj[u] & source.adj[v]) == c - 1
    return Checked(ok, text)


def _check_kernelize_output(command, source: GraphFile, outfile: Path, text: str) -> Checked:
    reduced = re.fullmatch(r"reduced: n=(\d+) m=(\d+) k=(\d+)\n", text)
    if reduced is not None:
        n, m = int(reduced.group(1)), int(reduced.group(2))
        body = outfile.read_text(encoding="utf-8")
        outfile.unlink()
        return Checked(_file_has(body, n, m), text + body, n)
    decided = re.fullmatch(r"decided: (yes|no)\n(?:witness: (.*)\n)?", text)
    if decided is None:
        return Checked(False, text)
    if decided.group(1) == "no" or decided.group(2) is None:
        return Checked(decided.group(2) is None, text)
    inst = _cli_instance(command, source)
    if inst.problem is Problem.IM:
        edges = [tuple(map(int, e.split("-"))) for e in decided.group(2).split()]
        witness = Witness.edge_set(edges, Problem.IM)
    else:
        witness = Witness.vertex_set(map(int, decided.group(2).split()), inst.problem)
    return Checked(oracle.validate_witness(inst, witness), text)


def _file_has(body: str, n: int, m: int) -> bool:
    """The reduced file parses: a ``p n`` header, then exactly m in-range edges."""
    lines = body.splitlines()
    if not lines or lines[0] != f"p {n}":
        return False
    edges = 0
    for line in lines[1:]:
        fields = line.split()
        if fields[0] == "e":
            if not all(0 <= int(x) < n for x in fields[1:]):
                return False
            edges += 1
    return edges == m


def _cli_instance(command: tuple[str, ...], source: GraphFile) -> Instance:
    g, coloring, bipartition = source.loaded()
    problem = command[command.index("--problem") + 1]
    k = int(command[command.index("-k") + 1])
    if problem == "ds":  # only the bipartite form decides with a witness here
        return Instance(problem=Problem.BW_TDS, graph=g, k=k, r=1,
                        coloring=coloring or Coloring(), bipartition=bipartition)
    return Instance(problem={"is": Problem.IS, "im": Problem.IM, "irs": Problem.IRS}[problem],
                    graph=g, k=k)


# -- certify_small ------------------------------------------------------------------

# One size, for the reason given at SOCIAL_N: an oracle scan at n = 16 costs
# about four times one at n = 14, and with both sizes p90 falls between the
# two groups. 72 draws of each kind make a pass of 1440 operations, about
# 17 seconds, so that each quantile rests on many graphs.
CERTIFY_SIZES = (14,)
CERTIFY_KINDS = ("community", "gnp", "bipartite")
CERTIFY_DRAWS = 72
CERTIFY_CLOSURE = 3
CERTIFY_CLIQUES = (5, 4, 3)
CERTIFY_P = 0.3
CERTIFY_WHITE = 0.3


@dataclass(frozen=True)
class Certification:
    problem: str
    inst: Instance
    bipartite: bool


def certify_cases(g: Graph, k: int, white: frozenset[int], left: frozenset[int] | None) -> list[Certification]:
    cases = [
        Certification("is", Instance(problem=Problem.IS, graph=g, k=k), False),
        Certification("ds", Instance(problem=Problem.DS, graph=g, k=k), False),
        Certification("tds", Instance(problem=Problem.TDS, graph=g, k=k, r=2), False),
        Certification("bwtds", Instance(problem=Problem.BW_TDS, graph=g, k=k, r=2,
                                        coloring=Coloring(white)), False),
        Certification("im", Instance(problem=Problem.IM, graph=g, k=k), False),
        Certification("irs", Instance(problem=Problem.IRS, graph=g, k=k), False),
    ]
    if left is not None:
        parts = Bipartition(left)
        cases += [
            Certification("ds", Instance(problem=Problem.BW_TDS, graph=g, k=k, r=1,
                                         coloring=Coloring(white), bipartition=parts), True),
            Certification("im", Instance(problem=Problem.IM, graph=g, k=k, bipartition=parts), True),
        ]
    return cases


def setup_certify(seed: int, workdir: Path) -> list[Op]:
    ops: list[Op] = []
    for draw in range(CERTIFY_DRAWS):
        for n in CERTIFY_SIZES:
            for kind in CERTIFY_KINDS:
                rng = _rng(seed, "certify", draw, n, kind)
                left = None
                if kind == "community":
                    adj = gen.community_graph(rng, n, CERTIFY_CLOSURE, CERTIFY_CLIQUES)
                elif kind == "gnp":
                    adj = gen.gnp(rng, n, CERTIFY_P)
                else:
                    adj, left = gen.bipartite_graph(rng, n, CERTIFY_P * n / 2)
                g = gen.to_graph(adj)
                k = 1 + draw % 3  # the same budgets in every pass: k drives kernel size
                for case in certify_cases(g, k, gen.whites(rng, n, CERTIFY_WHITE), left):
                    name = f"{case.problem}{'/bip' if case.bipartite else ''}/{kind}{n}.{draw}"
                    ops.append(_certify_op(case, name))
    return ops


def _certify_op(case: Certification, name: str) -> Op:
    kernel_vertices = functools.cache(lambda: certify_kernel_vertices(case))

    def call():
        return verify.check_instance(case.problem, case.inst, case.bipartite)

    def check(out) -> Checked:
        agreed, detail = out
        return Checked(agreed, f"{int(agreed)} {detail}", kernel_vertices())

    return Op(name, call, check)


def certify_kernel_vertices(case: Certification) -> int:
    """Vertices of every reduced instance the certified pipelines produce.

    The pipelines are those ``verify`` runs for the problem; they are cheap
    next to the oracles, and the result is a pure function of the input.
    """
    inst, c = case.inst, compute_closure(case.inst.graph).c
    if case.problem == "is":
        outs = [kernel_is.kernelize_is(inst, c)]
    elif case.problem == "ds" and case.bipartite:
        outs = [kernel_ds.kernelize_bipartite_bwds(inst, inst.bipartition, c)]
    elif case.problem == "ds":
        outs = [kernel_ds.kernelize_ds(inst, c)]
    elif case.problem == "tds":
        colored = Instance(problem=Problem.BW_TDS, graph=inst.graph, k=inst.k, r=inst.r,
                           coloring=Coloring())
        outs = [kernel_ds.kernelize_bwtds(colored, c)]
    elif case.problem == "bwtds":
        outs = [kernel_ds.kernelize_bwtds(inst, c)]
    elif case.problem == "im" and case.bipartite:
        outs = [kernel_im.kernelize_im_bipartite(inst, inst.bipartition, "delta"),
                kernel_im.kernelize_im_bipartite(inst, inst.bipartition, "closure", c=c),
                kernel_im.kernelize_im(inst, c)]
    elif case.problem == "im":
        outs = [kernel_im.kernelize_im(inst, c)]
    else:
        outs = [kernel_irs.kernelize_irs(inst, c)]
    return sum(out.instance.graph.n for out in outs if isinstance(out, Reduced))


WORKLOADS = {
    "social_kernel": setup_social,
    "sparse_cli": setup_sparse,
    "certify_small": setup_certify,
}
