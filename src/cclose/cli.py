"""Command-line frontend.

Exit codes:
  0  success or agreement
  1  failure or disagreement, including a failed extraction (an ``error:``
     line on stderr)
  2  usage or input error
  3  resource limit exceeded: an oracle's size limit, a graph file's vertex
     count above graphio.MAX_VERTICES, the interpreter's recursion limit, or
     memory (a ``resource limit:`` line on stderr)
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Callable

from .cliques import maximal_cliques
from .closure import compute_closure
from .errors import ExtractionError, ParseError, PreconditionError, ResourceLimitError
from .generators import MODEL_PARAMS, generate
from .graphio import load_graph, save_graph
from .instances import Decided
from .kernel_im import BIPARTITE_MODES
from .oracle import oracle_tds
from .problems import KERNELIZE, SOLVE, lookup, names
from .ramsey import Clique, clique_or_independent_set
from .verify import PROBLEMS, kernelize, run_verify


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """An argparse type for a count: an integer of at least ``minimum``, so
    that a count that checks nothing is a usage error (exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _probability(text: str) -> float:
    """An argparse type for an edge probability: a float in [0, 1], so that
    one outside it is a usage error (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps no
    state between calls, and every in-process ``main`` call reuses it."""
    parser = argparse.ArgumentParser(prog="cclose", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_closure = sub.add_parser("closure", help="compute the closure of a graph")
    p_closure.add_argument("file")

    p_cliques = sub.add_parser("cliques", help="enumerate maximal cliques")
    p_cliques.add_argument("file")
    p_cliques.add_argument("--count-only", action="store_true")

    p_ramsey = sub.add_parser("ramsey", help="extract a clique or independent set")
    p_ramsey.add_argument("--c", type=_int_at_least(1), required=True)
    p_ramsey.add_argument("--a", type=_int_at_least(1), required=True)
    p_ramsey.add_argument("--b", type=_int_at_least(1), required=True)
    p_ramsey.add_argument("file")

    p_kern = sub.add_parser("kernelize", help="run a kernelization pipeline")
    p_kern.add_argument("--problem", required=True, choices=names(KERNELIZE))
    p_kern.add_argument("-k", type=_int_at_least(0), required=True)
    p_kern.add_argument("-r", type=_int_at_least(1), default=1)
    p_kern.add_argument("--bipartite", action="store_true")
    p_kern.add_argument("--mode", choices=list(BIPARTITE_MODES), default="delta")
    p_kern.add_argument("--emit-trace")
    p_kern.add_argument("infile")
    p_kern.add_argument("outfile")

    p_solve = sub.add_parser("solve", help="solve (threshold) dominating set")
    p_solve.add_argument("--problem", required=True, choices=names(SOLVE))
    p_solve.add_argument("-k", type=_int_at_least(0), required=True)
    p_solve.add_argument("-r", type=_int_at_least(1), default=1)
    p_solve.add_argument("--method", choices=["branch", "oracle"], default="branch")
    p_solve.add_argument("file")

    p_verify = sub.add_parser("verify", help="randomized agreement check vs. the oracle")
    p_verify.add_argument("--problem", required=True, choices=list(PROBLEMS))
    p_verify.add_argument("--n-max", type=_int_at_least(0), default=8)
    p_verify.add_argument("--trials", type=_int_at_least(1), default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--k-max", type=_int_at_least(0), default=3)
    p_verify.add_argument("--r", type=_int_at_least(1), default=1)
    p_verify.add_argument("--bipartite", action="store_true")
    p_verify.add_argument("--json", action="store_true", dest="as_json")

    p_gen = sub.add_parser("gen", help="generate a graph")
    p_gen.add_argument("--model", required=True, choices=[m.replace("_", "-") for m in MODEL_PARAMS])
    p_gen.add_argument("--count", type=_int_at_least(1))
    p_gen.add_argument("--size", type=_int_at_least(1))
    p_gen.add_argument("--paths", type=_int_at_least(1))
    p_gen.add_argument("--n", type=_int_at_least(0))
    p_gen.add_argument("--p", type=_probability)
    p_gen.add_argument("--c", type=_int_at_least(1))
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return _dispatch(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResourceLimitError, RecursionError, MemoryError) as exc:
        print(f"resource limit: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    except (ValueError, PreconditionError, ExtractionError, OSError, AssertionError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "closure":
        g, _, _ = load_graph(args.file)
        report = compute_closure(g)
        print(f"c={report.c}")
        if report.witness_pair is not None:
            print(f"witness: {report.witness_pair[0]} {report.witness_pair[1]}")
        else:
            print("witness: none")
        return 0

    if args.command == "cliques":
        g, _, _ = load_graph(args.file)
        cliques = maximal_cliques(g)
        if args.count_only:
            print(len(cliques))
        else:
            for clique in cliques:
                print(" ".join(map(str, clique)))
        return 0

    if args.command == "ramsey":
        g, _, _ = load_graph(args.file)
        outcome = clique_or_independent_set(g, args.c, args.a, args.b)
        tag = "clique" if isinstance(outcome, Clique) else "independent-set"
        print(f"{tag}: {' '.join(map(str, sorted(outcome.vertices)))}")
        return 0

    if args.command == "kernelize":
        return _run_kernelize(args)

    if args.command == "solve":
        g, _, _ = load_graph(args.file)
        entry = lookup(SOLVE, args.problem)
        inst = entry.instance(g, args.k, args.r)
        if args.method == "oracle":
            opt = oracle_tds(g, r=inst.r or 1)
            print("yes" if opt is not None and opt <= args.k else "no")
            if opt is not None:
                print(f"optimum: {opt}")
            return 0
        outcome = entry.solver.run(inst, compute_closure(g).c)
        print("yes" if outcome.answer else "no")
        if outcome.witness is not None:
            print(f"witness: {' '.join(map(str, outcome.witness.sorted_elements()))}")
        return 0

    if args.command == "verify":
        report = run_verify(
            args.problem, args.n_max, args.trials, args.seed, args.k_max, args.r, args.bipartite
        )
        if args.as_json:
            print(json.dumps(report.to_json(), indent=2))
        else:
            agreements = sum(t.agreed for t in report.results)
            print(f"{agreements}/{len(report.results)} trials agree")
            for bad in report.disagreements:
                print(f"trial {bad.index} (n={bad.n}, k={bad.k}, c={bad.c}): {bad.detail}")
            if report.reproducer:
                print("minimized reproducer:")
                print(report.reproducer, end="")
        return 0 if report.ok else 1

    if args.command == "gen":
        model = args.model.replace("-", "_")
        given = {key: getattr(args, key) for key in ("count", "size", "paths", "n", "p", "c")}
        params = {key: value for key, value in given.items() if value is not None}
        missing = [f"--{key}" for key in MODEL_PARAMS[model] if key not in params]
        if missing:
            print(f"error: model {args.model!r} needs {' and '.join(missing)}", file=sys.stderr)
            return 2
        g = generate(model, seed=args.seed, **params)
        save_graph(args.output, g)
        print(f"wrote {args.output} (n={g.n}, m={g.m})")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def _run_kernelize(args: argparse.Namespace) -> int:
    g, coloring, bipartition = load_graph(args.infile)
    entry = lookup(KERNELIZE, args.problem, args.bipartite)
    inst = entry.instance(g, args.k, args.r, coloring, bipartition)
    c = compute_closure(g).c if entry.kernel(args.mode).reads_c else None
    outcome = kernelize(inst, c, args.mode)

    if args.emit_trace is not None:
        with open(args.emit_trace, "w", encoding="utf-8") as fh:
            json.dump({"schema": 1, "records": [r.to_json() for r in outcome.trace]}, fh, indent=2)

    if isinstance(outcome, Decided):
        print(f"decided: {'yes' if outcome.answer else 'no'}")
        if outcome.witness is not None:
            elems = outcome.witness.sorted_elements()
            rendered = [f"{e[0]}-{e[1]}" if isinstance(e, tuple) else str(e) for e in elems]
            print(f"witness: {' '.join(rendered)}")
        return 0

    reduced = outcome.instance
    save_graph(args.outfile, reduced.graph, reduced.coloring, reduced.bipartition)
    print(f"reduced: n={reduced.graph.n} m={reduced.graph.m} k={reduced.k}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
