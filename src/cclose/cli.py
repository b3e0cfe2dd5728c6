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

from .cliques import maximal_cliques
from .closure import compute_closure
from .errors import ExtractionError, ParseError, PreconditionError, ResourceLimitError
from .generators import MODEL_PARAMS, generate
from .graphio import load_graph, normalize_ids, save_graph
from .instances import Bipartition, Coloring, Decided, Instance, Problem, Reduced
from .kernel_ds import kernelize_bipartite_bwds, kernelize_bwtds, kernelize_ds
from .kernel_im import kernelize_im, kernelize_im_bipartite
from .kernel_irs import kernelize_irs
from .kernel_is import kernelize_is
from .oracle import oracle_ds, oracle_tds
from .ramsey import Clique, clique_or_independent_set
from .solver import solve_ds, solve_tds
from .verify import PROBLEMS, run_verify


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
    p_ramsey.add_argument("--c", type=int, required=True)
    p_ramsey.add_argument("--a", type=int, required=True)
    p_ramsey.add_argument("--b", type=int, required=True)
    p_ramsey.add_argument("file")

    p_kern = sub.add_parser("kernelize", help="run a kernelization pipeline")
    p_kern.add_argument("--problem", required=True, choices=["is", "ds", "tds", "im", "irs"])
    p_kern.add_argument("-k", type=int, required=True)
    p_kern.add_argument("-r", type=int, default=1)
    p_kern.add_argument("--bipartite", action="store_true")
    p_kern.add_argument("--mode", choices=["delta", "closure"], default="delta")
    p_kern.add_argument("--require-witness", action="store_true")
    p_kern.add_argument("--emit-trace")
    p_kern.add_argument("infile")
    p_kern.add_argument("outfile")

    p_solve = sub.add_parser("solve", help="solve (threshold) dominating set")
    p_solve.add_argument("--problem", required=True, choices=["ds", "tds"])
    p_solve.add_argument("-k", type=int, required=True)
    p_solve.add_argument("-r", type=int, default=1)
    p_solve.add_argument("--method", choices=["branch", "oracle"], default="branch")
    p_solve.add_argument("file")

    p_verify = sub.add_parser("verify", help="randomized agreement check vs. the oracle")
    p_verify.add_argument("--problem", required=True, choices=list(PROBLEMS))
    p_verify.add_argument("--n-max", type=int, default=8)
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--k-max", type=int, default=3)
    p_verify.add_argument("--r", type=int, default=1)
    p_verify.add_argument("--bipartite", action="store_true")
    p_verify.add_argument("--json", action="store_true", dest="as_json")

    p_gen = sub.add_parser("gen", help="generate a graph")
    p_gen.add_argument("--model", required=True, choices=["cliques", "theta", "er", "closure-repair"])
    p_gen.add_argument("--count", type=int)
    p_gen.add_argument("--size", type=int)
    p_gen.add_argument("--paths", type=int)
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--p", type=float)
    p_gen.add_argument("--c", type=int)
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
    except (ValueError, PreconditionError, ExtractionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
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
        c = compute_closure(g).c
        if args.method == "oracle":
            opt = oracle_ds(g) if args.problem == "ds" else oracle_tds(g, r=args.r)
            answer = opt is not None and opt <= args.k
            print("yes" if answer else "no")
            if opt is not None:
                print(f"optimum: {opt}")
            return 0
        if args.problem == "ds":
            answer, witness = solve_ds(g, c, args.k)
        else:
            answer, witness = solve_tds(g, c, args.r, args.k)
        print("yes" if answer else "no")
        if witness is not None:
            print(f"witness: {' '.join(map(str, witness.sorted_elements()))}")
        return 0

    if args.command == "verify":
        report = run_verify(
            problem=args.problem,
            n_max=args.n_max,
            trials=args.trials,
            seed=args.seed,
            k_max=args.k_max,
            r=args.r,
            bipartite=args.bipartite,
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
        params = {}
        for key in ("count", "size", "paths", "n", "p", "c"):
            value = getattr(args, key)
            if value is not None:
                params[key] = value
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
    c = compute_closure(g).c
    if args.problem == "is":
        inst = Instance(problem=Problem.IS, graph=g, k=args.k)
        outcome = kernelize_is(inst, c)
    elif args.problem == "im" and args.bipartite:
        parts = _require_bipartition(g, bipartition)
        inst = Instance(problem=Problem.IM, graph=g, k=args.k, bipartition=parts)
        outcome = kernelize_im_bipartite(
            inst, parts, mode=args.mode, c=c, require_witness=args.require_witness
        )
    elif args.problem == "im":
        inst = Instance(problem=Problem.IM, graph=g, k=args.k)
        outcome = kernelize_im(inst, c, require_witness=args.require_witness)
    elif args.problem == "irs":
        inst = Instance(problem=Problem.IRS, graph=g, k=args.k)
        outcome = kernelize_irs(inst, c, require_witness=args.require_witness)
    elif args.problem == "ds" and args.bipartite:
        parts = _require_bipartition(g, bipartition)
        inst = Instance(
            problem=Problem.BW_TDS,
            graph=g,
            k=args.k,
            r=1,
            coloring=coloring or Coloring(),
            bipartition=parts,
        )
        outcome = kernelize_bipartite_bwds(inst, parts, c)
    elif args.problem == "ds":
        inst = Instance(problem=Problem.DS, graph=g, k=args.k)
        outcome = kernelize_ds(inst, c)
    else:  # tds; a colored file means the BW variant
        inst = Instance(
            problem=Problem.BW_TDS,
            graph=g,
            k=args.k,
            r=args.r,
            coloring=coloring or Coloring(),
        )
        outcome = kernelize_bwtds(inst, c)

    if args.emit_trace is not None:
        trace = outcome.trace if isinstance(outcome, Reduced) else ()
        with open(args.emit_trace, "w", encoding="utf-8") as fh:
            json.dump({"schema": 1, "records": [r.to_json() for r in trace]}, fh, indent=2)

    if isinstance(outcome, Decided):
        print(f"decided: {'yes' if outcome.answer else 'no'}")
        if outcome.witness is not None:
            elems = outcome.witness.sorted_elements()
            rendered = " ".join(
                f"{e[0]}-{e[1]}" if isinstance(e, tuple) else str(e) for e in elems
            )
            print(f"witness: {rendered}")
        return 0

    reduced = outcome.instance
    normalized, mapping = normalize_ids(reduced.graph)
    new_coloring = None
    if reduced.coloring is not None:
        new_coloring = Coloring(
            frozenset(mapping[v] for v in reduced.coloring.white_of(reduced.graph))
        )
    new_parts = None
    if reduced.bipartition is not None:
        new_parts = Bipartition(
            frozenset(mapping[v] for v in reduced.bipartition.left_of(reduced.graph))
        )
    save_graph(args.outfile, normalized, new_coloring, new_parts)
    print(f"reduced: n={normalized.n} m={normalized.m} k={reduced.k}")
    return 0


def _require_bipartition(g, bipartition) -> Bipartition:
    if bipartition is not None:
        return bipartition
    left = g.two_color()
    if left is None:
        raise ValueError("graph is not bipartite")
    return Bipartition(left)


if __name__ == "__main__":
    sys.exit(main())
