#!/usr/bin/env python3
"""Run the randomized oracle-agreement check across every problem.

Example:
    python scripts/verify_sweep.py --n-max 8 --trials 100 --seed 7
"""

import argparse
import sys
import time

from cclose.cli import _int_at_least
from cclose.verify import PROBLEMS, run_verify


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=_int_at_least(0), default=8)
    parser.add_argument("--trials", type=_int_at_least(1), default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k-max", type=_int_at_least(0), default=3)
    args = parser.parse_args()

    jobs = [(p, 1, False) for p in PROBLEMS]
    jobs += [(p, r, False) for r in (2, 3) for p in ("tds", "bwtds")]
    jobs += [("ds", 1, True), ("im", 1, True), ("bwtds", 1, True)]

    print(f"{'problem':<10} {'r':>2} {'bip':>4} {'agree':>7} {'time':>7}")
    failures = agreed = trials = 0
    sweep_started = time.time()
    for problem, r, bipartite in jobs:
        started = time.time()
        report = run_verify(
            problem,
            n_max=args.n_max,
            trials=args.trials,
            seed=args.seed,
            k_max=args.k_max,
            r=r,
            bipartite=bipartite,
        )
        agree = sum(t.agreed for t in report.results)
        agreed += agree
        trials += len(report.results)
        print(
            f"{problem:<10} {r:>2} {str(bipartite):>4} "
            f"{agree:>3}/{len(report.results):<3} {time.time() - started:>6.1f}s"
        )
        if not report.ok:
            failures += 1
            for bad in report.disagreements[:3]:
                print(f"  trial {bad.index}: {bad.detail}")
            if report.reproducer:
                print("  reproducer:")
                for line in report.reproducer.splitlines():
                    print(f"    {line}")
    print(f"total: {len(jobs)} jobs, {agreed}/{trials} trials agreed, {time.time() - sweep_started:.1f}s wall")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
