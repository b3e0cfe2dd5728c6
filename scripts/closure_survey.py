#!/usr/bin/env python3
"""Survey how the closure of random graphs grows with n and p, and how much
head room the maximal-clique count leaves under the 3^((c-1)/3) * n^2 bound.

Prints CSV: n, p, mean_c, max_c, mean_cliques, worst_bound_ratio

Example:
    python scripts/closure_survey.py --sizes 10 20 30 --samples 20 --seed 1
"""

import argparse
import sys

from cclose import compute_closure, er_graph, maximal_cliques
from cclose.cli import _int_at_least, _probability


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=_int_at_least(0), nargs="+", default=[10, 15, 20, 25])
    parser.add_argument("--densities", type=_probability, nargs="+", default=[0.1, 0.3, 0.5])
    parser.add_argument("--samples", type=_int_at_least(1), default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print("n,p,mean_c,max_c,mean_cliques,worst_bound_ratio")
    for n in args.sizes:
        for p in args.densities:
            closures = []
            counts = []
            worst = 0.0
            for i in range(args.samples):
                g = er_graph(n, p, seed=args.seed * 100_003 + 31 * n + i)
                c = compute_closure(g).c
                cliques = len(maximal_cliques(g))
                closures.append(c)
                counts.append(cliques)
                bound = 3 ** ((c - 1) / 3) * n * n
                if bound:
                    worst = max(worst, cliques / bound)
            mean_c = sum(closures) / len(closures)
            mean_q = sum(counts) / len(counts)
            print(f"{n},{p},{mean_c:.2f},{max(closures)},{mean_q:.1f},{worst:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
