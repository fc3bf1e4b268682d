#!/usr/bin/env python3
"""Set-up seconds by phase on the ls_wide size ladder.

Builds the random inconsistent least-squares instance of the ls_wide
benchmark (d blocks of 4 columns, q = 6d rows, seed 1) with 4-of-d
``nice`` sampling for d in {10, 250, 500}; ``--d`` adds rungs (d=1000 takes
about a minute to generate and some 20 s a window to set up).  Each
instance is generated once, outside the timings.  Every window takes a
fresh ``dataclasses.replace`` copy, so nothing cached carries over, and
times four phases on it in the order a run pays them: the Gram matrix A'A
(``ProblemSpec.gram``), the convex policy, the accelerated policy and the
least-squares reference.  The script prints each phase's median seconds
over the windows and the one-off generation time.  Windows go round-robin
over the rungs in one process on one BLAS thread, and the first window
warms up and is dropped:

    PYTHONPATH=src python scripts/setup_ladder.py [--d 1000] [--windows 5]
"""

import os

# one BLAS thread; must precede numpy's import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import statistics
import time

import blockpd as bp

PHASES = {
    "gram": lambda p, s: p.gram,
    "convex": bp.convex_default_policy,
    "accelerated": bp.make_accelerated_policy,
    "reference": lambda p, s: bp.least_squares_reference(p),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--d", type=int, nargs="+", default=[], help="rungs added to 10 250 500")
    ap.add_argument("--windows", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    ds = sorted({10, 250, 500, *args.d})

    rungs = []
    for d in ds:
        t0 = time.perf_counter()
        p = bp.make_random_inconsistent_ls(
            seed=args.seed, d=d, dims=4, q=6 * d, noise=0.6, mu=1.0, rank_deficiency=4
        )
        rungs.append((d, p, bp.nice(d, 4), time.perf_counter() - t0))

    secs = {(d, name): [] for d in ds for name in PHASES}
    for w in range(args.windows + 1):
        for d, p0, s, _ in rungs:
            p = dataclasses.replace(p0)
            for name, phase in PHASES.items():
                t0 = time.perf_counter()
                phase(p, s)
                if w:
                    secs[d, name].append(time.perf_counter() - t0)
    med = {key: statistics.median(v) for key, v in secs.items()}

    print(f"{'d':>6} {'m':>6} {'generate':>9} " + " ".join(f"{name:>11}" for name in PHASES)
          + f" {'total':>9}")
    for d, p, _, gen in rungs:
        print(f"{d:>6} {p.m:>6} {gen:9.3f} " + " ".join(f"{med[d, name]:11.4f}" for name in PHASES)
              + f" {sum(med[d, name] for name in PHASES):9.3f}")


if __name__ == "__main__":
    main()
