#!/usr/bin/env python3
"""Per-step and per-trace-row cost of both engines as the block count
grows at fixed q.

Builds the random inconsistent least-squares instance with q=60 rows and
d blocks of 4 columns for d in {10, 100, 1000, 10^4}, draws one block per
step (single-coordinate sampling) under the uncertified constant policy,
and prints the median microseconds per engine step and per trace row
(``solver._trace_record``, what ``run`` pays every ``trace_every`` steps)
over several timed windows, plus each engine's step cost at the last d
over its cost at the first.  A step that touches only its active blocks
keeps that ratio near 1; a row is O(m) by nature.  Runs on one BLAS
thread:

    PYTHONPATH=src python scripts/step_ladder.py
"""

import os

# one BLAS thread; must precede numpy's import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import statistics
import time

import numpy as np

import blockpd as bp
from blockpd.solver import PdaEngine, RbcdEngine, _trace_record

ENGINES = {"rbcd": RbcdEngine, "pda": PdaEngine}
ROWS = 50  # trace rows per window


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--d", type=int, nargs="+", default=[10, 100, 1000, 10_000])
    ap.add_argument("--q", type=int, default=60)
    ap.add_argument("--steps", type=int, default=5000)
    ap.add_argument("--windows", type=int, default=7)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    runs = []
    for d in args.d:
        p = bp.make_random_inconsistent_ls(seed=args.seed, d=d, dims=4, q=args.q, noise=0.6)
        s = bp.single_coordinate(d)
        ref = bp.least_squares_reference(p)
        for name, cls in ENGINES.items():
            eng = cls(p, s, bp.convex_default_policy(p, s, certify=False))
            state = eng.init_state(np.zeros(p.m), bp.make_rng(args.seed))
            runs.append((d, name, eng, state, ref))

    # windows go round-robin over the rungs, so drift in the host's speed
    # reaches every rung alike; the first window warms up and is dropped
    steps = {(d, name): [] for d, name, *_ in runs}
    rows = {(d, name): [] for d, name, *_ in runs}
    for w in range(args.windows + 1):
        for d, name, eng, state, ref in runs:
            t0 = time.perf_counter()
            for _ in range(args.steps):
                eng.step(state)
            t1 = time.perf_counter()
            for _ in range(ROWS):
                _trace_record(eng.problem, eng, state, ref)
            if w:
                steps[d, name].append((t1 - t0) / args.steps * 1e6)
                rows[d, name].append((time.perf_counter() - t1) / ROWS * 1e6)
    us = {key: statistics.median(v) for key, v in steps.items()}
    row_us = {key: statistics.median(v) for key, v in rows.items()}

    print(f"{'d':>6} {'m':>6} " + " ".join(f"{name + ' us/step':>14}" for name in ENGINES)
          + " " + " ".join(f"{name + ' us/row':>14}" for name in ENGINES))
    for d in args.d:
        print(f"{d:>6} {4 * d:>6} " + " ".join(f"{us[d, name]:14.1f}" for name in ENGINES)
              + " " + " ".join(f"{row_us[d, name]:14.1f}" for name in ENGINES))
    lo, hi = args.d[0], args.d[-1]
    print(f"ratio d={hi} / d={lo}: " + ", ".join(
        f"{name} {us[hi, name] / us[lo, name]:.2f}x" for name in ENGINES))


if __name__ == "__main__":
    main()
