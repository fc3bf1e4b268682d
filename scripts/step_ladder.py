#!/usr/bin/env python3
"""Per-step and per-trace-row cost of both engines as the block count
grows at fixed q.

Builds the random inconsistent least-squares instance with q=60 rows and
d blocks of 4 columns for d in {10, 100, 1000, 10^4}, draws one block per
step (single-coordinate sampling) under the uncertified constant policy,
and prints the median microseconds per engine step and per trace row
(``solver._trace_record``, what ``run`` pays every ``trace_every`` steps)
over several timed windows, plus each engine's step cost at the last d
over its cost at the first and the one-off time of each rung's
least-squares and quadratic references (d=10 is tall, q >= m, and takes
the null-space method; d >= 100 is wide and takes the range-space
method).  A step that touches only its active blocks keeps that ratio
near 1; a row is O(m) by nature.  It also prints the process's peak
resident set (``ru_maxrss``) right after the imports and again at the
end, after every rung is built and run.  Runs on one BLAS thread:

    PYTHONPATH=src python scripts/step_ladder.py

``--against DIR`` times a second checkout's ``src/blockpd`` in the same
process (see ``against.py``): each tree builds its own instances and
engines, the windows go round-robin over tree x rung (the tree order flips
every window), and the script prints both trees' medians and this tree's
median over the other's.
"""

import os

# one BLAS thread; must precede numpy's import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import resource
import statistics
import time

import numpy as np

import blockpd as bp
from against import load_tree

ENGINES = {"rbcd": "RbcdEngine", "pda": "PdaEngine"}
ROWS = 50  # trace rows per window


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--d", type=int, nargs="+", default=[10, 100, 1000, 10_000])
    ap.add_argument("--q", type=int, default=60)
    ap.add_argument("--steps", type=int, default=5000)
    ap.add_argument("--windows", type=int, default=7)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--against", metavar="DIR", help="a second checkout to time beside this one")
    args = ap.parse_args()
    trees = {"this": bp}
    if args.against:
        trees["against"] = load_tree(args.against)
    print(f"maxrss_mb after imports: {peak_rss_mb():.1f}")

    runs, ref_ms, quad_ms = {}, {}, {}
    for d in args.d:
        for tree_name, tree in trees.items():
            p = tree.make_random_inconsistent_ls(
                seed=args.seed, d=d, dims=4, q=args.q, noise=0.6
            )
            s = tree.single_coordinate(d)
            t0 = time.perf_counter()
            ref = tree.least_squares_reference(p)
            ref_ms[tree_name, d] = (time.perf_counter() - t0) * 1e3
            t0 = time.perf_counter()
            tree.quadratic_reference(p)
            quad_ms[tree_name, d] = (time.perf_counter() - t0) * 1e3
            for name, cls in ENGINES.items():
                policy = tree.convex_default_policy(p, s, certify=False)
                eng = getattr(tree.solver, cls)(p, s, policy)
                state = eng.init_state(np.zeros(p.m), tree.make_rng(args.seed))
                runs[tree_name, d, name] = (eng, state, ref, tree.solver._trace_record)

    # windows go round-robin over tree x rung, so drift in the host's speed
    # reaches every rung alike; the first window warms up and is dropped
    steps = {key: [] for key in runs}
    rows = {key: [] for key in runs}
    for w in range(args.windows + 1):
        for d in args.d:
            for tree_name in list(trees)[:: 1 if w % 2 == 0 else -1]:
                for name in ENGINES:
                    key = (tree_name, d, name)
                    eng, state, ref, trace_record = runs[key]
                    t0 = time.perf_counter()
                    for _ in range(args.steps):
                        eng.step(state)
                    t1 = time.perf_counter()
                    for _ in range(ROWS):
                        trace_record(eng.problem, eng, state, ref)
                    if w:
                        steps[key].append((t1 - t0) / args.steps * 1e6)
                        rows[key].append((time.perf_counter() - t1) / ROWS * 1e6)
    us = {key: statistics.median(v) for key, v in steps.items()}
    row_us = {key: statistics.median(v) for key, v in rows.items()}

    head = (f"{'d':>6} {'m':>6} " + " ".join(f"{name + ' us/step':>14}" for name in ENGINES)
            + " " + " ".join(f"{name + ' us/row':>14}" for name in ENGINES))

    def table(step, row, fmt):
        print(head)
        for d in args.d:
            print(f"{d:>6} {4 * d:>6} " + " ".join(
                f"{x:14{fmt}}" for x in [step(d, n) for n in ENGINES] + [row(d, n) for n in ENGINES]))

    lo, hi = args.d[0], args.d[-1]
    for tree_name, tree in trees.items():
        if args.against:
            print(f"{tree_name}: {tree.__file__}")
        table(lambda d, n: us[tree_name, d, n], lambda d, n: row_us[tree_name, d, n], ".1f")
        print(f"ratio d={hi} / d={lo}: " + ", ".join(
            f"{name} {us[tree_name, hi, name] / us[tree_name, lo, name]:.2f}x" for name in ENGINES))
        print("reference ms: " + ", ".join(f"d={d} {ref_ms[tree_name, d]:.2f}" for d in args.d))
        print("quadratic ms: " + ", ".join(f"d={d} {quad_ms[tree_name, d]:.2f}" for d in args.d))
    if args.against:
        print("this / against (ratio of the medians)")
        table(lambda d, n: us["this", d, n] / us["against", d, n],
              lambda d, n: row_us["this", d, n] / row_us["against", d, n], ".3f")
    print(f"maxrss_mb at the end: {peak_rss_mb():.1f}")


if __name__ == "__main__":
    main()
