#!/usr/bin/env python3
"""Per-step and per-trace-row cost of both engines as the block count
grows at fixed q.

Builds the random inconsistent least-squares instance (seed 1) with q=60
rows and d blocks of 4 columns for d in {10, 100, 1000, 10^4}, draws one
block per step (single-coordinate sampling) under the uncertified
constant policy, and prints the median microseconds per engine step and
per trace row
(``solver._trace_record``, what ``run`` pays every ``trace_every`` steps)
over several timed windows, plus each engine's step cost at the last d
over its cost at the first and the median time of each rung's
least-squares and quadratic references (d=10 is tall, q >= m, and takes
the null-space method; d >= 100 is wide and takes the range-space
method).  Each window times both references once, on a fresh
``dataclasses.replace`` copy of the rung's instance, so each call pays
the Gram factor it needs, as a run's set-up does, right after that
tree's steps and rows on the rung.  A step that touches
only its active blocks keeps the step ratio near 1; a row is O(m) by
nature.  It also prints the process's peak resident set (``ru_maxrss``)
right after the imports and again at the end, after every rung is built
and run.  Runs on one BLAS thread:

    PYTHONPATH=src python scripts/step_ladder.py

``--tau T`` draws T of the d blocks per step (``nice(d, T)``), which on
these instances takes the engines' stacked multi-block step; the ls_wide
shape is ``--d 250 --q 1500 --tau 4``.  The default, 1, draws one block;
T above the smallest ``--d`` is refused.

The windows, their order and ``--against DIR`` follow the rules in
``against.py``: with a second checkout each tree builds its own instances
and engines, and the script prints both trees' medians and this tree's
median over the other's, for the steps, the rows and the references.
"""

import dataclasses
import time

import against  # before numpy: it pins one BLAS thread
import numpy as np

ENGINES = {"rbcd": "RbcdEngine", "pda": "PdaEngine"}
COLS = [f"{name} us/{what}" for what in ("step", "row") for name in ENGINES]
ROWS = 50  # trace rows per window


def main():
    ap = against.parser(__doc__, windows=8)
    ap.add_argument("--d", type=against.at_least_one, nargs="+", default=[10, 100, 1000, 10_000])
    ap.add_argument("--q", type=against.at_least(0), default=60)
    ap.add_argument("--steps", type=against.at_least_one, default=5000)
    ap.add_argument("--tau", type=against.at_least_one, default=1,
                    help="blocks drawn per step, nice(d, T)")
    args = ap.parse_args()
    if args.tau > min(args.d):
        ap.error(f"argument --tau: {args.tau} is above the smallest --d, {min(args.d)}")
    trees = against.tree_set(args.against)
    print(f"maxrss_mb after imports: {against.peak_rss_mb():.1f}")

    runs, problems = {}, {}
    for d in args.d:
        for tree_name, tree in trees.items():
            p = problems[tree_name, d] = tree.make_random_inconsistent_ls(
                seed=1, d=d, dims=4, q=args.q, noise=0.6
            )
            s = tree.single_coordinate(d) if args.tau == 1 else tree.nice(d, args.tau)
            ref = tree.least_squares_reference(p)
            for name, cls in ENGINES.items():
                policy = tree.convex_default_policy(p, s, certify=False)
                eng = getattr(tree.solver, cls)(p, s, policy)
                state = eng.init_state(np.zeros(p.m), tree.make_rng(1))
                runs[tree_name, d, name] = (eng, state, ref)

    def time_one(tree_name, d):
        tree, out = trees[tree_name], {}
        trace_record = tree.solver._trace_record
        for name in ENGINES:
            eng, state, ref = runs[tree_name, d, name]
            t0 = time.perf_counter()
            for _ in range(args.steps):
                eng.step(state)
            t1 = time.perf_counter()
            for _ in range(ROWS):
                trace_record(eng.problem, eng, state, ref)
            out[f"{name} us/step"] = (t1 - t0) / args.steps * 1e6
            out[f"{name} us/row"] = (time.perf_counter() - t1) / ROWS * 1e6
        # after the tree's own steps and rows, so whichever tree goes
        # first, its references start from the same caches
        p = dataclasses.replace(problems[tree_name, d])
        t0 = time.perf_counter()
        tree.least_squares_reference(p)
        t1 = time.perf_counter()
        tree.quadratic_reference(p)
        out["reference"] = (t1 - t0) * 1e3
        out["quadratic"] = (time.perf_counter() - t1) * 1e3
        return out

    med = against.medians(trees, args.d, args.windows, time_one)
    lo, hi = args.d[0], args.d[-1]

    def table(cell, tree_name):
        fmt = ".1f" if tree_name else ".3f"
        print(f"{'d':>6} {'m':>6} " + " ".join(f"{col:>14}" for col in COLS))
        for d in args.d:
            print(f"{d:>6} {4 * d:>6} " + " ".join(f"{cell(d, col):14{fmt}}" for col in COLS))
        if tree_name:
            print(f"ratio d={hi} / d={lo}: " + ", ".join(
                f"{name} {cell(hi, f'{name} us/step') / cell(lo, f'{name} us/step'):.2f}x"
                for name in ENGINES))
        for title in ("reference", "quadratic"):
            print(f"{title} {'ms' if tree_name else 'ratio'}: " + ", ".join(
                f"d={d} {cell(d, title):{'.2f' if tree_name else '.3f'}}" for d in args.d))

    against.report(trees, med, table)
    print(f"maxrss_mb at the end: {against.peak_rss_mb():.1f}")


if __name__ == "__main__":
    main()
