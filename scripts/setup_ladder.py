#!/usr/bin/env python3
"""Set-up seconds by phase on the ls_wide size ladder.

Builds the random inconsistent least-squares instance of the ls_wide
benchmark (d blocks of 4 columns, q = 6d rows, seed 1) with 4-of-d
``nice`` sampling for the rungs ``--d`` names, by default d in
{10, 250, 500} (d=1000 takes about a minute to generate and some 15 s a
window to set up; a rung below 4 is refused).  Each instance is generated
once, outside the timings.  Every window takes a
fresh ``dataclasses.replace`` copy, so nothing cached on the problem
carries over (its ``BlockStructure``, with the grouping of its blocks by
size, is shared), and times six phases on it in the order a run pays
them: the Gram matrix A'A (``ProblemSpec.gram``), the per-block norms and
curvatures (``block_sq_norms`` and ``smooth_lipschitz``, which the convex
policy pays otherwise), the convex policy, the accelerated policy, the
least-squares reference and the exact quadratic reference
(``quadratic_reference``, which solves the least-squares reference again
inside, from the Gram factor the reference phase left on the problem; the
rate runs call it alone and pay that factor too).  The script prints each
phase's median seconds over the windows, their total without the
quadratic reference (the set-up of an ls_wide run), the one-off
generation time and the process's peak resident set (``ru_maxrss``) read
right after that generation; the peak read right after the imports, before
any rung, is printed first as the floor those readings stand on.  Rungs
are generated smallest first, before any window, so each reading bounds
the peak of generating its rung (and of everything generated before it).
Runs in one process on one BLAS thread:

    PYTHONPATH=src python scripts/setup_ladder.py [--d 10 250 500 1000] [--windows 5]

The windows, their order and ``--against DIR`` follow the rules in
``against.py``: with a second checkout each tree generates its own
instances, and the script prints both trees' medians and, per phase, this
tree's median over the other's.
"""

import dataclasses
import time

import against  # before numpy: it pins one BLAS thread

PHASES = ("gram", "blocks", "convex", "accelerated", "reference", "quadratic")
COLS = (*PHASES, "total")


def phases(tree):
    """The timed phases, in the order a run pays them, from one tree."""
    return dict(zip(PHASES, (
        lambda p, s: p.gram,
        lambda p, s: (p.block_sq_norms, p.smooth_lipschitz),
        tree.convex_default_policy,
        tree.make_accelerated_policy,
        lambda p, s: tree.least_squares_reference(p),
        lambda p, s: tree.quadratic_reference(p),
    )))


def main():
    ap = against.parser(__doc__, windows=5)
    ap.add_argument("--d", type=against.at_least_one, nargs="+", default=[10, 250, 500],
                    help="the rungs, at least 4 each")
    args = ap.parse_args()
    ds = sorted(set(args.d))
    if ds[0] < 4:
        ap.error(f"argument --d: {ds[0]} is below 4, and nice(d, 4) draws 4 blocks")
    trees = against.tree_set(args.against)
    print(f"maxrss_mb after imports: {against.peak_rss_mb():.1f}")

    rungs = {}
    for d in ds:
        for name, tree in trees.items():
            t0 = time.perf_counter()
            p = tree.make_random_inconsistent_ls(
                seed=1, d=d, dims=4, q=6 * d, noise=0.6, mu=1.0, rank_deficiency=4
            )
            seconds = time.perf_counter() - t0
            rungs[name, d] = (p, tree.nice(d, 4), seconds, against.peak_rss_mb())

    def time_one(name, d):
        p0, s, _, _ = rungs[name, d]
        p, out = dataclasses.replace(p0), {}
        for phase, fn in phases(trees[name]).items():
            t0 = time.perf_counter()
            fn(p, s)
            out[phase] = time.perf_counter() - t0
        return out

    med = against.medians(trees, ds, args.windows, time_one)
    for key in rungs:
        med[(*key, "total")] = sum(med[(*key, phase)] for phase in PHASES[:-1])

    def table(cell, name):
        print(f"{'d':>6} {'m':>6} {'generate':>9} {'maxrss_mb':>9} "
              + " ".join(f"{c:>11}" for c in COLS))
        for d in ds:
            generate = f"{rungs[name, d][2]:9.3f} {rungs[name, d][3]:9.1f}" if name else " " * 19
            print(f"{d:>6} {rungs['this', d][0].m:>6} {generate} "
                  + " ".join(f"{cell(d, c):11.4f}" for c in COLS))

    against.report(trees, med, table)


if __name__ == "__main__":
    main()
