#!/usr/bin/env python3
"""Set-up seconds by phase on the ls_wide size ladder.

Builds the random inconsistent least-squares instance of the ls_wide
benchmark (d blocks of 4 columns, q = 6d rows, seed 1) with 4-of-d
``nice`` sampling for d in {10, 250, 500}; ``--d`` adds rungs (d=1000 takes
about a minute to generate and some 15 s a window to set up).  Each
instance is generated once, outside the timings.  Every window takes a
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
right after that generation.  Rungs are generated smallest first, before
any window, so each reading bounds the peak of generating its rung (and
of everything generated before it).  Windows go round-robin over the rungs
in one process on one BLAS thread, and the first window warms up and is
dropped:

    PYTHONPATH=src python scripts/setup_ladder.py [--d 1000] [--windows 5]

``--against DIR`` times a second checkout's ``src/blockpd`` in the same
process (see ``against.py``): each tree generates its own instances, the
windows go round-robin over tree x rung (the tree order flips every
window), and the script prints both trees' medians and, per phase, this
tree's median over the other's.
"""

import os

# one BLAS thread; must precede numpy's import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import resource
import statistics
import time

import blockpd as bp
from against import load_tree

PHASES = ("gram", "blocks", "convex", "accelerated", "reference", "quadratic")


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
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--d", type=int, nargs="+", default=[], help="rungs added to 10 250 500")
    ap.add_argument("--windows", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--against", metavar="DIR", help="a second checkout to time beside this one")
    args = ap.parse_args()
    ds = sorted({10, 250, 500, *args.d})
    trees = {"this": bp}
    if args.against:
        trees["against"] = load_tree(args.against)

    rungs = {}
    for d in ds:
        for name, tree in trees.items():
            t0 = time.perf_counter()
            p = tree.make_random_inconsistent_ls(
                seed=args.seed, d=d, dims=4, q=6 * d, noise=0.6, mu=1.0, rank_deficiency=4
            )
            seconds = time.perf_counter() - t0
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            rungs[name, d] = (p, tree.nice(d, 4), seconds, peak_mb)

    secs = {(name, d, phase): [] for name, d in rungs for phase in PHASES}
    for w in range(args.windows + 1):
        for d in ds:
            for name in list(trees)[:: 1 if w % 2 == 0 else -1]:
                p0, s, _, _ = rungs[name, d]
                p = dataclasses.replace(p0)
                for phase, fn in phases(trees[name]).items():
                    t0 = time.perf_counter()
                    fn(p, s)
                    if w:
                        secs[name, d, phase].append(time.perf_counter() - t0)
    med = {key: statistics.median(v) for key, v in secs.items()}
    cols = (*PHASES, "total")
    for key in rungs:
        med[(*key, "total")] = sum(med[(*key, phase)] for phase in PHASES[:-1])

    def table(cell, generate):
        print(f"{'d':>6} {'m':>6} {'generate':>9} {'maxrss_mb':>9} "
              + " ".join(f"{c:>11}" for c in cols))
        for d in ds:
            print(f"{d:>6} {rungs['this', d][0].m:>6} {generate(d)} "
                  + " ".join(f"{cell(d, c):11.4f}" for c in cols))

    for name, tree in trees.items():
        if args.against:
            print(f"{name}: {tree.__file__}")
        table(lambda d, c: med[name, d, c],
              lambda d: f"{rungs[name, d][2]:9.3f} {rungs[name, d][3]:9.1f}")
    if args.against:
        print("this / against (ratio of the medians)")
        table(lambda d, c: med["this", d, c] / med["against", d, c], lambda d: " " * 19)


if __name__ == "__main__":
    main()
