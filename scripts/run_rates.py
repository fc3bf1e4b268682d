#!/usr/bin/env python3
"""Empirical decay rates of both step policies on the benchmark instance.

Runs the single-coordinate sampler for 10^5 iterations under the constant
policy and under the accelerated one, then prints log-log slopes of the
running objective estimate and of the averaged-iterate penalty gap.  The
constant policy should show roughly 1/k and 1/k^2; the accelerated policy
roughly 1/k^2 and 1/k^4.
"""

import argparse
import time

import numpy as np

import blockpd as bp
from blockpd.cli import fit_rate
from blockpd.oracles import quadratic_reference


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--k-max", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    problem = bp.make_random_inconsistent_ls(
        seed=2024, d=10, dims=4, q=60, noise=0.6, mu=1.0, rank_deficiency=4
    )
    ref = quadratic_reference(problem)
    sampling = bp.single_coordinate(problem.d)
    print(f"instance: d={problem.d} m={problem.m} q={problem.q} "
          f"h*={ref.h_star:.4f} psi*={ref.psi_star:.4f}")

    policies = {
        "constant": bp.convex_default_policy(problem, sampling),
        "accelerated": bp.make_accelerated_policy(problem, sampling),
    }
    for name, policy in policies.items():
        t0 = time.perf_counter()
        res = bp.run(
            problem, sampling, policy, np.zeros(problem.m), args.k_max,
            seed=args.seed, trace_every=10, reference=ref,
        )
        ks = res.trace.column("k")
        psi_gap = res.trace.column("psi_hat") - ref.psi_star
        h_gap_w = res.trace.column("h_gap_w")
        lo = args.k_max // 100
        s1, e1 = fit_rate(ks, psi_gap, k_min=lo)
        s2, e2 = fit_rate(ks, h_gap_w, k_min=lo)
        print(f"{name:>12}: objective-estimate slope {s1:+.3f} (+-{e1:.1e}), "
              f"averaged penalty-gap slope {s2:+.3f} (+-{e2:.1e}) "
              f"[{time.perf_counter()-t0:.1f}s]")


if __name__ == "__main__":
    main()
