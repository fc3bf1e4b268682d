import numpy as np
import pytest

import blockpd as bp
from blockpd.oracles import quadratic_reference


@pytest.fixture(scope="session")
def bench_instance():
    """10-block, m=40, q=60 inconsistent strongly convex instance shared by
    the equivalence, rate and certificate tests."""
    return bp.make_random_inconsistent_ls(
        seed=2024, d=10, dims=4, q=60, noise=0.6, mu=1.0, rank_deficiency=4
    )


@pytest.fixture(scope="session")
def bench_reference(bench_instance):
    return quadratic_reference(bench_instance)


@pytest.fixture(scope="session")
def two_block_instance():
    """Small strongly convex instance with an enumerable sampling for the
    exhaustive-expectation tests."""
    return bp.make_random_inconsistent_ls(
        seed=11, d=2, dims=3, q=9, noise=0.4, mu=1.0, rank_deficiency=2
    )


@pytest.fixture(scope="session")
def two_block_reference(two_block_instance):
    return quadratic_reference(two_block_instance)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def bisection_energy_budget(lo, hi, demand, v, iters=100):
    """The fixed 100-step bisection that ``project_energy_budget`` used to
    run, kept as a test oracle for the exact breakpoint search."""
    lo = np.broadcast_to(np.asarray(lo, dtype=float), np.shape(v)).astype(float)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), np.shape(v)).astype(float)
    v = np.asarray(v, dtype=float)
    x = np.clip(v, lo, hi)
    if float(np.sum(x)) >= demand - 1e-12:
        return x
    t_hi = max(demand, float(np.max(np.abs(v))) * v.size, 1.0)
    while float(np.sum(np.clip(v + t_hi, lo, hi))) < demand:
        t_hi *= 2.0
    t_lo = 0.0
    for _ in range(iters):
        t = 0.5 * (t_lo + t_hi)
        if float(np.sum(np.clip(v + t, lo, hi))) >= demand:
            t_hi = t
        else:
            t_lo = t
    return np.clip(v + t_hi, lo, hi)


@pytest.fixture(scope="session")
def bisection_budget():
    return bisection_energy_budget
