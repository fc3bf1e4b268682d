from types import SimpleNamespace

import numpy as np
import pytest

import blockpd as bp
from blockpd.oracles import quadratic_reference
from blockpd.sampling import draw
from blockpd.solver import _EngineBase


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


class PairActivatedOracle(_EngineBase):
    """The grid's pricing recursion in coordinator/aggregator form, a test
    oracle for ``dlmp.PpdlmpEngine`` (the primal-dual engine under
    coordinator-pair sampling).  Every iteration the operator takes a
    projected gradient step, one drawn aggregator responds to the current
    prices, and the operator folds the aggregator's bid into the price and
    the running aggregate-bid vector v = sigma sum_{a>=1} A_a x_a."""

    def __init__(self, problem, policy=None):
        sampling = bp.paired_dso(problem.d - 1)
        if policy is None:
            policy = bp.convex_default_policy(problem, sampling)
        super().__init__(problem, sampling, policy)
        self.p = problem.d - 1
        self.sigma = policy.sigma

    def _aggregate_bid(self, x):
        pr = self.problem
        return self.sigma * sum(
            pr.a_blocks[a] @ x[self.slices[a]] for a in range(1, pr.d)
        )

    def init_state(self, x0, rng):
        pr = self.problem
        x0 = np.asarray(x0, dtype=float).copy()
        v = self._aggregate_bid(x0)
        y = v + self.sigma * (pr.a_blocks[0] @ x0[self.slices[0]] - pr.b)
        return SimpleNamespace(x=x0, y=y, v=v, k=0, rng=rng)

    def step(self, state):
        pr = self.problem
        sigma = self.sigma
        active_mask = draw(self.sampling, state.rng)
        a = int(np.nonzero(active_mask[1:])[0][0]) + 1

        # tau = 1; the metric weights 1/pi are 1 for the operator, p for a
        sl0 = self.slices[0]
        x0_old = state.x[sl0]
        g0 = pr.smooth[0].grad(x0_old) + pr.a_blocks[0].T @ state.y
        x0_new = self._fb(0, x0_old, g0, 1.0)

        sla = self.slices[a]
        xa_old = state.x[sla]
        ga = pr.smooth[a].grad(xa_old) + pr.a_blocks[a].T @ state.y
        xa_new = self._fb(a, xa_old, ga, 1.0)
        bid = pr.a_blocks[a] @ (xa_new - xa_old)

        state.y = (
            state.y
            + sigma * (pr.a_blocks[0] @ (2.0 * x0_new - x0_old) - pr.b)
            + sigma * (self.p + 1) * bid
            + state.v
        )
        state.v = state.v + sigma * bid
        state.x[sl0] = x0_new
        state.x[sla] = xa_new
        state.k += 1
        return state

    def refresh(self, state):
        state.v = self._aggregate_bid(state.x)


def pair_activated_path(problem, x0, k_max, seed):
    """Primal iterates x^0..x^k_max and the final prices of the oracle,
    drawing from the generator ``solver.run`` builds for ``seed`` and
    refreshing v as often as ``solver.run`` refreshes by default."""
    eng = PairActivatedOracle(problem)
    state = eng.init_state(x0, bp.make_rng(seed))
    path = [state.x.copy()]
    for _ in range(k_max):
        eng.step(state)
        if state.k % 1000 == 0:
            eng.refresh(state)
        path.append(state.x.copy())
    return path, state.y


@pytest.fixture(scope="session")
def pair_oracle():
    return pair_activated_path
