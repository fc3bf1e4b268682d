from types import SimpleNamespace

import numpy as np
import pytest

import blockpd as bp
from blockpd.blocks import BlockStructure
from blockpd.oracles import quadratic_reference
from blockpd.sampling import draw, prob_matrix, weight_matrix_p
from blockpd.solver import RbcdEngine, _EngineBase
from instruments import normalized_s_step


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


def bisection_energy_budgets(lo, hi, demand, v, iters=100):
    """:func:`bisection_energy_budget` on every row of v at once: the same
    arithmetic per element, with all rows bracketing and bisecting together
    and each row that needs no shift keeping its clip.  ``lo``, ``hi`` and
    ``v`` have shape (rows, T), ``demand`` has shape (rows,)."""
    v = np.asarray(v, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), v.shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), v.shape)
    demand = np.asarray(demand, dtype=float)
    x = np.clip(v, lo, hi)
    short = x.sum(axis=1) < demand - 1e-12
    t_hi = np.maximum(np.maximum(demand, np.abs(v).max(axis=1) * v.shape[1]), 1.0)
    while True:
        grow = short & (np.clip(v + t_hi[:, None], lo, hi).sum(axis=1) < demand)
        if not grow.any():
            break
        t_hi[grow] *= 2.0
    t_lo = np.zeros_like(t_hi)
    for _ in range(iters):
        t = 0.5 * (t_lo + t_hi)
        enough = np.clip(v + t[:, None], lo, hi).sum(axis=1) >= demand
        t_hi = np.where(enough, t, t_hi)
        t_lo = np.where(enough, t_lo, t)
    return np.where(short[:, None], np.clip(v + t_hi[:, None], lo, hi), x)


@pytest.fixture(scope="session")
def bisection_budgets():
    return bisection_energy_budgets


def exhaustive_xi(s, a_blocks):
    """Xi = E[E P A'A P E] summed over the sampling's support, the
    exhaustive path ``sampling.xi_matrix`` used to cross-check itself with;
    a test oracle for enumerable samplings."""
    dims = [a.shape[1] for a in a_blocks]
    blocks = BlockStructure(tuple(dims))
    m = blocks.m
    a = np.hstack(a_blocks)
    gram = a.T @ a
    p_diag = weight_matrix_p(s, blocks)
    xi_exact = np.zeros((m, m))
    for subset, p in zip(s.support, s.probs):
        mask = np.zeros(m)
        for i in subset:
            mask[blocks.block_slice(i)] = 1.0
        scaled = p_diag * mask
        xi_exact += p * (scaled[:, None] * gram * scaled[None, :])
    return xi_exact


def block_pair_xi(s, a_blocks):
    """Xi block by block, (Pi_ij / (pi_i pi_j)) A_i'A_j off the diagonal and
    A_i'A_i / pi_i on it: the per-pair loop ``sampling.xi_matrix`` used to
    run, a test oracle for every sampling."""
    d = len(a_blocks)
    dims = [a.shape[1] for a in a_blocks]
    blocks = BlockStructure(tuple(dims))
    m = blocks.m
    pi_mat = prob_matrix(s)
    xi_formula = np.zeros((m, m))
    for i in range(d):
        sli = blocks.block_slice(i)
        for j in range(d):
            slj = blocks.block_slice(j)
            if i == j:
                xi_formula[sli, slj] = (a_blocks[i].T @ a_blocks[i]) / s.pi[i]
            else:
                w = pi_mat[i, j] / (s.pi[i] * s.pi[j])
                if w != 0.0:
                    xi_formula[sli, slj] = w * (a_blocks[i].T @ a_blocks[j])
    return xi_formula


def stacked_xi(s, a_blocks):
    """Xi from the Gram product of the stacked coupling blocks, scaled one
    row slab of blocks at a time: the form ``sampling.xi_matrix`` had before
    it read a problem's cached Gram matrix, kept verbatim as the bit-for-bit
    oracle of one test (``TestOneGram``); every other raw-blocks Xi in the
    tests is the production one, ``instruments.block_xi``."""
    blocks = BlockStructure(tuple(a.shape[1] for a in a_blocks))
    w = prob_matrix(s) / np.outer(s.pi, s.pi)
    np.fill_diagonal(w, 1.0 / s.pi)
    a = np.hstack(a_blocks)
    xi = a.T @ a
    for sl, w_i in zip(blocks.slices, w):
        xi[sl] *= blocks.expand(w_i)
    return xi


@pytest.fixture(scope="session")
def xi_oracles():
    return SimpleNamespace(exhaustive=exhaustive_xi, block_pair=block_pair_xi, stacked=stacked_xi)


def tau_normalized(t, kappa, pi):
    """tau_{k+1} for uniform marginals pi through the normalized recursion
    s+ = 2s / (s + sqrt(s^2 + 4d)), s = (1 + delta) tau, d = 1 - delta tau -
    kappa tau^2: the second path ``stepsize.tau_next`` used to cross-check
    itself with, a test oracle for its root formula."""
    delta = kappa - 1.0 / pi
    d_k = 1.0 - delta * t - kappa * t * t
    s_k = (1.0 + delta) * t
    s_next = normalized_s_step(s_k, d_k)
    return s_next / (1.0 + delta)


@pytest.fixture(scope="session")
def tau_oracle():
    return tau_normalized


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
        # the draw is (0, a), ascending
        a = int(draw(self.sampling, state.rng)[1])

        # tau = 1; the metric weights 1/pi are 1 for the operator, p for a
        sl0 = self.slices[0]
        x0_old = state.x[sl0]
        x0_new, _ = self._fb(0, state.x, state.y, None, 1.0)

        sla = self.slices[a]
        xa_new, xa_delta = self._fb(a, state.x, state.y, None, 1.0)
        bid = pr.a_blocks[a] @ xa_delta

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


def mask_draw(s, rng):
    """One realization as a boolean activation vector: the mask form
    ``sampling.draw`` had before it returned index arrays, kept verbatim as
    a test oracle for the index sets and the random stream."""
    if s.support is not None:
        j = int(np.searchsorted(s._cum, rng.random(), side="right"))
        active = np.zeros(s.d, dtype=bool)
        active[list(s.support[min(j, len(s.support) - 1)])] = True
        return active
    # large subset-uniform support: draw m distinct blocks directly
    active = np.zeros(s.d, dtype=bool)
    active[rng.choice(s.d, size=s.nice_m, replace=False)] = True
    return active


@pytest.fixture(scope="session")
def draw_oracle():
    return mask_draw


class ExplicitRbcdOracle(RbcdEngine):
    """The averaging engine with w and Aw held explicitly: the step and
    refresh ``RbcdEngine`` ran before it kept w = x + gamma e implicitly,
    a test oracle for the implicit form.  Its state is a namespace with x,
    w, ax, aw, psi_vec, psi_total, psi_hat, k, s_prev, s_cur, tau, sigma
    and rng; the draws come from the mask oracle."""

    def init_state(self, x0, rng):
        st = super().init_state(x0, rng)
        return SimpleNamespace(
            x=st.x, w=st.x.copy(), ax=st.ax, aw=st.ax.copy(), psi_vec=st.psi_vec,
            psi_total=st.psi_total, psi_hat=st.psi_hat, k=0,
            s_prev=1.0 - st.sigma, s_cur=st.s_cur, tau=st.tau, sigma=st.sigma, rng=rng,
        )

    def step(self, state):
        p = self.problem
        k = state.k
        sigma_k, tau_k = state.sigma, state.tau
        s_k = state.s_cur
        theta = sigma_k / s_k

        z = (1.0 - theta) * state.w + theta * state.x
        az = (1.0 - theta) * state.aw + theta * state.ax
        res = az - p.b

        active_mask = mask_draw(self.sampling, state.rng)
        active = np.nonzero(active_mask)[0]

        w_new = z
        aw_new = az.copy()
        bracket = state.psi_total
        for i in active:
            sl = self.slices[i]
            x_hat, delta = self._fb(i, state.x, res, s_k, tau_k)
            a_delta = p.a_blocks[i] @ delta
            state.ax += a_delta
            inv_pi = self.per_block[i].inv_pi
            aw_new += (theta * inv_pi) * a_delta
            w_new[sl] = z[sl] + (theta * inv_pi) * delta
            psi_new = p.psi_block(i, x_hat)
            bracket += inv_pi * (psi_new - state.psi_vec[i])
            state.psi_total += psi_new - state.psi_vec[i]
            state.psi_vec[i] = psi_new
            state.x[sl] = x_hat

        state.psi_hat = (1.0 - theta) * state.psi_hat + theta * bracket
        state.w = w_new
        state.aw = aw_new
        state.tau, state.sigma = self.policy.advance(tau_k)
        state.s_prev = s_k
        state.s_cur = s_k + state.sigma
        state.k = k + 1
        return state

    def refresh(self, state):
        p = self.problem
        state.ax = p.a @ state.x
        state.aw = p.a @ state.w
        state.psi_vec = np.array(
            [p.psi_block(i, state.x[sl]) for i, sl in enumerate(self.slices)]
        )
        state.psi_total = float(state.psi_vec.sum())


@pytest.fixture(scope="session")
def explicit_rbcd():
    return ExplicitRbcdOracle
