"""Randomized block-coordinate engines.

Two equivalent formulations of the same stochastic process are provided.

The averaging form tracks (x, w, z): an extrapolated point z blends the
averaged iterate w with the current one, active blocks take a weighted
forward-backward step against the penalty gradient scaled by the cumulative
weight S_k, and w is refreshed with inverse-probability corrections.  The
primal-dual form tracks (x, u, y) where u is the running residual Ax - b and
y is a dual price vector; with shared draws its x-iterates coincide with the
averaging form to rounding error.

Both engines touch only the active blocks per iteration; the matrix-vector
products Ax and Aw are maintained incrementally and refreshed every
``recompute_every`` steps to cap float drift.  Within one iteration the block
updates read shared state and write disjoint slices, so they could run
concurrently; the w/u/y updates are the synchronisation point.  One engine
instance is single-writer.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .blocks import ProblemSpec, kkt_residual
from .errors import SolverDivergence
from .oracles import Reference, least_squares_reference
from .sampling import Sampling, draw, make_rng, weight_matrix_p

Array = np.ndarray


@dataclass
class TraceRecord:
    k: int
    psi_x: float
    psi_hat: float
    h_gap_x: float
    h_gap_w: float
    primal_res: float
    kkt_res: float
    tau: float
    sigma: float
    lyapunov: float = math.nan
    wall_time: float = math.nan

    CSV_FIELDS = (
        "k",
        "psi_x",
        "psi_hat",
        "h_gap_x",
        "h_gap_w",
        "primal_res",
        "kkt_res",
        "tau",
        "sigma",
        "lyapunov",
    )


@dataclass
class RbcdState:
    """Averaging-form iterate.  ``s_cur`` is S_k; ``s_prev`` is S_{k-1} with
    the convention S_{-1} = 1 - sigma_0, which makes the extrapolated point a
    convex combination already at k = 0."""

    x: Array
    w: Array
    ax: Array
    aw: Array
    psi_vec: Array
    psi_total: float
    psi_hat: float
    k: int
    s_prev: float
    s_cur: float
    rng: np.random.Generator

    def copy(self) -> "RbcdState":
        return replace(
            self,
            x=self.x.copy(),
            w=self.w.copy(),
            ax=self.ax.copy(),
            aw=self.aw.copy(),
            psi_vec=self.psi_vec.copy(),
        )


@dataclass
class PdaState:
    """Primal-dual iterate: x, running residual u = Ax - b, dual y."""

    x: Array
    u: Array
    y: Array
    k: int
    rng: np.random.Generator

    def copy(self) -> "PdaState":
        return replace(self, x=self.x.copy(), u=self.u.copy(), y=self.y.copy())


class _EngineBase:
    def __init__(self, problem: ProblemSpec, sampling: Sampling, policy):
        if sampling.d != problem.d:
            raise ValueError("sampling block count must match the problem")
        self.problem = problem
        self.sampling = sampling
        self.policy = policy
        self.slices = [problem.blocks.block_slice(i) for i in range(problem.d)]
        self.pi = sampling.pi
        self.inv_pi = 1.0 / sampling.pi
        self.b_slices = [policy.b_diag[sl] for sl in self.slices]

    def _fb(self, i: int, xi: Array, grad_i: Array, tau_k: float) -> Array:
        """Weighted forward-backward step on block i: prox in the metric
        B_i / (pi_i tau_k) of the gradient-shifted point."""
        q_i = self.b_slices[i] / (self.pi[i] * tau_k)
        return self.problem.prox[i].prox(q_i, xi - grad_i / q_i)


class RbcdEngine(_EngineBase):
    def init_state(self, x0: Array, rng: np.random.Generator) -> RbcdState:
        p = self.problem
        x0 = np.asarray(x0, dtype=float).copy()
        if x0.shape != (p.m,):
            raise ValueError(f"x0 has shape {x0.shape}, expected ({p.m},)")
        psi_vec = np.array([p.psi_block(i, x0[sl]) for i, sl in enumerate(self.slices)])
        if not np.all(np.isfinite(psi_vec)):
            raise ValueError("x0 must lie in dom R (finite objective on every block)")
        ax = p.a @ x0
        sigma0 = self.policy.sigma_at(0)
        return RbcdState(
            x=x0,
            w=x0.copy(),
            ax=ax,
            aw=ax.copy(),
            psi_vec=psi_vec,
            psi_total=float(psi_vec.sum()),
            psi_hat=float(psi_vec.sum()),
            k=0,
            s_prev=1.0 - sigma0,
            s_cur=1.0,
            rng=rng,
        )

    def extrapolated(self, state: RbcdState) -> tuple[Array, Array, float]:
        """Current z = (1 - theta) w + theta x and its A-image."""
        k = state.k
        theta = self.policy.sigma_at(k) / state.s_cur
        z = (1.0 - theta) * state.w + theta * state.x
        az = (1.0 - theta) * state.aw + theta * state.ax
        return z, az, theta

    def forward_backward_block(self, state: RbcdState, i: int) -> Array:
        _, az, _ = self.extrapolated(state)
        res = az - self.problem.b
        sl = self.slices[i]
        g = self.problem.smooth[i].grad(state.x[sl]) + state.s_cur * (
            self.problem.a_blocks[i].T @ res
        )
        return self._fb(i, state.x[sl], g, self.policy.tau_at(state.k))

    def step(self, state: RbcdState, active_mask: Array | None = None) -> RbcdState:
        p = self.problem
        k = state.k
        sigma_k = self.policy.sigma_at(k)
        tau_k = self.policy.tau_at(k)
        s_k = state.s_cur
        theta = sigma_k / s_k

        z = (1.0 - theta) * state.w + theta * state.x
        az = (1.0 - theta) * state.aw + theta * state.ax
        res = az - p.b

        if active_mask is None:
            active_mask = draw(self.sampling, state.rng)
        active = np.nonzero(active_mask)[0]

        w_new = z
        aw_new = az.copy()
        bracket = state.psi_total
        for i in active:
            sl = self.slices[i]
            xi = state.x[sl]
            g = p.smooth[i].grad(xi) + s_k * (p.a_blocks[i].T @ res)
            x_hat = self._fb(i, xi, g, tau_k)
            delta = x_hat - xi
            a_delta = p.a_blocks[i] @ delta
            state.ax += a_delta
            aw_new += (theta * self.inv_pi[i]) * a_delta
            w_new[sl] = z[sl] + (theta * self.inv_pi[i]) * delta
            psi_new = p.psi_block(i, x_hat)
            bracket += self.inv_pi[i] * (psi_new - state.psi_vec[i])
            state.psi_total += psi_new - state.psi_vec[i]
            state.psi_vec[i] = psi_new
            state.x[sl] = x_hat

        state.psi_hat = (1.0 - theta) * state.psi_hat + theta * bracket
        state.w = w_new
        state.aw = aw_new
        sigma_next = self.policy.sigma_at(k + 1)
        state.s_prev = s_k
        state.s_cur = s_k + sigma_next
        state.k = k + 1
        return state

    def refresh(self, state: RbcdState) -> None:
        """Recompute incremental caches from scratch (drift cap)."""
        p = self.problem
        state.ax = p.a @ state.x
        state.aw = p.a @ state.w
        state.psi_vec = np.array(
            [p.psi_block(i, state.x[sl]) for i, sl in enumerate(self.slices)]
        )
        state.psi_total = float(state.psi_vec.sum())

    def dual_estimate(self, state: RbcdState) -> Array:
        """Price vector the equivalent primal-dual process would hold now."""
        _, az, _ = self.extrapolated(state)
        return state.s_cur * (az - self.problem.b)


class PdaEngine(_EngineBase):
    def init_state(
        self, x0: Array, rng: np.random.Generator, y0: Array | None = None
    ) -> PdaState:
        p = self.problem
        x0 = np.asarray(x0, dtype=float).copy()
        if x0.shape != (p.m,):
            raise ValueError(f"x0 has shape {x0.shape}, expected ({p.m},)")
        u0 = p.a @ x0 - p.b
        # default dual start S_0 (A z^0 - b) = A x^0 - b matches the
        # averaging form exactly (z^0 = x^0 because w^0 = x^0)
        y0 = u0.copy() if y0 is None else np.asarray(y0, dtype=float).copy()
        return PdaState(x=x0, u=u0, y=y0, k=0, rng=rng)

    def step(self, state: PdaState, active_mask: Array | None = None) -> PdaState:
        p = self.problem
        k = state.k
        sigma_k = self.policy.sigma_at(k)
        tau_k = self.policy.tau_at(k)

        if active_mask is None:
            active_mask = draw(self.sampling, state.rng)
        active = np.nonzero(active_mask)[0]

        ap_delta = np.zeros(p.q)
        for i in active:
            sl = self.slices[i]
            xi = state.x[sl]
            g = p.smooth[i].grad(xi) + p.a_blocks[i].T @ state.y
            x_hat = self._fb(i, xi, g, tau_k)
            delta = x_hat - xi
            a_delta = p.a_blocks[i] @ delta
            state.u += a_delta
            ap_delta += self.inv_pi[i] * a_delta
            state.x[sl] = x_hat

        state.y += sigma_k * ap_delta + self.policy.sigma_at(k + 1) * state.u
        state.k = k + 1
        return state

    def refresh(self, state: PdaState) -> None:
        state.u = self.problem.a @ state.x - self.problem.b


@dataclass
class RunResult:
    state: object
    trace: list[TraceRecord]
    reference: Reference | None = None
    stopped_at: int | None = None
    iterates: list[Array] | None = None
    averaged: list[Array] | None = None


def run(
    problem: ProblemSpec,
    sampling: Sampling,
    policy,
    x0: Array,
    k_max: int,
    *,
    engine: str = "rbcd",
    seed: int = 0,
    rng: np.random.Generator | None = None,
    trace_every: int = 100,
    stop_kkt_tol: float | None = None,
    stop_callback=None,
    reference: Reference | None = None,
    with_lyapunov: bool = False,
    recompute_every: int = 1000,
    nan_check_every: int = 100,
    record_iterates: bool = False,
    y0: Array | None = None,
    trace_sink=None,
) -> RunResult:
    """Drive one engine for up to ``k_max`` iterations.

    Parameters
    ----------
    engine : "rbcd" (averaging form) or "pda" (primal-dual form).
    trace_every : record a trace row every this many iterations, at least 1
        (the final iteration is always recorded; nothing is recorded at
        k = 0).
    trace_sink : optional callable receiving each TraceRecord as it is
        produced (for streaming rows to a file while the run is live).
    stop_kkt_tol : stop early once the saddle residual at a trace point falls
        below this value.
    reference : ground-truth anchors for gap columns; computed from the
        normal equations when omitted.
    with_lyapunov : also record the energy V_k (averaging engine only; needs
        a reference with x_star and psi_star).
    record_iterates : keep the full (x, w) history; only sensible for short
        runs.

    Deterministic for a fixed seed: the generator is consumed only by the
    block draws.  Raises :class:`SolverDivergence` if non-finite values show
    up, with the last recorded trace row attached.
    """
    if trace_every < 1:
        raise ValueError(f"trace_every must be >= 1, got {trace_every}")
    if rng is None:
        rng = make_rng(seed)
    if reference is None:
        reference = least_squares_reference(problem)

    eng: _EngineBase
    if engine == "rbcd":
        eng = RbcdEngine(problem, sampling, policy)
        state = eng.init_state(x0, rng)
    elif engine == "pda":
        eng = PdaEngine(problem, sampling, policy)
        state = eng.init_state(x0, rng, y0=y0)
    else:
        raise ValueError(f"unknown engine {engine!r}")

    trace: list[TraceRecord] = []
    iterates = [state.x.copy()] if record_iterates else None
    averaged = (
        [state.w.copy()] if (record_iterates and engine == "rbcd") else None
    )
    t_start = time.perf_counter()
    stopped_at = None

    for k in range(k_max):
        eng.step(state)
        done = state.k
        if record_iterates:
            iterates.append(state.x.copy())
            if averaged is not None:
                averaged.append(state.w.copy())
        if nan_check_every and done % nan_check_every == 0:
            if not np.all(np.isfinite(state.x)):
                raise SolverDivergence(
                    f"non-finite iterate at k={done}",
                    last_record=trace[-1] if trace else None,
                )
        if recompute_every and done % recompute_every == 0:
            eng.refresh(state)
        if done % trace_every == 0 or done == k_max:
            rec = _trace_record(problem, eng, state, reference, with_lyapunov)
            rec.wall_time = time.perf_counter() - t_start
            trace.append(rec)
            if trace_sink is not None:
                trace_sink(rec)
            if stop_kkt_tol is not None and rec.kkt_res < stop_kkt_tol:
                stopped_at = done
                break
            if stop_callback is not None and stop_callback(state):
                stopped_at = done
                break

    return RunResult(
        state=state,
        trace=trace,
        reference=reference,
        stopped_at=stopped_at,
        iterates=iterates,
        averaged=averaged,
    )


def _trace_record(problem, eng, state, ref, with_lyapunov) -> TraceRecord:
    k = state.k
    sigma = eng.policy.sigma_at(k)
    tau = eng.policy.tau_at(k)
    if isinstance(state, RbcdState):
        psi_x = state.psi_total
        psi_hat = state.psi_hat
        h_gap_w = ref.h_gap(problem, state.w)
        y = eng.dual_estimate(state)
        primal = float(np.linalg.norm(state.ax - problem.b))
    else:
        psi_x = math.nan
        psi_hat = math.nan
        h_gap_w = math.nan
        y = state.y
        primal = float(np.linalg.norm(state.u))
    rec = TraceRecord(
        k=k,
        psi_x=psi_x,
        psi_hat=psi_hat,
        h_gap_x=ref.h_gap(problem, state.x),
        h_gap_w=h_gap_w,
        primal_res=primal,
        kkt_res=kkt_residual(problem, state.x, y),
        tau=tau,
        sigma=sigma,
    )
    if with_lyapunov and isinstance(state, RbcdState):
        v_k, _ = lyapunov(problem, eng.sampling, eng.policy, state, ref)
        rec.lyapunov = v_k
    return rec


# ---------------------------------------------------------------------------
# averaging diagnostics
# ---------------------------------------------------------------------------


def gamma_table(thetas, pi) -> Array:
    """Ergodic averaging coefficients gamma[k, t, i] for k <= len(thetas).

    Built by the forward recursion; every step verifies the two-term closure
    gamma[k+1, k] + gamma[k+1, k+1] = theta_k + (1 - theta_k) gamma[k, k].
    Intended as a test utility (the engine itself never materialises the
    table).
    """
    pi = np.asarray(pi, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    k_max = len(thetas)
    d = pi.shape[0]
    gam = np.zeros((k_max + 1, k_max + 1, d))
    gam[0, 0, :] = 1.0
    for k in range(k_max):
        th = thetas[k]
        gam[k + 1, : k + 1, :] = (1.0 - th) * gam[k, : k + 1, :]
        gam[k + 1, k, :] += th * (1.0 - 1.0 / pi)
        gam[k + 1, k + 1, :] = th / pi
        closure = gam[k + 1, k, :] + gam[k + 1, k + 1, :]
        expected = th + (1.0 - th) * gam[k, k, :]
        assert np.max(np.abs(closure - expected)) < 1e-12
    return gam


def lyapunov(
    problem: ProblemSpec,
    sampling: Sampling,
    policy,
    state: RbcdState,
    ref: Reference,
) -> tuple[float, float]:
    """Energy pair (V_k, F_k) for the averaging engine.

    F_k adds the weighted penalty gap of the averaged iterate to the running
    objective estimate; V_k adds the squared distance to the reference
    solution in the policy metric W_k = (sigma_k/tau_k) P^2 B +
    sigma_k (P - I) Ups.
    """
    if ref.x_star is None or ref.psi_star is None:
        raise ValueError("lyapunov diagnostics need a reference with x_star/psi_star")
    k = state.k
    sigma_k = policy.sigma_at(k)
    tau_k = policy.tau_at(k)
    p_diag = weight_matrix_p(sampling, problem.blocks)
    w_diag = (sigma_k / tau_k) * p_diag**2 * policy.b_diag + sigma_k * (
        p_diag - 1.0
    ) * problem.mu_vector
    f_k = state.psi_hat + state.s_prev * ref.h_gap(problem, state.w)
    dx = state.x - ref.x_star
    v_k = 0.5 * float(dx @ (w_diag * dx)) + state.s_prev * (f_k - ref.psi_star)
    return v_k, f_k
