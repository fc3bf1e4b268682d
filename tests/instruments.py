"""Reference implementations the tests check the package against.

Exact small-scale oracles (the active-set projection, the expectation over
an enumerable sampling, the dense SVD solve of the quadratic reference,
the generator's SVD projection of its noise),
the paper's closed-form bounds and energies (the tau floor, the
cumulative-weight bound, the matrix-inequality margins and the dense
eigenproblems behind the step certificates, the ergodic weights, the
Lyapunov pair) and the projection primitives the Dykstra tests
intersect, among them the operator's box and flow balls.  No run calls any
of them, so they live beside the tests rather than in ``blockpd``;
``test_package_defines_only_what_runs_reference`` keeps it that way, except
for a method whose name a run also calls (``project``, ``distance``,
``copy``), which that guard cannot tell apart.

The engines carry no test hooks either.  A test watches or steers a run
through two seams production already has: :func:`recorded` wraps an engine
object, which ``run`` accepts as ``engine=``, and :func:`step_on` patches
``blockpd.solver.draw``, which every engine step reads its blocks from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from itertools import combinations
from typing import Callable, Sequence
from unittest import mock

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from blockpd import solver
from blockpd.blocks import BlockStructure, ProblemSpec, ProxBlock, eval_psi, kkt_residual
from blockpd.dlmp import NetworkModel
from blockpd.errors import InfeasibleInstance, InvariantViolation, UnsupportedSampling
from blockpd.oracles import Reference, least_squares_reference
from blockpd.proxops import project_energy_budget
from blockpd.sampling import Sampling, weight_matrix_p, xi_matrix
from blockpd.solver import RbcdEngine, RbcdState

Array = np.ndarray


# ---------------------------------------------------------------------------
# blocks, oracles, sampling
# ---------------------------------------------------------------------------


def penalty_h(p: ProblemSpec, x: Array) -> float:
    """Quadratic coupling penalty 0.5 * ||Ax - b||^2, formed from x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (p.m,):
        raise ValueError(f"x has shape {x.shape}, expected ({p.m},)")
    res = p.a.dot(x) - p.b
    return 0.5 * float(res.dot(res))


def grad_h(p: ProblemSpec, x: Array) -> Array:
    """A'(Ax - b), assembled without forming A'A."""
    x = np.asarray(x, dtype=float)
    if x.shape != (p.m,):
        raise ValueError(f"x has shape {x.shape}, expected ({p.m},)")
    return p.a.T.dot(p.a.dot(x) - p.b)


def block_xi(s: Sampling, a_blocks: Sequence[Array]) -> Array:
    """The production ``sampling.xi_matrix`` on raw coupling blocks: the
    Gram matrix of their stack, split by their widths.  The tests of Xi's
    properties go through it, so they exercise the production scaling;
    ``conftest.stacked_xi`` is the verbatim pre-cache form that only the
    bit-identity test reads."""
    a = np.hstack(a_blocks)
    return xi_matrix(s, a.T @ a, BlockStructure(tuple(a_i.shape[1] for a_i in a_blocks)))


def lam_full(p: ProblemSpec) -> Array:
    """Block-diagonal assembly of all smooth curvature matrices."""
    out = np.zeros((p.m, p.m))
    for sl, blk in zip(p.blocks.slices, p.smooth):
        out[sl, sl] = blk.lam
    return out


def dual_scale(ref: Reference) -> float:
    """The constant bounding how far the objective can dip below its
    floor at infeasible points, in units of the root penalty gap.  The
    stored multiplier pairs with the raw residual rows; it equals the
    normal-equation-form multiplier pushed through A, so the constant is
    sqrt(2) times its norm.  Only exact references provide it."""
    if ref.y_star is None:
        raise ValueError("no multiplier recorded for this reference")
    return float(np.sqrt(2.0) * np.linalg.norm(ref.y_star))


def dense_quadratic_reference(p: ProblemSpec) -> Reference:
    """The exact reduced QP solve ``oracles.quadratic_reference`` made before
    it read the Gram factor, kept as its test oracle: a dense m x m H, an
    SVD null-space basis of A and the multiplier from ``numpy.linalg.lstsq``
    (with no stationarity check).  H and c are read from the oracles, as
    :func:`dense_quadratic`."""
    base = least_squares_reference(p)
    h, c = dense_quadratic(p)

    null = sla.null_space(p.a)
    if null.shape[1] == 0:
        x_star = base.x_ls
    else:
        reduced = null.T @ h @ null
        rhs = -null.T @ (h @ base.x_ls + c)
        z = np.linalg.solve(reduced, rhs)
        x_star = base.x_ls + null @ z
    y_star, *_ = np.linalg.lstsq(p.a.T, -(h @ x_star + c), rcond=None)
    return replace(base, x_star=x_star, psi_star=eval_psi(p, x_star), y_star=y_star,
                   source="reduced-qp")


def dense_quadratic(p: ProblemSpec) -> tuple[Array, Array]:
    """The dense m x m Hessian and linear term of Psi, read from the
    oracles of a quadratic problem: H_i = ``smooth[i].lam`` plus mu_i I,
    and c_i = ``smooth[i].grad(0)`` less mu_i times the prox's ``center``."""
    h = np.zeros((p.m, p.m))
    c = np.zeros(p.m)
    for sl, smooth, prox in zip(p.blocks.slices, p.smooth, p.prox):
        n = sl.stop - sl.start
        h[sl, sl] = smooth.lam + prox.mu * np.eye(n)
        c[sl] = smooth.grad(np.zeros(n)) - prox.mu * prox.center
    return h, c


def svd_projected_noise(a: Array, draw: Array, noise: float) -> Array:
    """The generator's xi as it was made before it projected with its own
    factor, kept as its test oracle: ``draw`` less its component along the
    left singular vectors of ``a`` above 1e-12 of the largest singular
    value, scaled to norm ``noise``."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > s[0] * 1e-12)) if s.size else 0
    ur = u[:, :rank]
    xi = draw - ur @ (ur.T @ draw)
    nrm = np.linalg.norm(xi)
    if nrm > 0:
        xi *= noise / nrm
    return xi


# The per-block loops that the set-up ran before it stacked the blocks of
# one size into one LAPACK call; the stacked forms must keep their bits.


def looped_block_sq_norms(p: ProblemSpec) -> Array:
    """||A_i||_2^2 by one SVD per block (0 when q = 0)."""
    out = np.empty(p.d)
    for i, a in enumerate(p.a_blocks):
        s = np.linalg.svd(a, compute_uv=False)
        out[i] = float(s[0] ** 2) if s.size else 0.0
    return out


def looped_smooth_lipschitz(p: ProblemSpec) -> Array:
    """lammax(Lam_i) by one eigvalsh per block."""
    return np.array([float(np.linalg.eigvalsh(blk.lam).max()) for blk in p.smooth])


def looped_scaled_curvature_top(p: ProblemSpec, scale: Array) -> float:
    """max(0, lammax of S_i (Lam_i + Upsilon_i) S_i over the blocks), one
    eigvalsh per block."""
    mu = p.mu_vector
    top = 0.0
    for sl, blk in zip(p.blocks.slices, p.smooth):
        lam_ups = blk.lam + np.diag(mu[sl])
        lu_scaled = scale[sl, None] * lam_ups * scale[None, sl]
        top = max(top, float(np.linalg.eigvalsh(lu_scaled).max()))
    return top


def looped_coupled_factors(p: ProblemSpec, pb_diag: Array, coupled: Array) -> dict[int, Array]:
    """The lower factor of D_i - Lam_i by one ``dpotrf`` per coupled block,
    its upper triangle zeroed."""
    out = {}
    for i in np.flatnonzero(coupled).tolist():
        sl = p.blocks.slices[i]
        low, info = lapack.dpotrf(np.diag(pb_diag[sl]) - p.smooth[i].lam, lower=1, clean=0)
        if info:
            raise ValueError(f"block {i} does not factor")
        out[i] = np.tril(low)
    return out


def looped_apply_hessian(p: ProblemSpec, v: Array) -> Array:
    """(blockdiag(Lam_i) + diag(mu)) v, one product per block, with mu_i
    from each block's prox."""
    hv = np.empty_like(v)
    for sl, smooth, prox in zip(p.blocks.slices, p.smooth, p.prox):
        hv[sl] = prox.mu * v[sl]
        hv[sl] += smooth.lam @ v[sl]
    return hv


def expectation_over_sampling(s: Sampling, f: Callable[[Array], object]):
    """Exact expectation of f(activation mask) over the support."""
    if s.support is None:
        raise UnsupportedSampling("exact expectation needs an enumerable support")
    total = None
    for idx, p in zip(s._index_sets, s.probs):
        mask = np.zeros(s.d, dtype=bool)
        mask[idx] = True
        term = f(mask)
        total = p * term if total is None else total + p * term
    return total


# ---------------------------------------------------------------------------
# prox and projection primitives, and the exact small-scale projection
# ---------------------------------------------------------------------------


def prox_box_block(lo, hi) -> ProxBlock:
    """Indicator of the coordinate box [lo, hi]."""

    def value(x):
        if np.any(x < lo - 1e-12) or np.any(x > hi + 1e-12):
            return np.inf
        return 0.0

    return ProxBlock(value, lambda g, v: np.clip(v, lo, hi), 0.0)


@dataclass(frozen=True)
class Box:
    lo: Array
    hi: Array

    def project(self, v: Array) -> Array:
        return np.clip(v, self.lo, self.hi)

    def distance(self, v: Array) -> float:
        return float(np.linalg.norm(v - self.project(v)))


@dataclass(frozen=True)
class FlowBalls:
    """All per-line, per-period flow-magnitude caps, projected jointly.  The
    f and g coordinates are contiguous slices of the operator's vector."""

    f: slice
    g: slice
    radii: Array

    def scales(self, v: Array) -> tuple[Array, Array]:
        """The flow magnitudes of v and the factors that pull them into the
        balls (1 inside a ball)."""
        nrm = np.hypot(v[self.f], v[self.g])
        return nrm, np.minimum(1.0, self.radii / np.maximum(nrm, 1e-300))

    def project(self, v: Array) -> Array:
        out = np.array(v, dtype=float)
        _, scale = self.scales(out)
        out[self.f] *= scale
        out[self.g] *= scale
        return out

    def distance(self, v: Array) -> float:
        nrm = np.hypot(v[self.f], v[self.g])
        return float(np.max(np.maximum(nrm - self.radii, 0.0), initial=0.0))


@dataclass(frozen=True)
class Halfspace:
    """{x : <a, x> <= c}."""

    a: Array
    c: float

    def project(self, v: Array) -> Array:
        a = np.asarray(self.a, dtype=float)
        gap = float(a @ v) - self.c
        if gap <= 0.0:
            return np.asarray(v, dtype=float)
        return v - (gap / float(a @ a)) * a

    def distance(self, v: Array) -> float:
        a = np.asarray(self.a, dtype=float)
        return max(0.0, (float(a @ v) - self.c)) / float(np.linalg.norm(a))


@dataclass(frozen=True)
class Hyperplane:
    """{x : <a, x> = c}."""

    a: Array
    c: float

    def project(self, v: Array) -> Array:
        a = np.asarray(self.a, dtype=float)
        return v - ((float(a @ v) - self.c) / float(a @ a)) * a

    def distance(self, v: Array) -> float:
        a = np.asarray(self.a, dtype=float)
        return abs(float(a @ v) - self.c) / float(np.linalg.norm(a))


@dataclass(frozen=True)
class Ball:
    center: Array
    radius: float

    def project(self, v: Array) -> Array:
        dv = v - self.center
        nrm = float(np.linalg.norm(dv))
        if nrm <= self.radius:
            return np.asarray(v, dtype=float)
        return self.center + (self.radius / nrm) * dv

    def distance(self, v: Array) -> float:
        return max(0.0, float(np.linalg.norm(v - self.center)) - self.radius)


@dataclass(frozen=True)
class EnergyBudget:
    """{x : sum_t x_t >= demand, lo <= x <= hi}."""

    lo: Array
    hi: Array
    demand: float

    def project(self, v: Array) -> Array:
        return project_energy_budget(self.lo, self.hi, self.demand, v)

    def distance(self, v: Array) -> float:
        return float(np.linalg.norm(v - self.project(v)))


def _linearize(primitives, dim):
    """Expand box/halfspace/hyperplane primitives into (G, h, C, e) rows."""
    g_rows, h_vals, c_rows, e_vals = [], [], [], []
    eye = np.eye(dim)
    for prim in primitives:
        if isinstance(prim, Box):
            lo = np.broadcast_to(prim.lo, (dim,))
            hi = np.broadcast_to(prim.hi, (dim,))
            for j in range(dim):
                if np.isfinite(hi[j]):
                    g_rows.append(eye[j])
                    h_vals.append(float(hi[j]))
                if np.isfinite(lo[j]):
                    g_rows.append(-eye[j])
                    h_vals.append(-float(lo[j]))
        elif isinstance(prim, Halfspace):
            g_rows.append(np.asarray(prim.a, dtype=float))
            h_vals.append(float(prim.c))
        elif isinstance(prim, Hyperplane):
            c_rows.append(np.asarray(prim.a, dtype=float))
            e_vals.append(float(prim.c))
        else:
            raise ValueError(f"not a polyhedral primitive: {type(prim).__name__}")
    g = np.array(g_rows) if g_rows else np.zeros((0, dim))
    c = np.array(c_rows) if c_rows else np.zeros((0, dim))
    return g, np.array(h_vals), c, np.array(e_vals)


def exact_projection_qp(primitives: Sequence, v: Array) -> Array:
    """Exact projection onto a polyhedral intersection by active-set
    enumeration.  Intended for dimension <= 3 cross-checks of Dykstra; cost
    grows exponentially with the number of inequality rows.
    """
    v = np.asarray(v, dtype=float)
    dim = v.shape[0]
    if dim > 3:
        raise ValueError("enumeration oracle is restricted to dimension <= 3")
    g, h, c, e = _linearize(primitives, dim)
    best, best_dist = None, np.inf
    n_ineq = g.shape[0]
    for r in range(n_ineq + 1):
        for active in combinations(range(n_ineq), r):
            rows = np.vstack([c, g[list(active)]]) if active else c
            rhs = np.concatenate([e, h[list(active)]]) if active else e
            if rows.shape[0] == 0:
                x = v.copy()
            else:
                # minimize ||x - v|| s.t. rows x = rhs  (least-norm correction)
                corr, *_ = np.linalg.lstsq(rows, rhs - rows @ v, rcond=None)
                x = v + corr
                if np.max(np.abs(rows @ x - rhs)) > 1e-9:
                    continue  # inconsistent active set
            feasible = (g @ x <= h + 1e-9).all() if n_ineq else True
            if c.shape[0] and np.max(np.abs(c @ x - e)) > 1e-9:
                feasible = False
            if feasible:
                dist = float(np.linalg.norm(x - v))
                if dist < best_dist - 1e-12:
                    best, best_dist = x, dist
    if best is None:
        raise InfeasibleInstance("polyhedron appears empty")
    return best


# ---------------------------------------------------------------------------
# engine seams: a recorded run, a step on given blocks
# ---------------------------------------------------------------------------


def recorded(eng):
    """``eng`` keeping its x, and w for the averaging form, in
    ``eng.iterates`` and ``eng.averaged``: once at ``init_state`` and after
    every ``step``, where ``run`` ends a step before its finite-iterate
    check and cache refresh.  Pass it to ``run`` as ``engine=``."""
    eng.iterates, eng.averaged = [], []
    init_state, step = eng.init_state, eng.step

    def keep(state):
        eng.iterates.append(state.x.copy())
        if isinstance(state, RbcdState):
            eng.averaged.append(state.w.copy())
        return state

    eng.init_state = lambda x0, rng: keep(init_state(x0, rng))
    eng.step = lambda state: keep(step(state))
    return eng


def copy_state(state):
    """A copy of an engine state whose arrays and lists are its own; the
    generator is shared."""
    return replace(state, **{
        f.name: getattr(state, f.name).copy()
        for f in fields(state)
        if isinstance(getattr(state, f.name), (np.ndarray, list))
    })


def step_on(eng, state, mask):
    """One step of ``eng`` that moves the blocks of the boolean ``mask``
    instead of drawing them; the generator is not consumed."""
    with mock.patch.object(solver, "draw", lambda sampling, rng: np.flatnonzero(mask)):
        return eng.step(state)


def fresh_trace_record(problem: ProblemSpec, eng, state, ref: Reference) -> solver.TraceRecord:
    """The trace row as it was made before rows read the engines' maintained
    residual: the penalty gaps as 0.5||A(v - x_ls)||^2 for v = x and the
    averaged w, and ``kkt_res`` with a fresh Ax - b; the other columns by
    the same formulas as ``solver._trace_record``."""
    k = state.k
    psi_hat = h_gap_w = math.nan

    def gap(v):
        r = problem.a @ (v - ref.x_ls)
        return 0.5 * float(r @ r)

    if isinstance(state, RbcdState):
        psi_x, psi_hat = state.psi_total, state.psi_hat
        h_gap_w = gap(state.w)
        y = eng.dual_estimate(state)
        primal = float(np.linalg.norm(state.ax - problem.b))
    else:
        psi_x = eval_psi(problem, state.x)
        y = state.y
        primal = float(np.linalg.norm(state.u))
    return solver.TraceRecord(
        k=k, psi_x=psi_x, psi_hat=psi_hat, h_gap_x=gap(state.x), h_gap_w=h_gap_w,
        primal_res=primal,
        kkt_res=kkt_residual(problem, state.x, y, problem.a @ state.x - problem.b),
        tau=state.tau, sigma=state.sigma,
    )


# ---------------------------------------------------------------------------
# averaging engine: its block step, averaged product, weights and energy
# ---------------------------------------------------------------------------


def extrapolated(eng: RbcdEngine, state: RbcdState) -> tuple[Array, Array, float]:
    """Current z = (1 - theta) w + theta x, its A-image and theta."""
    theta = state.sigma / state.s_cur
    c = (1.0 - theta) * state.gamma
    return state.x + c * state.e, state.ax + c * state.ae, theta


def forward_backward_block(eng: RbcdEngine, state: RbcdState, i: int) -> Array:
    """Block i's weighted forward-backward step from the current
    extrapolated point, as the averaging engine's step takes it; the state
    does not move."""
    _, az, _ = extrapolated(eng, state)
    x_hat, _ = eng._fb(i, state.x, az - eng.problem.b, state.s_cur, state.tau)
    return x_hat


def aw(state: RbcdState) -> Array:
    """A w of the implicit averaged iterate w = x + gamma e."""
    return state.ax + state.gamma * state.ae


def gamma_table(thetas, pi) -> Array:
    """Ergodic averaging coefficients gamma[k, t, i] for k <= len(thetas).

    Built by the forward recursion; every step verifies the two-term closure
    gamma[k+1, k] + gamma[k+1, k+1] = theta_k + (1 - theta_k) gamma[k, k].
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
        dev = float(np.max(np.abs(closure - expected)))
        if not dev < 1e-12:
            raise InvariantViolation(f"gamma closure off by {dev:.3e} at k={k}")
    return gam


def previous_weight(policy, k: int) -> float:
    """S_{k-1} of the averaging engine, with S_{-1} = 1 - sigma_0 (the
    extrapolated point is then a convex combination already at k = 0),
    replayed with the engine's own additions S_0 = 1, S_j = S_{j-1} +
    sigma_j, so its bits are the engine's."""
    _, sigmas = schedule(policy, k)
    if k == 0:
        return 1.0 - sigmas[0]
    s = 1.0
    for sigma_j in sigmas[1:k]:
        s += sigma_j
    return s


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
    sigma_k, tau_k = state.sigma, state.tau
    p_diag = weight_matrix_p(sampling, problem.blocks)
    w_diag = (sigma_k / tau_k) * p_diag**2 * policy.b_diag + sigma_k * (
        p_diag - 1.0
    ) * problem.mu_vector
    s_prev = previous_weight(policy, k)
    f_k = state.psi_hat + s_prev * ref.h_gap(problem.a @ state.w - problem.b)
    dx = state.x - ref.x_star
    v_k = 0.5 * float(dx @ (w_diag * dx)) + s_prev * (f_k - ref.psi_star)
    return v_k, f_k


# ---------------------------------------------------------------------------
# step sizes: the normalized tau recursion, its floor and certificates
# ---------------------------------------------------------------------------


def schedule(policy, k: int) -> tuple[list[float], list[float]]:
    """(tau_0 .. tau_k) and (sigma_0 .. sigma_k), replayed from the policy's
    start through ``advance`` as a run's steps advance them, with their
    bits."""
    tau, sigma = policy.start()
    taus, sigmas = [tau], [sigma]
    for _ in range(k):
        tau, sigma = policy.advance(tau)
        taus.append(tau)
        sigmas.append(sigma)
    return taus, sigmas


def normalized_s_step(s_k: float, d_k: float) -> float:
    """One step of the normalized recursion s+ = 2s / (s + sqrt(s^2 + 4d))."""
    return 2.0 * s_k / (s_k + math.sqrt(s_k * s_k + 4.0 * d_k))


def tau_lower_bound(k: int, tau0: float, kappa: float, pi: float) -> float:
    """Guaranteed floor 2 tau0 / ((1 + kappa - 1/pi) tau0 k + 2)."""
    delta = kappa - 1.0 / pi
    return 2.0 * tau0 / ((1.0 + delta) * tau0 * k + 2.0)


def step_map(x: float, y: float, kappa: float, pi) -> float:
    """Min over blocks of the quadratic whose positive root drives tau.

    Each block's quadratic is negative below its positive root and positive
    above it, and the successor value is the largest root, so the minimum
    vanishes there.  The fixed point is x = y = 1/kappa."""
    pi = np.atleast_1d(np.asarray(pi, dtype=float))
    vals = []
    for pii in pi:
        delta = kappa - 1.0 / pii
        a1 = 1.0 - kappa * y * y - delta * y
        a2 = y * y * (delta + 1.0)
        a3 = y * y
        vals.append(a1 * x * x + a2 * x - a3)
    return min(vals)


def mi_margins(
    lam_full: Array,
    ups_diag: Array,
    xi: Array,
    p_diag: Array,
    b_diag: Array,
    sigma_k: float,
    tau_k: float,
    sigma_k1: float,
    tau_k1: float,
) -> tuple[float, float]:
    """Smallest eigenvalues of the two step-certification matrices.

    First: P B - tau_k (Lam + sigma_k Xi).  Second:
    P^2 B + tau_k P Ups - (tau_k sigma_{k+1} / (tau_{k+1} sigma_k)) *
    (P^2 B - tau_{k+1} (I - P) Ups); every factor in the second is diagonal,
    so its margin is exact and cheap.
    """
    m1 = np.diag(p_diag * b_diag) - tau_k * (lam_full + sigma_k * xi)
    margin1 = float(np.linalg.eigvalsh(m1).min())
    ratio = tau_k * sigma_k1 / (tau_k1 * sigma_k)
    p2b = p_diag**2 * b_diag
    lhs = p2b + tau_k * p_diag * ups_diag
    rhs = ratio * (p2b - tau_k1 * (1.0 - p_diag) * ups_diag)
    margin2 = float(np.min(lhs - rhs))
    return margin1, margin2


def generalised_sigma_max(p: ProblemSpec, s: Sampling) -> float:
    """The convex certificate's largest step, 1 / lammax(Xi, D - Lam) over
    the coupled blocks (lambda_i > 0), from the dense generalised
    eigenproblem; inf when no block is coupled."""
    lam_i = p.block_sq_norms
    b_diag = p.blocks.expand(s.pi * (lam_i + p.smooth_lipschitz))
    dml = np.diag(weight_matrix_p(s, p.blocks) * b_diag) - lam_full(p)
    keep = np.ix_(*2 * (np.flatnonzero(p.blocks.expand(lam_i > 0.0)),))
    xi = xi_matrix(s, p.gram, p.blocks)[keep]
    if not xi.size:
        return math.inf
    return 1.0 / float(sla.eigh(xi, dml[keep], eigvals_only=True)[-1])


def full_spectrum_alpha(p: ProblemSpec, s: Sampling) -> float:
    """The accelerated alpha, 1 / lammax(M^{-1/2} Xi M^{-1/2}) with
    M = P^{-1} Ups, from the full spectrum."""
    scale = 1.0 / np.sqrt(p.mu_vector / weight_matrix_p(s, p.blocks))
    xi = xi_matrix(s, p.gram, p.blocks)
    return 1.0 / float(np.linalg.eigvalsh(scale[:, None] * xi * scale[None, :]).max())


def accel_delta(policy) -> float:
    """delta = kappa - 1/min pi of an accelerated policy."""
    return policy.kappa - 1.0 / float(np.min(policy.pi))


def cumulative_weight_bound(
    k: int, alpha: float, delta: float, sigma0: float
) -> float:
    """Upper bound 1 + alpha (1+delta) k (k+1) / 4 + k sigma0 on S_k."""
    return 1.0 + alpha * (1.0 + delta) * k * (k + 1) / 4.0 + k * sigma0


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def children(net: NetworkModel, n: int) -> list[int]:
    """The buses whose parent is ``n``, in bus order."""
    return [m for m, up in zip(net.buses, net.parent) if up == n]


def dso_primitives(problem: ProblemSpec):
    """The operator's affine rows, box and flow balls, built from the
    arrays its projector holds: the primitives Dykstra's projection
    intersects."""
    projector = problem.meta["dso_projector"]
    return (
        projector.affine,
        Box(projector.lo, projector.hi),
        FlowBalls(projector.f, projector.g, projector.radii),
    )


def make_single_line_network(demand=(0.5, 0.25)) -> NetworkModel:
    """One slack, one bus, fixed per-period demand: the marginal prices at
    the bus equal the slack cost derivatives at that demand."""
    demand = np.asarray(demand, dtype=float)[None, :]
    return NetworkModel(
        buses=(1,),
        parent=[0],
        r=[1e-3],
        x=[1e-3],
        s_cap=[5.0],
        b_shunt=[0.0],
        p_lo=demand,
        p_hi=demand,
        energy=demand.sum(axis=1),
        tau_c=[0.0],
        renewable=np.zeros_like(demand),
        v_lo=0.25,
        v_hi=4.0,
        v0=1.0,
        aggregators=((1,),),
    )
