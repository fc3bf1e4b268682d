"""Step-size policies for the block-coordinate engines.

Two regimes:

* a constant policy for merely convex problems, with the per-block scaling
  B_i = pi_i (lambda_i + L_i) I and sigma at most the smallest activation
  probability, certified against the governing matrix inequality;

* an accelerated policy for strongly convex problems, where sigma_k and a
  shrinking tau_k are tied by sigma_k * tau_k = alpha - beta * tau_k and
  tau advances through a per-step scalar recursion.  tau_k decays like 1/k,
  so the cumulative weight S_k grows quadratically.

Both expose ``sigma_at(k)`` / ``tau_at(k)`` plus the diagonal of the block
scaling B, which is what the engines consume.  Policy objects memoise their
sequences and are advanced by a single owner; certification helpers are pure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .blocks import ProblemSpec
from .errors import InvariantViolation, PolicyConstructionError, StrongConvexityRequired
from .sampling import Sampling, weight_matrix_p, xi_matrix

Array = np.ndarray

MI_TOL = -1e-8


@dataclass
class ConvexPolicy:
    """Constant steps: sigma_k = sigma, tau_k = 1."""

    sigma: float
    b_diag: Array
    certified_margin: float = math.nan
    halvings: int = 0

    def sigma_at(self, k: int) -> float:
        return self.sigma

    def tau_at(self, k: int) -> float:
        return 1.0


@dataclass
class AcceleratedPolicy:
    """Coupled (sigma_k, tau_k) schedule for strongly convex problems.

    ``tau_at`` extends the memoised sequence on demand through
    :func:`tau_next`; sigma_k = alpha / tau_k - beta is then non-decreasing
    while tau_k strictly decreases toward zero.
    """

    alpha: float
    beta: float
    kappa: float
    pi: Array
    tau0: float
    b_diag: Array
    uniform: bool = True
    _taus: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        if not 0.0 < self.tau0 < 1.0 / self.kappa:
            raise PolicyConstructionError(
                f"tau0={self.tau0} outside the admissible interval "
                f"(0, 1/kappa={1.0 / self.kappa})"
            )
        self._taus = [float(self.tau0)]

    def tau_at(self, k: int) -> float:
        while len(self._taus) <= k:
            self._taus.append(tau_next(self._taus[-1], self.kappa, self.pi))
        return self._taus[k]

    def sigma_at(self, k: int) -> float:
        return self.alpha / self.tau_at(k) - self.beta

    @property
    def delta(self) -> float:
        return self.kappa - 1.0 / float(np.min(self.pi))


def convex_default_policy(
    p: ProblemSpec, s: Sampling, certify: bool = True
) -> ConvexPolicy:
    """Largest constant sigma compatible with the averaging weights, with the
    standard per-block scaling, certified against the matrix inequality
    P B >= sigma Xi + Lam.

    The per-block construction is only sufficient when Xi is block diagonal
    (single-block activation or orthogonal columns); for coupled Xi the
    certificate is checked by a smallest-eigenvalue test and sigma is halved
    until it passes.
    """
    lam_i = p.block_sq_norms
    l_i = p.smooth_lipschitz
    b_per_block = s.pi * (lam_i + l_i)
    b_diag = p.blocks.expand(b_per_block)
    sigma = float(np.min(s.pi))
    if not certify:
        return ConvexPolicy(sigma, b_diag)

    xi = xi_matrix(s, p.a_blocks)
    p_diag = weight_matrix_p(s, p.blocks)
    pb = np.diag(p_diag * b_diag)
    lam_full = p.lam_full
    halvings = 0
    while True:
        margin = float(np.linalg.eigvalsh(pb - sigma * xi - lam_full).min())
        if margin >= MI_TOL:
            return ConvexPolicy(sigma, b_diag, certified_margin=margin, halvings=halvings)
        sigma *= 0.5
        halvings += 1
        if sigma < 1e-12:
            raise PolicyConstructionError(
                "step certification failed down to sigma < 1e-12"
            )


def accel_params(p: ProblemSpec, s: Sampling) -> tuple[float, float, float]:
    """Curvature-adapted parameters (alpha, beta, kappa).

    With M = P^{-1} Upsilon, alpha is the reciprocal of the largest
    eigenvalue of M^{-1/2} Xi M^{-1/2} and beta = alpha * lammax of
    M^{-1/2}(Lam + Upsilon)M^{-1/2}.  When Xi is block diagonal these reduce
    to the closed forms

        alpha = (max_i ||A_i||^2 / (mu_i pi_i^2))^{-1}
        kappa = max_i (L_i + mu_i) / (pi_i mu_i)

    which are cross-checked whenever they apply.  Requires mu_i > 0 on every
    block.
    """
    mu = p.mu_vector
    if np.any(mu <= 0.0):
        raise StrongConvexityRequired(
            "accelerated parameters need mu_i > 0 on every block"
        )
    p_diag = weight_matrix_p(s, p.blocks)
    m_diag = mu / p_diag  # diagonal of P^{-1} Upsilon
    scale = 1.0 / np.sqrt(m_diag)
    xi = xi_matrix(s, p.a_blocks)
    xi_scaled = scale[:, None] * xi * scale[None, :]
    alpha = 1.0 / float(np.linalg.eigvalsh(xi_scaled).max())
    lam_ups = p.lam_full + np.diag(mu)
    lu_scaled = scale[:, None] * lam_ups * scale[None, :]
    beta = alpha * float(np.linalg.eigvalsh(lu_scaled).max())
    kappa = beta / alpha

    if _xi_block_diagonal(xi, p):
        mu_b = np.array([p.prox[i].mu for i in range(p.d)])
        alpha_cf = 1.0 / float(np.max(p.block_sq_norms / (mu_b * s.pi**2)))
        kappa_cf = float(np.max((p.smooth_lipschitz + mu_b) / (s.pi * mu_b)))
        if not (
            abs(alpha - alpha_cf) <= 1e-10 * max(1.0, alpha)
            and abs(kappa - kappa_cf) <= 1e-10 * max(1.0, kappa)
        ):
            raise InvariantViolation(
                f"accelerated parameters disagree with their closed forms: "
                f"alpha {alpha!r} vs {alpha_cf!r}, kappa {kappa!r} vs {kappa_cf!r}"
            )
    return alpha, beta, kappa


def _xi_block_diagonal(xi: Array, p: ProblemSpec) -> bool:
    off = xi.copy()
    for i in range(p.d):
        sl = p.blocks.block_slice(i)
        off[sl, sl] = 0.0
    return float(np.max(np.abs(off))) < 1e-12 * max(1.0, float(np.max(np.abs(xi))))


def make_accelerated_policy(
    p: ProblemSpec, s: Sampling, tau0: float | None = None
) -> AcceleratedPolicy:
    """Build the accelerated policy with B = P^{-2} Upsilon.

    The default tau0 solves sigma_0 = min_i pi_i exactly, which keeps the
    initial averaging weight theta_0 = sigma_0 admissible for the ergodic
    coefficients.  A user-supplied tau0 with sigma_0 above that threshold is
    allowed but the positivity of the averaging weights is then not
    guaranteed; a warning is emitted.  Non-uniform samplings are accepted but
    flagged: the decay guarantees are only established for uniform marginals.
    """
    alpha, beta, kappa = accel_params(p, s)
    pi_min = float(np.min(s.pi))
    uniform = bool(np.max(s.pi) - pi_min < 1e-12)
    if not uniform:
        warnings.warn(
            "accelerated policy with non-uniform activation probabilities is "
            "outside the proven regime",
            stacklevel=2,
        )
    if tau0 is None:
        tau0 = alpha / (beta + pi_min)
    else:
        sigma0 = alpha / tau0 - beta
        if sigma0 > pi_min + 1e-12:
            warnings.warn(
                f"tau0={tau0} gives theta_0={sigma0:.4g} > min pi={pi_min:.4g}; "
                "averaging weights may go negative",
                stacklevel=2,
            )
    mu = p.mu_vector
    p_diag = weight_matrix_p(s, p.blocks)
    b_diag = mu / p_diag**2
    return AcceleratedPolicy(alpha, beta, kappa, s.pi.copy(), float(tau0), b_diag, uniform)


def tau_next(tau_k: float, kappa: float, pi) -> float:
    """Advance the accelerated step parameter.

    The new value is the largest root of the per-block quadratic

        (1 - kappa t^2 - delta_i t) x^2 + t^2 (delta_i + 1) x - t^2 = 0,
        delta_i = kappa - 1/pi_i,  t = tau_k,

    maximised over blocks, evaluated two independent ways: (a) the explicit
    root formula once per distinct pi_i, and (b) for uniform marginals the
    normalized recursion s_{k+1} = 2 s_k / (s_k + sqrt(s_k^2 + 4 d_k)) with
    s_k = (1 + delta) tau_k and d_k = 1 - delta tau_k - kappa tau_k^2.
    The two paths must agree to 1e-10.  The result is strictly below tau_k
    and satisfies the binding block's inequality with equality.
    """
    pi = np.atleast_1d(np.asarray(pi, dtype=float))
    if not 0.0 < tau_k < 1.0 / kappa:
        raise ValueError(
            f"tau={tau_k} outside (0, 1/kappa={1.0 / kappa}): the quadratic's "
            "leading coefficient would lose positivity"
        )
    out = max(_tau_root(tau_k, kappa, pii) for pii in set(pi.tolist()))
    if float(np.max(pi) - np.min(pi)) < 1e-12:
        alt = _tau_normalized(tau_k, kappa, float(pi[0]))
        if not abs(out - alt) <= 1e-10 * max(1.0, out):
            raise InvariantViolation(
                f"step recursion paths disagree: {out!r} vs {alt!r} at tau={tau_k!r}"
            )
    if not out < tau_k:
        raise InvariantViolation(f"step parameter did not decrease: {out!r} >= {tau_k!r}")
    return out


def _tau_root(t: float, kappa: float, pi_i: float) -> float:
    c = 1.0 / pi_i - kappa  # = -delta_i
    den = 1.0 + t * c - kappa * t * t
    rad = (1.0 + 0.5 * c * t) ** 2 - ((2.0 - pi_i) / pi_i + 2.0 * kappa) * t * t / 4.0
    num = 0.5 * t * t * (c - 1.0) + t * math.sqrt(rad)
    return num / den


def _tau_normalized(t: float, kappa: float, pi: float) -> float:
    delta = kappa - 1.0 / pi
    d_k = 1.0 - delta * t - kappa * t * t
    s_k = (1.0 + delta) * t
    s_next = normalized_s_step(s_k, d_k)
    return s_next / (1.0 + delta)


def normalized_s_step(s_k: float, d_k: float) -> float:
    """One step of the normalized recursion s+ = 2s / (s + sqrt(s^2 + 4d))."""
    return 2.0 * s_k / (s_k + math.sqrt(s_k * s_k + 4.0 * d_k))


def tau_lower_bound(k: int, tau0: float, kappa: float, pi: float) -> float:
    """Guaranteed floor 2 tau0 / ((1 + kappa - 1/pi) tau0 k + 2)."""
    delta = kappa - 1.0 / pi
    return 2.0 * tau0 / ((1.0 + delta) * tau0 * k + 2.0)


def step_map(x: float, y: float, kappa: float, pi) -> float:
    """Max over blocks of the quadratic whose positive root drives tau;
    vanishes at the successor value and has fixed point x = y = 1/kappa."""
    pi = np.atleast_1d(np.asarray(pi, dtype=float))
    vals = []
    for pii in pi:
        delta = kappa - 1.0 / pii
        a1 = 1.0 - kappa * y * y - delta * y
        a2 = y * y * (delta + 1.0)
        a3 = y * y
        vals.append(a1 * x * x + a2 * x - a3)
    return max(vals)


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


def certify_mi(
    lam_full: Array,
    ups_diag: Array,
    xi: Array,
    p_diag: Array,
    b_diag: Array,
    sigma_k: float,
    tau_k: float,
    sigma_k1: float,
    tau_k1: float,
) -> tuple[bool, bool]:
    """Nonnegativity flags (to -1e-8) for the two step-certification
    inequalities; callers decide what to do on failure."""
    m1, m2 = mi_margins(
        lam_full, ups_diag, xi, p_diag, b_diag, sigma_k, tau_k, sigma_k1, tau_k1
    )
    return m1 >= MI_TOL, m2 >= MI_TOL


def cumulative_weight_bound(
    k: int, alpha: float, delta: float, sigma0: float
) -> float:
    """Upper bound 1 + alpha (1+delta) k (k+1) / 4 + k sigma0 on S_k."""
    return 1.0 + alpha * (1.0 + delta) * k * (k + 1) / 4.0 + k * sigma0
