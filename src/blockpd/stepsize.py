"""Step-size policies for the block-coordinate engines.

Two regimes:

* a constant policy for merely convex problems, with the per-block scaling
  B_i = pi_i (lambda_i + L_i) I and sigma at most the smallest activation
  probability, taken at the edge of the governing matrix inequality;

* an accelerated policy for strongly convex problems, where sigma_k and a
  shrinking tau_k are tied by sigma_k * tau_k = alpha - beta * tau_k and
  tau advances through a per-step scalar recursion.  tau_k decays like 1/k,
  so the cumulative weight S_k grows quadratically.

Each certificate computes one eigenvalue: the largest of a standard
symmetric m x m matrix (:func:`_top_eigenvalue`).  The convex pencil
(Xi, D - Lam) gets there through the block-diagonal Cholesky factor of
D - Lam, so neither a dense D - Lam nor a full spectrum is formed; the
generalised and full-spectrum eigenproblems are test oracles
(``tests/instruments.py``).

Both are frozen parameter sets that hold nothing per step, so any number of
runs may share one.  Each gives its start ``(tau_0, sigma_0)``, a pure
``advance(tau_k) -> (tau_{k+1}, sigma_{k+1})`` and the diagonal of the block
scaling B; the engine state carries (tau_k, sigma_k).  Certification
helpers are pure too.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._lapack import blas, lapack
from .blocks import ProblemSpec
from .errors import InvariantViolation, PolicyConstructionError, StrongConvexityRequired
from .sampling import Sampling, weight_matrix_p, xi_matrix

Array = np.ndarray

# smallest accepted lower bound on lambda_min(P B - sigma Xi - Lam)
MI_TOL = -1e-8
# share of the largest certified step taken when min pi exceeds it
EDGE_FRACTION = 0.95


@dataclass(frozen=True)
class ConvexPolicy:
    """Constant steps: sigma_k = sigma, tau_k = 1.

    ``certified_margin`` is a proven lower bound on the smallest eigenvalue
    of P B - sigma Xi - Lam (see :func:`convex_default_policy`), NaN when
    sigma was not certified.
    """

    sigma: float
    b_diag: Array
    certified_margin: float = math.nan

    def __post_init__(self):
        if not 0.0 < self.sigma < math.inf:
            raise PolicyConstructionError(f"sigma must be finite and > 0, got {self.sigma}")

    def start(self) -> tuple[float, float]:
        return 1.0, self.sigma

    def advance(self, tau: float) -> tuple[float, float]:
        return 1.0, self.sigma


@dataclass(frozen=True)
class AcceleratedPolicy:
    """Coupled (sigma_k, tau_k) schedule for strongly convex problems.

    :meth:`advance` takes tau_k to tau_{k+1} through one call of this
    module's :func:`tau_next`, looked up at each call, on the distinct
    marginals (found once, when the policy is built) and gives
    sigma_{k+1} = alpha / tau_{k+1} - beta beside it, non-decreasing while
    tau_k strictly decreases toward zero.
    """

    alpha: float
    beta: float
    kappa: float
    pi: Array
    tau0: float
    b_diag: Array
    _marginals: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.tau0 < 1.0 / self.kappa:
            raise PolicyConstructionError(
                f"tau0={self.tau0} outside the admissible interval "
                f"(0, 1/kappa={1.0 / self.kappa})"
            )
        object.__setattr__(self, "_marginals", _distinct_marginals(self.pi))

    def start(self) -> tuple[float, float]:
        tau = float(self.tau0)
        return tau, self.alpha / tau - self.beta

    def advance(self, tau: float) -> tuple[float, float]:
        tau = tau_next(tau, self.kappa, self._marginals)
        return tau, self.alpha / tau - self.beta


def convex_default_policy(
    p: ProblemSpec, s: Sampling, certify: bool = True
) -> ConvexPolicy:
    """Constant sigma at the edge of the matrix inequality
    P B >= sigma Xi + Lam, with the standard per-block scaling
    B_i = pi_i (lambda_i + L_i) I.

    With D = P B = diag(lambda_i + L_i), the inequality reads
    sigma Xi <= D - Lam.  D - Lam is block diagonal with smallest eigenvalue
    lambda_i = ||A_i||^2 on block i (L_i is the largest eigenvalue of Lam_i),
    so the largest certified step is one generalised eigenvalue,
    sigma_max = 1 / lammax(Xi, D - Lam), taken over the blocks with
    lambda_i > 0 (the others have zero rows in Xi and certify any sigma).
    It is reduced block by block, with no m x m D - Lam: each coupled
    block's D_i - Lam_i = L_i L_i' is factored (one stacked Cholesky call
    per block size, :func:`_coupled_factors`), L_i^{-T} is applied from
    the right to that block's column slab of a fresh Xi and then L_i^{-1}
    to its row slab, in place, and sigma_max = 1 / lammax(M) with
    M = L^{-1} Xi L^{-T}, the M of the proof below.  A block whose factor
    does not exist in floating point (lambda_i lost in rounding beside L_i)
    raises :class:`PolicyConstructionError` naming it.
    The averaging weights need sigma <= min pi, so sigma = min pi when it
    certifies (min pi <= sigma_max, up to ``MI_TOL``) and
    sigma = EDGE_FRACTION * sigma_max (0.95) otherwise.

    ``certified_margin`` = (1 - sigma / sigma_max) c bounds
    lambda_min(P B - sigma Xi - Lam) from below, with c = min_i lambda_i
    for sigma <= sigma_max and c = max_i (lambda_i + L_i) above it.  Proof:
    write D - Lam = L L' and M = L^{-1} Xi L^{-T}, so lammax(M) = 1 / sigma_max
    and D - Lam - sigma Xi = L (I - sigma M) L' >= (1 - sigma / sigma_max) L L'
    = (1 - sigma / sigma_max)(D - Lam); then use
    min_i lambda_i I <= D - Lam <= D = diag(lambda_i + L_i).  A bound below
    ``MI_TOL`` raises :class:`PolicyConstructionError`.  The tests compare it
    with the dense smallest eigenvalue.  With ``certify=False``
    sigma = min pi, unchecked.  A block with lambda_i = L_i = 0 would get
    B_i = 0, which the step divides by: it raises the same error.
    """
    lam_i = p.block_sq_norms
    l_i = p.smooth_lipschitz
    b_per_block = s.pi * (lam_i + l_i)
    if not np.all(b_per_block > 0.0):
        i = int(np.argmin(b_per_block > 0.0))
        raise PolicyConstructionError(
            f"block {i} has no coupling columns and no curvature: B_i = 0"
        )
    b_diag = p.blocks.expand(b_per_block)
    sigma = float(np.min(s.pi))
    if not certify:
        return ConvexPolicy(sigma, b_diag)

    xi = xi_matrix(s, p.gram, p.blocks)
    pb_diag = weight_matrix_p(s, p.blocks) * b_diag
    coupled = lam_i > 0.0
    if not coupled.all():
        keep = np.flatnonzero(p.blocks.expand(coupled))
        xi = xi[np.ix_(keep, keep)]
    # M = L^{-1} Xi L^{-T} with L L' = D - Lam, factored one block size at
    # a time over the coupled blocks, whose rows and columns stay contiguous
    # in xi.  The first pass takes Xi L^{-T} one column slab X at a time: a
    # Fortran-ordered copy of X is solved in place as X L^{-T} and written
    # back.  Xi is exactly symmetric, so X holds the bits of the transposed
    # row slab, and xi then holds (L^{-1} Xi)' with no m x m transposed
    # copy.  The second pass solves each C-ordered row slab Y in place as
    # Y' L^{-T} on its Fortran-ordered transpose Y'
    factors, start = [], 0
    for i, low in sorted(_coupled_factors(p, pb_diag, coupled).items()):
        factors.append((slice(start, start + p.blocks.dims[i]), low))
        start += p.blocks.dims[i]
    for cols, low in factors:
        xi[:, cols] = blas.dtrsm(
            1.0, low, np.array(xi[:, cols], order="F"), side=1, lower=1, trans_a=1,
            overwrite_b=1,
        )
    for rows, low in factors:
        blas.dtrsm(1.0, low, xi[rows].T, side=1, lower=1, trans_a=1, overwrite_b=1)
    sigma_max = 1.0 / _top_eigenvalue(xi.T) if xi.size else math.inf
    lam_min, d_max = float(np.min(lam_i)), float(np.max(lam_i + l_i))

    def margin_at(sig):
        slack = 1.0 - sig / sigma_max
        return slack * (lam_min if slack >= 0.0 else d_max)

    margin = margin_at(sigma)
    if not margin >= MI_TOL:
        sigma = EDGE_FRACTION * sigma_max
        margin = margin_at(sigma)
    if not margin >= MI_TOL:
        raise PolicyConstructionError(
            f"step certification failed: margin bound {margin!r} < {MI_TOL}"
        )
    return ConvexPolicy(sigma, b_diag, certified_margin=margin)


def _coupled_factors(p: ProblemSpec, pb_diag: Array, coupled: Array) -> dict[int, Array]:
    """The lower Cholesky factor of D_i - Lam_i for each coupled block i,
    from one ``numpy.linalg.cholesky`` call per block size on the stacked
    D_i - Lam_i (LAPACK ``potrf``, the bits of a per-block call).  When a
    stack does not factor, the first block in block order whose own
    ``dpotrf`` fails is named in a :class:`PolicyConstructionError`."""
    lows = {}
    try:
        for g, lam in zip(p.blocks._size_groups, p.lam_stacks):
            keep = coupled[g.blocks]
            if not keep.any():
                continue
            dml = _diagonal_stack(g.take(pb_diag)[keep])
            dml -= lam[keep]
            lows.update(zip(np.array(g.ids)[keep].tolist(), np.linalg.cholesky(dml)))
    except np.linalg.LinAlgError:
        lam_i, l_i = p.block_sq_norms, p.smooth_lipschitz
        for i in np.flatnonzero(coupled).tolist():
            sl = p.blocks.slices[i]
            if lapack.dpotrf(np.diag(pb_diag[sl]) - p.smooth[i].lam, lower=1)[1]:
                raise PolicyConstructionError(
                    f"step certification failed: D_i - Lam_i of block {i} is not "
                    f"positive definite in floating point (lambda_i = {lam_i[i]:.3g} "
                    f"is lost beside L_i = {l_i[i]:.3g})"
                ) from None
        raise
    return lows


def accel_params(p: ProblemSpec, s: Sampling) -> tuple[float, float, float]:
    """Curvature-adapted parameters (alpha, beta, kappa).

    With M = P^{-1} Upsilon, alpha is the reciprocal of the largest
    eigenvalue of M^{-1/2} Xi M^{-1/2} (that eigenvalue alone, not the full
    spectrum) and beta = alpha * lammax of
    M^{-1/2}(Lam + Upsilon)M^{-1/2}.  Lam + Upsilon and M are block
    diagonal, so beta takes the largest of the per-block eigenvalues, from
    one ``eigvalsh`` call per block size on the stacked blocks.  When
    Xi is block diagonal alpha and kappa = beta / alpha reduce to the
    closed forms

        alpha = (max_i ||A_i||^2 / (mu_i pi_i^2))^{-1}
        kappa = max_i (L_i + mu_i) / (pi_i mu_i)

    which the tests check, as they check alpha against the full spectrum
    and beta against the dense eigenproblem.  Requires mu_i > 0 on every
    block and A != 0.
    """
    mu = p.mu_vector
    if np.any(mu <= 0.0):
        raise StrongConvexityRequired(
            "accelerated parameters need mu_i > 0 on every block"
        )
    p_diag = weight_matrix_p(s, p.blocks)
    m_diag = mu / p_diag  # diagonal of P^{-1} Upsilon
    scale = 1.0 / np.sqrt(m_diag)
    xi_scaled = xi_matrix(s, p.gram, p.blocks)
    xi_scaled *= scale[:, None]
    xi_scaled *= scale[None, :]
    top = _top_eigenvalue(xi_scaled.T)
    if not top > 0.0:
        raise PolicyConstructionError("accelerated parameters need a coupled block: A = 0")
    alpha = 1.0 / top
    beta = alpha * _scaled_curvature_top(p, scale)
    kappa = beta / alpha
    return alpha, beta, kappa


def _diagonal_stack(rows: Array) -> Array:
    """The (k, n, n) stack of diagonal matrices whose diagonals are the k
    rows of ``rows``."""
    k, n = rows.shape
    out = np.zeros((k, n, n))
    out[:, np.arange(n), np.arange(n)] = rows
    return out


def _scaled_curvature_top(p: ProblemSpec, scale: Array) -> float:
    """max(0, lammax(S (Lam + Upsilon) S)) with S = diag(``scale``): the
    largest of the per-block eigenvalues, from one ``eigvalsh`` call per
    block size on the stacked S_i (Lam_i + Upsilon_i) S_i."""
    top = 0.0
    for g, lam in zip(p.blocks._size_groups, p.lam_stacks):
        lam_ups = _diagonal_stack(g.take(p.mu_vector))
        lam_ups += lam
        s_i = g.take(scale)
        lu_scaled = s_i[:, :, None] * lam_ups * s_i[:, None, :]
        top = max(top, float(np.linalg.eigvalsh(lu_scaled).max()))
    return top


def _top_eigenvalue(sym: Array) -> float:
    """Largest eigenvalue of the symmetric matrix ``sym``, read from its
    lower triangle by one LAPACK ``syevr`` call that finds that eigenvalue
    alone.  ``sym`` is overwritten: a Fortran-ordered array (the transpose
    of a C-ordered one) without a copy."""
    n = sym.shape[0]
    lwork, liwork, _ = lapack.dsyevr_lwork(n, lower=1)
    top, _, _, _, info = lapack.dsyevr(
        sym, compute_v=0, range="I", lower=1, il=n, iu=n,
        lwork=int(lwork), liwork=liwork, overwrite_a=1,
    )
    if info:
        raise PolicyConstructionError(
            f"step certification failed: LAPACK syevr info {info}"
        )
    return float(top[0])


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
    if not np.max(s.pi) - pi_min < 1e-12:
        warnings.warn(
            "accelerated policy with non-uniform activation probabilities is "
            "outside the proven regime",
            stacklevel=2,
        )
    given = tau0 is not None
    if not given:
        tau0 = alpha / (beta + pi_min)
    mu = p.mu_vector
    p_diag = weight_matrix_p(s, p.blocks)
    b_diag = mu / p_diag**2
    # built first, so tau0 is checked against its interval before sigma_0
    # divides by it
    policy = AcceleratedPolicy(alpha, beta, kappa, s.pi.copy(), float(tau0), b_diag)
    _, sigma0 = policy.start()
    if given and sigma0 > pi_min + 1e-12:
        warnings.warn(
            f"tau0={tau0} gives theta_0={sigma0:.4g} > min pi={pi_min:.4g}; "
            "averaging weights may go negative",
            stacklevel=2,
        )
    return policy


def tau_next(tau_k: float, kappa: float, pi) -> float:
    """Advance the accelerated step parameter.

    The new value is the largest root of the per-block quadratic

        (1 - kappa t^2 - delta_i t) x^2 + t^2 (delta_i + 1) x - t^2 = 0,
        delta_i = kappa - 1/pi_i,  t = tau_k,

    maximised over blocks by the explicit root formula, once per distinct
    pi_i.  ``pi`` is one marginal, the marginals as an array or list, or a
    tuple of distinct marginals, used as given (what
    :meth:`AcceleratedPolicy.advance` passes: the policy finds them once).
    The result is strictly below tau_k and satisfies the binding block's
    inequality with equality.  For uniform marginals the
    tests check it against the normalized recursion
    s_{k+1} = 2 s_k / (s_k + sqrt(s_k^2 + 4 d_k)) with
    s_k = (1 + delta) tau_k and d_k = 1 - delta tau_k - kappa tau_k^2
    (``normalized_s_step`` in ``tests/instruments.py``).
    """
    if not 0.0 < tau_k < 1.0 / kappa:
        raise ValueError(
            f"tau={tau_k} outside (0, 1/kappa={1.0 / kappa}): the quadratic's "
            "leading coefficient would lose positivity"
        )
    if not isinstance(pi, tuple):
        pi = _distinct_marginals(pi)
    out = max(_tau_root(tau_k, kappa, pii) for pii in pi)
    if not out < tau_k:
        raise InvariantViolation(f"step parameter did not decrease: {out!r} >= {tau_k!r}")
    return out


def _distinct_marginals(pi) -> tuple[float, ...]:
    """The distinct values of one marginal or an array of marginals, as
    plain floats."""
    return tuple(set(np.atleast_1d(np.asarray(pi, dtype=float)).tolist()))


def _tau_root(t: float, kappa: float, pi_i: float) -> float:
    c = 1.0 / pi_i - kappa  # = -delta_i
    den = 1.0 + t * c - kappa * t * t
    rad = (1.0 + 0.5 * c * t) ** 2 - ((2.0 - pi_i) / pi_i + 2.0 * kappa) * t * t / 4.0
    num = 0.5 * t * t * (c - 1.0) + t * math.sqrt(rad)
    return num / den
