"""Independent reference solutions used for diagnostics and tests.

Every reference is an exact solve.  The penalty floor h* always comes from a
direct least-squares solve of the normal equations.  The objective floor
Psi* comes from an exact reduced QP solve, and only when the instance is
fully quadratic (quadratic metadata present); otherwise it is left unknown.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .blocks import ProblemSpec, eval_psi
from .errors import InvariantViolation

Array = np.ndarray


@dataclass(frozen=True)
class Reference:
    """Ground-truth anchors for an instance.

    ``x_ls`` minimises the penalty (a normal-equation solution), ``r_ls``
    is its residual A x_ls - b, ``h_star`` = 0.5||r_ls||^2 is the attainable
    penalty floor, and when available ``x_star`` / ``psi_star`` / ``y_star``
    describe a solution of the full problem with a multiplier paired against
    the raw residual rows.
    """

    x_ls: Array
    r_ls: Array
    h_star: float
    x_star: Array | None = None
    psi_star: float | None = None
    y_star: Array | None = None
    source: str = "normal-equations"

    def h_gap(self, r: Array) -> float:
        """h(x) - h* from the residual r = Ax - b, as 0.5||r - r_ls||^2.

        r - r_ls = A(x - x_ls) and r_ls is orthogonal to range(A), so this
        is h(x) - h* without the cancellation of the difference: its
        rounding error scales like sqrt(h_gap) eps ||Ax||, where the
        difference would carry eps h*.  Trace rows pass the residual the
        engines maintain, whose drift is bounded by the ``REFRESH_EVERY``
        steps between refreshes.  Anchored at ``x_ls`` always, whatever
        ``x_star`` holds."""
        d = r - self.r_ls
        return 0.5 * float(d.dot(d))


def least_squares_reference(p: ProblemSpec) -> Reference:
    """Penalty floor via the normal equations (minimum-norm solution).

    Solved first from the problem's cached Gram matrix G = A'A, the product
    the step certificates scale (:func:`_gram_min_norm`).  G squares the
    singular values of A, so its factorisation treats as null every
    direction with singular value below about sqrt(m eps) ||A||; the Gram
    solve declines unless each such direction is null for A itself at the
    cut-off of the complete orthogonal factorisation of A
    (:func:`_gelsy_min_norm`).  A solution must meet the normal equations
    relative to the problem's scale,
    ||A'(A x - b)||_inf <= 1e-8 max(max_i G_ii ||x||_inf, ||A'b||_inf),
    checked from A; scaling A and b together by c scales both sides by c^2,
    and A = 0 passes with x = 0.
    When the Gram solve declines or misses that check, ``gelsy`` runs
    instead; a miss there raises :class:`InvariantViolation`."""
    atb_max = float(np.max(np.abs(p.a.T @ p.b)))
    g_max = float(p.gram.diagonal().max())
    for solve in (_gram_min_norm, _gelsy_min_norm):
        x_ls = solve(p)
        if x_ls is None:
            continue
        r_ls = p.a.dot(x_ls) - p.b
        normal = float(np.max(np.abs(p.a.T @ r_ls)))
        bound = 1e-8 * max(g_max * float(np.max(np.abs(x_ls))), atb_max)
        if normal <= bound:
            return Reference(x_ls=x_ls, r_ls=r_ls, h_star=0.5 * float(r_ls.dot(r_ls)))
    raise InvariantViolation(
        f"least-squares solution misses the normal equations by {normal:.3e} "
        f"(bound {bound:.3e})"
    )


class _GramFactor(NamedTuple):
    """Pivoted Cholesky factor P'GP = U'U of G = ``p.gram``, U = [U11 U12]
    of rank r: ``low`` is U11' (lower triangular), ``perm`` and ``dropped``
    the columns of G the factor kept and dropped, and W = U11^{-1} U12."""

    low: Array
    perm: Array
    dropped: Array
    w: Array

    def solve_kept(self, rhs: Array) -> Array:
        """U11^{-1} U11^{-T} rhs, for rhs on the kept columns (r > 0).

        Straight through LAPACK, without scipy.linalg's per-call checks
        (some 12 us each, as much as the factorisation at m = 40).  With
        U11' as the lower factor, trans=1 solves with U11.  Every info is 0:
        U11's diagonal holds the pivots ``dpstrf`` kept."""
        z, _ = lapack.dtrtrs(self.low, rhs, lower=1)
        z, _ = lapack.dtrtrs(self.low, z, lower=1, trans=1)
        return z

    def null_basis(self) -> Array:
        """N = P [-W; I], whose m - r columns span the null space of U."""
        null = np.zeros((len(self.perm) + len(self.dropped), len(self.dropped)))
        null[self.perm] = -self.w
        null[self.dropped, np.arange(len(self.dropped))] = 1.0
        return null


def _gram_factor(p: ProblemSpec) -> _GramFactor | None:
    """G = ``p.gram`` factored by pivoted Cholesky (LAPACK ``dpstrf``, its
    default rank cut-off m * eps * max_i G_ii), or None when G's rank is
    below the rank ``gelsy`` would find for A.  Made once per problem and
    kept in ``p.derived``, None included, so the least-squares and the
    quadratic reference share one factorisation.

    When r < min(q, m), each column N_j of :meth:`_GramFactor.null_basis`
    must be null for A at ``gelsy``'s cut-off,
    ||A N_j|| <= eps * max(q, m) * sqrt(max_i G_ii) * ||N_j|| (the largest
    column norm of A, where ``gelsy``'s pivoted QR starts), which costs
    O(q m (m - r)).  At r = min(q, m) the factor kept as many directions
    as A has singular values, each far above ``gelsy``'s cut-off, so the
    two ranks agree and the check is skipped; at r = 0, G = 0 and so A = 0.
    """
    if _GramFactor in p.derived:
        return p.derived[_GramFactor]
    c, piv, rank, _ = lapack.dpstrf(p.gram)
    low = c[:rank, :rank].T
    w = np.zeros((rank, p.m - rank))
    if 0 < rank < p.m:
        w, _ = lapack.dtrtrs(low, c[:rank, rank:], lower=1, trans=1)
    factor = _GramFactor(low, piv[:rank] - 1, piv[rank:] - 1, w)
    if 0 < rank < min(p.q, p.m):
        null = factor.null_basis()
        cut = np.finfo(float).eps * max(p.q, p.m) * np.sqrt(p.gram.diagonal().max())
        if np.any(np.linalg.norm(p.a @ null, axis=0) > cut * np.linalg.norm(null, axis=0)):
            factor = None
    p.derived[_GramFactor] = factor
    return factor


def _gram_min_norm(p: ProblemSpec) -> Array | None:
    """Minimum-norm solution of G x = A'b from G = ``p.gram``, or None when
    :func:`_gram_factor` declines.

    x_b = P [U11^{-1} U11^{-T} (P'A'b)_1; 0] solves the normal equations;
    taking out its component in the null space of U, x = P [z - W t; t]
    with (I + W'W) t = W'z, costs O(r^2 (m - r)) beyond the factorisation;
    I + W'W >= I, so its Cholesky factor always exists.
    """
    factor = _gram_factor(p)
    if factor is None:
        return None
    _, perm, dropped, w = factor
    if not perm.size:  # G = 0, so A = 0
        return np.zeros(p.m)
    z = factor.solve_kept(p.a.T.dot(p.b)[perm])
    x = np.empty(p.m)
    x[perm] = z
    if not dropped.size:
        return x
    f, _ = lapack.dpotrf(np.eye(dropped.size) + w.T @ w)
    t, _ = lapack.dpotrs(f, w.T @ z)
    x[perm] -= w @ t
    x[dropped] = t
    return x


def _gelsy_min_norm(p: ProblemSpec) -> Array:
    """Minimum-norm least-squares solution from LAPACK ``gelsy`` on A, with
    NumPy's default rank cut-off eps * max(q, m)."""
    cond = np.finfo(float).eps * max(p.q, p.m)
    x_ls, *_ = sla.lstsq(p.a, p.b, cond=cond, lapack_driver="gelsy")
    return x_ls


def _gram_multiplier(p: ProblemSpec, factor: _GramFactor, grad: Array) -> Array:
    """The minimum-norm multiplier y = A z with G z = -grad, z = P [U11^{-1}
    U11^{-T} (-P'grad)_1; 0]; it solves A'y = -grad when grad lies in the
    range of G, as it does at a minimiser over the normal-equation
    solutions, and lies in the range of A."""
    z = np.zeros(p.m)
    if factor.perm.size:
        z[factor.perm] = factor.solve_kept(-grad[factor.perm])
    return p.a @ z


def _apply_hessian(p: ProblemSpec, quad: dict, v: Array) -> Array:
    """(H + mu I) v for H = blockdiag(H_i) of the quadratic metadata
    ``quad`` and the m-row matrix v, by one stacked ``matmul`` per block
    size (the bits of a per-block product)."""
    hv = quad["mu"] * v
    for g, h in zip(p.blocks._size_groups, p._block_stacks(quad["h_blocks"])):
        hv[g.cols] += np.matmul(h, g.take(v)).reshape(-1, *v.shape[1:])
    return hv


def quadratic_reference(p: ProblemSpec) -> Reference:
    """Exact solve for fully quadratic instances.

    Minimises 0.5 x'Hx + c'x over the affine set x_ls + null(A) of
    normal-equation solutions by the null-space method: with an orthonormal
    basis N of null(A), x* = x_ls + N z where (N'HN) z = -N'(H x_ls + c), an
    (m - r)^2 system.  Requires the generator to have recorded the quadratic
    data (no box constraints); H = blockdiag(H_i) + mu I is applied by one
    stacked ``matmul`` per block size (:func:`_apply_hessian`), never
    formed.  N and the multiplier y* (the minimum-norm
    solution of A'y = -(H x* + c)) come from the pivoted Cholesky factor of
    the cached Gram matrix G = A'A (:func:`_gram_factor`): N is a thin QR of
    P [-W; I], and y* = A z with G z = -(H x* + c) by two triangular solves.
    The factor is the one :func:`least_squares_reference` made, kept on
    the problem.  Where the factor declines (its rank is below the
    rank ``gelsy`` finds for A), N comes from an SVD of A
    (``scipy.linalg.null_space``) and y* from ``numpy.linalg.lstsq``.
    The multiplier must meet stationarity relative to the size of the
    gradient's terms,
    ||A'y + (H + mu I) x + c||_inf <= 1e-7 max(||(H + mu I) x||_inf, ||c||_inf),
    so scaling H, c and mu together by s leaves x unchanged and scales both
    sides by s; a miss raises :class:`InvariantViolation`.
    """
    quad = p.meta.get("quadratic")
    if quad is None:
        raise ValueError("instance carries no quadratic metadata")
    base = least_squares_reference(p)
    c = np.concatenate(quad["c_blocks"])
    factor = _gram_factor(p)
    if factor is None:
        null = sla.null_space(p.a)
    elif factor.dropped.size:
        # a thin QR of P [-W; I] straight through LAPACK
        qr, tau, _, _ = lapack.dgeqrf(factor.null_basis())
        null, _, _ = lapack.dorgqr(qr, tau)
    else:
        null = np.empty((p.m, 0))
    # (H + mu I) [N x_ls]
    hv = _apply_hessian(p, quad, np.column_stack((null, base.x_ls)))
    k = null.shape[1]
    x_star, hx = base.x_ls, hv[:, k]
    if k:
        z = np.linalg.solve(null.T @ hv[:, :k], -null.T @ (hx + c))
        x_star = base.x_ls + null @ z
        hx = hx + hv[:, :k] @ z
    grad = hx + c
    # stationarity demands grad + A'y = 0 for some multiplier y
    if factor is None:
        y_star, *_ = np.linalg.lstsq(p.a.T, -grad, rcond=None)
    else:
        y_star = _gram_multiplier(p, factor, grad)
    stationarity = float(np.max(np.abs(p.a.T @ y_star + grad)))
    bound = 1e-7 * max(float(np.max(np.abs(hx))), float(np.max(np.abs(c))))
    if not stationarity <= bound:
        raise InvariantViolation(
            f"reference multiplier misses stationarity by {stationarity:.3e} "
            f"(bound {bound:.3e})"
        )
    return replace(
        base, x_star=x_star, psi_star=eval_psi(p, x_star), y_star=y_star, source="reduced-qp"
    )
