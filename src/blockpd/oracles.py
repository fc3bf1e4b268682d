"""Independent reference solutions used for diagnostics and tests.

Every reference is an exact solve.  The penalty floor h* always comes from a
direct least-squares solve of the normal equations.  The objective floor
Psi* comes from an exact reduced QP solve, and only where the oracles
declare a quadratic (``ProblemSpec.quadratic_c``); otherwise it is unknown.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ._lapack import lapack
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

    Solved first from a Gram matrix of A on its shorter side
    (:func:`_gram_min_norm`): the q x q K = AA' when the instance is wide,
    q < m, and otherwise the problem's cached G = A'A, the product the step
    certificates scale.  A wide instance never forms the m x m G here, so
    its reference costs O(q^2 m) time and O(q^2 + q m) memory, where G
    would take O(q m^2) and O(m^2).  Both Gram matrices square the
    singular values of A, so they do not resolve a direction whose
    singular value is below about sqrt(m eps) ||A||; the Gram solve
    declines unless each such direction is null for A itself at NumPy's
    SVD cut-off (:func:`_gram_factor`).  A solution must meet the normal
    equations relative to the problem's scale (:func:`_normal_equations`,
    checked from A); when the Gram solve declines or misses that check,
    NumPy's ``lstsq`` on A runs instead (:func:`_lstsq_min_norm`, which
    loads nothing beyond NumPy); a miss there raises InvariantViolation."""
    for solve in (_gram_min_norm, _lstsq_min_norm):
        x_ls = solve(p)
        if x_ls is None:
            continue
        r_ls, normal, bound = _normal_equations(p, x_ls)
        if normal <= bound:
            return Reference(x_ls=x_ls, r_ls=r_ls, h_star=0.5 * float(r_ls.dot(r_ls)))
    raise InvariantViolation(
        f"least-squares solution misses the normal equations by {normal:.3e} "
        f"(bound {bound:.3e})"
    )


def _col_sq_max(p: ProblemSpec) -> float:
    """max_j ||A_j||^2, the largest diagonal entry of G = A'A, from the
    columns of A at O(q m), whether or not the problem holds G."""
    return float(np.einsum("ij,ij->j", p.a, p.a).max())


def _normal_equations(p: ProblemSpec, x: Array) -> tuple[Array, float, float]:
    """The residual r = Ax - b, the normal-equation miss ||A'r||_inf and
    its bound 1e-8 max(max_i G_ii ||x||_inf, ||A'b||_inf), relative to the
    problem's scale: scaling A and b together by c scales both sides by
    c^2, and A = 0 passes with x = 0."""
    r = p.a.dot(x) - p.b
    normal = float(np.max(np.abs(p.a.T @ r)))
    atb_max = float(np.max(np.abs(p.a.T @ p.b)))
    bound = 1e-8 * max(_col_sq_max(p) * float(np.max(np.abs(x))), atb_max)
    return r, normal, bound


class _GramFactor(NamedTuple):
    """Pivoted Cholesky factor P'GP = U'U of an n x n Gram matrix G (A'A,
    AA', A H^{-1} A', or the grid rows' C C' of :class:`proxops.AffineSubspace`),
    U = [U11 U12] of rank r: ``low`` is U11' (lower triangular), ``perm``
    and ``dropped`` the columns of G the factor kept and dropped, W =
    U11^{-1} U12, and ``null_chol`` the Cholesky factor of I + W'W = N'N
    for the null basis N of :meth:`null_basis` (None unless 0 < r < n)."""

    low: Array
    perm: Array
    dropped: Array
    w: Array
    null_chol: Array | None

    def lstsq(self, rhs: Array) -> Array:
        """The minimum-norm least-squares solution u of G u = rhs (0 at
        r = 0): the basic solution P [z; 0] of rhs's range part, whose kept
        entries are rhs_1 + W t with (I + W'W) t = N'rhs, less its own null
        component, P [z - W s; s] with (I + W'W) s = W'z.  The basic
        solution of rhs itself is no least-squares solution when rhs has a
        null component.  Straight through LAPACK, without scipy.linalg's
        per-call checks (some 12 us each at m = 40); with U11' as the lower
        factor, trans=1 solves with U11.  Every info is 0: U11's diagonal
        holds the pivots ``dpstrf`` kept, and I + W'W >= I."""
        u = np.zeros(len(self.perm) + len(self.dropped))
        if not self.perm.size:  # G = 0: LAPACK rejects an empty solve on the console
            return u
        kept = rhs[self.perm]
        if self.dropped.size:
            t, _ = lapack.dpotrs(self.null_chol, rhs[self.dropped] - self.w.T @ kept)
            kept += self.w @ t
        z, _ = lapack.dtrtrs(self.low, kept, lower=1)
        z, _ = lapack.dtrtrs(self.low, z, lower=1, trans=1)
        u[self.perm] = z
        if self.dropped.size:
            s, _ = lapack.dpotrs(self.null_chol, self.w.T @ z)
            u[self.perm] -= self.w @ s
            u[self.dropped] = s
        return u

    def null_basis(self) -> Array:
        """N = P [-W; I], whose n - r columns span the null space of U."""
        null = np.zeros((len(self.perm) + len(self.dropped), len(self.dropped)))
        null[self.perm] = -self.w
        null[self.dropped, np.arange(len(self.dropped))] = 1.0
        return null


def _pivoted_factor(gram: Array) -> _GramFactor:
    """``gram`` factored by pivoted Cholesky (LAPACK ``dpstrf``, its
    default rank cut-off n * eps * max_i G_ii), with the Cholesky factor
    of I + W'W, which exists because I + W'W >= I."""
    c, piv, rank, _ = lapack.dpstrf(gram)
    low = c[:rank, :rank].T
    n = gram.shape[0]
    w, null_chol = np.zeros((rank, n - rank)), None
    if 0 < rank < n:
        w, _ = lapack.dtrtrs(low, c[:rank, rank:], lower=1, trans=1)
        null_chol, _ = lapack.dpotrf(np.eye(n - rank) + w.T @ w)
    return _GramFactor(low, piv[:rank] - 1, piv[rank:] - 1, w, null_chol)


def _gram_factor(p: ProblemSpec) -> _GramFactor | None:
    """The Gram matrix of A on its shorter side factored by
    :func:`_pivoted_factor`, or None when it does not resolve every
    direction NumPy's cut-off would keep for A: K = AA' (q x q) when the
    instance is wide, q < m, and G = ``p.gram`` = A'A (m x m) otherwise.  Both have
    the rank of A; K costs O(q^2 m) time and O(q^2) memory where G costs
    O(q m^2) and O(m^2).  Made once per problem and kept in ``p.derived``,
    None included, so the least-squares and the quadratic reference share
    one factorisation.

    When r < min(q, m), each column N_j of :meth:`_GramFactor.null_basis`
    must be null for A (for A' on the q side: the null space of AA' is
    that of A'), ||A N_j|| <= eps * max(q, m) * max_i ||A_i|| * ||N_j||,
    at O(q m (n - r)) for a factor of order n.  No column norm ||A_i||
    exceeds ||A||_2, so this declines wherever NumPy's SVD cut-off eps *
    max(q, m) * ||A||_2 would keep a dropped direction.  At r = min(q, m)
    the factor kept as many directions as A has singular values, each far
    above that cut-off on the m side, so the check is skipped; at r = 0
    the Gram matrix is 0 and so is A.

    Each entry of K sums m products, so K resolves no singular value of A
    below about sqrt(m eps) ||A||: G's factor drops such a direction at its
    cut-off m eps max_i G_ii.  K's factor may keep it, because a pivot
    can sit far above the eigenvalue it stands for, and a kept direction
    has no null column to check.  So the q-side factor also declines when
    the reciprocal condition estimate of U11 (LAPACK ``dtrcon``, O(r^2))
    is below sqrt(m eps).
    """
    if _GramFactor in p.derived:
        return p.derived[_GramFactor]
    wide = p.q < p.m
    factor = _pivoted_factor(p.a @ p.a.T if wide else p.gram)
    rank = len(factor.perm)
    eps = np.finfo(float).eps
    if wide and rank and lapack.dtrcon(factor.low, uplo="L")[0] < np.sqrt(p.m * eps):
        factor = None
    elif 0 < rank < min(p.q, p.m):
        null = factor.null_basis()
        image = (p.a.T if wide else p.a) @ null
        cut = eps * max(p.q, p.m) * np.sqrt(_col_sq_max(p))
        if np.any(np.linalg.norm(image, axis=0) > cut * np.linalg.norm(null, axis=0)):
            factor = None
    p.derived[_GramFactor] = factor
    return factor


def _gram_min_norm(p: ProblemSpec) -> Array | None:
    """Minimum-norm solution of the normal equations A'A x = A'b from the
    Gram factor of :func:`_gram_factor`, or None when it declines.

    On the m side, with G = ``p.gram``, it is the minimum-norm solution of
    G x = A'b (:meth:`_GramFactor.lstsq`).  On the q side, with K = AA',
    x = A'z for any least-squares solution z of K z = b: A'A A'z = A'b
    holds exactly when Kz - b lies in null(A') = null(K), and x lies in
    range(A'), so it is the minimum-norm solution; no m x m matrix is
    formed.
    """
    factor = _gram_factor(p)
    if factor is None:
        return None
    if p.q < p.m:
        return p.a.T @ factor.lstsq(p.b)
    return factor.lstsq(p.a.T.dot(p.b))


def _lstsq_min_norm(p: ProblemSpec) -> Array:
    """Minimum-norm least-squares solution from NumPy's SVD-based
    ``lstsq`` on A, at its rank cut-off eps * max(q, m) * ||A||_2."""
    return np.linalg.lstsq(p.a, p.b, rcond=None)[0]


def _apply_hessian(p: ProblemSpec, v: Array) -> Array:
    """(H + D) v for H = blockdiag(Lam_i), D = diag(``p.mu_vector``) and
    the m-row matrix v, by one stacked ``matmul`` per block size on
    ``p.lam_stacks`` (the bits of a per-block product)."""
    hv = p.mu_vector[:, None] * v
    for g, h in zip(p.blocks._size_groups, p.lam_stacks):
        hv[g.cols] += np.matmul(h, g.take(v)).reshape(-1, *v.shape[1:])
    return hv


def quadratic_reference(p: ProblemSpec) -> Reference:
    """Exact solve for fully quadratic instances.

    Minimises 0.5 x'Hx + c'x over the affine set x_ls + null(A) of
    normal-equation solutions, with H = blockdiag(Lam_i), D = diag(mu) and
    c as the oracles declare them (``p.quadratic_c``, else ``ValueError``);
    H + D is never formed.  The method follows the shape, on the side of
    the factor :func:`least_squares_reference` made, kept on the problem
    (:func:`_gram_factor`):

    - when q < m, the range-space method on the q side
      (:func:`_range_space_solve`): H is factored block by block and the
      q x q system A H^{-1} A' is solved for the multiplier, at O(q^2 m)
      time and O(q m) memory, so a wide instance forms no m x m array;
    - otherwise the null-space method on the m side
      (:func:`_null_space_solve`), whose reduced system is (m - r)^2 for
      A of rank r, with its basis and multiplier from the factor of G.

    When the q-side factor declines, or the range-space method does (H or
    A H^{-1} A' does not factor to A's rank, or its x* misses the normal
    equations), the null-space method runs on NumPy's SVD of A, which
    loads nothing beyond NumPy.  In every case y* is the minimum-norm
    solution of A'y = -(H x* + c).
    The multiplier must meet stationarity relative to the size of the
    gradient's terms,
    ||A'y + (H + D) x + c||_inf <= 1e-7 max(||(H + D) x||_inf, ||c||_inf),
    so scaling H, c and mu together by s leaves x unchanged and scales both
    sides by s; a miss raises :class:`InvariantViolation`.  A reduced
    system that is singular, so that x* is not unique, raises ``ValueError``.
    """
    c = p.quadratic_c
    if c is None:
        raise ValueError("the problem's oracles declare no quadratic")
    base = least_squares_reference(p)
    factor = _gram_factor(p)
    solved = None
    if p.q < p.m:
        if factor is not None and factor.perm.size:
            solved = _range_space_solve(p, base.x_ls, c, len(factor.perm))
        # K's factor holds no basis of null(A)
        factor = None
    if solved is None:
        solved = _null_space_solve(p, base.x_ls, c, factor)
    x_star, hx, y_star = solved
    stationarity = float(np.max(np.abs(p.a.T @ y_star + (hx + c))))
    bound = 1e-7 * max(float(np.max(np.abs(hx))), float(np.max(np.abs(c))))
    if not stationarity <= bound:
        raise InvariantViolation(
            f"reference multiplier misses stationarity by {stationarity:.3e} "
            f"(bound {bound:.3e})"
        )
    return replace(
        base, x_star=x_star, psi_star=eval_psi(p, x_star), y_star=y_star, source="reduced-qp"
    )


def _null_space_solve(
    p: ProblemSpec, x_ls: Array, c: Array, factor: _GramFactor | None
) -> tuple[Array, Array, Array]:
    """x*, (H + D) x* and y* by the null-space method: with a basis N of
    null(A), x* = x_ls + N z where (N'HN) z = -N'(H x_ls + c), an
    (m - r)^2 system; any basis will do, and an empty one leaves x_ls.  N
    and y* come from the pivoted Cholesky factor of G = A'A (``factor``, m
    side): N = P [-W; I] (:meth:`_GramFactor.null_basis`), and y* = A u
    for the minimum-norm solution u of G u = -(H x* + c)
    (:meth:`_GramFactor.lstsq`).  Where the factor declined (None), N is
    the rows of V' past NumPy's cut-off eps * max(q, m) * ||A||_2 in the
    SVD A = U S V' (``gesdd``, as ``scipy.linalg.null_space``), and y*
    comes from ``numpy.linalg.lstsq``."""
    if factor is None:
        _, s, vt = np.linalg.svd(p.a)
        cut = np.finfo(float).eps * max(p.q, p.m) * np.max(s, initial=0.0)
        null = vt[np.count_nonzero(s > cut):].T
    else:
        null = factor.null_basis()
    # (H + D) [N x_ls]
    hv = _apply_hessian(p, np.column_stack((null, x_ls)))
    k = null.shape[1]
    try:
        z = np.linalg.solve(null.T @ hv[:, :k], -null.T @ (hv[:, k] + c))
    except np.linalg.LinAlgError:
        raise ValueError("x* is not unique: N'HN is singular on null(A)") from None
    x_star = x_ls + null @ z
    hx = hv[:, k] + hv[:, :k] @ z
    grad = hx + c
    # stationarity demands grad + A'y = 0 for some multiplier y
    if factor is None:
        y_star, *_ = np.linalg.lstsq(p.a.T, -grad, rcond=None)
    else:
        y_star = p.a @ factor.lstsq(-grad)
    return x_star, hx, y_star


def _range_space_solve(
    p: ProblemSpec, x_ls: Array, c: Array, rank: int
) -> tuple[Array, Array, Array] | None:
    """x*, (H + D) x* and y* by the range-space method (Nocedal &
    Wright 2006, *Numerical Optimization*, §16.2), on the q side.

    H + D = L L' is factored, and L inverted, by one stacked Cholesky
    and one stacked inverse call per block size, so every product with
    L^{-1} is one stacked ``matmul``.  With B = L^{-1} A' (m x q) and
    e = L^{-1} c, the multiplier y of H x + c = A'y, A x = A x_ls solves
    M y = A x_ls + B'e with M = B'B = A H^{-1} A' (q x q), and
    x* = L^{-T}(B y - e).  M is factored by pivoted Cholesky and y is its
    minimum-norm least-squares solution (:meth:`_GramFactor.lstsq`); M has
    the null space of A', so y* = -y is the minimum-norm multiplier.  That
    costs O(q^2 m) time and O(q m) memory.  None when H + D does not
    factor, M's rank is not the ``rank`` r of A, or x* misses the normal
    equations (:func:`_normal_equations`), which the null-space method
    meets by construction."""
    invs = []
    try:
        for g, h in zip(p.blocks._size_groups, p.lam_stacks):
            mu = g.take(p.mu_vector)[..., None] * np.eye(g.n)
            invs.append(np.linalg.inv(np.linalg.cholesky(h + mu)))
    except np.linalg.LinAlgError:
        return None
    b_mat, e = np.empty((p.m, p.q)), np.empty(p.m)
    for g, inv in zip(p.blocks._size_groups, invs):
        b_mat[g.cols] = np.matmul(inv, g.take(p.a.T)).reshape(-1, p.q)
        e[g.cols] = np.matmul(inv, g.take(c)[..., None]).reshape(-1)
    factor = _pivoted_factor(b_mat.T @ b_mat)
    if len(factor.perm) != rank:
        return None
    y = factor.lstsq(p.a @ x_ls + b_mat.T @ e)
    v = b_mat @ y - e
    x_star = np.empty(p.m)
    for g, inv in zip(p.blocks._size_groups, invs):
        x_star[g.cols] = np.matmul(inv.transpose(0, 2, 1), g.take(v)[..., None]).reshape(-1)
    _, normal, bound = _normal_equations(p, x_star)
    if not normal <= bound:
        return None
    return x_star, _apply_hessian(p, x_star[:, None])[:, 0], -y
