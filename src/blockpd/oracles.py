"""Independent reference solutions used for diagnostics and tests.

The penalty floor h* always comes from a direct least-squares solve of the
normal equations.  The objective floor Psi* comes from an exact reduced QP
solve when the instance is fully quadratic (generator metadata present), or
otherwise from a long high-accuracy run of the engine itself, clearly marked
as such in the returned record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .blocks import ProblemSpec, eval_psi, penalty_h
from .errors import InvariantViolation, StrongConvexityRequired

Array = np.ndarray


@dataclass(frozen=True)
class Reference:
    """Ground-truth anchors for an instance.

    ``x_ls`` minimises the penalty (a normal-equation solution), ``h_star``
    is the attainable penalty floor, and when available ``x_star`` /
    ``psi_star`` / ``y_star`` describe a solution of the full problem with a
    multiplier paired against the raw residual rows.
    """

    x_ls: Array
    h_star: float
    x_star: Array | None = None
    psi_star: float | None = None
    y_star: Array | None = None
    source: str = "normal-equations"

    def h_gap(self, p: ProblemSpec, x: Array) -> float:
        """h(x) - h*, evaluated cancellation-free as 0.5||A(x - x_ls)||^2.
        Anchored at ``x_ls`` always: a long-run ``x_star`` is an iterate, not
        a normal-equation solution."""
        r = p.a.dot(np.asarray(x) - self.x_ls)
        return 0.5 * float(r.dot(r))


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
        normal = float(np.max(np.abs(p.a.T @ (p.a @ x_ls - p.b))))
        bound = 1e-8 * max(g_max * float(np.max(np.abs(x_ls))), atb_max)
        if normal <= bound:
            return Reference(x_ls=x_ls, h_star=penalty_h(p, x_ls))
    raise InvariantViolation(
        f"least-squares solution misses the normal equations by {normal:.3e} "
        f"(bound {bound:.3e})"
    )


def _gram_min_norm(p: ProblemSpec) -> Array | None:
    """Minimum-norm solution of G x = A'b from G = ``p.gram``, or None when
    G's rank is below the rank ``gelsy`` would find for A.

    Pivoted Cholesky (LAPACK ``dpstrf``, its default rank cut-off
    m * eps * max_i G_ii) factors P'GP = U'U with U = [U11 U12] of rank r.
    The columns of N = P [-W; I], W = U11^{-1} U12, span the null space of
    U.  When r < min(q, m), each must be null for A at ``gelsy``'s cut-off,
    ||A N_j|| <= eps * max(q, m) * sqrt(max_i G_ii) * ||N_j|| (the largest
    column norm of A, where ``gelsy``'s pivoted QR starts), which costs
    O(q m (m - r)).  At r = min(q, m) the factor kept as many directions
    as A has singular values, each far above ``gelsy``'s cut-off, so the
    two ranks agree and the check is skipped.  Then
    x_b = P [U11^{-1} U11^{-T} (P'A'b)_1; 0] solves the normal equations;
    taking out its component in the null space, x = P [z - W t; t] with
    (I + W'W) t = W'z, costs O(r^2 (m - r)) beyond the factorisation;
    I + W'W >= I, so its Cholesky factor always exists.
    """
    c, piv, rank, _ = lapack.dpstrf(p.gram)
    if rank == 0:  # G = 0, so A = 0
        return np.zeros(p.m)
    perm, dropped = piv[:rank] - 1, piv[rank:] - 1
    # solves straight through LAPACK, without scipy.linalg's per-call
    # checks (some 12 us each, as much as the factorisation at m = 40).
    # With U11' as the lower factor, trans=1 solves with U11.  Every info
    # is 0: U11's diagonal holds the pivots dpstrf kept, and I + W'W >= I
    low = c[:rank, :rank].T
    z, _ = lapack.dtrtrs(low, p.a.T.dot(p.b)[perm], lower=1)
    z, _ = lapack.dtrtrs(low, z, lower=1, trans=1)
    x = np.empty(p.m)
    x[perm] = z
    if rank == p.m:
        return x
    w, _ = lapack.dtrtrs(low, c[:rank, rank:], lower=1, trans=1)
    if rank < min(p.q, p.m):
        null = np.zeros((p.m, p.m - rank))
        null[perm] = -w
        null[dropped, np.arange(p.m - rank)] = 1.0
        cut = np.finfo(float).eps * max(p.q, p.m) * np.sqrt(p.gram.diagonal().max())
        if np.any(np.linalg.norm(p.a @ null, axis=0) > cut * np.linalg.norm(null, axis=0)):
            return None
    f, _ = lapack.dpotrf(np.eye(p.m - rank) + w.T @ w)
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


def quadratic_reference(p: ProblemSpec) -> Reference:
    """Exact solve for fully quadratic instances.

    Minimises 0.5 x'Hx + c'x over the affine set of normal-equation
    solutions by eliminating the constraint with an orthonormal null-space
    basis of A.  Requires the generator to have recorded the quadratic data
    (no box constraints).  The multiplier must meet stationarity relative
    to the size of the gradient's terms,
    ||A'y + (H + mu I) x + c||_inf <= 1e-7 max(||(H + mu I) x||_inf, ||c||_inf),
    so scaling H, c and mu together by s leaves x unchanged and scales both
    sides by s; a miss raises :class:`InvariantViolation`.
    """
    quad = p.meta.get("quadratic")
    if quad is None:
        raise ValueError("instance carries no quadratic metadata")
    base = least_squares_reference(p)
    m = p.m
    h = np.zeros((m, m))
    c = np.zeros(m)
    for i in range(p.d):
        sl = p.blocks.block_slice(i)
        h[sl, sl] = quad["h_blocks"][i]
        c[sl] = quad["c_blocks"][i]
    h = h + quad["mu"] * np.eye(m)

    null = sla.null_space(p.a)
    if null.shape[1] == 0:
        x_star = base.x_ls
    else:
        reduced = null.T @ h @ null
        rhs = -null.T @ (h @ base.x_ls + c)
        z = np.linalg.solve(reduced, rhs)
        x_star = base.x_ls + null @ z
    hx = h @ x_star
    grad = hx + c
    # stationarity demands grad + A'y = 0 for some multiplier y
    y_star, *_ = np.linalg.lstsq(p.a.T, -grad, rcond=None)
    stationarity = float(np.max(np.abs(p.a.T @ y_star + grad)))
    bound = 1e-7 * max(float(np.max(np.abs(hx))), float(np.max(np.abs(c))))
    if not stationarity <= bound:
        raise InvariantViolation(
            f"reference multiplier misses stationarity by {stationarity:.3e} "
            f"(bound {bound:.3e})"
        )
    return Reference(
        x_ls=base.x_ls,
        h_star=base.h_star,
        x_star=x_star,
        psi_star=eval_psi(p, x_star),
        y_star=y_star,
        source="reduced-qp",
    )


def long_run_reference(p: ProblemSpec, k_max: int = 200_000, seed: int = 0) -> Reference:
    """Fallback objective floor from a long full-activation run."""
    from . import sampling as smp
    from .solver import run
    from .stepsize import convex_default_policy, make_accelerated_policy

    s = smp.full(p.d)
    base = least_squares_reference(p)
    try:
        policy = make_accelerated_policy(p, s)
    except StrongConvexityRequired:
        policy = convex_default_policy(p, s)
    result = run(p, s, policy, np.zeros(p.m), k_max, seed=seed, trace_every=k_max,
                 reference=base)
    x_star = result.state.x
    return Reference(
        x_ls=base.x_ls,
        h_star=base.h_star,
        x_star=x_star,
        psi_star=eval_psi(p, x_star),
        y_star=None,
        source=f"long-run[k={k_max}]",
    )


def reference_for(p: ProblemSpec, k_max: int = 200_000, seed: int = 0) -> Reference:
    """Best available reference: exact when quadratic metadata exists."""
    if "quadratic" in p.meta:
        return quadratic_reference(p)
    return long_run_reference(p, k_max=k_max, seed=seed)
