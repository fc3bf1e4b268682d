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

    Solved by complete orthogonal factorisation (LAPACK ``gelsy``) with
    NumPy's default rank cut-off eps * max(q, m), which still yields the
    minimum-norm solution and costs a fraction of an SVD."""
    cond = np.finfo(float).eps * max(p.q, p.m)
    x_ls, *_ = sla.lstsq(p.a, p.b, cond=cond, lapack_driver="gelsy")
    normal = float(np.max(np.abs(p.a.T @ (p.a @ x_ls - p.b))))
    if not normal < 1e-8:
        raise InvariantViolation(
            f"least-squares solution misses the normal equations by {normal:.3e}"
        )
    return Reference(x_ls=x_ls, h_star=penalty_h(p, x_ls))


def quadratic_reference(p: ProblemSpec) -> Reference:
    """Exact solve for fully quadratic instances.

    Minimises 0.5 x'Hx + c'x over the affine set of normal-equation
    solutions by eliminating the constraint with an orthonormal null-space
    basis of A.  Requires the generator to have recorded the quadratic data
    (no box constraints).
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
    grad = h @ x_star + c
    # stationarity demands grad + A'y = 0 for some multiplier y
    y_star, *_ = np.linalg.lstsq(p.a.T, -grad, rcond=None)
    stationarity = float(np.max(np.abs(p.a.T @ y_star + grad)))
    if not stationarity < 1e-7:
        raise InvariantViolation(
            f"reference multiplier misses stationarity by {stationarity:.3e}"
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
    result = run(p, s, policy, np.zeros(p.m), k_max, seed=seed, trace_every=k_max)
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
