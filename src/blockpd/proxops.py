"""Weighted proximal operators and Euclidean projections.

All operators act on flat float vectors.  ``gamma`` arguments are the
(positive) diagonal of the prox metric; projections are metric-free.
Everything here is a pure function of its inputs and safe to call from
anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

import numpy as np

from .blocks import ProxBlock
from .errors import InfeasibleInstance, ProjectionDidNotConverge, UnsupportedOperator

Array = np.ndarray

DYKSTRA_TOL = 1e-10
DYKSTRA_MAX_ITER = 10_000


@dataclass(frozen=True)
class DiagonalMetric:
    """Diagonal of a positive block metric."""

    weights: Array

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w <= 0.0):
            raise ValueError("metric weights must be strictly positive")
        object.__setattr__(self, "weights", w)


def weighted_prox(r: ProxBlock, gamma, v: Array) -> Array:
    """argmin_u r(u) + 0.5 ||u - v||^2_diag(gamma).

    ``gamma`` may be a :class:`DiagonalMetric`, a positive vector or a
    positive scalar.  Separable terms evaluate coordinatewise through the
    block's own rule; a block without a registered rule is rejected.
    """
    v = np.asarray(v, dtype=float)
    if isinstance(gamma, DiagonalMetric):
        g = gamma.weights
    else:
        g = np.broadcast_to(np.asarray(gamma, dtype=float), v.shape)
    if np.any(g <= 0.0):
        raise ValueError("metric weights must be strictly positive")
    if r.prox is None:
        raise UnsupportedOperator("no closed form or sub-solver registered")
    return r.prox(np.array(g, dtype=float), v)


# ---------------------------------------------------------------------------
# prox factories
# ---------------------------------------------------------------------------


def prox_zero_block(dim: int) -> ProxBlock:
    """r = 0: the prox is the identity."""
    return ProxBlock(lambda x: 0.0, lambda g, v: np.asarray(v, dtype=float), 0.0)


def prox_l1_block(weight: float = 1.0) -> ProxBlock:
    """r(x) = weight * ||x||_1, soft threshold at weight / gamma."""

    def prox(g, v):
        t = weight / np.asarray(g, dtype=float)
        return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)

    return ProxBlock(lambda x: weight * float(np.sum(np.abs(x))), prox, 0.0)


def prox_quadratic_block(mu: float, center=0.0) -> ProxBlock:
    """r(x) = mu/2 * ||x - center||^2."""

    def value(x):
        dx = x - center
        return 0.5 * mu * float(np.dot(dx, dx))

    def prox(g, v):
        return (g * v + mu * center) / (g + mu)

    return ProxBlock(value, prox, mu)


def prox_box_block(lo, hi) -> ProxBlock:
    """Indicator of the coordinate box [lo, hi]."""

    def value(x):
        if np.any(x < lo - 1e-12) or np.any(x > hi + 1e-12):
            return np.inf
        return 0.0

    return ProxBlock(value, lambda g, v: np.clip(v, lo, hi), 0.0)


# ---------------------------------------------------------------------------
# projection primitives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    lo: Array
    hi: Array

    def project(self, v: Array) -> Array:
        return np.clip(v, self.lo, self.hi)

    def distance(self, v: Array) -> float:
        return float(np.linalg.norm(v - self.project(v)))


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


@dataclass(frozen=True)
class AffineSubspace:
    """{x : C x = e}, projected onto through a precomputed affine map.

    The projection is v - C^T (C C^T)^{-1} (C v - e) = P v + s with
    P = I - C^T (C C^T)^{-1} C and s = C^T (C C^T)^{-1} e, both formed once
    from a Cholesky factor of the Gram matrix.
    """

    c_matrix: Array
    e: Array
    _proj: Array = field(init=False, repr=False, compare=False)
    _shift: Array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        import scipy.linalg as sla

        c = np.asarray(self.c_matrix, dtype=float)
        gram = c @ c.T
        # tiny diagonal lift guards against duplicated rows
        factor = sla.cho_factor(gram + 1e-14 * np.eye(gram.shape[0]))
        object.__setattr__(self, "_proj", np.eye(c.shape[1]) - c.T @ sla.cho_solve(factor, c))
        object.__setattr__(
            self, "_shift", c.T @ sla.cho_solve(factor, np.asarray(self.e, dtype=float))
        )

    def project(self, v: Array) -> Array:
        return self._proj @ v + self._shift

    def distance(self, v: Array) -> float:
        return float(np.linalg.norm(v - self.project(v)))


def project_box(lo, hi, v):
    return np.clip(v, lo, hi)


def project_ball(center, radius, v):
    return Ball(np.asarray(center, dtype=float), float(radius)).project(
        np.asarray(v, dtype=float)
    )


def project_halfspace(a, c, v):
    return Halfspace(np.asarray(a, dtype=float), float(c)).project(
        np.asarray(v, dtype=float)
    )


def project_hyperplane(a, c, v):
    return Hyperplane(np.asarray(a, dtype=float), float(c)).project(
        np.asarray(v, dtype=float)
    )


def project_energy_budget(lo, hi, demand, v) -> Array:
    """Project onto {x : sum x >= demand, lo <= x <= hi}.

    The projection is clip(v + t, lo, hi) with the smallest t >= 0 at which
    the budget holds.  s(t) = sum clip(v + t, lo, hi) is nondecreasing and
    piecewise linear, so t is found exactly: sort the breakpoints of s,
    scan s along them to the piece that crosses ``demand`` and solve that
    linear piece for t.  This is the capped-simplex projection of Held,
    Wolfe & Crowder (1974) and Condat (2016).
    """
    v = np.asarray(v, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), v.shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), v.shape)
    cap = float(hi.sum())
    if cap < demand - 1e-12:
        raise InfeasibleInstance(f"energy demand {demand} exceeds total capacity {cap}")
    x = np.clip(v, lo, hi)
    s = float(x.sum())
    if s >= demand - 1e-12:
        return x
    # a coordinate leaves its lower bound at t = lo - v (slope +1) and
    # reaches its upper bound at t = hi - v (slope -1); breakpoints at or
    # before t = 0 (lo = -inf among them) only set the starting slope, and
    # hi = +inf is never reached
    knots = sorted(
        [(max(g, 0.0), 1) for g in (lo - v).tolist() if g < math.inf]
        + [(max(g, 0.0), -1) for g in (hi - v).tolist() if g < math.inf]
    )
    t, slope = 0.0, 0
    for knot, turn in knots:
        s_knot = s + slope * (knot - t)
        if s_knot >= demand:
            break
        s, t, slope = s_knot, knot, slope + turn
    if slope > 0:
        t += (demand - s) / slope
    return np.clip(v + t, lo, hi)


def dykstra_project(
    primitives: Sequence,
    v: Array,
    tol: float = DYKSTRA_TOL,
    max_iter: int = DYKSTRA_MAX_ITER,
) -> Array:
    """Project onto the intersection of convex sets by cyclic corrected
    projections.

    Converges to the exact Euclidean projection for closed convex sets with
    nonempty intersection.  Stops when a full sweep moves the iterate by less
    than ``tol`` and every primitive is within ``tol``; raises if the sweep
    cap is hit first (the usual cause is an empty intersection).
    """
    x = np.array(v, dtype=float)
    if len(primitives) == 1:
        return primitives[0].project(x)
    corrections = [np.zeros_like(x) for _ in primitives]
    for _ in range(max_iter):
        x_prev = x.copy()
        corr_change = 0.0
        for j, prim in enumerate(primitives):
            z = x + corrections[j]
            y = prim.project(z)
            new_corr = z - y
            corr_change = max(corr_change, float(np.abs(new_corr - corrections[j]).max()))
            corrections[j] = new_corr
            x = y
        # the iterate alone can repeat transiently; the correction terms must
        # settle too before the cycle is at its fixed point
        if float(np.abs(x - x_prev).max()) <= tol and corr_change <= tol:
            if all(prim.distance(x) <= 10 * tol for prim in primitives):
                return x
    raise ProjectionDidNotConverge(
        f"no convergence within {max_iter} sweeps (tol={tol}); "
        "the intersection may be empty"
    )


# ---------------------------------------------------------------------------
# exact small-scale oracle
# ---------------------------------------------------------------------------


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
