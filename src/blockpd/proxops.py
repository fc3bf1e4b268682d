"""Prox factories and Euclidean projections.

All operators act on flat float vectors.  A factory's ``prox(g, v)`` takes
the positive diagonal ``g`` of the prox metric; projections are metric-free.
Everything here is a pure function of its inputs and safe to call from
anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .blocks import ProxBlock
from .errors import InfeasibleInstance, ProjectionDidNotConverge
from .oracles import _GramFactor, _pivoted_factor

Array = np.ndarray

DYKSTRA_TOL = 1e-10
DYKSTRA_MAX_ITER = 10_000


# ---------------------------------------------------------------------------
# prox factories
# ---------------------------------------------------------------------------


def prox_zero_block() -> ProxBlock:
    """r = 0: the prox is the identity."""
    return ProxBlock(lambda x: 0.0, lambda g, v: np.asarray(v, dtype=float), 0.0)


def prox_l1_block(weight: float = 1.0) -> ProxBlock:
    """r(x) = weight * ||x||_1, soft threshold at weight / gamma; the weight
    must be finite and >= 0 (a negative one is not convex)."""
    if not 0.0 <= weight < math.inf:
        raise ValueError(f"l1 weight must be finite and >= 0, got {weight}")

    def prox(g, v):
        t = weight / np.asarray(g, dtype=float)
        return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)

    return ProxBlock(lambda x: weight * float(np.sum(np.abs(x))), prox, 0.0)


def prox_quadratic_block(mu: float, center=0.0) -> ProxBlock:
    """r(x) = mu/2 * ||x - center||^2, ``center`` stated on the block; mu
    must be finite and >= 0."""
    if not 0.0 <= mu < math.inf:
        raise ValueError(f"mu must be finite and >= 0, got {mu}")

    def value(x):
        dx = x - center
        return 0.5 * mu * float(np.dot(dx, dx))

    def prox(g, v):
        return (g * v + mu * center) / (g + mu)

    return ProxBlock(value, prox, mu, center=center)


# ---------------------------------------------------------------------------
# projection primitives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineSubspace:
    """{x : C x = e}.  The projection is v - C^T multiplier(v), the
    multiplier being the minimum-norm least-squares solution of
    (C C^T) lam = C v - e on the references' pivoted Cholesky factor of
    the Gram matrix ``gram`` = C C^T (:meth:`oracles._GramFactor.lstsq`),
    so dependent rows need no lift.  A Gram matrix that is not finite
    raises ``ValueError``: ``dpstrf`` would drop a NaN pivot as a dependent
    row.  ``c_matrix`` and ``e`` are kept as float arrays."""

    c_matrix: Array
    e: Array
    gram: Array = field(init=False, repr=False, compare=False)
    _factor: _GramFactor = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = np.asarray(self.c_matrix, dtype=float)
        gram = c @ c.T
        if not np.isfinite(gram).all():
            raise ValueError("the Gram matrix C C^T is not finite")
        object.__setattr__(self, "c_matrix", c)
        object.__setattr__(self, "e", np.asarray(self.e, dtype=float))
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "_factor", _pivoted_factor(gram))

    def project(self, v: Array) -> Array:
        return v - self.c_matrix.T.dot(self.multiplier(v))

    def multiplier(self, v: Array) -> Array:
        return self._factor.lstsq(self.c_matrix.dot(v) - self.e)

    def distance(self, v: Array) -> float:
        return float(np.linalg.norm(v - self.project(v)))


def project_energy_budget(lo, hi, demand, v) -> Array:
    """Project onto {x : sum x >= demand, lo <= x <= hi}: the one-row case
    of :func:`project_energy_budgets`.  ``lo`` and ``hi`` broadcast against
    ``v``."""
    v = np.asarray(v, dtype=float)[None, :]
    lo = np.broadcast_to(np.asarray(lo, dtype=float), v.shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), v.shape)
    return project_energy_budgets(lo, hi, [demand], v)[0]


def project_energy_budgets(lo, hi, demand, v) -> Array:
    """Project each row v[i] onto {x : sum x >= demand[i], lo[i] <= x <= hi[i]}.

    The projection is clip(v + t, lo, hi) with the smallest t >= 0 at which
    the budget holds.  s(t) = sum clip(v + t, lo, hi) is nondecreasing and
    piecewise linear, so t is found exactly: sort the breakpoints of s,
    accumulate s along them to the piece that crosses ``demand`` and solve
    that linear piece for t.  This is the capped-simplex projection of
    Held, Wolfe & Crowder (1974) and Condat (2016).  ``lo``, ``hi`` and
    ``v`` have shape (rows, T), ``demand`` has shape (rows,); bounds may be
    infinite.  The clip and the row sums are one NumPy call each; the scan
    runs row by row on Python floats, which for the few short rows of a
    grid aggregator costs less than batching it.
    """
    v = np.asarray(v, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    demand = np.asarray(demand, dtype=float)
    x = np.minimum(np.maximum(v, lo), hi)
    rows = zip(
        hi.sum(axis=1).tolist(), x.sum(axis=1).tolist(), demand.tolist(),
        lo.tolist(), hi.tolist(), v.tolist(),
    )
    for i, (cap, s0, dem, lo_i, hi_i, v_i) in enumerate(rows):
        if cap < dem - 1e-12:
            raise InfeasibleInstance(f"energy demand {dem} exceeds total capacity {cap}")
        if s0 < dem - 1e-12:
            x[i] = _budget_scan(lo_i, hi_i, dem, v_i, s0)
    return x


def _budget_scan(lo, hi, demand, v, s0):
    """One row of :func:`project_energy_budgets` whose clip sums to s0 < demand."""
    n = len(v)
    # a coordinate leaves its lower bound at t = lo - v (slope +1) and
    # reaches its upper bound at t = hi - v (slope -1); breakpoints at or
    # before t = 0 (lo = -inf among them) only set the starting slope
    knots = [max(b - a, 0.0) for b, a in zip(lo, v)]
    knots += [max(b - a, 0.0) for b, a in zip(hi, v)]
    order = sorted(range(2 * n), key=knots.__getitem__)
    t, s = knots[order[0]], s0
    slope = 1.0 if order[0] < n else -1.0
    # walk s along the breakpoints to the piece that crosses demand; hi =
    # +inf breakpoints come last and s reaches +inf (or NaN, never crossing)
    # at the first of them; with no crossing (demand at capacity) every
    # coordinate ends at hi
    for j in order[1:]:
        s_next = s + slope * (knots[j] - t)
        if s_next >= demand:
            break
        t, s = knots[j], s_next
        slope += 1.0 if j < n else -1.0
    if slope > 0:
        t = t + (demand - s) / slope
    return [min(max(a + t, l), h) for a, l, h in zip(v, lo, hi)]


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
