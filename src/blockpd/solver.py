"""Randomized block-coordinate engines and the one loop that drives them.

Two equivalent formulations of the same stochastic process are provided.

The averaging form tracks (x, w, z): an extrapolated point z blends the
averaged iterate w with the current one, active blocks take a weighted
forward-backward step against the penalty gradient scaled by the cumulative
weight S_k, and w is refreshed with inverse-probability corrections.  The
primal-dual form tracks (x, u, y) where u is the running residual Ax - b and
y is a dual price vector; with shared draws its x-iterates coincide with the
averaging form to rounding error.  Grid pricing (``blockpd.dlmp.PpdlmpEngine``)
is the primal-dual form with coordinator-pair sampling fixed; it is passed
to :func:`run` as an engine object.

Both engines take a block's forward-backward step from one method,
``_EngineBase._fb``: the gradient grad_i(x_i) + scale A_i' dual (S_k and
the residual at the extrapolated point in the averaging form, no scale and
y in the primal-dual form), the metric B_i / (pi_i tau_k), the prox, delta_i
and, in the averaging form, psi_i(x_hat_i).  The steps then differ only in
how they update the averaged point or the prices.

Both engines touch only the active blocks per iteration: a step costs the
active blocks' oracles and products plus O(q), never O(m).  The averaging
form keeps w implicitly as x + gamma e (the change of variables of Lee &
Sidford and of APPROX, Fercoq & Richtarik 2015, section 5), so a step
rescales the scalar gamma and writes only the active slices of e.  The
incrementally maintained products (Ax and Ae, the residual u) are refreshed
every ``REFRESH_EVERY`` steps to cap float drift, and the averaging form
folds gamma into e there.  Trace rows read the residual Ax - b from these
products rather than forming it, so the penalty gaps ``h_gap_x`` and
``h_gap_w`` and the dual part of ``kkt_res`` carry at most
``REFRESH_EVERY`` steps of that drift; A'y is a row's one product over A.
Within one iteration the block updates read shared state and write disjoint
slices, so they could run concurrently; the e/u/y updates are the
synchronisation point.  One engine instance is single-writer.

A step that draws more than one block of a problem whose blocks stack
(every smooth block a ``SmoothBlock.quadratic`` of one size n, all blocks
sharing one coordinatewise prox: ``ProblemSpec._quadratic_stack`` and
``_shared_prox`` are both set) gathers the drawn coordinates once as a
(k, n) stack and makes one stacked call each for the gradients, the
metrics, the prox and, in the averaging form, the smooth values
(``_EngineBase._fb_stacked``), whose rows are the tuples ``_fb`` returns,
with the same bits.  Each block keeps its own A_i products, q-vector
updates and objective bookkeeping, in block order.  Single-block draws and
problems that do not stack take the per-block loop, and so does a problem
whose oracles were wrapped, as ``perfbench``'s traced runs wrap every
block's grad and prox.
"""

from __future__ import annotations

import math
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from .blocks import ProblemSpec, _count, eval_psi, kkt_residual
from .errors import SolverDivergence
from .oracles import Reference, least_squares_reference
from .sampling import Sampling, draw, make_rng

Array = np.ndarray

# steps between cache refreshes, and between finite-iterate checks
REFRESH_EVERY = 1000
NAN_CHECK_EVERY = 100


@dataclass(slots=True)
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
    wall_time: float = math.nan


# the trace.csv columns: every field but the wall time, which varies by run
TraceRecord.CSV_FIELDS = tuple(f.name for f in fields(TraceRecord) if f.name != "wall_time")


class Trace(Sequence):
    """A run's trace rows, stored as columns: one ``array('q')`` for ``k``
    and one ``array('d')`` for each float field, 80 bytes a row.

    A read-only sequence of :class:`TraceRecord`: indexing (negative too)
    and iteration build each record on access, with plain ``float`` fields
    and an ``int`` ``k``, and a slice is a list of records.  Only ``run``
    appends rows.  Traces compare by identity: the wall times of two runs
    differ, so no two runs give equal rows.  :meth:`column` copies one
    field out as a float64 array, which is what to compare."""

    __slots__ = ("_cols",)
    _NAMES = tuple(f.name for f in fields(TraceRecord))
    _values = attrgetter(*_NAMES)

    def __init__(self):
        self._cols = {name: array("q" if name == "k" else "d") for name in self._NAMES}

    def _append(self, rec: TraceRecord) -> None:
        for col, value in zip(self._cols.values(), self._values(rec)):
            col.append(value)

    def __len__(self) -> int:
        return len(self._cols["k"])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(TraceRecord, *(col[i] for col in self._cols.values())))
        return TraceRecord(*[col[i] for col in self._cols.values()])

    def __iter__(self):
        return map(TraceRecord, *self._cols.values())

    def __repr__(self) -> str:
        return f"Trace({len(self)} rows)"

    def column(self, name: str) -> Array:
        """A float64 copy of the field ``name`` over the rows."""
        return np.array(self._cols[name], dtype=float)


@dataclass(slots=True)
class RbcdState:
    """Averaging-form iterate; ``s_cur`` is the cumulative weight S_k and
    ``tau``, ``sigma`` are the step parameters of step k, which the step
    advances through the policy.

    The averaged iterate is stored implicitly as w = x + gamma e, with
    Aw = Ax + gamma Ae, so a step rescales gamma and touches only the
    active slices of e; ``w`` assembles it on demand."""

    x: Array
    e: Array
    ax: Array
    ae: Array
    gamma: float
    psi_vec: list[float]
    psi_total: float
    psi_hat: float
    k: int
    s_cur: float
    tau: float
    sigma: float
    rng: np.random.Generator

    @property
    def w(self) -> Array:
        return self.x + self.gamma * self.e


@dataclass
class PdaState:
    """Primal-dual iterate: x, running residual u = Ax - b, dual y, and
    the step parameters ``tau``, ``sigma`` of step k."""

    x: Array
    u: Array
    y: Array
    k: int
    tau: float
    sigma: float
    rng: np.random.Generator


class _Block(NamedTuple):
    """What an engine step reads of one block, gathered once per engine:
    its slice, the coupling slab A_i and its transpose view, the gradient
    and prox oracles, the slice of the policy's B and the marginal pi_i and
    its inverse as Python floats."""

    sl: slice
    a: Array
    a_t: Array
    grad: Callable[[Array], Array]
    prox: Callable[[Array, Array], Array]
    b: Array
    pi: float
    inv_pi: float


class _Stack(NamedTuple):
    """The oracles of a problem whose blocks stack, as rows indexed by
    block: every H_i stacked (d, n, n); c, the policy's B and the marginal
    pi_i repeated over the block as (d, n); and the one coordinatewise prox
    all blocks share."""

    h: Array
    c: Array
    b: Array
    pi: Array
    prox: Callable[[Array, Array], Array]


class _EngineBase:
    """Shared per-block data of the engines.  Products are written with
    ``ndarray.dot``: on the few-column slabs of a block step the dispatch
    of ``@`` costs more than the product, and ``.dot`` reaches the same
    BLAS routine with the same result bits.

    When the problem's blocks stack (``ProblemSpec._quadratic_stack`` and
    ``_shared_prox`` are both set), a step that draws more than one block
    takes their forward-backward steps as one stack (:meth:`_fb_stacked`)."""

    def __init__(self, problem: ProblemSpec, sampling: Sampling, policy):
        if sampling.d != problem.d:
            raise ValueError("sampling block count must match the problem")
        # a policy is built for one problem (its B) and, when it records
        # marginals (the accelerated one), for one sampling
        name = type(policy).__name__
        if np.shape(policy.b_diag) != (problem.m,):
            raise ValueError(
                f"{name}.b_diag has shape {np.shape(policy.b_diag)}, expected ({problem.m},):"
                " the policy was built for another problem"
            )
        if not np.array_equal(getattr(policy, "pi", sampling.pi), sampling.pi):
            raise ValueError(
                f"{name}.pi differs from the sampling's marginals: the policy was built"
                " for another sampling"
            )
        self.problem = problem
        self.sampling = sampling
        self.policy = policy
        self.slices = problem.blocks.slices
        self.per_block = tuple(
            _Block(sl, a_i, a_i.T, sm.grad, pr.prox, policy.b_diag[sl], pi_i, 1.0 / pi_i)
            for sl, a_i, sm, pr, pi_i in zip(
                self.slices, problem.a_blocks, problem.smooth, problem.prox,
                sampling.pi.tolist(),
            )
        )
        quad, prox = problem._quadratic_stack, problem._shared_prox
        self._stack = None
        if quad is not None and prox is not None:
            h, c = quad
            rows = h.shape[:2]
            pi = problem.blocks.expand(sampling.pi).reshape(rows)
            self._stack = _Stack(h, c.reshape(rows), policy.b_diag.reshape(rows), pi, prox)

    def _start(self, x0: Array) -> tuple[Array, list[float]]:
        """A float copy of x0, checked for length m and to lie in dom R
        (a finite objective on every block), and its block objectives."""
        x0 = np.asarray(x0, dtype=float).copy()
        if x0.shape != (self.problem.m,):
            raise ValueError(f"x0 has shape {x0.shape}, expected ({self.problem.m},)")
        psi_vec = self._psi_vec(x0)
        if not all(map(math.isfinite, psi_vec)):
            raise ValueError("x0 must lie in dom R (finite objective on every block)")
        return x0, psi_vec

    def _psi_vec(self, x: Array) -> list[float]:
        """The block objectives as Python floats, so that the running sums
        built from them (and the trace rows) stay Python floats; totals are
        taken with ``np.sum``, in NumPy's pairwise order."""
        return [self.problem.psi_block(i, x[sl]) for i, sl in enumerate(self.slices)]

    def _fb(
        self, i: int, x: Array, dual: Array, scale: float | None, tau_k: float, values=False
    ) -> tuple:
        """Block i's weighted forward-backward step from the iterate x: the
        prox in the metric B_i / (pi_i tau_k) of x_i shifted against the
        gradient grad_i(x_i) + scale A_i' dual (no scale when None).
        Returns x_hat_i and delta_i = x_hat_i - x_i and, when ``values`` is
        set, psi_i(x_hat_i): the tuple of a row of :meth:`_fb_stacked`."""
        blk = self.per_block[i]
        xi = x[blk.sl]
        g = blk.a_t.dot(dual)
        if scale is not None:
            g *= scale
        g += blk.grad(xi)
        q_i = blk.b / (blk.pi * tau_k)
        x_hat = blk.prox(q_i, xi - g / q_i)
        if not values:
            return x_hat, x_hat - xi
        return x_hat, x_hat - xi, self.problem.psi_block(i, x_hat)

    def _fb_stacked(
        self, drawn: Array, x: Array, dual: Array, scale: float | None, tau_k: float, values=False
    ) -> tuple:
        """The forward-backward steps of the blocks ``drawn`` as one stack:
        the (k, n) rows x_hat_i and delta_i = x_hat_i - x_i and, when
        ``values`` is set, the list of psi_i(x_hat_i), each the smooth value
        0.5 x_hat_i'H_i x_hat_i + c_i'x_hat_i plus the block's prox value.
        The gradient H_i x_i + c_i + scale A_i' dual (no scale when None),
        the metric B_i / (pi_i tau_k), the shared prox and the smooth values
        are one call each over the stack, and each A_i' dual is its own
        product, so row i is the tuple :meth:`_fb` returns for block i, with
        its bits: ``np.matmul`` on a stack reaches the per-block BLAS call,
        as in ``ProblemSpec.grad_phi`` and ``phi``."""
        h, c, b, pi, prox = self._stack
        k, n = len(drawn), c.shape[1]
        xs = x.reshape(c.shape).take(drawn, 0)
        h = h.take(drawn, 0)
        c = c.take(drawn, 0)
        g = np.matmul(h, xs.reshape(k, n, 1)).reshape(k, n)
        g += c
        dual_part = np.empty((k, n))
        for row, i in zip(dual_part, drawn.tolist()):
            self.per_block[i].a_t.dot(dual, out=row)
        if scale is not None:
            dual_part *= scale
        g += dual_part
        metric = b.take(drawn, 0)
        pi_tau = pi.take(drawn, 0)
        pi_tau *= tau_k
        metric /= pi_tau
        g /= metric
        np.subtract(xs, g, out=g)
        x_hats = prox(metric.ravel(), g.ravel()).reshape(k, n)
        np.subtract(x_hats, xs, out=xs)
        if not values:
            return x_hats, xs
        col = x_hats.reshape(k, n, 1)
        vals = 0.5 * np.matmul(x_hats.reshape(k, 1, n), np.matmul(h, col))
        vals += np.matmul(c.reshape(k, 1, n), col)
        smooth = zip(vals.ravel().tolist(), drawn.tolist(), x_hats)
        return x_hats, xs, [v + float(self.problem.prox[i].value(xh)) for v, i, xh in smooth]


class RbcdEngine(_EngineBase):
    def init_state(self, x0: Array, rng: np.random.Generator) -> RbcdState:
        p = self.problem
        x0, psi_vec = self._start(x0)
        psi = float(np.sum(psi_vec))
        tau, sigma = self.policy.start()
        return RbcdState(
            x=x0, e=np.zeros(p.m), ax=p.a.dot(x0), ae=np.zeros(p.q), gamma=1.0,
            psi_vec=psi_vec, psi_total=psi, psi_hat=psi, k=0, s_cur=1.0,
            tau=tau, sigma=sigma, rng=rng,
        )

    def step(self, state: RbcdState) -> RbcdState:
        """One iteration in O(q) plus the active blocks' work.

        With w = x + gamma e, the update w+ = z + (theta/pi_i) delta_i on the
        active blocks reads w+ = x+ + gamma+ e+ with gamma+ = (1 - theta)
        gamma and e+ = e + ((theta/pi_i - 1)/gamma+) delta_i; when
        theta = 1 the old w drops out and e restarts from zero."""
        p = self.problem
        sigma_k, tau_k = state.sigma, state.tau
        s_k = state.s_cur
        theta = sigma_k / s_k

        gamma = (1.0 - theta) * state.gamma
        res = state.ax + gamma * state.ae
        res -= p.b
        if gamma == 0.0:
            state.e[:] = 0.0
            state.ae[:] = 0.0
            gamma = 1.0

        x, e, ax, ae, psi_vec = state.x, state.e, state.ax, state.ae, state.psi_vec
        bracket = state.psi_total
        drawn = draw(self.sampling, state.rng)
        stacked = self._stack is not None and len(drawn) > 1
        if stacked:
            rows = zip(*self._fb_stacked(drawn, x, res, s_k, tau_k, values=True))
        for i in drawn.tolist():
            sl, a_i, _, _, _, _, _, inv_pi = self.per_block[i]
            x_hat, delta, psi_i = next(rows) if stacked else self._fb(i, x, res, s_k, tau_k, True)
            a_delta = a_i.dot(delta)
            ax += a_delta
            c = (theta * inv_pi - 1.0) / gamma
            delta *= c
            e[sl] += delta
            a_delta *= c
            ae += a_delta
            change = psi_i - psi_vec[i]
            bracket += inv_pi * change
            state.psi_total += change
            psi_vec[i] = psi_i
            x[sl] = x_hat

        state.gamma = gamma
        state.psi_hat = (1.0 - theta) * state.psi_hat + theta * bracket
        state.tau, state.sigma = self.policy.advance(tau_k)
        state.s_cur = s_k + state.sigma
        state.k += 1
        return state

    def refresh(self, state: RbcdState) -> None:
        """Recompute incremental caches from scratch (drift cap), folding
        gamma into e."""
        p = self.problem
        state.e *= state.gamma
        state.gamma = 1.0
        state.ax = p.a.dot(state.x)
        state.ae = p.a.dot(state.e)
        state.psi_vec = self._psi_vec(state.x)
        state.psi_total = float(np.sum(state.psi_vec))

    def dual_estimate(self, state: RbcdState) -> Array:
        """Price vector the equivalent primal-dual process would hold now:
        S_k (A z - b) at the extrapolated point z = (1 - theta) w + theta x."""
        theta = state.sigma / state.s_cur
        az = state.ax + ((1.0 - theta) * state.gamma) * state.ae
        return state.s_cur * (az - self.problem.b)


class PdaEngine(_EngineBase):
    def __init__(self, problem: ProblemSpec, sampling: Sampling, policy):
        super().__init__(problem, sampling, policy)
        # per-step q-vectors: the scaled sum of A_i delta_i and the dual step
        self._ap_delta = np.empty(problem.q)
        self._dy = np.empty(problem.q)

    def init_state(self, x0: Array, rng: np.random.Generator) -> PdaState:
        p = self.problem
        x0, _ = self._start(x0)
        u0 = p.a.dot(x0) - p.b
        # the dual start S_0 (A z^0 - b) = A x^0 - b matches the averaging
        # form exactly (z^0 = x^0 because w^0 = x^0)
        tau, sigma = self.policy.start()
        return PdaState(x=x0, u=u0, y=u0.copy(), k=0, tau=tau, sigma=sigma, rng=rng)

    def step(self, state: PdaState) -> PdaState:
        sigma_k, tau_k = state.sigma, state.tau

        x, u, y = state.x, state.u, state.y
        ap_delta = self._ap_delta
        ap_delta.fill(0.0)
        drawn = draw(self.sampling, state.rng)
        stacked = self._stack is not None and len(drawn) > 1
        if stacked:
            rows = zip(*self._fb_stacked(drawn, x, y, None, tau_k))
        for i in drawn.tolist():
            sl, a_i, _, _, _, _, _, inv_pi = self.per_block[i]
            x_hat, delta = next(rows) if stacked else self._fb(i, x, y, None, tau_k)
            a_delta = a_i.dot(delta)
            u += a_delta
            a_delta *= inv_pi
            ap_delta += a_delta
            x[sl] = x_hat

        # y += sigma_k ap_delta + sigma_{k+1} u, in that association
        ap_delta *= sigma_k
        state.tau, state.sigma = self.policy.advance(tau_k)
        np.multiply(u, state.sigma, out=self._dy)
        ap_delta += self._dy
        y += ap_delta
        state.k += 1
        return state

    def refresh(self, state: PdaState) -> None:
        state.u = self.problem.a.dot(state.x) - self.problem.b


@dataclass
class RunResult:
    """A run's final engine state, its trace (rows stored as columns, 80
    bytes each; records are built on access), the reference its gap
    columns read and the iteration it stopped at early, if it did."""

    state: object
    trace: Trace
    reference: Reference | None = None
    stopped_at: int | None = None


def run(
    problem: ProblemSpec,
    sampling: Sampling,
    policy,
    x0: Array,
    k_max: int,
    *,
    engine="rbcd",
    seed: int = 0,
    trace_every: int = 100,
    stop_kkt_tol: float | None = None,
    reference: Reference | None = None,
) -> RunResult:
    """Drive one engine for up to ``k_max`` iterations.

    Parameters
    ----------
    engine : "rbcd" (averaging form), "pda" (primal-dual form), or an engine
        object built for this problem, sampling and policy (with
        ``init_state``, ``step`` and ``refresh``, e.g. the grid's
        ``PpdlmpEngine``).
    k_max : iterations to run, at least 0.
    trace_every : record a trace row every this many iterations, at least 1
        (the final iteration is always recorded; nothing is recorded at
        k = 0).  Rows are kept as columns, 80 bytes a row, in the result's
        :class:`Trace`, which builds a :class:`TraceRecord` on access.
    stop_kkt_tol : stop early at the first trace point where both the saddle
        residual ``kkt_res`` and the coupling residual ``primal_res``
        (||Ax - b||) are below this value, which must be finite and
        positive; both vanish only on consistent instances.  None never
        stops early.
    reference : ground-truth anchors for gap columns, with ``x_ls`` of
        length m and ``r_ls`` of length q; computed from the normal
        equations when omitted.

    Every option is checked before the first step, and a bad value raises
    ``ValueError`` naming it.

    The engine's caches are recomputed every ``REFRESH_EVERY`` steps, and a
    non-finite iterate at a check every ``NAN_CHECK_EVERY`` steps and at
    ``k_max`` raises :class:`SolverDivergence` with the last trace row
    attached.  Deterministic for a fixed seed: the generator is consumed only
    by the block draws.
    """
    _count("trace_every", trace_every)
    _count("k_max", k_max, 0)
    if stop_kkt_tol is not None and not (math.isfinite(stop_kkt_tol) and stop_kkt_tol > 0):
        raise ValueError(f"stop_kkt_tol must be finite and > 0 (or None), got {stop_kkt_tol}")
    if reference is None:
        reference = least_squares_reference(problem)
    for name, n in (("x_ls", problem.m), ("r_ls", problem.q)):
        shape = np.shape(getattr(reference, name))
        if shape != (n,):
            raise ValueError(f"reference {name} has shape {shape}, expected ({n},)")

    if isinstance(engine, str):
        engines = {"rbcd": RbcdEngine, "pda": PdaEngine}
        if engine not in engines:
            raise ValueError(f"unknown engine {engine!r}")
        eng = engines[engine](problem, sampling, policy)
    else:
        eng = engine
        if not (eng.problem is problem and eng.sampling is sampling and eng.policy is policy):
            raise ValueError("engine was built for another problem, sampling or policy")
    state = eng.init_state(x0, make_rng(seed))

    trace = Trace()
    t_start = time.perf_counter()
    stopped_at = None

    for k in range(k_max):
        eng.step(state)
        done = state.k
        if (done % NAN_CHECK_EVERY == 0 or done == k_max) and not np.all(np.isfinite(state.x)):
            raise SolverDivergence(
                f"non-finite iterate at k={done}",
                last_record=trace[-1] if trace else None,
            )
        if done % REFRESH_EVERY == 0:
            eng.refresh(state)
        if done % trace_every == 0 or done == k_max:
            rec = _trace_record(problem, eng, state, reference)
            rec.wall_time = time.perf_counter() - t_start
            trace._append(rec)
            if stop_kkt_tol is not None and (
                rec.kkt_res < stop_kkt_tol and rec.primal_res < stop_kkt_tol
            ):
                stopped_at = done
                break

    return RunResult(state, trace, reference, stopped_at)


def _trace_record(problem, eng, state, ref) -> TraceRecord:
    """One trace row.  The residual r = Ax - b is read from the engine's
    maintained products (``ax`` and ``ae``, or ``u``), not formed again, so
    the penalty gaps, ``primal_res`` and the dual part of ``kkt_res`` cost
    O(q) and A'y is the row's one product over A.  The gaps and ``kkt_res``
    carry the products' drift, at most ``REFRESH_EVERY`` steps of it."""
    psi_hat = h_gap_w = math.nan
    if isinstance(state, RbcdState):
        psi_x = state.psi_total
        psi_hat = state.psi_hat
        r = state.ax - problem.b
        # Aw - b = (Ax - b) + gamma Ae
        r_w = state.gamma * state.ae
        r_w += r
        h_gap_w = ref.h_gap(r_w)
        y = eng.dual_estimate(state)
    else:
        psi_x = eval_psi(problem, state.x)
        r = state.u
        y = state.y
    return TraceRecord(
        k=state.k,
        psi_x=psi_x,
        psi_hat=psi_hat,
        h_gap_x=ref.h_gap(r),
        h_gap_w=h_gap_w,
        primal_res=float(np.linalg.norm(r)),
        kkt_res=kkt_residual(problem, state.x, y, r),
        tau=state.tau,
        sigma=state.sigma,
    )
