"""Distribution-grid pricing on a radial network.

A lossless linearized branch-flow model over a tree rooted at the slack
bus 0.  Per line n (identified with its downstream bus) and period t the
variables are the active/reactive flows f, g measured positive from parent
to child, and the squared voltage v at the bus.  The slack injections
(p0, q0) and all line/voltage quantities belong to the system operator's
block; each load aggregator controls consumption, production and production
reactive power at its subset of buses.

Coupling rows (one active + one reactive per bus and period), with net
consumption p = pc - pg and q = tau_c * pc - qg:

    p_{n,t} + sum_{m in children(n)} f_{m,t} - f_{n,t}                  = 0
    q_{n,t} + sum_{m in children(n)} g_{m,t} - g_{n,t} - B_n v_{n,t}    = 0

oriented so the dual of the active row is the marginal price of consumption
at the bus.  Everything the operator alone controls sits inside its feasible
set: the root balance (slack injection equals total root outflow), the
voltage-drop equalities v_n - v_parent + 2 R_n f_n + 2 X_n g_n = 0, the
voltage box, the per-line flow-magnitude balls f^2 + g^2 <= S_n^2 and the
slack bounds.  Squared currents and quadratic loss terms are dropped
entirely (lossless model); the two flow-magnitude caps of the lossy model
then coincide.

Every projection on the pricing path is exact.  The aggregator sets split
into energy budgets (a breakpoint search over all of a group's buses at
once) and production pairs (closed form).  The operator set is the
voltage-drop/root-balance subspace intersected with the voltage/slack box
and the flow balls; it is projected onto by semismooth Newton on the dual
of the subspace's rows, to a row residual of 1e-12 with the box and balls
held exactly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

import numpy as np
from scipy.linalg import lapack

from .blocks import BlockStructure, ProblemSpec, ProxBlock, SmoothBlock
from .errors import InfeasibleInstance, ProjectionDidNotConverge
from .proxops import AffineSubspace, Box, project_energy_budgets
from .sampling import paired_dso
# a private name keeps wrappers that patch ``run`` by name (as the
# benchmark's tracer does) from timing a grid solve twice
from .solver import PdaEngine, PdaState, RunResult
from .solver import run as _run_loop
from .stepsize import convex_default_policy

Array = np.ndarray

BUS_COLUMNS = (
    "n",
    "S",
    "R_e3",
    "X_e3",
    "B_e3",
    "Pmin_0",
    "Pmin_1",
    "Pmax_0",
    "Pmax_1",
    "E",
    "tau_c",
)


@dataclass(frozen=True)
class NetworkModel:
    """Radial network data over a horizon of T periods."""

    buses: tuple[int, ...]
    parent: dict
    r: dict
    x: dict
    s_cap: dict
    b_shunt: dict
    p_lo: dict
    p_hi: dict
    energy: dict
    tau_c: dict
    renewable: dict
    ratio_lo: dict
    ratio_hi: dict
    v_lo: float
    v_hi: float
    v0: float
    horizon: int
    aggregators: tuple[tuple[int, ...], ...]
    p0_bounds: tuple[float, float] = (-10.0, 10.0)
    q0_bounds: tuple[float, float] = (-10.0, 10.0)

    def __post_init__(self):
        for n in self.buses:
            if n not in self.parent:
                raise ValueError(f"bus {n} has no parent edge")
            seen = {n}
            node = n
            while node != 0:
                node = self.parent[node]
                if node in seen:
                    raise ValueError("edge list contains a cycle")
                seen.add(node)
            if float(np.sum(self.p_hi[n])) < self.energy[n] - 1e-12:
                raise InfeasibleInstance(
                    f"bus {n}: energy demand {self.energy[n]} exceeds "
                    f"total consumption capacity {float(np.sum(self.p_hi[n]))}"
                )
        covered = sorted(n for group in self.aggregators for n in group)
        if covered != sorted(self.buses):
            raise ValueError("aggregator groups must partition the buses")

    def children(self, n: int) -> list[int]:
        return [m for m in self.buses if self.parent[m] == n]

    @property
    def n_buses(self) -> int:
        return len(self.buses)


def default_aggregators(buses, parent) -> tuple[tuple[int, ...], ...]:
    """Partition the buses into feeder branches: one group per child of the
    root, split once more at the first fork.  The 15-bus study yields the
    three groups (1..6), (7..11) and (12..14)."""
    children = {n: [] for n in [0, *buses]}
    for n in buses:
        children[parent[n]].append(n)

    def subtree(root):
        out, stack = [], [root]
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(children[u])
        return sorted(out)

    groups = []
    for top in sorted(children[0]):
        branch = subtree(top)
        forks = [u for u in branch if len(children[u]) > 1]
        if forks:
            side_roots = sorted(children[forks[0]])[1:]
            side = sorted(n for b in side_roots for n in subtree(b))
            groups.append(tuple(sorted(set(branch) - set(side))))
            if side:
                groups.append(tuple(side))
        else:
            groups.append(tuple(branch))
    return tuple(groups)


def default_network_paths() -> tuple[str, str]:
    """Bundled 15-bus study data (bus table + edge list)."""
    base = resources.files("blockpd") / "data"
    return str(base / "bus15.csv"), str(base / "edges15.csv")


def load_network(
    bus_path: str,
    edges_path: str,
    *,
    renewable: dict | None = None,
    ratio_bounds: dict | None = None,
    v_bounds: tuple[float, float] = (0.81, 1.21),
    v0: float = 1.0,
    horizon: int = 2,
    aggregators: Sequence[Sequence[int]] | None = None,
    p0_bounds: tuple[float, float] = (-10.0, 10.0),
    q0_bounds: tuple[float, float] = (-10.0, 10.0),
) -> NetworkModel:
    """Read the bus table and edge list.

    The bus CSV must carry the columns ``n, S, R_e3, X_e3, B_e3, Pmin_0,
    Pmin_1, Pmax_0, Pmax_1, E, tau_c`` (impedances and shunt susceptance
    scaled by 1e3); the edge CSV has ``parent, child`` rows describing the
    tree, rooted at the slack bus 0.  ``renewable`` maps a bus to per-period
    production caps; the bundled study has caps (0.438, 0.201) at bus 11
    with zero reactive-ratio bounds (fully active production).
    """
    rows = {}
    with open(bus_path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in BUS_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"bus table is missing columns: {missing}")
        for rec in reader:
            n = int(rec["n"])
            rows[n] = rec
    edges = []
    with open(edges_path, newline="") as fh:
        reader = csv.DictReader(fh)
        if not reader.fieldnames or set(reader.fieldnames) < {"parent", "child"}:
            raise ValueError("edge list needs 'parent' and 'child' columns")
        for rec in reader:
            edges.append((int(rec["parent"]), int(rec["child"])))

    buses = tuple(sorted(rows))
    parent = {child: par for par, child in edges}
    if renewable is None:
        renewable = {11: np.array([0.438, 0.201])} if 11 in rows else {}
    renewable = {n: np.asarray(v, dtype=float) for n, v in renewable.items()}
    ratio_bounds = ratio_bounds or {}

    def pick(rec, keys):
        return np.array([float(rec[k]) for k in keys])

    model = NetworkModel(
        buses=buses,
        parent=parent,
        r={n: float(rows[n]["R_e3"]) * 1e-3 for n in buses},
        x={n: float(rows[n]["X_e3"]) * 1e-3 for n in buses},
        s_cap={n: float(rows[n]["S"]) for n in buses},
        b_shunt={n: float(rows[n]["B_e3"]) * 1e-3 for n in buses},
        p_lo={n: pick(rows[n], ("Pmin_0", "Pmin_1"))[:horizon] for n in buses},
        p_hi={n: pick(rows[n], ("Pmax_0", "Pmax_1"))[:horizon] for n in buses},
        energy={n: float(rows[n]["E"]) for n in buses},
        tau_c={n: float(rows[n]["tau_c"]) for n in buses},
        renewable=renewable,
        ratio_lo={n: ratio_bounds.get(n, (0.0, 0.0))[0] for n in renewable},
        ratio_hi={n: ratio_bounds.get(n, (0.0, 0.0))[1] for n in renewable},
        v_lo=float(v_bounds[0]),
        v_hi=float(v_bounds[1]),
        v0=float(v0),
        horizon=int(horizon),
        aggregators=(
            tuple(tuple(sorted(g)) for g in aggregators)
            if aggregators is not None
            else default_aggregators(buses, parent)
        ),
        p0_bounds=p0_bounds,
        q0_bounds=q0_bounds,
    )
    return model


def make_single_line_network(
    demand=(0.5, 0.25),
    *,
    s_cap: float = 5.0,
    r: float = 1e-3,
    x: float = 1e-3,
) -> NetworkModel:
    """One slack, one bus, fixed per-period demand: the marginal prices at
    the bus equal the slack cost derivatives at that demand."""
    demand = np.asarray(demand, dtype=float)
    t = demand.size
    return NetworkModel(
        buses=(1,),
        parent={1: 0},
        r={1: r},
        x={1: x},
        s_cap={1: s_cap},
        b_shunt={1: 0.0},
        p_lo={1: demand.copy()},
        p_hi={1: demand.copy()},
        energy={1: float(demand.sum())},
        tau_c={1: 0.0},
        renewable={},
        ratio_lo={},
        ratio_hi={},
        v_lo=0.25,
        v_hi=4.0,
        v0=1.0,
        horizon=t,
        aggregators=((1,),),
    )


# ---------------------------------------------------------------------------
# variable layouts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DsoLayout:
    buses: tuple[int, ...]
    horizon: int

    @property
    def dim(self) -> int:
        return (2 + 3 * len(self.buses)) * self.horizon

    def pos(self, n: int) -> int:
        return self.buses.index(n)

    def idx_p0(self, t: int) -> int:
        return t

    def idx_q0(self, t: int) -> int:
        return self.horizon + t

    def idx_f(self, n: int, t: int) -> int:
        return 2 * self.horizon + self.pos(n) * self.horizon + t

    def idx_g(self, n: int, t: int) -> int:
        return (2 + len(self.buses)) * self.horizon + self.pos(n) * self.horizon + t

    def idx_v(self, n: int, t: int) -> int:
        return (2 + 2 * len(self.buses)) * self.horizon + self.pos(n) * self.horizon + t


@dataclass(frozen=True)
class AggLayout:
    buses: tuple[int, ...]
    horizon: int

    @property
    def dim(self) -> int:
        return 3 * len(self.buses) * self.horizon

    def pos(self, n: int) -> int:
        return self.buses.index(n)

    def idx_pc(self, n: int, t: int) -> int:
        return 3 * self.pos(n) * self.horizon + t

    def idx_pg(self, n: int, t: int) -> int:
        return (3 * self.pos(n) + 1) * self.horizon + t

    def idx_qg(self, n: int, t: int) -> int:
        return (3 * self.pos(n) + 2) * self.horizon + t


def row_p(net: NetworkModel, n: int, t: int) -> int:
    return net.buses.index(n) * net.horizon + t


def row_q(net: NetworkModel, n: int, t: int) -> int:
    return net.n_buses * net.horizon + net.buses.index(n) * net.horizon + t


# ---------------------------------------------------------------------------
# feasible-set projectors
# ---------------------------------------------------------------------------


class _FlowBalls:
    """All per-line, per-period flow-magnitude caps, projected jointly.  The
    f and g coordinates are contiguous slices of the operator's vector."""

    def __init__(self, f: slice, g: slice, radii: Array):
        self.f = f
        self.g = g
        self.radii = radii

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


def _dso_feasible_set(net: NetworkModel, lay: DsoLayout):
    t_h = net.horizon
    dim = lay.dim
    rows, rhs = [], []
    children0 = net.children(0)
    for t in range(t_h):
        row = np.zeros(dim)
        for m in children0:
            row[lay.idx_f(m, t)] = 1.0
        row[lay.idx_p0(t)] = -1.0
        rows.append(row)
        rhs.append(0.0)
        row = np.zeros(dim)
        for m in children0:
            row[lay.idx_g(m, t)] = 1.0
        row[lay.idx_q0(t)] = -1.0
        rows.append(row)
        rhs.append(0.0)
    for n in net.buses:
        par = net.parent[n]
        for t in range(t_h):
            row = np.zeros(dim)
            row[lay.idx_v(n, t)] = 1.0
            row[lay.idx_f(n, t)] = 2.0 * net.r[n]
            row[lay.idx_g(n, t)] = 2.0 * net.x[n]
            if par == 0:
                rhs.append(net.v0)
            else:
                row[lay.idx_v(par, t)] = -1.0
                rhs.append(0.0)
            rows.append(row)
    affine = AffineSubspace(np.array(rows), np.array(rhs))

    lo = np.full(dim, -np.inf)
    hi = np.full(dim, np.inf)
    for t in range(t_h):
        lo[lay.idx_p0(t)], hi[lay.idx_p0(t)] = net.p0_bounds
        lo[lay.idx_q0(t)], hi[lay.idx_q0(t)] = net.q0_bounds
    for n in net.buses:
        for t in range(t_h):
            lo[lay.idx_v(n, t)] = net.v_lo
            hi[lay.idx_v(n, t)] = net.v_hi
    box = Box(lo, hi)

    # f and g run bus-major, period-minor over the buses in layout order
    first, size = net.buses[0], net.n_buses * t_h
    f = slice(lay.idx_f(first, 0), lay.idx_f(first, 0) + size)
    g = slice(lay.idx_g(first, 0), lay.idx_g(first, 0) + size)
    radii = np.array([net.s_cap[n] for n in net.buses for t in range(t_h)])
    balls = _FlowBalls(f, g, radii)
    return (affine, box, balls)


NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100
ARMIJO_MAX_HALVINGS = 60


class _OperatorProjector:
    """Exact Euclidean projection onto {C x = e} ∩ K, K = box × flow balls.

    Semismooth Newton on the dual of the affine rows (Qi & Sun, SIAM J.
    Matrix Anal. Appl. 2006).  For a multiplier lam the inner minimiser is
    x(lam) = Pi_K(w), w = v - C^T lam, and the (negated) dual objective

        D(lam) = <w, x(lam)> - 0.5 ||x(lam)||^2 + <lam, e>

    is convex and differentiable with gradient e - C x(lam).  Each step
    solves (C J C^T + eps I) d = C x - e, with J from the generalised
    Jacobian of Pi_K (0/1 on box coordinates, (r/|w|)(I - u u^T) on a
    binding flow ball, u = w/|w|) and eps = 0.1 min(1e-2, |C x - e|_inf),
    then backtracks on D (Armijo, with a 1e-13 |D| allowance for roundoff
    in D itself).  It starts at the multiplier of the plain affine projection
    and stops when |C x - e|_inf <= NEWTON_TOL; x lies in K by
    construction.
    """

    def __init__(self, affine: AffineSubspace, box: Box, balls: _FlowBalls):
        self.affine = affine
        self.c = np.asarray(affine.c_matrix, dtype=float)
        self.e = np.asarray(affine.e, dtype=float)
        self.gram = self.c @ self.c.T
        self.eye = np.eye(self.c.shape[0])
        self.lo, self.hi = box.lo, box.hi
        self.balls = balls
        self.f, self.g = balls.f, balls.g
        self.c_f, self.c_g = self.c[:, self.f], self.c[:, self.g]

    def _inner(self, v: Array, lam: Array):
        """x = Pi_K(v - C^T lam), the dual objective there and the pieces the
        Newton matrix needs: w, the flow magnitudes of w, the ball scales."""
        w = v - lam @ self.c
        x = np.minimum(np.maximum(w, self.lo), self.hi)  # f and g are unbounded
        nrm, scale = self.balls.scales(w)
        x[self.f] *= scale
        x[self.g] *= scale
        dual = float(x @ (w - 0.5 * x) + lam @ self.e)
        return x, w, nrm, scale, dual

    def _newton_matrix(self, w: Array, nrm: Array, scale: Array, eps: float) -> Array:
        """C J C^T + eps I = C C^T + eps I - C (I - J) C^T.  I - J is 1 on the
        clipped box coordinates and u u^T + (1 - a) u' u'^T on a ball with
        scale a < 1, u' being u turned by a right angle."""
        bind = scale < 1.0
        a = scale[bind]
        u_f = w[self.f][bind] / nrm[bind]
        u_g = w[self.g][bind] / nrm[bind]
        c_f, c_g = self.c_f[:, bind], self.c_g[:, bind]
        cols = np.concatenate(
            [
                self.c[:, (w <= self.lo) | (w >= self.hi)],
                c_f * u_f + c_g * u_g,
                c_g * u_f - c_f * u_g,
            ],
            axis=1,
        )
        weights = np.ones(cols.shape[1])
        weights[cols.shape[1] - a.size :] -= a
        return (self.gram + eps * self.eye) - (cols * weights) @ cols.T

    def project(self, v: Array) -> Array:
        v = np.asarray(v, dtype=float)
        lam = self.affine.multiplier(v)
        x, w, nrm, scale, dual = self._inner(v, lam)
        newton_steps = 0
        while True:
            res = self.c @ x - self.e
            gap = abs(res).max()
            if gap <= NEWTON_TOL:
                return x
            if newton_steps == NEWTON_MAX_ITER:
                raise ProjectionDidNotConverge(
                    f"operator projection: row residual {gap:.3e} after "
                    f"{newton_steps} Newton steps (tol {NEWTON_TOL:g})"
                )
            newton_steps += 1
            h = self._newton_matrix(w, nrm, scale, 0.1 * min(1e-2, gap))
            _, step, info = lapack.dposv(h, res)
            if info != 0:
                raise ProjectionDidNotConverge(
                    f"operator projection: Newton matrix not positive definite "
                    f"(LAPACK info {info})"
                )
            descent = 1e-4 * (res @ step)
            allowance = 1e-13 * abs(dual)
            t = 1.0
            for _ in range(ARMIJO_MAX_HALVINGS):
                lam_t = lam + t * step
                trial = self._inner(v, lam_t)
                if trial[-1] <= dual - t * descent + allowance:
                    break
                t *= 0.5
            else:
                raise ProjectionDidNotConverge(
                    f"operator projection: line search stalled at row residual {gap:.3e}"
                )
            lam = lam_t
            x, w, nrm, scale, dual = trial


def _make_dso_prox(net: NetworkModel, lay: DsoLayout):
    prims = _dso_feasible_set(net, lay)
    projector = _OperatorProjector(*prims)

    def member(v):
        return all(prim.distance(v) <= 1e-6 for prim in prims)

    def value(v):
        return 0.0 if member(v) else math.inf

    return ProxBlock(value, lambda g, v: projector.project(v), 0.0), prims


def _project_production_pair(v2: Array, cap: float, lo: float, hi: float) -> Array:
    """Project (pg, qg) onto {0 <= pg <= cap, lo*pg <= qg <= hi*pg}.

    For lo < hi the set is the triangle with vertices (0, 0), (cap, lo*cap)
    and (cap, hi*cap) (the ratio wedge already forces pg >= 0).  A point
    outside it projects onto the nearest of the three edges, each edge a
    clamped segment projection whose clamps are the vertices.
    """
    if cap <= 0.0:
        return np.zeros(2)
    pg, qg = float(v2[0]), float(v2[1])
    if lo == hi:
        # segment qg = lo * pg, pg in [0, cap]
        pg = (pg + lo * qg) / (1.0 + lo * lo)
        pg = min(max(pg, 0.0), cap)
        return np.array([pg, lo * pg])
    if pg <= cap and lo * pg <= qg <= hi * pg:
        return np.array([pg, qg])
    best, best_dist = None, math.inf
    for (p0, q0), (p1, q1) in (
        ((0.0, 0.0), (cap, hi * cap)),
        ((0.0, 0.0), (cap, lo * cap)),
        ((cap, lo * cap), (cap, hi * cap)),
    ):
        dp, dq = p1 - p0, q1 - q0
        s = min(max(((pg - p0) * dp + (qg - q0) * dq) / (dp * dp + dq * dq), 0.0), 1.0)
        cand = (p0 + s * dp, q0 + s * dq)
        dist = (cand[0] - pg) ** 2 + (cand[1] - qg) ** 2
        if dist < best_dist:
            best, best_dist = cand, dist
    return np.array(best)


def _make_agg_prox(net: NetworkModel, lay: AggLayout):
    """Prox of an aggregator's feasible set.  The group's vector is viewed as
    an (n_bus, 3, T) array of (pc, pg, qg) rows: all energy budgets are
    projected in one batched call, production pairs are zero wherever the
    cap is zero and projected pairwise at the renewable buses."""
    t_h = net.horizon
    shape = (len(lay.buses), 3, t_h)
    p_lo = np.array([net.p_lo[n] for n in lay.buses])
    p_hi = np.array([net.p_hi[n] for n in lay.buses])
    energy = np.array([net.energy[n] for n in lay.buses])
    caps = np.zeros((len(lay.buses), t_h))
    ratio_lo = np.zeros((len(lay.buses), 1))
    ratio_hi = np.zeros((len(lay.buses), 1))
    pairs = []  # (row, period, cap, ratio bounds) at the renewable buses
    for i, n in enumerate(lay.buses):
        if n in net.renewable:
            caps[i] = net.renewable[n]
            ratio_lo[i], ratio_hi[i] = net.ratio_lo[n], net.ratio_hi[n]
            pairs.extend(
                (i, t, float(caps[i, t]), net.ratio_lo[n], net.ratio_hi[n])
                for t in range(t_h)
            )

    def project(v):
        rows = np.asarray(v, dtype=float).reshape(shape)
        out = np.zeros(shape)
        out[:, 0] = project_energy_budgets(p_lo, p_hi, energy, rows[:, 0])
        for i, t, cap, lo, hi in pairs:
            out[i, 1:, t] = _project_production_pair(rows[i, 1:, t], cap, lo, hi)
        return out.reshape(-1)

    def member(v):
        tol = 1e-8
        rows = np.asarray(v, dtype=float).reshape(shape)
        pc, pg, qg = rows[:, 0], rows[:, 1], rows[:, 2]
        return bool(
            np.all(pc >= p_lo - tol)
            and np.all(pc <= p_hi + tol)
            and np.all(pc.sum(axis=1) >= energy - tol)
            and np.all(pg >= -tol)
            and np.all(pg <= caps + tol)
            and np.all(qg >= ratio_lo * pg - tol)
            and np.all(qg <= ratio_hi * pg + tol)
        )

    def value(v):
        return 0.0 if member(v) else math.inf

    return ProxBlock(value, lambda g, v: project(v), 0.0)


# ---------------------------------------------------------------------------
# problem assembly
# ---------------------------------------------------------------------------


def default_slack_costs(horizon: int):
    """Quadratic peak period followed by linear off-peak periods."""
    costs = [(lambda p: 2.0 * p + p * p, lambda p: 2.0 + 2.0 * p, 2.0)]
    for _ in range(1, horizon):
        costs.append((lambda p: p, lambda p: 1.0, 0.0))
    return costs


def build_opf_problem(
    net: NetworkModel,
    *,
    drop_shunt: bool = False,
    xi: Array | None = None,
    slack_costs=None,
) -> ProblemSpec:
    """Assemble the pricing problem as a block problem.

    Block 0 is the operator, blocks 1..p the aggregators.  The coupling rows
    are the flow-conservation equations; ``b`` is zero unless a fixed
    perturbation ``xi`` is supplied to make the coupling inconsistent.
    """
    t_h = net.horizon
    n_b = net.n_buses
    q = 2 * n_b * t_h
    lay0 = DsoLayout(net.buses, t_h)
    agg_lays = [AggLayout(g, t_h) for g in net.aggregators]

    a0 = np.zeros((q, lay0.dim))
    for n in net.buses:
        for t in range(t_h):
            rp, rq = row_p(net, n, t), row_q(net, n, t)
            a0[rp, lay0.idx_f(n, t)] = -1.0
            a0[rq, lay0.idx_g(n, t)] = -1.0
            for m in net.children(n):
                a0[rp, lay0.idx_f(m, t)] = 1.0
                a0[rq, lay0.idx_g(m, t)] = 1.0
            if not drop_shunt:
                a0[rq, lay0.idx_v(n, t)] = -net.b_shunt[n]

    a_blocks = [a0]
    for lay in agg_lays:
        a_a = np.zeros((q, lay.dim))
        for n in lay.buses:
            for t in range(t_h):
                a_a[row_p(net, n, t), lay.idx_pc(n, t)] = 1.0
                a_a[row_p(net, n, t), lay.idx_pg(n, t)] = -1.0
                a_a[row_q(net, n, t), lay.idx_pc(n, t)] = net.tau_c[n]
                a_a[row_q(net, n, t), lay.idx_qg(n, t)] = -1.0
        a_blocks.append(a_a)

    costs = slack_costs if slack_costs is not None else default_slack_costs(t_h)

    def phi0_value(x0):
        return sum(costs[t][0](x0[lay0.idx_p0(t)]) for t in range(t_h))

    def phi0_grad(x0):
        g = np.zeros(lay0.dim)
        for t in range(t_h):
            g[lay0.idx_p0(t)] = costs[t][1](x0[lay0.idx_p0(t)])
        return g

    lam0 = np.zeros((lay0.dim, lay0.dim))
    for t in range(t_h):
        lam0[lay0.idx_p0(t), lay0.idx_p0(t)] = costs[t][2]

    dso_prox, dso_prims = _make_dso_prox(net, lay0)
    smooth = [SmoothBlock(phi0_value, phi0_grad, lam0)]
    prox = [dso_prox]
    for lay in agg_lays:
        smooth.append(SmoothBlock.zero(lay.dim))
        prox.append(_make_agg_prox(net, lay))

    b = np.zeros(q) if xi is None else np.asarray(xi, dtype=float).copy()
    problem = ProblemSpec(
        blocks=BlockStructure(tuple([lay0.dim] + [lay.dim for lay in agg_lays])),
        smooth=tuple(smooth),
        prox=tuple(prox),
        a_blocks=tuple(a_blocks),
        b=b,
        meta={
            "net": net,
            "dso_layout": lay0,
            "agg_layouts": agg_lays,
            "dso_primitives": dso_prims,
        },
    )
    return problem


def opf_initial_point(problem: ProblemSpec) -> Array:
    """Feasible start: flat voltages, zero flows, projected aggregator plans."""
    net: NetworkModel = problem.meta["net"]
    lay0: DsoLayout = problem.meta["dso_layout"]
    x0 = np.zeros(problem.m)
    sl0 = problem.blocks.block_slice(0)
    dso = np.zeros(lay0.dim)
    for n in net.buses:
        for t in range(net.horizon):
            dso[lay0.idx_v(n, t)] = net.v0
    x0[sl0] = dso
    for a, _lay in enumerate(problem.meta["agg_layouts"], start=1):
        sl = problem.blocks.block_slice(a)
        x0[sl] = problem.prox[a].prox(np.ones(sl.stop - sl.start), x0[sl])
    return x0


def extract_dlmp(y: Array, problem: ProblemSpec):
    """Map the dual vector back to per-bus, per-period price pairs.

    Returns a list of (bus, period, y_p, y_q) tuples; the row-to-(bus, period)
    mapping is a bijection by construction.
    """
    net: NetworkModel = problem.meta["net"]
    out = []
    for n in net.buses:
        for t in range(net.horizon):
            out.append((n, t, float(y[row_p(net, n, t)]), float(y[row_q(net, n, t)])))
    return out


# ---------------------------------------------------------------------------
# coordinator/agent iteration (primal-dual engine under pair sampling)
# ---------------------------------------------------------------------------


class PpdlmpEngine(PdaEngine):
    """Pair-activated price coordination: the primal-dual engine with the
    coordinator-pair sampling fixed, so every step moves the operator and
    one uniformly drawn aggregator; its dual variables are the DLMPs."""

    def __init__(self, problem: ProblemSpec, policy=None):
        sampling = paired_dso(problem.d - 1)
        if policy is None:
            policy = convex_default_policy(problem, sampling)
        super().__init__(problem, sampling, policy)

    def init_state(
        self, x0: Array, rng: np.random.Generator, y0: Array | None = None
    ) -> PdaState:
        """Prices start at sigma (A x0 - b) unless ``y0`` is given."""
        state = super().init_state(x0, rng, y0=y0)
        if y0 is None:
            state.y *= self.policy.sigma_at(0)
        return state


def ppdlmp_run(
    problem: ProblemSpec,
    x0: Array,
    k_max: int,
    *,
    policy=None,
    seed: int = 0,
    trace_every: int = 100,
    stop_kkt_tol: float | None = None,
    reference=None,
) -> RunResult:
    """Drive the pair-activated engine through :func:`blockpd.solver.run`.
    ``trace_every`` must be at least 1."""
    eng = PpdlmpEngine(problem, policy=policy)
    return _run_loop(
        problem, eng.sampling, eng.policy, x0, k_max, engine=eng, seed=seed,
        trace_every=trace_every, stop_kkt_tol=stop_kkt_tol, reference=reference,
    )
