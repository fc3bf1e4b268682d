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

Every projection on the pricing path is exact except the operator's: the
aggregator sets split into energy budgets (breakpoint search, exact) and
production pairs (closed form), and the operator set is a Dykstra
intersection of the voltage-drop/root-balance subspace (a precomputed
affine projector, exact), the box and the flow balls.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from importlib import resources
from typing import Sequence

import numpy as np

from .blocks import BlockStructure, ProblemSpec, ProxBlock, SmoothBlock, kkt_residual
from .errors import InfeasibleInstance, SolverDivergence
from .oracles import least_squares_reference
from .proxops import AffineSubspace, Box, dykstra_project, project_energy_budget
from .sampling import draw, make_rng, paired_dso
from .solver import PdaEngine, RunResult, TraceRecord
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
    """All per-line, per-period flow-magnitude caps, projected jointly."""

    def __init__(self, f_idx: Array, g_idx: Array, radii: Array):
        self.f_idx = f_idx
        self.g_idx = g_idx
        self.radii = radii

    def project(self, v: Array) -> Array:
        out = np.asarray(v, dtype=float).copy()
        f = out[self.f_idx]
        g = out[self.g_idx]
        nrm = np.hypot(f, g)
        scale = np.where(nrm > self.radii, self.radii / np.maximum(nrm, 1e-300), 1.0)
        out[self.f_idx] = f * scale
        out[self.g_idx] = g * scale
        return out

    def distance(self, v: Array) -> float:
        nrm = np.hypot(v[self.f_idx], v[self.g_idx])
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

    f_idx = np.array([lay.idx_f(n, t) for n in net.buses for t in range(t_h)])
    g_idx = np.array([lay.idx_g(n, t) for n in net.buses for t in range(t_h)])
    radii = np.array([net.s_cap[n] for n in net.buses for t in range(t_h)])
    balls = _FlowBalls(f_idx, g_idx, radii)
    return (affine, box, balls)


def _make_dso_prox(net: NetworkModel, lay: DsoLayout, tol: float, max_iter: int):
    prims = _dso_feasible_set(net, lay)

    def project(v):
        return dykstra_project(prims, v, tol=tol, max_iter=max_iter)

    def member(v):
        return all(prim.distance(v) <= 1e-6 for prim in prims)

    def value(v):
        return 0.0 if member(v) else math.inf

    return ProxBlock(value, lambda g, v: project(v), 0.0), prims


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
    t_h = net.horizon

    def project(v):
        out = np.asarray(v, dtype=float).copy()
        for n in lay.buses:
            sl = slice(lay.idx_pc(n, 0), lay.idx_pc(n, 0) + t_h)
            out[sl] = project_energy_budget(
                net.p_lo[n], net.p_hi[n], net.energy[n], out[sl]
            )
            caps = net.renewable.get(n)
            for t in range(t_h):
                i_pg, i_qg = lay.idx_pg(n, t), lay.idx_qg(n, t)
                cap = float(caps[t]) if caps is not None else 0.0
                out[[i_pg, i_qg]] = _project_production_pair(
                    out[[i_pg, i_qg]],
                    cap,
                    net.ratio_lo.get(n, 0.0),
                    net.ratio_hi.get(n, 0.0),
                )
        return out

    def member(v):
        tol = 1e-8
        for n in lay.buses:
            sl = slice(lay.idx_pc(n, 0), lay.idx_pc(n, 0) + t_h)
            pc = v[sl]
            if np.any(pc < net.p_lo[n] - tol) or np.any(pc > net.p_hi[n] + tol):
                return False
            if float(np.sum(pc)) < net.energy[n] - tol:
                return False
            caps = net.renewable.get(n)
            for t in range(t_h):
                pg = v[lay.idx_pg(n, t)]
                qg = v[lay.idx_qg(n, t)]
                cap = float(caps[t]) if caps is not None else 0.0
                if not -tol <= pg <= cap + tol:
                    return False
                if not (
                    net.ratio_lo.get(n, 0.0) * pg - tol
                    <= qg
                    <= net.ratio_hi.get(n, 0.0) * pg + tol
                ):
                    return False
        return True

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
    dykstra_tol: float = 1e-10,
    dykstra_max_iter: int = 10_000,
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

    dso_prox, dso_prims = _make_dso_prox(net, lay0, dykstra_tol, dykstra_max_iter)
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
# coordinator/agent iteration (pair-activated primal-dual specialisation)
# ---------------------------------------------------------------------------


@dataclass
class PpdlmpState:
    x: Array
    y: Array
    v: Array
    k: int
    rng: np.random.Generator

    def copy(self) -> "PpdlmpState":
        return replace(self, x=self.x.copy(), y=self.y.copy(), v=self.v.copy())


class PpdlmpEngine:
    """Pair-activated price coordination: every iteration the operator takes
    a projected gradient step on its own block, one uniformly drawn
    aggregator responds to the current prices with weight p in its metric,
    and the operator folds the aggregator's bid into the price and the
    running aggregate-bid vector v.

    Algebraically identical to the primal-dual engine under the
    coordinator-pair sampling with constant sigma; ``crosscheck`` in
    :func:`ppdlmp_run` verifies that numerically step by step.
    """

    def __init__(self, problem: ProblemSpec, sigma: float | None = None, policy=None):
        self.problem = problem
        self.p = problem.d - 1
        self.sampling = paired_dso(self.p)
        if policy is None:
            policy = convex_default_policy(problem, self.sampling)
        if sigma is not None:
            policy = replace(policy, sigma=sigma)
        self.policy = policy
        self.sigma = policy.sigma
        self.slices = [problem.blocks.block_slice(i) for i in range(problem.d)]
        self.b_slices = [policy.b_diag[sl] for sl in self.slices]

    def init_state(self, x0: Array, rng: np.random.Generator) -> PpdlmpState:
        pr = self.problem
        x0 = np.asarray(x0, dtype=float).copy()
        v = self.sigma * sum(
            pr.a_blocks[a] @ x0[self.slices[a]] for a in range(1, pr.d)
        )
        y = v + self.sigma * (pr.a_blocks[0] @ x0[self.slices[0]] - pr.b)
        return PpdlmpState(x=x0, y=y, v=v, k=0, rng=rng)

    def step(self, state: PpdlmpState, active_mask=None) -> PpdlmpState:
        pr = self.problem
        sigma = self.sigma
        if active_mask is None:
            active_mask = draw(self.sampling, state.rng)
        a = int(np.nonzero(active_mask[1:])[0][0]) + 1

        sl0 = self.slices[0]
        x0_old = state.x[sl0]
        g0 = pr.smooth[0].grad(x0_old) + pr.a_blocks[0].T @ state.y
        q0 = self.b_slices[0]  # pi_0 = 1, tau = 1
        x0_new = pr.prox[0].prox(q0, x0_old - g0 / q0)

        sla = self.slices[a]
        xa_old = state.x[sla]
        ga = pr.smooth[a].grad(xa_old) + pr.a_blocks[a].T @ state.y
        qa = self.b_slices[a] * self.p  # pi_a = 1/p, tau = 1
        xa_new = pr.prox[a].prox(qa, xa_old - ga / qa)
        bid = pr.a_blocks[a] @ (xa_new - xa_old)

        state.y = (
            state.y
            + sigma * (pr.a_blocks[0] @ (2.0 * x0_new - x0_old) - pr.b)
            + sigma * (self.p + 1) * bid
            + state.v
        )
        state.v = state.v + sigma * bid
        state.x[sl0] = x0_new
        state.x[sla] = xa_new
        state.k += 1
        return state


def ppdlmp_run(
    problem: ProblemSpec,
    x0: Array,
    k_max: int,
    *,
    sigma: float | None = None,
    policy=None,
    seed: int = 0,
    trace_every: int = 100,
    stop_kkt_tol: float | None = None,
    crosscheck: bool = False,
    reference=None,
) -> RunResult:
    """Drive the pair-activated coordination loop.

    With ``crosscheck=True`` a generic primal-dual engine with the same
    draws and the matching dual initialisation runs in lockstep, and a
    sup-distance between the primal iterates above 1e-9 at any step raises
    :class:`SolverDivergence`.  ``trace_every`` must be at least 1.
    """
    if trace_every < 1:
        raise ValueError(f"trace_every must be >= 1, got {trace_every}")
    eng = PpdlmpEngine(problem, sigma=sigma, policy=policy)
    rng = make_rng(seed)
    state = eng.init_state(x0, rng)
    if reference is None:
        reference = least_squares_reference(problem)

    twin = None
    if crosscheck:
        pda = PdaEngine(problem, eng.sampling, eng.policy)
        twin_state = pda.init_state(
            x0, make_rng(seed), y0=eng.sigma * (problem.a @ x0 - problem.b)
        )
        twin = (pda, twin_state)

    trace: list[TraceRecord] = []
    stopped_at = None
    for k in range(k_max):
        eng.step(state)
        if twin is not None:
            pda, twin_state = twin
            pda.step(twin_state)
            gap = float(np.max(np.abs(state.x - twin_state.x)))
            if not gap <= 1e-9:
                raise SolverDivergence(
                    f"pair-activated step {state.k} diverged from the generic "
                    f"engine: sup-distance {gap:.3e} > 1e-9",
                    last_record=trace[-1] if trace else None,
                )
        done = state.k
        if done % trace_every == 0 or done == k_max:
            rec = _ppdlmp_trace(problem, eng, state, reference)
            trace.append(rec)
            if stop_kkt_tol is not None and rec.kkt_res < stop_kkt_tol:
                stopped_at = done
                break
    return RunResult(state=state, trace=trace, reference=reference, stopped_at=stopped_at)


def _ppdlmp_trace(problem, eng, state, ref) -> TraceRecord:
    res = problem.a @ state.x - problem.b
    return TraceRecord(
        k=state.k,
        psi_x=problem.phi(state.x),
        psi_hat=math.nan,
        h_gap_x=ref.h_gap(problem, state.x),
        h_gap_w=math.nan,
        primal_res=float(np.linalg.norm(res)),
        kkt_res=kkt_residual(problem, state.x, state.y),
        tau=1.0,
        sigma=eng.sigma,
    )
