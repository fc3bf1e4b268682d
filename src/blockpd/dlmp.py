"""Distribution-grid pricing on a radial network.

A lossless linearized branch-flow model (LinDistFlow, Baran & Wu 1989) over
a tree rooted at the slack bus 0.  Per line n (identified with its
downstream bus) and period t the variables are the active/reactive flows
f, g measured positive from parent to child, and the squared voltage v at
the bus.  The slack injections (p0, q0) and all line/voltage quantities
belong to the system operator's block; each load aggregator controls
consumption pc, production pg and production reactive power qg at its
subset of buses.

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

Layout, bus-major and period-minor throughout, in the bus order of the
network, which also orders its per-bus data arrays: the coupling rows are
all active rows, then all reactive rows; the operator's vector is (p0, q0,
f, g, v); an aggregator's vector holds (pc, pg, qg) for each of its buses
in turn.  One set of index arrays, built once per network by ``_layout``,
places every coefficient, bound and price.

Every projection on the pricing path is exact.  An aggregator's set is its
energy budgets (a breakpoint search over all of the group's buses at once)
times a production box: 0 <= pg <= cap with qg = 0, since production is
fully active.  The operator set is the voltage-drop/root-balance subspace
intersected with the voltage/slack box and the flow balls; it is projected
onto by semismooth Newton on the dual of the subspace's rows, to a row
residual of 1e-12 with the box and balls held exactly.

Under coordinator-pair sampling the operator moves on every step, so
consecutive operator prox points are close.  A grid run's state therefore
carries a projection session (:class:`PpdlmpState`): each step-path
projection starts at the multiplier the previous one stopped at and takes
chord steps on the previous Newton factor while the binding set (clipped
box coordinates, binding flow balls) is unchanged, refactoring when the set
changes, after an Armijo halving, after a stale chord step or after a fixed
number of chord steps.  Only the engine's step lends the session to the
projector.  Trace rows, direct calls and other engines project cold from
the affine multiplier, so nothing they do reaches the warm start: the
iterates do not depend on ``trace_every``, and each run starts afresh.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

import numpy as np

from ._lapack import lapack
from .blocks import BlockStructure, ProblemSpec, ProxBlock, SmoothBlock
from .errors import InfeasibleInstance, ProjectionDidNotConverge
from .proxops import AffineSubspace, project_energy_budgets
from .sampling import paired_dso
# a private name keeps wrappers that patch ``run`` by name (as the
# benchmark's tracer does) from timing a grid solve twice
from .solver import PdaEngine, PdaState, RunResult
from .solver import run as _run_loop
from .stepsize import convex_default_policy

Array = np.ndarray

# bounds on each period's slack injections p0 and q0
SLACK_BOUNDS = (-10.0, 10.0)

# the bus table: each per-bus field of a NetworkModel, how a message names it,
# its CSV columns (one, or one per period for an (n, T) field) and their scale
BUS_TABLE = (
    ("s_cap", "line capacity S", ("S",), 1.0),
    ("r", "resistance R", ("R_e3",), 1e-3),
    ("x", "reactance X", ("X_e3",), 1e-3),
    ("b_shunt", "shunt susceptance B", ("B_e3",), 1e-3),
    ("p_lo", "consumption floor Pmin", ("Pmin_0", "Pmin_1"), 1.0),
    ("p_hi", "consumption cap Pmax", ("Pmax_0", "Pmax_1"), 1.0),
    ("energy", "energy demand E", ("E",), 1.0),
    ("tau_c", "reactive ratio tau_c", ("tau_c",), 1.0),
)
BUS_COLUMNS = ("n", *(col for _, _, cols, _ in BUS_TABLE for col in cols))


@dataclass(frozen=True)
class NetworkModel:
    """Radial network data over T periods, per-bus arrays in the order of
    ``buses``: ``parent`` (bus numbers, 0 for the slack bus), ``r``, ``x``,
    ``s_cap``, ``b_shunt``, ``energy`` and ``tau_c`` of shape (n,); ``p_lo``,
    ``p_hi`` and the production caps ``renewable`` (zero where a bus
    produces nothing) of shape (n, T), T being the columns of ``p_lo``.
    Each array is copied once, read-only, so a later write by the caller
    cannot reach a checked model.  Each must have its shape, every value be
    finite, every line capacity and production cap non-negative, no bus
    numbered 0 (the slack bus), every parent a bus or 0, the edges a tree,
    every aggregator group non-empty and the voltage scalars finite with
    v_lo <= v0 <= v_hi, since every bus starts at v0 (``ValueError`` naming
    the bus, field or group)."""

    buses: tuple[int, ...]
    parent: Array
    r: Array
    x: Array
    s_cap: Array
    b_shunt: Array
    p_lo: Array
    p_hi: Array
    energy: Array
    tau_c: Array
    renewable: Array
    v_lo: float
    v_hi: float
    v0: float
    aggregators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.buses:
            raise ValueError("the bus table has no buses")
        if 0 in self.buses:
            raise ValueError("bus 0 is the slack bus, not a bus of the table")
        labels = {"parent": "parent", **{name: label for name, label, _, _ in BUS_TABLE},
                  "renewable": "renewable caps"}
        series = {name for name, _, cols, _ in BUS_TABLE if len(cols) > 1} | {"renewable"}
        for name in labels:
            values = np.array(getattr(self, name), dtype=int if name == "parent" else float)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if self.p_lo.ndim != 2:
            raise ValueError(f"{labels['p_lo']} has shape {self.p_lo.shape}, expected (n, T)")
        n_b = self.n_buses
        for name, label in labels.items():
            shape = (n_b, self.horizon) if name in series else (n_b,)
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{label} has shape {got}, expected {shape}")

        def reject(name, bad, what):
            """Name the first bus whose row of ``name`` has a ``bad`` entry."""
            if bad.any():
                i = int(np.argmax(bad.reshape(n_b, -1).any(axis=1)))
                values = getattr(self, name)[i].tolist()
                raise ValueError(f"bus {self.buses[i]}: {labels[name]} {values} {what}")

        for name in labels:
            reject(name, ~np.isfinite(getattr(self, name)), "is not finite")
        for name in ("s_cap", "renewable"):
            reject(name, getattr(self, name) < 0.0, "is negative")
        volts = [("v_lo", self.v_lo), ("v0", self.v0), ("v_hi", self.v_hi)]
        for name, value in volts:
            if not math.isfinite(value):
                raise ValueError(f"{name} {value} is not finite")
        for (low, lo), (high, hi) in zip(volts, volts[1:]):
            if lo > hi:
                raise ValueError(f"{low} {lo} exceeds {high} {hi}")
        known = np.isin(self.parent, (0, *self.buses))
        reject("parent", ~known, "is neither a bus nor the slack bus 0")
        up = dict(zip(self.buses, self.parent.tolist()))
        for node in self.buses:
            seen = {node}
            while node != 0:
                node = up[node]
                if node in seen:
                    raise ValueError("edge list contains a cycle")
                seen.add(node)
        for i, t in np.argwhere(self.p_lo > self.p_hi)[:1]:
            raise InfeasibleInstance(
                f"bus {self.buses[i]}, period {t}: consumption floor {self.p_lo[i, t]} "
                f"exceeds cap {self.p_hi[i, t]}"
            )
        total = self.p_hi.sum(axis=1)
        for i in np.flatnonzero(total < self.energy - 1e-12)[:1]:
            raise InfeasibleInstance(
                f"bus {self.buses[i]}: energy demand {self.energy[i]} exceeds "
                f"total consumption capacity {total[i]}"
            )
        for j, group in enumerate(self.aggregators):
            if not group:
                raise ValueError(f"aggregator group {j} is empty")
        covered = sorted(n for group in self.aggregators for n in group)
        if covered != sorted(self.buses):
            raise ValueError("aggregator groups must partition the buses")

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    @property
    def horizon(self) -> int:
        return self.p_lo.shape[1]


def default_aggregators(buses, parent) -> tuple[tuple[int, ...], ...]:
    """Partition the buses into feeder branches: one group per child of the
    root, split once more at the first fork.  ``parent`` holds each bus's
    parent bus number in the order of ``buses``.  The 15-bus study yields
    the three groups (1..6), (7..11) and (12..14).  A bus whose parent is
    not a bus is left out of every group; :class:`NetworkModel` names it."""
    children = {n: [] for n in [0, *buses]}
    for n, up in zip(buses, parent):
        children.setdefault(up, []).append(n)

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
    # the package's own name, so a copy imported under another name (a
    # second checkout timed beside this one) reads its own data
    base = resources.files(__package__) / "data"
    return str(base / "bus15.csv"), str(base / "edges15.csv")


def _bus_value(rec: dict, column: str) -> float:
    try:
        return float(rec[column])
    except (TypeError, ValueError):
        raise ValueError(f"bus {rec['n']}: {column} {rec[column]!r} is not a number") from None


def _int_cell(path: str, reader: csv.DictReader, rec: dict, column: str) -> int:
    """The integer in ``column`` of the row ``reader`` just read from
    ``path``, or a ``ValueError`` naming the file, line and column."""
    try:
        return int(rec[column])
    except (TypeError, ValueError):
        raise ValueError(
            f"{path}, line {reader.line_num}: {column} {rec[column]!r} is not an integer"
        ) from None


def load_network(bus_path: str, edges_path: str) -> NetworkModel:
    """Read the bus table and edge list of a two-period study.

    The bus CSV must carry the columns ``BUS_COLUMNS`` (``n, S, R_e3, X_e3,
    B_e3, Pmin_0, Pmin_1, Pmax_0, Pmax_1, E, tau_c``), one row per bus, taken
    in ascending bus order; ``BUS_TABLE`` says which columns fill which
    field, at which scale.  The edge CSV has ``parent, child`` rows
    describing the tree, rooted at the slack bus 0, each bus the child of
    exactly one edge.  Voltages are bounded to [0.81, 1.21] around v0 = 1,
    the aggregators are :func:`default_aggregators`, and bus 11, if the
    table has it, produces up to (0.438, 0.201), fully active, as in the
    bundled study.  Malformed data (a row for the slack bus, a bus value
    that is not a number or not finite, buses with no parent edge, a
    negative line capacity ``S``) raises ``ValueError`` naming the buses,
    and a bus number or edge end that is not an integer one naming the
    file, line and column; a consumption floor above its cap or an energy
    demand above the caps raises :class:`InfeasibleInstance`.
    """
    rows = {}
    with open(bus_path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in BUS_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"bus table is missing columns: {missing}")
        for rec in reader:
            n = _int_cell(bus_path, reader, rec, "n")
            if n == 0:
                raise ValueError("the bus table has a row for the slack bus 0")
            if n in rows:
                raise ValueError(f"bus {n} has two rows in the bus table")
            rows[n] = rec
    parent = {}
    with open(edges_path, newline="") as fh:
        reader = csv.DictReader(fh)
        if not reader.fieldnames or set(reader.fieldnames) < {"parent", "child"}:
            raise ValueError("edge list needs 'parent' and 'child' columns")
        for rec in reader:
            par, child = (_int_cell(edges_path, reader, rec, c) for c in ("parent", "child"))
            if child not in rows:
                raise ValueError(f"edge {par},{child}: child {child} is not in the bus table")
            if child in parent:
                raise ValueError(f"edge {par},{child}: bus {child} has two parent edges")
            parent[child] = par

    buses = tuple(sorted(rows))
    orphans = [f"bus {n} has no parent edge" for n in buses if n not in parent]
    if orphans:
        raise ValueError("; ".join(orphans))
    parents = [parent[n] for n in buses]
    fields = {}
    for name, _, cols, scale in BUS_TABLE:
        table = [[_bus_value(rows[n], c) for c in cols] for n in buses]
        table = scale * np.array(table).reshape(-1, len(cols))
        fields[name] = table if len(cols) > 1 else table[:, 0]
    renewable = np.where(np.array(buses)[:, None] == 11, (0.438, 0.201), 0.0)
    return NetworkModel(
        buses=buses,
        parent=parents,
        renewable=renewable,
        v_lo=0.81,
        v_hi=1.21,
        v0=1.0,
        aggregators=default_aggregators(buses, parents),
        **fields,
    )


# ---------------------------------------------------------------------------
# index layout
# ---------------------------------------------------------------------------


class _Layout(NamedTuple):
    """Where each (bus, period) quantity sits.  Every array of indices is
    (n_bus, T), rows in bus order; see the module docstring for the order."""

    p: Array  # active coupling rows
    q: Array  # reactive coupling rows
    f: Array  # operator columns, after the T p0 and T q0 columns
    g: Array
    v: Array
    up: Array  # each bus's parent as a bus position, -1 for the slack bus
    # per aggregator: its buses' positions and its (n_group, 3, T) array of
    # (pc, pg, qg) columns
    groups: tuple[tuple[Array, Array], ...]


def _layout(net: NetworkModel) -> _Layout:
    t_h, n_b = net.horizon, net.n_buses
    pos = {n: i for i, n in enumerate(net.buses)}
    grid = np.arange(n_b * t_h).reshape(n_b, t_h)
    return _Layout(
        p=grid,
        q=n_b * t_h + grid,
        f=2 * t_h + grid,
        g=(2 + n_b) * t_h + grid,
        v=(2 + 2 * n_b) * t_h + grid,
        up=np.array([pos.get(n, -1) for n in net.parent.tolist()]),
        groups=tuple(
            (
                np.array([pos[n] for n in group]),
                np.arange(3 * len(group) * t_h).reshape(len(group), 3, t_h),
            )
            for group in net.aggregators
        ),
    )


# ---------------------------------------------------------------------------
# feasible-set projectors
# ---------------------------------------------------------------------------


def _dso_feasible_set(net: NetworkModel, lay: _Layout):
    """The operator's affine rows, its box ``lo``, ``hi`` and its flow balls:
    the slices ``f``, ``g`` of its vector and the ``radii``.  The rows are
    the root balances (active, then reactive) period by period, then one
    voltage drop per (bus, period)."""
    t_h = net.horizon
    dim = 2 * t_h + 3 * lay.p.size
    periods = np.arange(t_h)
    root_p, root_q = 2 * periods, 2 * periods + 1
    drop = 2 * t_h + lay.p
    inner = lay.up >= 0  # buses below another bus
    c = np.zeros((2 * t_h + lay.p.size, dim))
    e = np.zeros(c.shape[0])
    c[root_p, lay.f[~inner]] = 1.0
    c[root_q, lay.g[~inner]] = 1.0
    c[root_p, periods] = -1.0
    c[root_q, t_h + periods] = -1.0
    c[drop, lay.v] = 1.0
    c[drop, lay.f] = 2.0 * net.r[:, None]
    c[drop, lay.g] = 2.0 * net.x[:, None]
    c[drop[inner], lay.v[lay.up[inner]]] = -1.0
    e[drop[~inner]] = net.v0
    affine = AffineSubspace(c, e)

    lo = np.full(dim, -np.inf)
    hi = np.full(dim, np.inf)
    lo[: 2 * t_h], hi[: 2 * t_h] = SLACK_BOUNDS
    lo[lay.v], hi[lay.v] = net.v_lo, net.v_hi

    f = slice(int(lay.f[0, 0]), int(lay.f[-1, -1]) + 1)
    g = slice(int(lay.g[0, 0]), int(lay.g[-1, -1]) + 1)
    radii = np.repeat(net.s_cap, t_h)
    return affine, lo, hi, f, g, radii


NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100
ARMIJO_MAX_HALVINGS = 60
# chord steps on one Newton factor before a fresh one is formed
CHORD_MAX = 6
# a chord step that cuts the row residual by less than this factor is
# followed by a step on a fresh factor
CHORD_CONTRACTION = 3e-5


class ProjectionSession:
    """Warm-start state of one run's step-path operator projections.

    It holds the multiplier the last projection stopped at, the last
    Cholesky factor of the Newton matrix with the binding set it was formed
    on (the clipped box coordinates and the binding flow balls) and the
    number of chord steps taken on that factor, plus plain counts of the
    projections, Newton steps (chord steps included) and factorisations.
    """

    def __init__(self):
        self.lam = None
        self.factor = None
        self.binding = None
        self.chords = 0
        self.calls = 0
        self.newton_steps = 0
        self.factorisations = 0

    def totals(self) -> dict:
        return {
            "calls": self.calls,
            "newton_steps": self.newton_steps,
            "factorisations": self.factorisations,
        }


class _OperatorProjector:
    """Exact Euclidean projection onto {C x = e} ∩ K, K = box × flow balls.

    Semismooth Newton on the dual of the affine rows (Qi & Sun, SIAM J.
    Matrix Anal. Appl. 2006).  For a multiplier lam the inner minimiser is
    x(lam) = Pi_K(w), w = v - C^T lam, and the (negated) dual objective

        D(lam) = <w, x(lam)> - 0.5 ||x(lam)||^2 + <lam, e>

    is convex and differentiable with gradient e - C x(lam).  Each step
    solves H d = C x - e with H = C J C^T + eps I, J from the generalised
    Jacobian of Pi_K (0/1 on box coordinates, (r/|w|)(I - u u^T) on a
    binding flow ball, u = w/|w|) and eps = 0.1 min(1e-2, |C x - e|_inf),
    then backtracks on D (Armijo, with a 1e-13 |D| allowance for roundoff
    in D itself).  It stops when |C x - e|_inf <= NEWTON_TOL; x lies in K by
    construction.  A non-finite first row residual (non-finite input, e.g. a
    NaN price) raises at once.

    With no ``session`` (the default) a projection starts at the multiplier
    of the plain affine projection and forms and factors H at every step.
    While a :class:`ProjectionSession` is lent to ``session``, a projection
    starts at the multiplier the previous one stopped at and takes chord
    steps: it solves with the session's stored factor of H as long as the
    binding set is the one that factor was formed on.  It forms and factors
    a fresh H when the binding set changes, after a step whose line search
    halved, after CHORD_MAX chord steps on one factor, and after a chord
    step that cut the row residual by less than CHORD_CONTRACTION (the
    factor has gone stale; a step on a fresh factor cuts it by about 1e-5
    along the 15-bus path).  A chord direction is a descent direction of D
    too (the stored H is positive definite), so the Armijo safeguard, the
    stopping test and the failure modes are those of the cold path.  The
    result depends on where the session's multiplier and factor came from,
    so only a run's step path lends one (see the module docstring); every
    other caller gets the cold path.
    """

    def __init__(
        self, affine: AffineSubspace, lo: Array, hi: Array, f: slice, g: slice, radii: Array
    ):
        self.affine = affine
        self.c, self.e, self.gram = affine.c_matrix, affine.e, affine.gram
        self.eye = np.eye(self.c.shape[0])
        self.lo, self.hi = lo, hi
        self.f, self.g, self.radii = f, g, radii
        self.c_f, self.c_g = self.c[:, f], self.c[:, g]
        self.session: ProjectionSession | None = None

    def member(self, v: Array) -> bool:
        """Each part of the set is within 1e-6 of v: the subspace and the box
        in Euclidean distance, the balls by their largest excess radius."""
        v = np.asarray(v, dtype=float)
        off_rows = self.affine.project(v) - v
        off_box = np.maximum(np.maximum(self.lo - v, v - self.hi), 0.0)
        excess = np.hypot(v[self.f], v[self.g]) - self.radii
        return bool(
            math.sqrt(off_rows.dot(off_rows)) <= 1e-6
            and math.sqrt(off_box.dot(off_box)) <= 1e-6
            and excess.max() <= 1e-6
        )

    def _scales(self, v: Array) -> tuple[Array, Array]:
        """The flow magnitudes of v and the factors that pull them into the
        balls (1 inside a ball)."""
        nrm = np.hypot(v[self.f], v[self.g])
        return nrm, np.minimum(1.0, self.radii / np.maximum(nrm, 1e-300))

    def _inner(self, v: Array, lam: Array):
        """x = Pi_K(v - C^T lam), the dual objective there and the pieces the
        Newton matrix needs: w, the flow magnitudes of w, the ball scales."""
        w = v - lam.dot(self.c)
        x = np.minimum(np.maximum(w, self.lo), self.hi)  # f and g are unbounded
        nrm, scale = self._scales(w)
        x[self.f] *= scale
        x[self.g] *= scale
        dual = float(x.dot(w - 0.5 * x) + lam.dot(self.e))
        return x, w, nrm, scale, dual

    def _newton_matrix(
        self, w: Array, nrm: Array, scale: Array, clipped: Array, bind: Array, eps: float
    ) -> Array:
        """C J C^T + eps I = C C^T + eps I - C (I - J) C^T.  I - J is 1 on the
        clipped box coordinates and u u^T + (1 - a) u' u'^T on a ball with
        scale a < 1, u' being u turned by a right angle."""
        a = scale[bind]
        u_f = w[self.f][bind] / nrm[bind]
        u_g = w[self.g][bind] / nrm[bind]
        c_f, c_g = self.c_f[:, bind], self.c_g[:, bind]
        cols = np.concatenate(
            [self.c[:, clipped], c_f * u_f + c_g * u_g, c_g * u_f - c_f * u_g],
            axis=1,
        )
        weights = np.ones(cols.shape[1])
        weights[cols.shape[1] - a.size :] -= a
        return (self.gram + eps * self.eye) - (cols * weights).dot(cols.T)

    def _direction(self, res, w, nrm, scale, gap, fresh: bool) -> tuple[Array, bool]:
        """Solve H d = res with the session's factor (a chord step) when the
        rules above allow it, else with a freshly formed and factored H.
        Also says whether the step was a chord step."""
        session = self.session
        clipped = (w <= self.lo) | (w >= self.hi)
        bind = scale < 1.0
        binding = clipped.tobytes() + bind.tobytes()
        if (
            session is not None
            and not fresh
            and binding == session.binding
            and session.chords < CHORD_MAX
        ):
            session.chords += 1
            return lapack.dpotrs(session.factor, res)[0], True
        h = self._newton_matrix(w, nrm, scale, clipped, bind, 0.1 * min(1e-2, gap))
        factor, info = lapack.dpotrf(h)
        if info != 0:
            raise ProjectionDidNotConverge(
                f"operator projection: Newton matrix not positive definite "
                f"(LAPACK info {info})"
            )
        if session is not None:
            session.factor, session.binding, session.chords = factor, binding, 0
            session.factorisations += 1
        return lapack.dpotrs(factor, res)[0], False

    def project(self, v: Array) -> Array:
        v = np.asarray(v, dtype=float)
        session = self.session
        if session is not None and session.lam is not None:
            lam = session.lam
        else:
            lam = self.affine.multiplier(v)
        x, w, nrm, scale, dual = self._inner(v, lam)
        newton_steps = 0
        gap_before, chord, halved = math.inf, False, False
        while True:
            res = self.c.dot(x) - self.e
            gap = abs(res).max()
            if gap <= NEWTON_TOL:
                if session is not None:
                    session.lam = lam
                    session.calls += 1
                    session.newton_steps += newton_steps
                return x
            if newton_steps == 0 and not math.isfinite(gap):
                raise ProjectionDidNotConverge(
                    f"operator projection: non-finite input (row residual {gap})"
                )
            if newton_steps == NEWTON_MAX_ITER:
                raise ProjectionDidNotConverge(
                    f"operator projection: row residual {gap:.3e} after "
                    f"{newton_steps} Newton steps (tol {NEWTON_TOL:g})"
                )
            newton_steps += 1
            fresh = halved or (chord and gap > CHORD_CONTRACTION * gap_before)
            step, chord = self._direction(res, w, nrm, scale, gap, fresh)
            descent = 1e-4 * res.dot(step)
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
            gap_before, halved = gap, t < 1.0
            lam = lam_t
            x, w, nrm, scale, dual = trial


def _make_dso_prox(net: NetworkModel, lay: _Layout):
    projector = _OperatorProjector(*_dso_feasible_set(net, lay))

    def value(v):
        return 0.0 if projector.member(v) else math.inf

    return ProxBlock(value, lambda g, v: projector.project(v), 0.0), projector


def _make_agg_prox(net: NetworkModel, at: Array, cols: Array):
    """Prox of an aggregator's feasible set, the buses at positions ``at``:
    every consumption row onto its energy budget in one batched call, every
    other coordinate clipped to its bounds (production to [0, cap], its
    reactive power to 0)."""
    pc = cols[:, 0]
    p_lo, p_hi, energy = net.p_lo[at], net.p_hi[at], net.energy[at]
    lo, hi = np.zeros(cols.size), np.zeros(cols.size)
    lo[pc], hi[pc] = p_lo, p_hi
    hi[cols[:, 1]] = net.renewable[at]

    def project(v):
        v = np.asarray(v, dtype=float)
        out = np.minimum(np.maximum(v, lo), hi)
        out[pc] = project_energy_budgets(p_lo, p_hi, energy, v[pc])
        return out

    def member(v):
        """Every bound and budget holds to 1e-8."""
        tol = 1e-8
        v = np.asarray(v, dtype=float)
        return bool(
            np.maximum(lo - v, v - hi).max() <= tol
            and (energy - v[pc].sum(axis=1)).max() <= tol
        )

    def value(v):
        return 0.0 if member(v) else math.inf

    return ProxBlock(value, lambda g, v: project(v), 0.0)


# ---------------------------------------------------------------------------
# problem assembly
# ---------------------------------------------------------------------------


def build_opf_problem(net: NetworkModel, *, drop_shunt: bool = False) -> ProblemSpec:
    """Assemble the pricing problem as a block problem.

    Block 0 is the operator, blocks 1..p the aggregators in the order of
    ``net.aggregators``.  The coupling rows are the flow-conservation
    equations with ``b = 0``; ``drop_shunt`` leaves the shunt term B v out
    of the reactive rows.  The operator pays the quadratic 2 p0 + p0^2 for
    its active slack injection p0 in the first period and the linear p0 in
    later ones; the aggregators' objectives vanish.
    """
    t_h = net.horizon
    lay = _layout(net)
    q = 2 * lay.p.size
    dim0 = 2 * t_h + 3 * lay.p.size

    inner = lay.up >= 0  # buses below another bus
    a0 = np.zeros((q, dim0))
    a0[lay.p, lay.f] = -1.0
    a0[lay.q, lay.g] = -1.0
    a0[lay.p[lay.up[inner]], lay.f[inner]] = 1.0
    a0[lay.q[lay.up[inner]], lay.g[inner]] = 1.0
    if not drop_shunt:
        a0[lay.q, lay.v] = -net.b_shunt[:, None]

    a_blocks = [a0]
    for at, cols in lay.groups:
        pc, pg, qg = cols.transpose(1, 0, 2)
        a_a = np.zeros((q, cols.size))
        a_a[lay.p[at], pc] = 1.0
        a_a[lay.p[at], pg] = -1.0
        a_a[lay.q[at], pc] = net.tau_c[at][:, None]
        a_a[lay.q[at], qg] = -1.0
        a_blocks.append(a_a)

    # the slack costs act on p0, the operator's first T columns
    h0 = np.zeros((dim0, dim0))
    h0[0, 0] = 2.0
    c0 = np.zeros(dim0)
    c0[0] = 2.0
    c0[1:t_h] = 1.0

    dso_prox, dso_projector = _make_dso_prox(net, lay)
    smooth = [SmoothBlock.quadratic(h0, c0)]
    prox = [dso_prox]
    for at, cols in lay.groups:
        smooth.append(SmoothBlock.zero(cols.size))
        prox.append(_make_agg_prox(net, at, cols))

    return ProblemSpec(
        blocks=BlockStructure(tuple(a.shape[1] for a in a_blocks)),
        smooth=tuple(smooth),
        prox=tuple(prox),
        a=np.hstack(a_blocks),
        b=np.zeros(q),
        meta={
            "net": net,
            "layout": lay,
            "dso_projector": dso_projector,
        },
    )


def opf_initial_point(problem: ProblemSpec) -> Array:
    """Feasible start: flat voltages, zero flows, projected aggregator plans."""
    net: NetworkModel = problem.meta["net"]
    x0 = np.zeros(problem.m)
    x0[problem.meta["layout"].v] = net.v0  # the operator's block comes first
    for a in range(1, problem.d):
        sl = problem.blocks.block_slice(a)
        x0[sl] = problem.prox[a].prox(np.ones(sl.stop - sl.start), x0[sl])
    return x0


def extract_dlmp(y: Array, problem: ProblemSpec):
    """Map the dual vector back to per-bus, per-period price pairs.

    Returns a list of (bus, period, y_p, y_q) tuples in bus order, period
    by period; each coupling row appears in exactly one of them.
    """
    net: NetworkModel = problem.meta["net"]
    lay: _Layout = problem.meta["layout"]
    y = np.asarray(y, dtype=float)
    y_p, y_q = y[lay.p].tolist(), y[lay.q].tolist()
    return [
        (n, t, y_p[i][t], y_q[i][t])
        for i, n in enumerate(net.buses)
        for t in range(net.horizon)
    ]


# ---------------------------------------------------------------------------
# coordinator/agent iteration (primal-dual engine under pair sampling)
# ---------------------------------------------------------------------------


@dataclass
class PpdlmpState(PdaState):
    """A grid run's iterate and the warm-start session of its step-path
    operator projections."""

    session: ProjectionSession


class PpdlmpEngine(PdaEngine):
    """Pair-activated price coordination: the primal-dual engine with the
    coordinator-pair sampling fixed, so every step moves the operator and
    one uniformly drawn aggregator; its dual variables are the DLMPs.  Its
    step lends the state's session to the operator projector."""

    def __init__(self, problem: ProblemSpec, policy=None):
        sampling = paired_dso(problem.d - 1)
        if policy is None:
            policy = convex_default_policy(problem, sampling)
        super().__init__(problem, sampling, policy)
        self.projector: _OperatorProjector = problem.meta["dso_projector"]

    def init_state(self, x0: Array, rng: np.random.Generator) -> PpdlmpState:
        """Prices start at sigma (A x0 - b), with a fresh session."""
        base = super().init_state(x0, rng)
        base.y *= base.sigma
        return PpdlmpState(**vars(base), session=ProjectionSession())

    def step(self, state: PpdlmpState) -> PpdlmpState:
        self.projector.session = state.session
        try:
            return super().step(state)
        finally:
            self.projector.session = None


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
    ``trace_every`` must be at least 1.  The result's state is a
    :class:`PpdlmpState`: ``state.session.totals()`` counts the run's
    operator projections."""
    eng = PpdlmpEngine(problem, policy=policy)
    return _run_loop(
        problem, eng.sampling, eng.policy, x0, k_max, engine=eng, seed=seed,
        trace_every=trace_every, stop_kkt_tol=stop_kkt_tol, reference=reference,
    )
