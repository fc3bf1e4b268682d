"""Call probes and an in-memory span recorder for the blockpd benchmark.

Everything here acts from outside the library: it replaces public module
attributes and class methods of ``blockpd`` for the duration of a ``with``
block and restores them afterwards.  Nothing under ``src/`` carries a probe.

Two levels:

* untraced (``Probe(tracer=None)``): ``draw`` is followed by a clock read,
  and by the calibration kernel of ``calibrate.py`` once 50 ms have passed
  since the last one, which cuts each solve into windows of about 50 ms;
  ``tau_next`` is counted (one integer add per call, which proves that every
  accelerated solve ran its own step recursion);
* traced: as untraced, and every layer boundary listed in
  ``Probe.install`` records a span (name, start, end, parent span, run id)
  into flat arrays that are written out when the run ends.  Calibrations
  are spans of their own and are taken out of every time they fall inside.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from array import array
from unittest import mock

import numpy as np

from calibrate import Kernel

SEPARATORS = ("solver.step", "solver.refresh", "solver.init", "dlmp.step", "dlmp.init")
CALIBRATION = "bench.calibrate"
# wall time between calibrations inside a solve
CAL_INTERVAL = 0.05
STEPS = ("solver.step", "dlmp.step")
RUNS = ("solver.run", "dlmp.run")


class Tracer:
    """Span store.  Spans nest strictly (one thread), so a stack gives the
    parent; the span table is five flat arrays to keep a 10^6-span round in
    tens of megabytes."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.run = array("l")
        self.run_id = 0
        self._stack = [-1]

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        nid = self._nid(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def table(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self.run, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, **self.table())


class Probe:
    """Installs the benchmark's wrappers around ``blockpd``'s public calls.

    ``rows`` gets one (clock before, clock after, kernel seconds) per
    calibration inside a solve; ``tau_calls`` counts ``tau_next`` calls.
    ``start_solve`` resets both.  With a tracer every other wrapper records
    spans.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.kernel = Kernel()
        self.rows: list[tuple[float, float, float]] = []
        self.tau_calls = 0
        self.active_blocks = 0
        self._last_cal = 0.0

    def start_solve(self) -> None:
        self.rows.clear()
        self.tau_calls = 0
        self._last_cal = time.perf_counter()

    def calibrate(self, repeats: int = 1) -> float:
        """Kernel seconds now (see ``calibrate.py``)."""
        with self.span(CALIBRATION):
            return self.kernel.seconds(repeats)

    # -- wrappers -----------------------------------------------------------

    def _calibrating(self, fn):
        # every engine draws once per step, so this runs at step boundaries
        def calibrating(*args, **kwargs):
            out = fn(*args, **kwargs)
            t = time.perf_counter()
            if t - self._last_cal >= CAL_INTERVAL:
                cal = self.calibrate()
                self._last_cal = time.perf_counter()
                self.rows.append((t, self._last_cal, cal))
            return out

        return calibrating

    def _counted_tau(self, fn):
        def counted(*args, **kwargs):
            self.tau_calls += 1
            return fn(*args, **kwargs)

        return counted

    def _counted_draw(self, fn):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            # a boolean mask today; an index array would count its length
            self.active_blocks += int(np.count_nonzero(out)) if out.dtype == bool else len(out)
            return out

        return counted

    def _span(self, name, fn):
        return self.tracer.wrap(name, fn) if self.tracer is not None else fn

    def span(self, name: str):
        """A span around benchmark code; nothing when untraced."""
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    # -- installation -----------------------------------------------------------

    @contextlib.contextmanager
    def install(self):
        import blockpd
        from blockpd import blocks, dlmp, oracles, proxops, sampling, solver, stepsize

        modules = (blocks, dlmp, oracles, proxops, sampling, solver, stepsize, blockpd)
        with contextlib.ExitStack() as stack:

            def everywhere(owner, attr, wrapper):
                # a function imported by name lives on in every importing module
                orig = getattr(owner, attr)
                new = wrapper(orig)
                for mod in modules:
                    if getattr(mod, attr, None) is orig:
                        stack.enter_context(mock.patch.object(mod, attr, new))

            def method(cls, attr, name):
                new = self._span(name, getattr(cls, attr))
                stack.enter_context(mock.patch.object(cls, attr, new))

            everywhere(stepsize, "tau_next", lambda f: self._span("stepsize.tau_next", self._counted_tau(f)))
            if self.tracer is None:
                everywhere(sampling, "draw", self._calibrating)
            else:
                everywhere(
                    sampling, "draw",
                    lambda f: self._calibrating(self._span("sampling.draw", self._counted_draw(f))),
                )
                everywhere(blocks, "kkt_residual", lambda f: self._span("blocks.kkt", f))
                everywhere(sampling, "xi_matrix", lambda f: self._span("stepsize.xi", f))
                everywhere(proxops, "dykstra_project", lambda f: self._span("proxops.dykstra", f))
                everywhere(proxops, "project_energy_budget", lambda f: self._span("proxops.energy_budget", f))
                for owner, attr, name in (
                    (stepsize, "convex_default_policy", "stepsize.certify"),
                    (stepsize, "make_accelerated_policy", "stepsize.certify"),
                    (oracles, "least_squares_reference", "oracles.reference"),
                    (oracles, "quadratic_reference", "oracles.reference"),
                    (dlmp, "ppdlmp_run", "dlmp.run"),
                    (solver, "run", "solver.run"),
                ):
                    everywhere(owner, attr, lambda f, n=name: self._span(n, f))
                # eigvalsh is numpy's; only calls under a stepsize span count
                stack.enter_context(
                    mock.patch.object(np.linalg, "eigvalsh", self._span("linalg.eigvalsh", np.linalg.eigvalsh))
                )
                method(proxops.AffineSubspace, "project", "proxops.affine")
                method(blocks.ProblemSpec, "psi_block", "blocks.psi_block")
                for cls in (solver.RbcdEngine, solver.PdaEngine):
                    method(cls, "step", "solver.step")
                    method(cls, "refresh", "solver.refresh")
                    method(cls, "init_state", "solver.init")
                method(dlmp.PpdlmpEngine, "step", "dlmp.step")
                method(dlmp.PpdlmpEngine, "init_state", "dlmp.init")
            yield self

    def problem(self, problem, dso_block: int | None = None):
        """Copy of ``problem`` whose per-block grad and prox record spans.
        Block ``dso_block`` (the grid operator) gets its own prox name."""
        if self.tracer is None:
            return problem

        def prox_name(i):
            if dso_block is None:
                return "blocks.prox"
            return "dlmp.dso_prox" if i == dso_block else "dlmp.agg_prox"

        smooth = tuple(
            dataclasses.replace(sb, grad=self.tracer.wrap("blocks.grad", sb.grad))
            for sb in problem.smooth
        )
        prox = tuple(
            dataclasses.replace(pb, prox=self.tracer.wrap(prox_name(i), pb.prox))
            for i, pb in enumerate(problem.prox)
        )
        traced = dataclasses.replace(problem, smooth=smooth, prox=prox)
        traced.a  # build the cached dense matrix outside the timed solve
        return traced


# ---------------------------------------------------------------------------
# span analysis
# ---------------------------------------------------------------------------

TAIL_QUANTILES = (99.9, 99.0, 90.0, 50.0)


def tail_quantile(n: int) -> float:
    """Highest listed percentile with at least ten samples beyond it."""
    for q in TAIL_QUANTILES:
        if n * (1.0 - q / 100.0) >= 10.0:
            return q
    return 50.0


def distribution(values) -> dict:
    """p50, the tail percentile the sample supports, and the sample count."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return {"p50": 0.0, "tail": 0.0, "tail_q": 50.0, "n": 0}
    q = tail_quantile(values.size)
    p50, tail = np.percentile(values, [50.0, q])
    return {"p50": float(p50), "tail": float(tail), "tail_q": q, "n": int(values.size)}


class SpanTable:
    """Derived views of a recorded span table: durations, self times and
    membership of each span in a subtree."""

    def __init__(self, t: dict):
        self.names = [str(x) for x in t["names"]]
        self.nid = t["name"]
        self.start = t["start"]
        self.end = t["end"]
        self.parent = t["parent"]
        self.dur = self.end - self.start
        n = self.dur.size
        rooted = self.parent >= 0
        child = np.bincount(self.parent[rooted], weights=self.dur[rooted], minlength=n)
        self.self_time = self.dur - child
        cal = (self.nid == self.names.index(CALIBRATION)) if CALIBRATION in self.names else np.zeros(n, bool)
        # durations net of the calibrations run directly inside a span
        self.net = self.dur - np.bincount(self.parent[cal], weights=self.dur[cal], minlength=n)
        # children are sequential inside their parent, so they cannot cover
        # more than it; a violation means the stack was corrupted
        self.consistent = bool(np.all(child <= self.dur + 1e-9))

    def mask(self, *names) -> np.ndarray:
        ids = [self.names.index(x) for x in names if x in self.names]
        return np.isin(self.nid, ids)

    def under(self, *names) -> np.ndarray:
        """Spans with an ancestor called one of ``names``."""
        top = self.mask(*names)
        rooted = self.parent >= 0
        par = np.where(rooted, self.parent, 0)
        inside = np.zeros_like(top)
        while True:
            nxt = rooted & (top[par] | inside[par])
            if np.array_equal(nxt, inside):
                return inside
            inside = nxt

    def outermost(self, name: str) -> np.ndarray:
        """Spans called ``name`` that are not inside another one."""
        return self.mask(name) & ~self.under(name)

    def trace_gaps(self) -> np.ndarray:
        """Per trace row, the loop time between the engine step (or cache
        refresh) before it and the step after it: the trace evaluation plus
        the loop's own bookkeeping at that row."""
        sep_ids = {self.names.index(x) for x in SEPARATORS if x in self.names}
        kkt = self.names.index("blocks.kkt") if "blocks.kkt" in self.names else -1
        gaps = []
        for r in np.nonzero(self.mask(*RUNS))[0]:
            last_end, pending = None, False
            for c in np.nonzero(self.parent == r)[0]:
                if self.nid[c] == kkt:
                    pending = True
                elif self.nid[c] in sep_ids:
                    if pending and last_end is not None:
                        gaps.append(self.start[c] - last_end)
                    last_end, pending = self.end[c], False
            if pending and last_end is not None:
                gaps.append(self.end[r] - last_end)
        return np.array(gaps)


def layer_metrics(t: dict, *, iters: int, rounds: int, halvings: int, model: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of one traced set-up (root span
    ``setup``) and ``rounds`` traced rounds (root spans ``round``) that ran
    ``iters`` iterations in total.

    Per-call timings cover calls made by the engine steps; counts are per
    round; shares are of the solve time (the engine run calls less the
    calibrations inside them).  Returns (metrics, distributions) where the
    second maps each timing metric to its p50 / tail / sample count.
    """
    s = SpanTable(t)
    if not s.consistent:
        raise RuntimeError("span table is inconsistent: children exceed their parent")
    in_setup = s.under("setup")
    in_round = s.under("round")
    in_step = s.under(*STEPS)
    solve_time = float(s.dur[s.mask(*RUNS)].sum() - s.dur[s.mask(CALIBRATION) & s.under(*RUNS)].sum())
    setup_time = float(s.dur[s.mask("setup")].sum())

    def count(*names):
        return int(np.count_nonzero(s.mask(*names) & in_round))

    gaps = s.trace_gaps()
    dists = {
        "dlmp.step_us": (s.net[s.mask("dlmp.step")], 1e6),
        "dlmp.dso_prox_us": (s.dur[s.mask("dlmp.dso_prox") & in_step], 1e6),
        "dlmp.agg_prox_us": (s.dur[s.mask("dlmp.agg_prox") & in_step], 1e6),
        "proxops.energy_budget_us": (s.dur[s.mask("proxops.energy_budget") & in_step], 1e6),
        "proxops.dykstra_us": (s.dur[s.mask("proxops.dykstra") & in_step], 1e6),
        "stepsize.tau_next_us": (s.dur[s.mask("stepsize.tau_next") & in_round], 1e6),
        "sampling.draw_us": (s.dur[s.mask("sampling.draw") & in_round], 1e6),
        "solver.step_self_us": (s.self_time[s.mask(*STEPS)], 1e6),
        "solver.trace_ms": (gaps, 1e3),
        "solver.refresh_ms": (s.dur[s.mask("solver.refresh") & in_round], 1e3),
        "blocks.kkt_ms": (s.dur[s.mask("blocks.kkt") & in_round], 1e3),
        "blocks.grad_us": (s.dur[s.mask("blocks.grad") & in_step], 1e6),
        "blocks.psi_block_us": (s.dur[s.mask("blocks.psi_block") & in_step], 1e6),
    }
    dists = {k: distribution(v * scale) for k, (v, scale) in dists.items()}
    certify = float(s.dur[s.outermost("stepsize.certify") & in_setup].sum())
    # quadratic_reference calls least_squares_reference
    reference = float(s.dur[s.outermost("oracles.reference") & in_setup].sum())
    proxops_self = float(s.self_time[in_round & np.isin(
        s.nid, [i for i, x in enumerate(s.names) if x.startswith("proxops.")])].sum())
    draws = count("sampling.draw")
    out = {
        "dlmp.build_s": float(s.dur[s.mask("dlmp.build")].sum()),
        "proxops.energy_budget_calls": count("proxops.energy_budget") / rounds,
        "proxops.dykstra_calls": count("proxops.dykstra") / rounds,
        "proxops.affine_solves_per_iter": int(np.count_nonzero(s.mask("proxops.affine") & in_step)) / iters,
        "proxops.share": proxops_self / solve_time,
        "stepsize.certify_s": certify,
        "stepsize.xi_s": float(s.dur[s.mask("stepsize.xi") & in_setup].sum()),
        "stepsize.eig_s": float(s.dur[s.mask("linalg.eigvalsh") & s.under("stepsize.certify")].sum()),
        "stepsize.halvings": halvings,
        "stepsize.tau_next_calls": count("stepsize.tau_next") / rounds,
        "stepsize.setup_share": certify / setup_time,
        "oracles.reference_s": reference,
        "oracles.setup_share": reference / setup_time,
        "sampling.active_blocks_per_iter": model["active_blocks"] / draws if draws else 0.0,
        "solver.flops_per_iter": model["flops_per_iter"],
        "solver.bytes_per_iter": model["bytes_per_iter"],
        "solver.trace_share": float(gaps.sum()) / solve_time,
    }
    for k, d in dists.items():
        out[k] = d["p50"]
        out[k + ".tail"] = d["tail"]
    return out, dists
