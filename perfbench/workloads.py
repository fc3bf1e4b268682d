"""The benchmark's workloads.

Each workload splits into three phases:

* ``generate(seed, smoke)`` builds the inputs from the seed; never timed;
* ``setup(inputs, probe)`` is everything a user pays before iteration 1
  (network load and problem assembly, policy certification, the reference
  solve); timed as ``setup_s``;
* ``solves(inputs, prepared, probe)`` runs one round of back-to-back solves,
  each with a freshly built policy object, timed as ``solve_s``.

``check`` turns a round's results into named pass/fail checks, each tied to
the solves it judges.  The library is reached only through its public
module attributes (``bp.run``, ``dlmp.ppdlmp_run``, ...), which is where the
probes in ``tracer.py`` attach.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import numpy as np

import blockpd as bp
from blockpd import dlmp
from blockpd.cli import fit_rate
from calibrate import DenseKernel, Kernel

HERE = Path(__file__).resolve().parent
PRICE_TABLE = HERE / "data" / "opf15_prices.json"


@dataclasses.dataclass
class Solve:
    label: str
    policy: object
    result: object
    iters: int
    # (wall seconds, kernel seconds measured right after) per window between
    # calibrations; the calibrations themselves are not in the wall times
    windows: list
    tau_calls: int
    accelerated: bool

    @property
    def wall(self) -> float:
        return sum(w for w, _ in self.windows)

    @property
    def seconds(self) -> float:
        """Wall time rescaled window by window to the reference host."""
        return sum(w * Kernel.reference / c for w, c in self.windows)


@dataclasses.dataclass
class Check:
    name: str
    ok: bool
    detail: str
    solves: tuple[str, ...]


def timed_solve(probe, label: str, policy, call) -> Solve:
    probe.start_solve()
    t0 = time.perf_counter()
    res = call()
    t1 = time.perf_counter()
    windows, start = [], t0
    for t, t_after, cal in probe.rows:
        if cal:
            windows.append((t - start, cal))
            start = t_after
    windows.append((t1 - start, probe.calibrate()))
    return Solve(
        label=label,
        policy=policy,
        result=res,
        iters=res.trace[-1].k,
        windows=windows,
        tau_calls=probe.tau_calls,
        accelerated=isinstance(policy, bp.AcceleratedPolicy),
    )


def fresh(policy):
    """A new policy object with the same certified parameters.  The
    accelerated policy memoises its tau sequence, so a reused object would
    hide the step recursion from every solve after the first."""
    return dataclasses.replace(policy)


def common_checks(solves) -> list[Check]:
    """Every accelerated solve computed its own step sequence."""
    return [
        Check(
            f"{s.label}.tau_next_calls",
            s.tau_calls == s.iters,
            f"tau_next calls {s.tau_calls} == iters {s.iters}",
            (s.label,),
        )
        for s in solves
        if s.accelerated
    ]


# ---------------------------------------------------------------------------
# computed per-iteration work of the engines' dense linear algebra
# ---------------------------------------------------------------------------


def _matvec(q: int, n: float) -> tuple[float, float]:
    """q-by-n block times a vector: 2qn flops, the block and both vectors
    read or written once (8-byte floats)."""
    return 2.0 * q * n, 8.0 * (q * n + q + n)


def _axpy(length: float) -> tuple[float, float]:
    """y = a x + y over ``length`` entries: 2 flops, 3 words per entry."""
    return 2.0 * length, 24.0 * length


def _total(*terms) -> tuple[float, float]:
    return sum(t[0] for t in terms), sum(t[1] for t in terms)


def engine_work(engine: str, m: int, q: int, active: float, n: float) -> tuple[float, float]:
    """(flops, bytes) of one step of ``engine`` with ``active`` blocks of
    ``n`` columns on average: the A_i products and the dense vector updates
    the step performs, nothing of the block oracles."""
    mv = _matvec(q, n)
    if engine == "rbcd":
        # z, Az, the residual and the A w copy; per block A_i'res, A_i delta,
        # the two q-vector updates and the delta / w slice updates
        per_block = _total(mv, mv, _axpy(q), _axpy(q), _axpy(n), _axpy(n))
        fixed = _total(_axpy(m), _axpy(m), _axpy(q), _axpy(q), _axpy(q), _axpy(q))
    elif engine == "pda":
        per_block = _total(mv, mv, _axpy(q), _axpy(q), _axpy(n))
        fixed = _total(_axpy(q), _axpy(q))
    else:
        raise ValueError(engine)
    return fixed[0] + active * per_block[0], fixed[1] + active * per_block[1]


def ppdlmp_work(q: int, n0: int, n_agg: float) -> tuple[float, float]:
    """One pair-activated step: operator and aggregator each take A'y and an
    A product, then the price and aggregate-bid updates."""
    return _total(
        _matvec(q, n0), _matvec(q, n0), _matvec(q, n_agg), _matvec(q, n_agg),
        _axpy(n0), _axpy(n0), _axpy(n0), _axpy(n_agg), _axpy(n_agg),
        _axpy(q), _axpy(q), _axpy(q), _axpy(q), _axpy(q),
    )


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Opf15:
    """The bundled 15-bus, T=2 pricing study run to saddle residual 1e-4.
    The seed drives the coordinator-pair draws; the instance is fixed, so
    one stored price table judges every seed."""

    name = "opf15"
    trace_every = 100
    setup_kernel = Kernel

    def generate(self, seed: int, smoke: bool) -> dict:
        table = json.loads(PRICE_TABLE.read_text())
        return {
            "seed": seed,
            "tol": 1e-3 if smoke else 1e-4,
            "price_tol": table["tolerance"]["smoke" if smoke else "full"],
            "prices": table["prices"],
            "k_max": 30_000,
        }

    def setup(self, inp: dict, probe) -> dict:
        with probe.span("dlmp.build"):
            net = dlmp.load_network(*dlmp.default_network_paths())
            problem = dlmp.build_opf_problem(net)
            x0 = dlmp.opf_initial_point(problem)
        policy = bp.convex_default_policy(problem, bp.paired_dso(problem.d - 1))
        ref = bp.least_squares_reference(problem)
        return {"problem": problem, "x0": x0, "policy": policy, "ref": ref}

    def solves(self, inp: dict, prep: dict, probe):
        problem = probe.problem(prep["problem"], dso_block=0)
        policy = fresh(prep["policy"])
        yield timed_solve(
            probe, "ppdlmp", policy,
            lambda: dlmp.ppdlmp_run(
                problem, prep["x0"], inp["k_max"], policy=policy, seed=inp["seed"],
                trace_every=self.trace_every, stop_kkt_tol=inp["tol"], reference=prep["ref"],
            ),
        )

    def check(self, inp: dict, prep: dict, solves) -> list[Check]:
        (s,) = solves
        got = {(n, t): (yp, yq) for n, t, yp, yq in dlmp.extract_dlmp(s.result.state.y, prep["problem"])}
        want = {(n, t): (yp, yq) for n, t, yp, yq in inp["prices"]}
        err = max(
            max(abs(got[key][0] - yp), abs(got[key][1] - yq)) if key in got else np.inf
            for key, (yp, yq) in want.items()
        )
        return [
            Check("ppdlmp.converged", s.result.stopped_at is not None,
                  f"stopped at k={s.result.stopped_at} (tol {inp['tol']:g})", ("ppdlmp",)),
            Check("ppdlmp.prices", len(got) == len(want) and err <= inp["price_tol"],
                  f"max price deviation {err:.3e} <= {inp['price_tol']:g} over {len(want)} bus-periods",
                  ("ppdlmp",)),
        ]

    def work(self, prep: dict, solves) -> tuple[float, float]:
        p = prep["problem"]
        return ppdlmp_work(p.q, p.blocks.dims[0], float(np.mean(p.blocks.dims[1:])))


class _LeastSquares:
    """Shared set-up of the random inconsistent least-squares workloads:
    the constant and the accelerated policy, certified once each, and a
    reference solve."""

    trace_every = 100
    engines = ("rbcd",)
    setup_kernel = Kernel

    def sampling(self, p):
        raise NotImplementedError

    def reference(self, p):
        raise NotImplementedError

    def setup(self, inp: dict, probe) -> dict:
        # a fresh problem object: its lazily computed matrices are set-up work
        p = dataclasses.replace(inp["problem"])
        s = self.sampling(p)
        return {
            "problem": p,
            "sampling": s,
            "constant": bp.convex_default_policy(p, s),
            "accelerated": bp.make_accelerated_policy(p, s),
            "ref": self.reference(p),
        }

    def solves(self, inp: dict, prep: dict, probe):
        p = probe.problem(prep["problem"])
        x0 = np.zeros(p.m)
        for name in ("constant", "accelerated"):
            for engine in self.engines:
                policy = fresh(prep[name])
                yield timed_solve(
                    probe, f"{name}.{engine}", policy,
                    lambda: bp.run(
                        p, prep["sampling"], policy, x0, inp["k"], engine=engine,
                        seed=inp["seed"], trace_every=self.trace_every, reference=prep["ref"],
                    ),
                )

    def work(self, prep: dict, solves) -> tuple[float, float]:
        p, s = prep["problem"], prep["sampling"]
        active = float(np.sum(s.pi))
        n = p.m / p.d
        per = [engine_work(x.label.split(".")[1], p.m, p.q, active, n) for x in solves]
        iters = sum(x.iters for x in solves)
        return (
            sum(w[0] * x.iters for w, x in zip(per, solves)) / iters,
            sum(w[1] * x.iters for w, x in zip(per, solves)) / iters,
        )


class LsRates(_LeastSquares):
    """The decay-rate experiment on the bench instance (d=10, m=40, q=60):
    single-block sampling, 10^5 steps per policy, a trace row every 10.
    The instance is fixed; the seed drives the block draws."""

    name = "ls_rates"
    trace_every = 10
    # slope limits of the constant and accelerated rate criteria
    limits = {"constant": (-0.9, -1.8), "accelerated": (-1.9, -3.5)}

    def generate(self, seed: int, smoke: bool) -> dict:
        problem = bp.make_random_inconsistent_ls(
            seed=2024, d=10, dims=4, q=60, noise=0.6, mu=1.0, rank_deficiency=4
        )
        return {"problem": problem, "seed": seed, "k": 20_000 if smoke else 100_000}

    def sampling(self, p):
        return bp.single_coordinate(p.d)

    def reference(self, p):
        return bp.quadratic_reference(p)

    def check(self, inp: dict, prep: dict, solves) -> list[Check]:
        ref = prep["ref"]
        out = []
        for s in solves:
            policy = s.label.split(".")[0]
            lim_psi, lim_h = self.limits[policy]
            trace = s.result.trace
            ks = np.array([r.k for r in trace], dtype=float)
            psi = np.array([r.psi_hat - ref.psi_star for r in trace])
            h_w = np.array([r.h_gap_w for r in trace])
            s_psi, _ = fit_rate(ks, psi, k_min=inp["k"] // 100, k_max=inp["k"])
            s_h, _ = fit_rate(ks, h_w, k_min=inp["k"] // 100, k_max=inp["k"])
            out.append(Check(
                f"{s.label}.slopes", s.iters == inp["k"] and s_psi <= lim_psi and s_h <= lim_h,
                f"objective-estimate slope {s_psi:.3f} <= {lim_psi}, "
                f"averaged penalty-gap slope {s_h:.3f} <= {lim_h} over k={s.iters}",
                (s.label,),
            ))
        return out


class LsWide(_LeastSquares):
    """The same generator at d=250 (m=1000, q=1500) with 4-of-250 sampling,
    which is not enumerable and draws on the fly; both policies under both
    engines.  The seed generates the instance and drives the draws."""

    name = "ls_wide"
    engines = ("rbcd", "pda")
    # its set-up is dense linear algebra (see calibrate.DenseKernel)
    setup_kernel = DenseKernel

    def generate(self, seed: int, smoke: bool) -> dict:
        d = 24 if smoke else 250
        problem = bp.make_random_inconsistent_ls(
            seed=seed, d=d, dims=4, q=6 * d, noise=0.6, mu=1.0, rank_deficiency=4
        )
        return {"problem": problem, "seed": seed, "k": 300 if smoke else 3000}

    def sampling(self, p):
        return bp.nice(p.d, 4)

    def reference(self, p):
        return bp.least_squares_reference(p)

    def check(self, inp: dict, prep: dict, solves) -> list[Check]:
        by = {s.label: s for s in solves}
        out = []
        for name in ("constant", "accelerated"):
            a, b = by[f"{name}.rbcd"], by[f"{name}.pda"]
            dev = float(np.max(np.abs(a.result.state.x - b.result.state.x)))
            out.append(Check(
                f"{name}.engines_agree", a.iters == b.iters == inp["k"] and dev <= 1e-9,
                f"rbcd and pda iterates differ by {dev:.2e} <= 1e-9 after k={a.iters}",
                (a.label, b.label),
            ))
        margin = prep["constant"].certified_margin
        out.append(Check(
            "constant.certified_margin", margin >= -1e-8,
            f"certified margin {margin:.3e} >= -1e-8", ("constant.rbcd", "constant.pda"),
        ))
        return out


WORKLOADS = {w.name: w for w in (Opf15, LsRates, LsWide)}
