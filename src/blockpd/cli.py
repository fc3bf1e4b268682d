"""Configuration-driven experiment runner.

A run is described by a flat INI file with sections::

    [run]
    experiment = random_ls        ; consensus | model_fit | random_ls | opf15 | custom
    seed = 7
    k_max = 100000
    trace_every = 10
    stop_kkt_tol = none
    out = runs/demo

    [instance]                    ; experiment-specific parameters
    d = 10
    block_dim = 4
    q = 60
    noise = 0.5

    [sampling]
    kind = single                 ; single | uniform | nice | full | paired

    [policy]
    kind = convex                 ; convex | accelerated
    certify = true

    [fit]
    columns = psi_hat_gap, h_gap_w

Artifacts written to the output directory: ``trace.csv`` (schema versioned in
a leading comment line; deterministic bytes for a fixed config), ``metadata.json``
(every resolved default, reference values, certification results; includes
wall time, so not byte-stable), ``rates.csv`` with log-log slope fits, and
``dlmp.csv`` for the grid experiment.

Exit codes: 0 success, 2 config error, 3 divergence, 4 infeasible instance.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import stats

from . import __version__
from .blocks import (
    BlockStructure,
    ProblemSpec,
    SmoothBlock,
    make_consensus,
    make_model_fitting,
    make_random_inconsistent_ls,
)
from .dlmp import (
    build_opf_problem,
    default_network_paths,
    extract_dlmp,
    load_network,
    opf_initial_point,
    ppdlmp_run,
)
from .errors import ConfigError, InfeasibleInstance, InsufficientData, SolverDivergence
from .oracles import Reference, reference_for
from .proxops import prox_l1_block, prox_quadratic_block, prox_zero_block
from .sampling import from_config as sampling_from_config
from .solver import TraceRecord, run
from .stepsize import convex_default_policy, make_accelerated_policy

TRACE_SCHEMA = "blockpd-trace-v1"

EXPERIMENTS = ("consensus", "model_fit", "random_ls", "opf15", "custom")


@dataclass
class RunConfig:
    experiment: str
    seed: int = 0
    k_max: int = 10_000
    trace_every: int = 100
    stop_kkt_tol: float | None = None
    out: str = "runs/out"
    quiet: bool = False
    sampling: dict = field(default_factory=dict)
    policy: dict = field(default_factory=dict)
    instance: dict = field(default_factory=dict)
    fit_columns: tuple[str, ...] = ()
    fit_k_min: int | None = None


def parse_config(path: str) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = cp.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    if "run" not in cp:
        raise ConfigError(f"{path}: missing [run] section")
    runsec = cp["run"]
    experiment = runsec.get("experiment", "").strip()
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"{path}: [run] experiment must be one of {EXPERIMENTS}, got {experiment!r}"
        )
    try:
        k_max = runsec.getint("k_max", 10_000)
        seed = runsec.getint("seed", 0)
        trace_every = runsec.getint("trace_every", 100)
    except ValueError as exc:
        raise ConfigError(f"{path}: [run] integer field: {exc}") from exc
    if k_max < 1:
        raise ConfigError(f"{path}: [run] k_max must be >= 1")
    if trace_every < 1:
        raise ConfigError(f"{path}: [run] trace_every must be >= 1")
    tol_raw = runsec.get("stop_kkt_tol", "none").strip().lower()
    stop_tol = None if tol_raw in ("none", "") else float(tol_raw)
    fit_cols: tuple[str, ...] = ()
    fit_k_min = None
    if "fit" in cp:
        cols = cp["fit"].get("columns", "")
        fit_cols = tuple(c.strip() for c in cols.split(",") if c.strip())
        if cp["fit"].get("k_min"):
            fit_k_min = cp["fit"].getint("k_min")
    return RunConfig(
        experiment=experiment,
        seed=seed,
        k_max=k_max,
        trace_every=trace_every,
        stop_kkt_tol=stop_tol,
        out=runsec.get("out", "runs/out"),
        sampling=dict(cp["sampling"]) if "sampling" in cp else {},
        policy=dict(cp["policy"]) if "policy" in cp else {},
        instance=dict(cp["instance"]) if "instance" in cp else {},
        fit_columns=fit_cols,
        fit_k_min=fit_k_min,
    )


# ---------------------------------------------------------------------------
# instance builders
# ---------------------------------------------------------------------------


def _build_random_ls(cfg: RunConfig):
    ins = cfg.instance
    problem = make_random_inconsistent_ls(
        seed=int(ins.get("instance_seed", cfg.seed)),
        d=int(ins.get("d", 10)),
        dims=int(ins.get("block_dim", 4)),
        q=int(ins.get("q", 60)),
        noise=float(ins.get("noise", 0.5)),
        mu=float(ins.get("mu", 1.0)),
        rank_deficiency=int(ins.get("rank_deficiency", 4)),
    )
    return problem, np.zeros(problem.m)


def _build_consensus(cfg: RunConfig):
    ins = cfg.instance
    n = int(ins.get("nodes", 8))
    graph = ins.get("graph", "path")
    rng = np.random.default_rng(int(ins.get("instance_seed", cfg.seed)))
    anchors = rng.uniform(-2.0, 2.0, size=n)
    if graph == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif graph == "ring":
        edges = [(i, (i + 1) % n) for i in range(n)]
    else:
        raise ConfigError(f"[instance] graph must be path or ring, got {graph!r}")
    local = [prox_quadratic_block(1.0, center=anchors[i]) for i in range(n)]
    problem = make_consensus(edges, local)
    problem.meta["quadratic"] = {
        "h_blocks": [np.eye(1) for _ in range(n)],
        "c_blocks": [np.array([-anchors[i]]) for i in range(n)],
        "mu": 0.0,
    }
    return problem, np.zeros(problem.m)


def _build_model_fit(cfg: RunConfig):
    ins = cfg.instance
    rng = np.random.default_rng(int(ins.get("instance_seed", cfg.seed)))
    q = int(ins.get("q", 30))
    p = int(ins.get("p", 10))
    k_matrix = rng.standard_normal((q, p)) / math.sqrt(p)
    b = rng.standard_normal(q)
    losses = [SmoothBlock.quadratic(np.eye(1), np.zeros(1)) for _ in range(q)]
    weight = float(ins.get("l1_weight", 0.1))
    regs = [prox_l1_block(weight) for _ in range(p)]
    problem = make_model_fitting(k_matrix, b, losses, regs)
    return problem, np.zeros(problem.m)


def _build_custom(cfg: RunConfig):
    ins = cfg.instance
    try:
        a = np.loadtxt(ins["a_path"], delimiter=",", ndmin=2)
        b = np.loadtxt(ins["b_path"], delimiter=",")
    except KeyError as exc:
        raise ConfigError(f"[instance] custom experiment needs {exc} set") from exc
    dims = [int(t) for t in ins.get("dims", str(a.shape[1])).split()]
    structure = BlockStructure(tuple(dims))
    if structure.m != a.shape[1]:
        raise ConfigError("[instance] dims do not sum to the column count of A")
    mu = float(ins.get("mu", 0.0))
    prox = tuple(
        prox_quadratic_block(mu) if mu > 0 else prox_zero_block(n) for n in dims
    )
    problem = ProblemSpec(
        blocks=structure,
        smooth=tuple(SmoothBlock.zero(n) for n in dims),
        prox=prox,
        a_blocks=tuple(a[:, structure.block_slice(i)] for i in range(len(dims))),
        b=np.atleast_1d(b),
    )
    return problem, np.zeros(problem.m)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


def write_trace_csv(path: Path, trace: list[TraceRecord]) -> None:
    with open(path, "w") as fh:
        fh.write(f"# {TRACE_SCHEMA}\n")
        fh.write(",".join(TraceRecord.CSV_FIELDS) + "\n")
        for rec in trace:
            vals = [getattr(rec, name) for name in TraceRecord.CSV_FIELDS]
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in vals))
            fh.write("\n")


def read_trace_csv(path) -> dict[str, np.ndarray]:
    data = np.genfromtxt(path, delimiter=",", names=True, skip_header=1)
    names = data.dtype.names or ()
    return {name: np.atleast_1d(data[name]) for name in names}


def fit_rate(ks, values, k_min=None, k_max=None):
    """Least-squares slope of log |value| against log k.

    Values are folded to magnitudes and clipped at 1e-16 before taking logs.
    Returns (slope, stderr); needs at least 10 points in range.
    """
    ks = np.asarray(ks, dtype=float)
    values = np.clip(np.abs(np.asarray(values, dtype=float)), 1e-16, None)
    mask = ks > 0
    if k_min is not None:
        mask &= ks >= k_min
    if k_max is not None:
        mask &= ks <= k_max
    if int(mask.sum()) < 10:
        raise InsufficientData(f"only {int(mask.sum())} trace points in range")
    res = stats.linregress(np.log(ks[mask]), np.log(values[mask]))
    return float(res.slope), float(res.stderr)


def trace_column(trace, name, reference: Reference | None = None):
    ks = np.array([r.k for r in trace], dtype=float)
    if name == "psi_hat_gap":
        if reference is None or reference.psi_star is None:
            raise ConfigError("psi_hat_gap fit needs a reference objective value")
        vals = np.array([r.psi_hat - reference.psi_star for r in trace])
    elif name in TraceRecord.CSV_FIELDS:
        vals = np.array([getattr(r, name) for r in trace])
    else:
        raise ConfigError(f"unknown fit column {name!r}")
    return ks, vals


def fit_trace(trace, column, k_min=None, k_max=None, reference=None):
    """Rate fit of one trace column over an iteration range."""
    ks, vals = trace_column(trace, column, reference)
    return fit_rate(ks, vals, k_min=k_min, k_max=k_max)


def run_experiment(cfg: RunConfig) -> int:
    """Execute one configured run and write its artifacts.  Returns the
    process exit code."""
    t0 = time.perf_counter()
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    say = (lambda *a: None) if cfg.quiet else print

    meta: dict = {
        "schema": TRACE_SCHEMA,
        "version": __version__,
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "k_max": cfg.k_max,
        "trace_every": cfg.trace_every,
        "stop_kkt_tol": cfg.stop_kkt_tol,
        "sampling": dict(cfg.sampling),
        "policy": dict(cfg.policy),
        "instance": dict(cfg.instance),
    }

    if cfg.experiment == "opf15":
        return _run_opf(cfg, out, meta, say, t0)

    builders = {
        "random_ls": _build_random_ls,
        "consensus": _build_consensus,
        "model_fit": _build_model_fit,
        "custom": _build_custom,
    }
    problem, x0 = builders[cfg.experiment](cfg)

    kind = cfg.sampling.get("kind", "single")
    skwargs = {}
    if "m" in cfg.sampling:
        skwargs["m"] = int(cfg.sampling["m"])
    sampling = sampling_from_config(kind, problem.d, **skwargs)
    meta["sampling_resolved"] = {"kind": kind, "pi": sampling.pi.tolist()}

    pol_kind = cfg.policy.get("kind", "convex")
    certify = cfg.policy.get("certify", "true").lower() != "false"
    if pol_kind == "convex":
        policy = convex_default_policy(problem, sampling, certify=certify)
        if "sigma" in cfg.policy and cfg.policy["sigma"] != "auto":
            policy.sigma = float(cfg.policy["sigma"])
        meta["policy_resolved"] = {
            "kind": "convex",
            "sigma": policy.sigma,
            "certified_margin": policy.certified_margin,
            "halvings": policy.halvings,
        }
    elif pol_kind == "accelerated":
        tau0 = cfg.policy.get("tau0")
        policy = make_accelerated_policy(
            problem, sampling, tau0=float(tau0) if tau0 else None
        )
        meta["policy_resolved"] = {
            "kind": "accelerated",
            "alpha": policy.alpha,
            "beta": policy.beta,
            "kappa": policy.kappa,
            "tau0": policy.tau0,
            "sigma0": policy.sigma_at(0),
        }
    else:
        raise ConfigError(f"[policy] kind must be convex or accelerated, got {pol_kind!r}")

    oracle_k = int(cfg.instance.get("oracle_k", 200_000))
    reference = reference_for(problem, k_max=oracle_k, seed=cfg.seed + 1)
    meta["reference"] = {
        "source": reference.source,
        "h_star": reference.h_star,
        "psi_star": reference.psi_star,
    }

    say(f"[{cfg.experiment}] d={problem.d} m={problem.m} q={problem.q} "
        f"policy={pol_kind} sampling={kind}")
    result = run(
        problem,
        sampling,
        policy,
        x0,
        cfg.k_max,
        seed=cfg.seed,
        trace_every=cfg.trace_every,
        stop_kkt_tol=cfg.stop_kkt_tol,
        reference=reference,
    )
    write_trace_csv(out / "trace.csv", result.trace)

    rates = []
    k_min = cfg.fit_k_min if cfg.fit_k_min is not None else max(1, cfg.k_max // 10)
    for col in cfg.fit_columns:
        ks, vals = trace_column(result.trace, col, reference)
        try:
            slope, stderr = fit_rate(ks, vals, k_min=k_min)
        except InsufficientData as exc:
            say(f"  fit[{col}]: skipped ({exc})")
            continue
        rates.append({"column": col, "slope": slope, "stderr": stderr, "k_min": k_min})
        say(f"  fit[{col}]: slope {slope:+.3f} (stderr {stderr:.1e})")
    with open(out / "rates.csv", "w") as fh:
        fh.write("column,slope,stderr,k_min\n")
        for row in rates:
            fh.write(f"{row['column']},{row['slope']!r},{row['stderr']!r},{row['k_min']}\n")
    meta["rates"] = rates
    meta["stopped_at"] = result.stopped_at
    meta["wall_time_sec"] = time.perf_counter() - t0
    with open(out / "metadata.json", "w") as fh:
        json.dump(meta, fh, indent=2, default=float)
    last = result.trace[-1] if result.trace else None
    if last is not None:
        say(f"  final k={last.k} kkt={last.kkt_res:.3e} |Ax-b|={last.primal_res:.3e}")
    return 0


def _run_opf(cfg: RunConfig, out: Path, meta: dict, say, t0) -> int:
    ins = cfg.instance
    bus_path = ins.get("bus_path")
    edges_path = ins.get("edges_path")
    if not bus_path or not edges_path:
        bus_path, edges_path = default_network_paths()
    net = load_network(bus_path, edges_path)
    problem = build_opf_problem(net, drop_shunt=ins.get("drop_shunt", "false") == "true")
    x0 = opf_initial_point(problem)
    say(f"[opf15] buses={net.n_buses} T={net.horizon} blocks={problem.d} "
        f"m={problem.m} q={problem.q}")
    result = ppdlmp_run(
        problem,
        x0,
        cfg.k_max,
        seed=cfg.seed,
        trace_every=cfg.trace_every,
        stop_kkt_tol=cfg.stop_kkt_tol,
    )
    write_trace_csv(out / "trace.csv", result.trace)
    prices = extract_dlmp(result.state.y, problem)
    with open(out / "dlmp.csv", "w") as fh:
        fh.write("bus,period,y_p,y_q\n")
        for busn, t, yp, yq in prices:
            fh.write(f"{busn},{t},{yp!r},{yq!r}\n")
    eng_meta = {
        "sigma": result.trace[-1].sigma if result.trace else None,
        "stopped_at": result.stopped_at,
    }
    meta["policy_resolved"] = eng_meta
    meta["reference"] = {"h_star": result.reference.h_star, "source": result.reference.source}
    meta["wall_time_sec"] = time.perf_counter() - t0
    with open(out / "metadata.json", "w") as fh:
        json.dump(meta, fh, indent=2, default=float)
    if result.trace:
        last = result.trace[-1]
        say(f"  final k={last.k} kkt={last.kkt_res:.3e} |Ax-b|={last.primal_res:.3e}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="blockpd-run", description="run a configured block-coordinate experiment"
    )
    parser.add_argument("--config", required=True, help="path to an INI run config")
    parser.add_argument("--seed", type=int, default=None, help="override [run] seed")
    parser.add_argument("--out", default=None, help="override [run] out directory")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out = args.out
        cfg.quiet = args.quiet
        return run_experiment(cfg)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverDivergence as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        if exc.last_record is not None:
            print(f"last trace row: {exc.last_record}", file=sys.stderr)
        return 3
    except InfeasibleInstance as exc:
        print(f"infeasible instance: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
