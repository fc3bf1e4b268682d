"""Configuration-driven experiment runner.

A run is described by a flat INI file with sections::

    [run]
    experiment = random_ls        ; consensus | model_fit | random_ls | opf15 | custom
    seed = 7
    k_max = 100000
    trace_every = 10
    stop_kkt_tol = none           ; stop once kkt_res and primal_res are both below it
    out = runs/demo               ; a directory, made if missing; not empty, not a file

    [instance]                    ; experiment-specific parameters
    d = 10
    block_dim = 4
    q = 60
    noise = 0.5

    [sampling]
    kind = single                 ; single | uniform | nice | full | paired

    [policy]
    kind = convex                 ; convex | accelerated
    certify = true                ; not done when sigma is given (NaN margin)

    [fit]
    columns = psi_hat_gap, h_gap_w  ; psi_hat_gap: random_ls or consensus only

Artifacts written to the output directory: ``trace.csv`` (schema versioned in
a leading comment line; deterministic bytes for a fixed config), ``metadata.json``
(the ``[run]`` fields and the ``[instance]``, ``[sampling]`` and ``[policy]``
sections as written, plus ``policy_resolved``, ``reference``, and
``sampling_resolved`` and the rate fits or, for the grid experiment, the
operator projection's totals; includes wall time, so not byte-stable), ``rates.csv``
with log-log slope fits, and ``dlmp.csv`` for the grid experiment.

Every reference is exact (:mod:`blockpd.oracles`), so Psi*, and with it a
``psi_hat_gap`` fit, exists only for the fully quadratic random_ls and
consensus instances.  Nothing is written before set-up has succeeded.

Exit codes: 0 success, 2 config error (including a file that is not valid
INI, a field that does not read as a number or a boolean, a count below its
least value, a ``[fit] k_min`` above ``[run] k_max``, an unknown ``[fit]``
column, a ``psi_hat_gap`` fit with no exact Psi*, a field the run never
reads, such as a misspelled key or ``[sampling] m`` for a kind other than
``nice``, a value the library rejects, a custom ``a_path`` or ``b_path``
holding a value that is not finite, or malformed grid data such as a bus
in two rows, a bus value that is not finite or a negative line capacity),
3 divergence or a projection that did not converge, 4 infeasible instance
(such as a bus whose consumption floor exceeds its cap).

The grid experiment reads ``[instance] bus_path`` and ``edges_path``, each
falling back to its own bundled file, and runs
:func:`blockpd.dlmp.ppdlmp_run`.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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
from .errors import (
    ConfigError,
    InfeasibleInstance,
    InsufficientData,
    ProjectionDidNotConverge,
    SolverDivergence,
)
from .oracles import Reference, least_squares_reference, quadratic_reference
from .proxops import prox_l1_block, prox_quadratic_block, prox_zero_block
from .sampling import from_config as sampling_from_config
from .solver import TraceRecord, run
from .stepsize import ConvexPolicy, convex_default_policy, make_accelerated_policy

TRACE_SCHEMA = "blockpd-trace-v2"

EXPERIMENTS = ("consensus", "model_fit", "random_ls", "opf15", "custom")


class Section(dict):
    """One INI section's fields as written; ``read`` records each key looked
    up through ``get`` or ``[]``, so that a key never read can be named."""

    def __init__(self, name: str, fields=()):
        super().__init__(fields)
        self.name = name
        self.read: set[str] = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@dataclass
class RunConfig:
    experiment: str
    seed: int = 0
    k_max: int = 10_000
    trace_every: int = 100
    stop_kkt_tol: float | None = None
    out: str = "runs/out"
    quiet: bool = False
    # every section by name, with [instance], [sampling] and [policy] even when absent
    sections: dict[str, Section] = field(default_factory=dict)
    fit_columns: tuple[str, ...] = ()
    fit_k_min: int | None = None


def parse_config(path: str) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    sections = {name: Section(name) for name in ("instance", "sampling", "policy")}
    try:
        read = cp.read(path)
        sections.update((name, Section(name, cp[name])) for name in cp.sections())
    except configparser.Error as exc:
        raise ConfigError(f"{path}: not a valid INI file: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    if "run" not in cp:
        raise ConfigError(f"{path}: missing [run] section")
    runsec = sections["run"]
    experiment = runsec.get("experiment", "").strip()
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"{path}: [run] experiment must be one of {EXPERIMENTS}, got {experiment!r}"
        )
    k_max = field_value(runsec, "k_max", 10_000, int, at_least=1)
    seed = field_value(runsec, "seed", 0, int, at_least=0)
    trace_every = field_value(runsec, "trace_every", 100, int, at_least=1)
    tol_raw = runsec.get("stop_kkt_tol", "none").strip().lower()
    stop_tol = None
    if tol_raw not in ("none", ""):
        stop_tol = field_value(runsec, "stop_kkt_tol", None)
        if not 0.0 < stop_tol < math.inf:
            raise ConfigError(f"{path}: [run] stop_kkt_tol must be finite and > 0")
    fit_cols: tuple[str, ...] = ()
    fit_k_min = None
    fit = sections.get("fit") if experiment != "opf15" else None  # the grid fits no rate
    if fit is not None:
        cols = fit.get("columns", "")
        fit_cols = tuple(c.strip() for c in cols.split(",") if c.strip())
        known = ("psi_hat_gap", *TraceRecord.CSV_FIELDS)
        unknown = [c for c in fit_cols if c not in known]
        if unknown:
            raise ConfigError(f"{path}: [fit] columns: unknown {unknown}, known {known}")
        if fit.get("k_min"):
            fit_k_min = field_value(fit, "k_min", None, int, at_least=1)
            if fit_k_min > k_max:
                raise ConfigError(
                    f"{path}: [fit] k_min must be <= [run] k_max = {k_max}, got {fit_k_min}"
                )
    return RunConfig(
        experiment=experiment,
        seed=seed,
        k_max=k_max,
        trace_every=trace_every,
        stop_kkt_tol=stop_tol,
        out=runsec.get("out", "runs/out"),
        sections=sections,
        fit_columns=fit_cols,
        fit_k_min=fit_k_min,
    )


def _ini_bool(raw: str) -> bool:
    """An INI boolean word: true/false, yes/no, on/off or 1/0, any case."""
    if raw.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError("not a boolean (true/false, yes/no, on/off or 1/0)")
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]


def field_value(fields: Section, key: str, default, kind=float, *, at_least=None):
    """``fields[key]`` read as ``kind`` (``default`` when unset); a value that
    does not read, or that is below ``at_least`` when that is given, is a
    :class:`ConfigError` naming the section and field."""
    raw = fields.get(key)
    if raw is None:
        return default
    try:
        value = kind(raw)
    except ValueError as exc:
        raise ConfigError(f"[{fields.name}] {key} = {raw!r}: {exc}") from exc
    if at_least is not None and value < at_least:
        raise ConfigError(f"[{fields.name}] {key} must be >= {at_least}, got {value}")
    return value


@contextmanager
def rejected_as_config(section: str):
    """Re-raise a library ``ValueError`` as a ConfigError naming ``section``."""
    try:
        yield
    except (ConfigError, InfeasibleInstance):
        raise
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


# ---------------------------------------------------------------------------
# instance builders
# ---------------------------------------------------------------------------


def _instance(cfg: RunConfig, key: str, default, kind=float, *, at_least=None):
    return field_value(cfg.sections["instance"], key, default, kind, at_least=at_least)


def _build_random_ls(cfg: RunConfig):
    # q >= 1: an instance without coupling rows has no penalty to rate
    return make_random_inconsistent_ls(
        seed=_instance(cfg, "instance_seed", cfg.seed, int, at_least=0),
        d=_instance(cfg, "d", 10, int, at_least=1),
        dims=_instance(cfg, "block_dim", 4, int, at_least=1),
        q=_instance(cfg, "q", 60, int, at_least=1),
        noise=_instance(cfg, "noise", 0.5),
        mu=_instance(cfg, "mu", 1.0),
        rank_deficiency=_instance(cfg, "rank_deficiency", 4, int),
    )


def _build_consensus(cfg: RunConfig):
    ins = cfg.sections["instance"]
    n = _instance(cfg, "nodes", 8, int, at_least=1)
    graph = ins.get("graph", "path")
    rng = np.random.default_rng(_instance(cfg, "instance_seed", cfg.seed, int, at_least=0))
    anchors = rng.uniform(-2.0, 2.0, size=n)
    if graph == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif graph == "ring":
        # one node makes no ring: its only edge would be a self-loop
        edges = [(i, (i + 1) % n) for i in range(n)] if n > 1 else []
    else:
        raise ConfigError(f"[instance] graph must be path or ring, got {graph!r}")
    local = [prox_quadratic_block(1.0, center=anchors[i]) for i in range(n)]
    problem = make_consensus(edges, local)
    problem.meta["quadratic"] = {
        "h_blocks": [np.eye(1) for _ in range(n)],
        "c_blocks": [np.array([-anchors[i]]) for i in range(n)],
        "mu": 0.0,
    }
    return problem


def _build_model_fit(cfg: RunConfig):
    rng = np.random.default_rng(_instance(cfg, "instance_seed", cfg.seed, int, at_least=0))
    q = _instance(cfg, "q", 30, int, at_least=1)
    p = _instance(cfg, "p", 10, int, at_least=1)
    k_matrix = rng.standard_normal((q, p)) / math.sqrt(p)
    b = rng.standard_normal(q)
    losses = [SmoothBlock.quadratic(np.eye(1), np.zeros(1)) for _ in range(q)]
    weight = _instance(cfg, "l1_weight", 0.1)
    regs = [prox_l1_block(weight) for _ in range(p)]
    return make_model_fitting(k_matrix, b, losses, regs)


def _build_custom(cfg: RunConfig):
    ins = cfg.sections["instance"]
    try:
        a = np.loadtxt(ins["a_path"], delimiter=",", ndmin=2)
        b = np.loadtxt(ins["b_path"], delimiter=",")
    except KeyError as exc:
        raise ConfigError(f"[instance] custom experiment needs {exc} set") from exc
    for key, values in (("a_path", a), ("b_path", b)):
        if not np.isfinite(values).all():
            raise ConfigError(f"[instance] {key} holds a value that is not finite")
    dims = _instance(cfg, "dims", [a.shape[1]], lambda raw: [int(t) for t in raw.split()])
    structure = BlockStructure(tuple(dims))
    if structure.m != a.shape[1]:
        raise ConfigError("[instance] dims do not sum to the column count of A")
    mu = _instance(cfg, "mu", 0.0)
    prox = tuple(prox_zero_block() if mu == 0 else prox_quadratic_block(mu) for _ in dims)
    return ProblemSpec(
        blocks=structure,
        smooth=tuple(SmoothBlock.zero(n) for n in dims),
        prox=prox,
        a_blocks=tuple(a[:, structure.block_slice(i)] for i in range(len(dims))),
        b=np.atleast_1d(b),
    )


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


def write_trace_csv(path: Path, trace: list[TraceRecord]) -> None:
    with open(path, "w") as fh:
        fh.write(f"# {TRACE_SCHEMA}\n")
        fh.write(",".join(TraceRecord.CSV_FIELDS) + "\n")
        for rec in trace:
            vals = [getattr(rec, name) for name in TraceRecord.CSV_FIELDS]
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in vals))
            fh.write("\n")


def fit_rate(ks, values, k_min=None, k_max=None):
    """Least-squares slope of log |value| against log k.

    Values are folded to magnitudes and clipped at 1e-16 before taking logs.
    Returns (slope, stderr); needs at least 10 points in range.  The fit is
    ``scipy.stats.linregress``'s arithmetic, operation for operation, so it
    gives the same bits without loading ``scipy.stats``: with the biased
    (co)variances ssxm, ssxym and ssym of x = log k and y = log |value|,
    slope = ssxym / ssxm and stderr = sqrt((1 - r^2) ssym / ssxm / (n - 2))
    for the correlation r = ssxym / sqrt(ssxm ssym) clipped to [-1, 1]
    (0 where ssxm or ssym is 0, NaN if ssxym is 0 too).  All-identical k
    in range is a ``ValueError``.
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
    x, y = np.log(ks[mask]), np.log(values[mask])
    if np.amax(x) == np.amin(x):
        raise ValueError("Cannot calculate a linear regression if all x values are identical")
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = math.nan if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    slope = ssxym / ssxm
    stderr = np.sqrt((1 - r**2) * ssym / ssxm / (len(x) - 2))
    return float(slope), float(stderr)


def trace_column(trace, name, reference: Reference | None = None):
    """The trace's k and one ``[fit]`` column (a name ``parse_config`` accepts;
    ``psi_hat_gap`` reads ``reference.psi_star``, which the run checked)."""
    ks = np.array([r.k for r in trace], dtype=float)
    if name == "psi_hat_gap":
        vals = np.array([r.psi_hat - reference.psi_star for r in trace])
    else:
        vals = np.array([getattr(r, name) for r in trace])
    return ks, vals


def _check_out(out: str) -> None:
    """Before set-up: ``out`` must name a directory that exists or can be
    made, so neither the empty path (the working directory) nor a path
    through an existing file."""
    if not out:
        raise ConfigError("[run] out must name an output directory, got ''")
    for path in (Path(out), *Path(out).parents):
        if path.exists():
            if path.is_dir():
                return
            raise ConfigError(f"[run] out = {out!r}: {path} exists and is not a directory")


def _start(cfg: RunConfig) -> tuple[Path, dict]:
    """Once set-up has read what it needs: a config field it never read is a
    :class:`ConfigError` naming its section and key.  Otherwise make the
    output directory and return it with the metadata the config fixes."""
    unread = [f"[{s.name}] {k}" for s in cfg.sections.values() for k in s if k not in s.read]
    if unread:
        raise ConfigError(f"{', '.join(unread)}: not read by a {cfg.experiment} run")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    run_fields = ("experiment", "seed", "k_max", "trace_every", "stop_kkt_tol")
    return out, {
        "schema": TRACE_SCHEMA,
        "version": __version__,
        **{name: getattr(cfg, name) for name in run_fields},
        **{name: dict(cfg.sections[name]) for name in ("sampling", "policy", "instance")},
    }


def run_experiment(cfg: RunConfig) -> int:
    """Execute one configured run and write its artifacts.  Returns the
    process exit code.  Nothing is written before set-up has succeeded."""
    t0 = time.perf_counter()
    say = (lambda *a: None) if cfg.quiet else print
    _check_out(cfg.out)

    if cfg.experiment == "opf15":
        return _run_opf(cfg, say, t0)

    builders = {"random_ls": _build_random_ls, "consensus": _build_consensus,
                "model_fit": _build_model_fit, "custom": _build_custom}
    with rejected_as_config("instance"):
        problem = builders[cfg.experiment](cfg)

    fields = cfg.sections["sampling"]
    kind = fields.get("kind", "single")
    m = field_value(fields, "m", None, int) if kind.lower() == "nice" else None
    with rejected_as_config("sampling"):
        sampling = sampling_from_config(kind, problem.d, m)
    resolved: dict = {"sampling_resolved": {"kind": kind, "pi": sampling.pi.tolist()}}

    fields = cfg.sections["policy"]
    pol_kind = fields.get("kind", "convex")
    if pol_kind == "convex":
        certify = field_value(fields, "certify", True, _ini_bool)
        # the default sigma's certificate does not describe a given sigma
        given = fields.get("sigma", "auto") != "auto"
        with rejected_as_config("policy"):
            policy = convex_default_policy(problem, sampling, certify=certify and not given)
            if given:
                sigma = field_value(fields, "sigma", None)
                policy = ConvexPolicy(sigma, policy.b_diag)
        resolved["policy_resolved"] = {
            "kind": "convex",
            "sigma": policy.sigma,
            "certified_margin": policy.certified_margin,
        }
    elif pol_kind == "accelerated":
        tau0 = None
        if fields.get("tau0"):
            tau0 = field_value(fields, "tau0", None)
        with rejected_as_config("policy"):
            policy = make_accelerated_policy(problem, sampling, tau0=tau0)
        resolved["policy_resolved"] = {
            "kind": "accelerated",
            "alpha": policy.alpha,
            "beta": policy.beta,
            "kappa": policy.kappa,
            "tau0": policy.tau0,
            "sigma0": policy.sigma_at(0),
        }
    else:
        raise ConfigError(f"[policy] kind must be convex or accelerated, got {pol_kind!r}")

    # exact solves only: Psi* is known where the instance is fully quadratic
    exact = quadratic_reference if "quadratic" in problem.meta else least_squares_reference
    reference = exact(problem)
    if "psi_hat_gap" in cfg.fit_columns and reference.psi_star is None:
        raise ConfigError(f"[fit] columns: psi_hat_gap needs an exact objective floor, "
                          f"which a {cfg.experiment} instance does not have")
    resolved["reference"] = {
        "source": reference.source,
        "h_star": reference.h_star,
        "psi_star": reference.psi_star,
    }
    out, meta = _start(cfg)
    meta.update(resolved)

    say(f"[{cfg.experiment}] d={problem.d} m={problem.m} q={problem.q} "
        f"policy={pol_kind} sampling={kind}")
    result = run(
        problem,
        sampling,
        policy,
        np.zeros(problem.m),
        cfg.k_max,
        seed=cfg.seed,
        trace_every=cfg.trace_every,
        stop_kkt_tol=cfg.stop_kkt_tol,
        reference=reference,
    )
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
    return _finish(out, result, meta, say, t0)


def _run_opf(cfg: RunConfig, say, t0) -> int:
    ins = cfg.sections["instance"]
    bundled_bus, bundled_edges = default_network_paths()
    bus_path = ins.get("bus_path") or bundled_bus
    edges_path = ins.get("edges_path") or bundled_edges
    drop_shunt = field_value(ins, "drop_shunt", False, _ini_bool)
    with rejected_as_config("instance"):
        net = load_network(bus_path, edges_path)
        problem = build_opf_problem(net, drop_shunt=drop_shunt)
    x0 = opf_initial_point(problem)
    out, meta = _start(cfg)
    say(f"[opf15] buses={net.n_buses} T={net.horizon} blocks={problem.d} "
        f"m={problem.m} q={problem.q}")
    result = ppdlmp_run(
        problem, x0, cfg.k_max, seed=cfg.seed, trace_every=cfg.trace_every,
        stop_kkt_tol=cfg.stop_kkt_tol,
    )
    prices = extract_dlmp(result.state.y, problem)
    with open(out / "dlmp.csv", "w") as fh:
        fh.write("bus,period,y_p,y_q\n")
        for busn, t, yp, yq in prices:
            fh.write(f"{busn},{t},{yp!r},{yq!r}\n")
    meta["policy_resolved"] = {"sigma": result.trace[-1].sigma if result.trace else None,
                               "stopped_at": result.stopped_at}
    meta["reference"] = {"h_star": result.reference.h_star, "source": result.reference.source}
    meta["operator_projection"] = result.state.session.totals()
    return _finish(out, result, meta, say, t0)


def _finish(out: Path, result, meta: dict, say, t0: float) -> int:
    """Write ``trace.csv`` and ``metadata.json`` and print the last trace row."""
    write_trace_csv(out / "trace.csv", result.trace)
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
            if args.seed < 0:
                raise ConfigError(f"--seed must be >= 0, got {args.seed}")
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
    except ProjectionDidNotConverge as exc:
        print(f"projection did not converge: {exc}", file=sys.stderr)
        return 3
    except InfeasibleInstance as exc:
        print(f"infeasible instance: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
