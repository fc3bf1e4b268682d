#!/usr/bin/env python3
"""blockpd benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload opf15 --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``blockpd`` from its
``src/`` directory (nothing to build).  The workload's inputs come from the
seed; it is set up several times (``setup_s`` is the median) and then runs
as a closed loop of back-to-back rounds of solves for about ``--seconds``
seconds, at least one round.  Every solve's output is checked.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs untraced
and traced rounds in turn and prints the per-layer metrics.  ``--smoke``
shrinks every workload to a few seconds for the benchmark's own test.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; run details, the host context
and (traced) the span table go to ``.perfbench_out/``.

One process, one BLAS thread.  Exit code 2 means the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# set-up repeats: at least this many, more while they take under a second
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 25
# kernel runs per calibration around a set-up
CAL_REPEATS = 3


def read_cpu_times() -> tuple[int, int]:
    """(total, steal) jiffies over all CPUs of the host, from /proc/stat."""
    with open("/proc/stat") as fh:
        vals = [int(v) for v in fh.readline().split()[1:9]]
    return sum(vals), vals[7]


def host_context() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    threads = None
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "process_threads": threads,
    }


def timed_setups(wl, inp, probe, smoke: bool):
    """Median over several fresh set-ups of the set-up time, rescaled to the
    reference host by the workload's set-up kernel timed just before and
    after; the last set-up is the one used."""
    kernel = wl.setup_kernel()
    times = []
    while True:
        before = kernel.seconds(CAL_REPEATS)
        t0 = time.perf_counter()
        prep = wl.setup(inp, probe)
        wall = time.perf_counter() - t0
        after = kernel.seconds(CAL_REPEATS)
        times.append(wall * kernel.reference / (0.5 * (before + after)))
        n = len(times)
        if smoke or n >= SETUP_MAX_REPEATS or (n >= SETUP_REPEATS and sum(times) >= SETUP_SECONDS):
            return statistics.median(times), prep


class Rounds:
    """Runs rounds of solves, checks them and keeps the tallies."""

    def __init__(self, wl, inp):
        self.wl, self.inp = wl, inp
        self.attempted = self.failed = 0
        self.checks = []
        self.solve_s = []
        self.wall_s = []
        self.iters = []
        self.last = None

    def run(self, prep, probe) -> None:
        from workloads import common_checks

        try:
            solves = list(self.wl.solves(self.inp, prep, probe))
            checks = self.wl.check(self.inp, prep, solves) + common_checks(solves)
        except Exception:
            traceback.print_exc()
            n = len(self.last) if self.last else 1
            self.attempted += n
            self.failed += n
            self.checks.append(("round", False, "raised; traceback on stderr"))
            return
        bad = {label for c in checks if not c.ok for label in c.solves}
        self.attempted += len(solves)
        self.failed += len(bad)
        self.checks += [(c.name, c.ok, c.detail) for c in checks]
        self.solve_s.append(sum(s.seconds for s in solves))
        self.wall_s.append(sum(s.wall for s in solves))
        self.iters.append(sum(s.iters for s in solves))
        self.last = solves


def loop(seconds: float, smoke: bool, round_fn) -> None:
    """Back-to-back rounds until the next one would overrun ``seconds``."""
    t0 = time.perf_counter()
    n = 0
    while True:
        round_fn()
        n += 1
        elapsed = time.perf_counter() - t0
        if smoke or elapsed + elapsed / n > seconds:
            return


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("opf15", "ls_rates", "ls_wide"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, one round")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "blockpd" / "__init__.py").is_file():
        print(f"perfbench: no blockpd sources under {src}", file=sys.stderr)
        return 2
    # one BLAS thread keeps the run on one core; must precede numpy's import
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import blockpd

    if Path(blockpd.__file__).resolve().parent != (src / "blockpd").resolve():
        print(f"perfbench: imported blockpd from {blockpd.__file__}, not {src}", file=sys.stderr)
        return 2

    import metrics
    from tracer import Probe, Tracer, layer_metrics
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    cpu0, steal0 = read_cpu_times()
    wall0, proc0 = time.perf_counter(), time.process_time()
    wl = WORKLOADS[args.workload]()
    inp = wl.generate(args.seed, args.smoke)
    rounds = Rounds(wl, inp)
    plain = Probe()
    result: dict = {}
    details: dict = {}

    if not args.trace:
        with plain.install():
            setup_s, prep = timed_setups(wl, inp, plain, args.smoke)
            loop(args.seconds, args.smoke, lambda: rounds.run(prep, plain))
        if rounds.solve_s:
            solve_s = statistics.median(rounds.solve_s)
            result = {
                "setup_s": setup_s,
                "solve_s": solve_s,
                "total_s": setup_s + solve_s,
                "iters": rounds.iters[0],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        details["solve_wall_s"] = rounds.wall_s
        details["solve_s_per_round"] = rounds.solve_s
    else:
        tracer = Tracer()
        traced = Probe(tracer)
        with traced.install(), tracer.span("setup"):
            prep = wl.setup(inp, traced)
        untraced_rounds = Rounds(wl, inp)

        def pair():
            with plain.install():
                untraced_rounds.run(prep, plain)
            tracer.run_id += 1
            with traced.install(), tracer.span("round"):
                rounds.run(prep, traced)

        loop(args.seconds, args.smoke, pair)
        rounds.attempted += untraced_rounds.attempted
        rounds.failed += untraced_rounds.failed
        rounds.checks += untraced_rounds.checks
        if rounds.solve_s and untraced_rounds.solve_s:
            flops, nbytes = wl.work(prep, rounds.last)
            halvings = sum(
                getattr(prep[k], "halvings", 0) for k in ("policy", "constant") if k in prep
            )
            table = tracer.table()
            result, dists = layer_metrics(
                table,
                iters=sum(rounds.iters),
                rounds=len(rounds.iters),
                halvings=halvings,
                model={"active_blocks": traced.active_blocks,
                       "flops_per_iter": flops, "bytes_per_iter": nbytes},
            )
            result["trace.overhead"] = (
                statistics.median(rounds.solve_s) / statistics.median(untraced_rounds.solve_s) - 1.0
            )
            details["distributions"] = dists
            spans_path = OUT / f"spans-{args.workload}.npz"
            tracer.save(spans_path)
            details["spans"] = str(spans_path.relative_to(ROOT))

    cpu1, steal1 = read_cpu_times()
    host = host_context()
    host["steal_frac"] = (steal1 - steal0) / max(cpu1 - cpu0, 1)
    host["cpu_over_wall"] = (time.process_time() - proc0) / (time.perf_counter() - wall0)

    # every round adds at least one attempted solve, even one that raised
    attempted, failed = rounds.attempted, rounds.failed
    catalogue = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    if not args.trace and result:
        result["pass_frac"] = 1.0 - failed / attempted
    complete = set(result) == set(catalogue)
    correct = failed == 0 and complete and all(ok for _, ok, _ in rounds.checks)

    print("host " + " ".join(f"{k}={v!r}" for k, v in host.items()))
    for name, ok, detail in rounds.checks:
        print(f"check {name} {'PASS' if ok else 'FAIL'}: {detail}")
    print(f"solves attempted={attempted} failed={failed} fail_frac={failed / attempted:.4g}")
    for name, value in result.items():
        line = f"metric {name} {value:.6g} {catalogue[name][0]}"
        dist = details.get("distributions", {}).get(name)
        if dist:
            line += f" (p50; p{dist['tail_q']:g} {dist['tail']:.6g}, n={dist['n']})"
        print(line)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "host": host,
        "checks": rounds.checks, "attempted": attempted, "failed": failed,
        "metrics": result, **details,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str))

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": catalogue[k][0]} for k, v in result.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
