"""The benchmark's own test: every workload in smoke mode, both levels.

    python3 -m pytest perfbench

Each run must exit 0, emit every catalogued metric with its unit, pass
every check it ran and run every check its workload defines.  Takes about a
minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

CHECKS = {
    "opf15": {"ppdlmp.converged", "ppdlmp.prices"},
    "ls_rates": {
        "constant.rbcd.slopes", "accelerated.rbcd.slopes", "accelerated.rbcd.tau_next_calls",
    },
    "ls_wide": {
        "constant.engines_agree", "accelerated.engines_agree", "constant.certified_margin",
        "accelerated.rbcd.tau_next_calls", "accelerated.pda.tau_next_calls",
    },
}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(CHECKS))
def test_smoke_run_reports_every_metric_and_check(workload, trace):
    out = bench("--workload", workload, "--seed", "1", "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    catalogue = metrics.PER_LAYER if trace else metrics.END_TO_END
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {name: spec[0] for name, spec in catalogue.items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    checks = [line.split(":")[0].split()[1:3] for line in lines if line.startswith("check ")]
    assert {name for name, _ in checks} == CHECKS[workload]
    assert all(status == "PASS" for _, status in checks)


def test_benchmark_json_matches_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(CHECKS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: entry[:2] for name, entry in metrics.PER_LAYER.items()
    }


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "ls_rates", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
