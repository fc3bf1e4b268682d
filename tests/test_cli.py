import json

import numpy as np
import pytest

from blockpd.cli import fit_rate, main, parse_config, read_trace_csv
from blockpd.errors import ConfigError, InsufficientData


def write_config(path, body):
    path.write_text(body)
    return str(path)


BASE_RANDOM_LS = """
[run]
experiment = random_ls
seed = 5
k_max = {k_max}
trace_every = {trace_every}
out = {out}

[instance]
d = 4
block_dim = 3
q = 18
noise = 0.4
rank_deficiency = 2

[sampling]
kind = single

[policy]
kind = convex

[fit]
columns = psi_hat_gap, h_gap_w
"""


class TestFitRate:
    def test_exact_inverse_k(self):
        ks = np.arange(10, 5000)
        slope, stderr = fit_rate(ks, 1.0 / ks)
        assert slope == pytest.approx(-1.0, abs=1e-6)

    def test_exact_inverse_quartic(self):
        ks = np.arange(10, 3000)
        slope, _ = fit_rate(ks, 1.0 / ks**4)
        assert slope == pytest.approx(-4.0, abs=1e-6)

    def test_too_few_points(self):
        with pytest.raises(InsufficientData):
            fit_rate(np.arange(1, 6), np.ones(5))

    def test_sign_folding(self):
        ks = np.arange(10, 2000)
        slope, _ = fit_rate(ks, -1.0 / ks**2)
        assert slope == pytest.approx(-2.0, abs=1e-6)


class TestConfigParsing:
    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("nonexistent.cfg")

    def test_bad_experiment(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", "[run]\nexperiment = wat\n")
        with pytest.raises(ConfigError):
            parse_config(cfg)

    def test_bad_k_max(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.cfg", "[run]\nexperiment = random_ls\nk_max = 0\n"
        )
        with pytest.raises(ConfigError):
            parse_config(cfg)

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_bad_trace_every(self, tmp_path, value):
        cfg = write_config(
            tmp_path / "c.cfg",
            f"[run]\nexperiment = random_ls\ntrace_every = {value}\n",
        )
        with pytest.raises(ConfigError, match="trace_every"):
            parse_config(cfg)

    def test_trace_every_zero_exit_code(self, tmp_path, capsys):
        out = tmp_path / "zero"
        cfg = write_config(
            tmp_path / "c.cfg",
            BASE_RANDOM_LS.format(k_max=50, trace_every=0, out=out),
        )
        assert main(["--config", cfg, "--quiet"]) == 2

    def test_exit_code_on_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", "[run]\nexperiment = wat\n")
        assert main(["--config", cfg]) == 2


class TestRandomLsExperiment:
    def test_artifacts_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            cfg = write_config(
                tmp_path / f"{out.name}.cfg",
                BASE_RANDOM_LS.format(k_max=2000, trace_every=100, out=out),
            )
            assert main(["--config", cfg, "--quiet"]) == 0
        t1 = (out1 / "trace.csv").read_bytes()
        t2 = (out2 / "trace.csv").read_bytes()
        assert t1 == t2
        meta = json.loads((out1 / "metadata.json").read_text())
        assert meta["policy_resolved"]["sigma"] == pytest.approx(0.25)
        assert meta["reference"]["source"] == "reduced-qp"
        assert (out1 / "rates.csv").exists()
        cols = read_trace_csv(out1 / "trace.csv")
        assert cols["k"][-1] == 2000
        assert (np.diff(cols["k"]) > 0).all()

    def test_single_row_when_k_max_one(self, tmp_path):
        out = tmp_path / "one"
        cfg = write_config(
            tmp_path / "one.cfg",
            BASE_RANDOM_LS.format(k_max=1, trace_every=100, out=out),
        )
        assert main(["--config", cfg, "--quiet"]) == 0
        rows = (out / "trace.csv").read_text().strip().splitlines()
        assert rows[0].startswith("#")
        assert len(rows) == 3  # comment, header, one record

    def test_seed_override_changes_trace(self, tmp_path):
        outs = []
        for seed in (1, 2):
            out = tmp_path / f"s{seed}"
            cfg = write_config(
                tmp_path / f"s{seed}.cfg",
                BASE_RANDOM_LS.format(k_max=500, trace_every=100, out=out),
            )
            assert main(["--config", cfg, "--quiet", "--seed", str(seed)]) == 0
            outs.append((out / "trace.csv").read_bytes())
        assert outs[0] != outs[1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_code(self, tmp_path):
        out = tmp_path / "div"
        body = BASE_RANDOM_LS.format(k_max=3000, trace_every=100, out=out).replace(
            "kind = convex", "kind = convex\nsigma = 80.0\ncertify = false"
        )
        cfg = write_config(tmp_path / "div.cfg", body)
        assert main(["--config", cfg, "--quiet"]) == 3


class TestAcceleratedConfig:
    def test_metadata_resolves_parameters(self, tmp_path):
        out = tmp_path / "acc"
        body = BASE_RANDOM_LS.format(k_max=800, trace_every=100, out=out).replace(
            "kind = convex", "kind = accelerated"
        )
        cfg = write_config(tmp_path / "acc.cfg", body)
        assert main(["--config", cfg, "--quiet"]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        pol = meta["policy_resolved"]
        assert pol["kind"] == "accelerated"
        assert pol["kappa"] >= 4.0  # at least 1/min(pi)
        assert 0.0 < pol["tau0"] < 1.0 / pol["kappa"]


class TestOtherExperiments:
    def test_consensus_runs(self, tmp_path):
        out = tmp_path / "cons"
        cfg = write_config(
            tmp_path / "cons.cfg",
            f"""
[run]
experiment = consensus
seed = 3
k_max = 400
trace_every = 100
out = {out}

[instance]
nodes = 6
graph = ring

[sampling]
kind = nice
m = 2
""",
        )
        assert main(["--config", cfg, "--quiet"]) == 0
        assert (out / "trace.csv").exists()

    def test_opf15_runs_and_writes_prices(self, tmp_path):
        out = tmp_path / "opf"
        cfg = write_config(
            tmp_path / "opf.cfg",
            f"""
[run]
experiment = opf15
seed = 0
k_max = 60
trace_every = 30
out = {out}
""",
        )
        assert main(["--config", cfg, "--quiet"]) == 0
        lines = (out / "dlmp.csv").read_text().strip().splitlines()
        assert lines[0] == "bus,period,y_p,y_q"
        assert len(lines) == 1 + 14 * 2

    def test_custom_experiment(self, tmp_path):
        a_path = tmp_path / "a.csv"
        b_path = tmp_path / "b.csv"
        np.savetxt(a_path, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), delimiter=",")
        np.savetxt(b_path, np.array([1.0, 2.0, 0.0]), delimiter=",")
        out = tmp_path / "cust"
        cfg = write_config(
            tmp_path / "cust.cfg",
            f"""
[run]
experiment = custom
seed = 0
k_max = 300
trace_every = 100
out = {out}

[instance]
a_path = {a_path}
b_path = {b_path}
dims = 1 1
mu = 0.5
oracle_k = 2000

[sampling]
kind = full
""",
        )
        assert main(["--config", cfg, "--quiet"]) == 0
        assert (out / "trace.csv").exists()

    def test_missing_instance_file_exit_code(self, tmp_path):
        out = tmp_path / "missing"
        cfg = write_config(
            tmp_path / "missing.cfg",
            f"""
[run]
experiment = custom
k_max = 10
out = {out}

[instance]
a_path = {tmp_path / 'not_there.csv'}
b_path = {tmp_path / 'not_there_b.csv'}
""",
        )
        assert main(["--config", cfg, "--quiet"]) == 2

    def test_infeasible_opf_exit_code(self, tmp_path):
        from blockpd.dlmp import default_network_paths

        bus, edges = default_network_paths()
        bad = tmp_path / "bus.csv"
        bad.write_text(open(bus).read().replace("2.213", "9.9"))
        out = tmp_path / "sick"
        cfg = write_config(
            tmp_path / "sick.cfg",
            f"""
[run]
experiment = opf15
k_max = 10
out = {out}

[instance]
bus_path = {bad}
edges_path = {edges}
""",
        )
        assert main(["--config", cfg, "--quiet"]) == 4
