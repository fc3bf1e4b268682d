import configparser
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blockpd
from blockpd.cli import fit_rate, main, parse_config
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


# experiment lines, to turn BASE_RANDOM_LS into another experiment's config
LS, FIT, CONSENSUS = "experiment = random_ls", "experiment = model_fit", "experiment = consensus"


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


def linregress_fit(ks, values):
    """The reference fit: ``scipy.stats.linregress`` on the logs ``fit_rate`` takes."""
    from scipy import stats

    ks = np.asarray(ks, dtype=float)
    logs = np.log(np.clip(np.abs(np.asarray(values, dtype=float)), 1e-16, None))
    res = stats.linregress(np.log(ks), logs)
    return float(res.slope), float(res.stderr)


def fit_series(seed=2026, count=400):
    """Seeded (ks, values): exact power laws, noisy ones, white noise over
    40 decades and constant values; one series in ten holds one NaN or
    infinite value."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        n = int(rng.integers(10, 300))
        ks = np.sort(rng.choice(np.arange(1, 100_000), size=n, replace=False)).astype(float)
        kind = t % 4
        if kind == 0:
            values = ks ** rng.uniform(-5.0, 1.0)
        elif kind == 1:
            values = ks ** rng.uniform(-5.0, 1.0) * np.exp(rng.normal(0.0, 3.0 * rng.random(), n))
        elif kind == 2:
            values = rng.normal(size=n) * 10.0 ** rng.uniform(-20.0, 20.0)
        else:
            values = np.full(n, rng.uniform(-2.0, 2.0))
        if t % 10 == 9:
            values[rng.integers(n)] = (np.nan, np.inf, -np.inf)[t % 3]
        yield ks, values


class TestFitMatchesLinregress:
    """``fit_rate`` computes linregress's slope and standard error with
    NumPy alone; the two agree bit for bit, NaN for NaN."""

    @staticmethod
    def same_bits(ours, theirs):
        return np.array(ours).tobytes() == np.array(theirs).tobytes()

    def test_seeded_series_match_bit_for_bit(self):
        finite = 0
        for ks, values in fit_series():
            with np.errstate(all="ignore"):
                ours, theirs = fit_rate(ks, values), linregress_fit(ks, values)
            assert self.same_bits(ours, theirs), (ours, theirs)
            if not np.isfinite(values).all():
                assert all(math.isnan(v) for v in ours)
            finite += math.isfinite(ours[1])
        assert finite > 300  # most fits are finite

    def test_identical_ks_raise_the_same_error(self):
        ks, values = np.full(12, 40.0), np.linspace(1.0, 2.0, 12)
        with pytest.raises(ValueError) as theirs:
            linregress_fit(ks, values)
        with pytest.raises(ValueError, match="all x values are identical") as ours:
            fit_rate(ks, values)
        assert str(ours.value) == str(theirs.value)


def test_package_loads_no_scipy_stats():
    # scipy.stats adds about 43 MB of resident memory to an import of the
    # package (scipy 1.17); the package uses SciPy for linear algebra only
    code = (
        "import sys\n"
        "import blockpd, blockpd.cli, blockpd.dlmp\n"
        "names = sorted(m for m in sys.modules if m.startswith('scipy.'))\n"
        "subpackages = sorted(m for m in names if m.count('.') == 1\n"
        "                     and not m.startswith('scipy._')\n"
        "                     and hasattr(sys.modules[m], '__path__'))\n"
        "print([m for m in names if m.startswith('scipy.stats')])\n"
        "print(subpackages)\n"
    )
    src = str(Path(blockpd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    stats_modules, subpackages = out.stdout.splitlines()
    assert stats_modules == "[]"
    assert subpackages == "['scipy.linalg']"


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

    @pytest.mark.parametrize(
        "body",
        [
            "[run]\nexperiment = random_ls\nk_max = 5\nk_max = 6\n",
            "[run]\nexperiment = random_ls\n[fit]\ncolumns = h_gap_w\n[fit]\ncolumns = h_gap_w\n",
            "experiment = random_ls\n[run]\nk_max = 5\n",
            "[run]\nexperiment = random_ls\nout = runs/50%\n",
        ],
        ids=["repeated-option", "repeated-section", "no-section-header", "stray-percent"],
    )
    def test_malformed_ini_exit_code(self, tmp_path, capsys, body):
        cfg = write_config(tmp_path / "c.cfg", body)
        with pytest.raises(ConfigError, match="c.cfg"):
            parse_config(cfg)
        assert main(["--config", cfg, "--quiet"]) == 2
        assert "c.cfg" in capsys.readouterr().err

    def test_non_numeric_stop_kkt_tol(self, tmp_path, capsys):
        body = BASE_RANDOM_LS.format(k_max=50, trace_every=10, out=tmp_path / "o")
        cfg = write_config(
            tmp_path / "c.cfg", body.replace("seed = 5", "seed = 5\nstop_kkt_tol = abc")
        )
        with pytest.raises(ConfigError, match="stop_kkt_tol"):
            parse_config(cfg)
        assert main(["--config", cfg, "--quiet"]) == 2
        assert "stop_kkt_tol" in capsys.readouterr().err

    def test_non_numeric_instance_field(self, tmp_path, capsys):
        body = BASE_RANDOM_LS.format(k_max=50, trace_every=10, out=tmp_path / "o")
        cfg = write_config(tmp_path / "c.cfg", body.replace("d = 4", "d = ten"))
        assert main(["--config", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "[instance] d = 'ten'" in err

    @pytest.mark.parametrize("old, new, message", [
        ("kind = single", "kind = bogus", "[sampling]"),
        ("kind = single", "kind = nice\nm = 9", "[sampling]"),
        ("kind = single", "kind = nice", "[sampling]"),
        ("kind = convex", "kind = accelerated\ntau0 = 5", "[policy]"),
        ("kind = convex", "kind = accelerated\ntau0 = 0", "[policy]"),
        ("d = 4", "d = 0", "[instance]"),
        ("kind = convex", "kind = convex\nsigma = -1", "[policy] sigma must be finite and > 0"),
        ("kind = convex", "kind = convex\nsigma = inf", "[policy] sigma must be finite and > 0"),
        ("noise = 0.4", "noise = 0.4\nmu = -1", "[instance] mu must be finite and >= 0"),
        ("noise = 0.4", "noise = nan", "[instance] noise must be finite and >= 0"),
        ("seed = 5", "seed = 5\nstop_kkt_tol = nan", "[run] stop_kkt_tol must be finite and > 0"),
        ((LS, "d = 4"), (FIT, "l1_weight = -1"), "[instance] l1 weight must be finite and >= 0"),
        ((LS, "d = 4"), (FIT, "l1_weight = nan"), "[instance] l1 weight must be finite and >= 0"),
        ((LS, "d = 4"), (CONSENSUS, "nodes = 0"), "[instance] nodes must be >= 1, got 0"),
        ((LS, "d = 4"), (CONSENSUS, "nodes = -1"), "[instance] nodes must be >= 1, got -1"),
        ((LS, "d = 4"), (CONSENSUS, "nodes = 1"), "[instance] consensus needs an edge"),
        ((LS, "d = 4"), (CONSENSUS, "nodes = 1\ngraph = ring"),
         "[instance] consensus needs an edge"),
        ((LS, "d = 4"), (FIT, "p = 0"), "[instance] p must be >= 1, got 0"),
        ((LS, "d = 4"), (FIT, "p = -1"), "[instance] p must be >= 1, got -1"),
        ((LS, "q = 18"), (FIT, "q = 0"), "[instance] q must be >= 1, got 0"),
        ((LS, "q = 18"), (FIT, "q = -2"), "[instance] q must be >= 1, got -2"),
        ("d = 4", "d = 4\ninstance_seed = -1", "[instance] instance_seed must be >= 0, got -1"),
        ((LS, "d = 4"), (FIT, "instance_seed = -1"),
         "[instance] instance_seed must be >= 0, got -1"),
        ((LS, "d = 4"), (CONSENSUS, "instance_seed = -1"),
         "[instance] instance_seed must be >= 0, got -1"),
    ], ids=["unknown-sampling", "nice-m-above-d", "nice-without-m", "tau0-too-large", "tau0-zero",
            "no-blocks", "negative-sigma", "infinite-sigma", "negative-mu", "nan-noise",
            "nan-stop-tol", "negative-l1-weight", "nan-l1-weight", "no-consensus-nodes",
            "negative-consensus-nodes", "one-consensus-node", "one-node-ring", "fit-no-features",
            "fit-negative-features", "fit-no-samples", "fit-negative-samples",
            "negative-instance-seed", "fit-negative-instance-seed",
            "consensus-negative-instance-seed"])
    def test_rejected_value_exit_code(self, tmp_path, capsys, old, new, message):
        # a pair of tuples makes several replacements (another experiment)
        body = BASE_RANDOM_LS.format(k_max=50, trace_every=10, out=tmp_path / "o")
        edits = zip(old, new) if isinstance(old, tuple) else [(old, new)]
        for o, n in edits:
            body = body.replace(o, n)
        cfg = write_config(tmp_path / "c.cfg", body)
        assert main(["--config", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    @pytest.mark.parametrize("columns", ["h_gap_w, bogus", "lyapunov", "wall_time"])
    def test_unknown_fit_column_before_the_run(self, tmp_path, capsys, columns):
        out = tmp_path / "o"
        body = BASE_RANDOM_LS.format(k_max=50, trace_every=10, out=out)
        cfg = write_config(
            tmp_path / "c.cfg", body.replace("psi_hat_gap, h_gap_w", columns)
        )
        with pytest.raises(ConfigError, match=r"\[fit\] columns"):
            parse_config(cfg)
        assert main(["--config", cfg, "--quiet"]) == 2
        assert "[fit] columns" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_names_the_run_section(self, tmp_path, capsys):
        body = BASE_RANDOM_LS.format(k_max=50, trace_every=10, out=tmp_path / "o")
        cfg = write_config(tmp_path / "c.cfg", body.replace("seed = 5", "seed = -1"))
        assert main(["--config", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "[run] seed must be >= 0" in err and "[instance]" not in err

    def test_negative_seed_option_exit_code(self, tmp_path, capsys):
        body = BASE_RANDOM_LS.format(k_max=50, trace_every=10, out=tmp_path / "o")
        cfg = write_config(tmp_path / "c.cfg", body)
        assert main(["--config", cfg, "--quiet", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "--seed must be >= 0" in err and "[instance]" not in err

    @pytest.mark.parametrize("value, message", [
        ("-5", "[fit] k_min must be >= 1, got -5"),
        ("0", "[fit] k_min must be >= 1, got 0"),
        ("51", "[fit] k_min must be <= [run] k_max = 50, got 51"),
        ("1000000", "[fit] k_min must be <= [run] k_max = 50, got 1000000"),
    ])
    def test_fit_k_min_domain(self, tmp_path, capsys, value, message):
        out = tmp_path / "o"
        body = BASE_RANDOM_LS.format(k_max=50, trace_every=10, out=out)
        cfg = write_config(tmp_path / "c.cfg", body + f"k_min = {value}\n")
        assert main(["--config", cfg, "--quiet"]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "rates.csv").exists()

    def test_fit_k_min_at_k_max_runs(self, tmp_path):
        out = tmp_path / "o"
        body = BASE_RANDOM_LS.format(k_max=50, trace_every=10, out=out)
        cfg = write_config(tmp_path / "c.cfg", body + "k_min = 50\n")
        assert main(["--config", cfg, "--quiet"]) == 0

    @pytest.mark.parametrize("old, new, message", [
        ("block_dim = 3", "block_dim = 0", "[instance] block_dim must be >= 1, got 0"),
        ("block_dim = 3", "block_dim = -1", "[instance] block_dim must be >= 1, got -1"),
        ("q = 18", "q = 0", "[instance] q must be >= 1, got 0"),
        ("q = 18", "q = -3", "[instance] q must be >= 1, got -3"),
        ("d = 4", "d = -2", "[instance] d must be >= 1, got -2"),
        # no coupling rows is rejected whatever the rank deficiency
        ("q = 18\nnoise = 0.4\nrank_deficiency = 2", "q = 0\nnoise = 0.4\nrank_deficiency = 0",
         "[instance] q must be >= 1, got 0"),
    ], ids=["block-dim-zero", "block-dim-negative", "q-zero", "q-negative", "d-negative",
            "q-zero-full-rank"])
    def test_instance_sizes_name_their_field(self, tmp_path, capsys, old, new, message):
        body = BASE_RANDOM_LS.format(k_max=50, trace_every=10, out=tmp_path / "o")
        assert old in body
        cfg = write_config(tmp_path / "c.cfg", body.replace(old, new))
        assert main(["--config", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert message in err and "rank_deficiency" not in err

    @pytest.mark.parametrize("old, new, unread", [
        ("noise = 0.4", "nosie = 0.9", ["[instance] nosie"]),
        ("columns = psi_hat_gap, h_gap_w", "colums = h_gap_w", ["[fit] colums"]),
        ("kind = convex", "kind = convex\ntau0 = 0.5", ["[policy] tau0"]),
        ("kind = single", "kind = single\nm = 3", ["[sampling] m"]),
        ("kind = convex", "kind = accelerated\nsigma = 5\ncertify = no",
         ["[policy] sigma", "[policy] certify"]),
    ], ids=["misspelled-noise", "misspelled-columns", "tau0-under-convex", "m-under-single",
            "convex-fields-under-accelerated"])
    def test_unread_field_exit_code(self, tmp_path, capsys, old, new, unread):
        out = tmp_path / "o"
        body = BASE_RANDOM_LS.format(k_max=50, trace_every=10, out=out)
        cfg = write_config(tmp_path / "c.cfg", body.replace(old, new))
        assert main(["--config", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert all(field in err for field in unread) and "not read" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_oracle_k_must_be_positive(self, tmp_path, capsys, value):
        # oracle_k is gone: any value of it, in range or not, is a field the run never reads
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path / "fit.cfg",
            f"[run]\nexperiment = model_fit\nk_max = 20\nout = {out}\n\n"
            f"[instance]\nq = 6\np = 3\noracle_k = {value}\n",
        )
        assert main(["--config", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "[instance] oracle_k" in err and "not read" in err
        assert "must be >= 1" not in err
        assert not out.exists()

    def test_opf15_reads_no_generic_section(self, tmp_path, capsys):
        # metadata.json recorded an accelerated policy for a convex paired run
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path / "opf.cfg",
            f"[run]\nexperiment = opf15\nk_max = 5\nout = {out}\n\n"
            "[instance]\nbus_pth = buses.csv\n\n[sampling]\nkind = single\n\n"
            "[policy]\nkind = accelerated\nsigma = 5\n\n[fit]\ncolumns = h_gap_w\n",
        )
        assert main(["--config", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        for field in ("[instance] bus_pth", "[sampling] kind", "[policy] kind",
                      "[policy] sigma", "[fit] columns"):
            assert field in err
        assert not out.exists()

    def test_psi_gap_fit_without_exact_floor_before_the_run(self, tmp_path, capsys):
        # a model_fit instance has no quadratic metadata, so no exact Psi*
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path / "fit.cfg",
            f"[run]\nexperiment = model_fit\nk_max = 20\nout = {out}\n\n"
            "[instance]\nq = 6\np = 3\n\n[fit]\ncolumns = h_gap_w, psi_hat_gap\n",
        )
        assert main(["--config", cfg, "--quiet"]) == 2
        assert "[fit] columns: psi_hat_gap needs an exact" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", [LS, "experiment = opf15"])
    @pytest.mark.parametrize("out, option", [
        ("afile", False), ("afile", True), ("afile/sub", False), ("", False), ("", True),
    ], ids=["file", "file-option", "below-file", "empty", "empty-option"])
    def test_out_that_names_no_directory_exits_before_set_up(
        self, tmp_path, capsys, monkeypatch, experiment, out, option
    ):
        from blockpd import cli

        def set_up(*args, **kwargs):
            raise AssertionError("set-up ran")

        monkeypatch.setattr(cli, "_build_random_ls", set_up)
        monkeypatch.setattr(cli, "load_network", set_up)
        monkeypatch.chdir(tmp_path)
        Path("afile").write_text("kept\n")
        body = f"[run]\n{experiment}\nk_max = 5\nout = {'runs/o' if option else out}\n"
        argv = ["--config", write_config(tmp_path / "c.cfg", body), "--quiet"]
        assert main(argv + (["--out", out] if option else [])) == 2
        assert "config error: [run] out" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "c.cfg"]
        assert Path("afile").read_text() == "kept\n"

    def test_given_sigma_is_not_certified(self, tmp_path):
        out = tmp_path / "o"
        body = BASE_RANDOM_LS.format(k_max=50, trace_every=10, out=out)
        cfg = write_config(
            tmp_path / "c.cfg", body.replace("kind = convex", "kind = convex\nsigma = 0.01")
        )
        assert main(["--config", cfg, "--quiet"]) == 0
        pol = json.loads((out / "metadata.json").read_text())["policy_resolved"]
        assert pol["sigma"] == 0.01
        assert math.isnan(pol["certified_margin"])

    @pytest.mark.parametrize("word", ["no", "False", "off", "0"])
    def test_certify_false_words(self, tmp_path, word):
        out = tmp_path / "o"
        body = BASE_RANDOM_LS.format(k_max=50, trace_every=10, out=out)
        cfg = write_config(
            tmp_path / "c.cfg", body.replace("kind = convex", f"kind = convex\ncertify = {word}")
        )
        assert main(["--config", cfg, "--quiet"]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert math.isnan(meta["policy_resolved"]["certified_margin"])

    def test_unknown_boolean_word_exit_code(self, tmp_path, capsys):
        body = BASE_RANDOM_LS.format(k_max=50, trace_every=10, out=tmp_path / "o")
        cfg = write_config(
            tmp_path / "c.cfg", body.replace("kind = convex", "kind = convex\ncertify = maybe")
        )
        assert main(["--config", cfg, "--quiet"]) == 2
        assert "[policy] certify = 'maybe'" in capsys.readouterr().err

    @pytest.mark.parametrize("word, expected", [("True", True), ("yes", True),
                                                ("off", False), ("maybe", None)])
    def test_drop_shunt_words(self, tmp_path, monkeypatch, word, expected):
        from blockpd import cli

        seen = []

        def recording(net, *, drop_shunt):
            seen.append(drop_shunt)
            return build(net, drop_shunt=drop_shunt)

        build = cli.build_opf_problem
        monkeypatch.setattr(cli, "build_opf_problem", recording)
        out = tmp_path / "opf"
        cfg = write_config(
            tmp_path / "opf.cfg",
            f"[run]\nexperiment = opf15\nk_max = 5\nout = {out}\n\n"
            f"[instance]\ndrop_shunt = {word}\n",
        )
        code = main(["--config", cfg, "--quiet"])
        if expected is None:
            assert code == 2 and seen == []
        else:
            assert code == 0 and seen == [expected]


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
        ks = np.genfromtxt(out1 / "trace.csv", delimiter=",", names=True, skip_header=1)["k"]
        assert ks[-1] == 2000
        assert (np.diff(ks) > 0).all()

    def test_single_row_when_k_max_one(self, tmp_path):
        out = tmp_path / "one"
        cfg = write_config(
            tmp_path / "one.cfg",
            BASE_RANDOM_LS.format(k_max=1, trace_every=100, out=out),
        )
        assert main(["--config", cfg, "--quiet"]) == 0
        rows = (out / "trace.csv").read_text().strip().splitlines()
        assert rows[:2] == [
            "# blockpd-trace-v2",
            "k,psi_x,psi_hat,h_gap_x,h_gap_w,primal_res,kkt_res,tau,sigma",
        ]
        assert len(rows) == 3  # comment, header, one record

    def test_trace_fields_are_plain_numbers(self, tmp_path):
        # every field of an averaging-engine trace reads back with float()
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path / "c.cfg", BASE_RANDOM_LS.format(k_max=50, trace_every=10, out=out)
        )
        assert main(["--config", cfg, "--quiet"]) == 0
        rows = (out / "trace.csv").read_text().strip().splitlines()[2:]
        assert len(rows) == 5
        for row in rows:
            for field in row.split(","):
                float(field)

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_prints_the_last_row_in_plain_floats(self, tmp_path, capsys):
        out = tmp_path / "div"
        body = BASE_RANDOM_LS.format(k_max=3000, trace_every=20, out=out).replace(
            "kind = convex", "kind = convex\nsigma = 1e300"
        )
        cfg = write_config(tmp_path / "div.cfg", body)
        assert main(["--config", cfg, "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "last trace row: TraceRecord(k=" in err
        assert "np.float64" not in err and "psi_x=nan" in err


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

    def test_opf15_metadata_counts_operator_projections(self, tmp_path):
        traces = []
        for name in ("a", "b"):
            out = tmp_path / name
            cfg = write_config(
                tmp_path / f"{name}.cfg",
                f"[run]\nexperiment = opf15\nseed = 1\nk_max = 60\ntrace_every = 7\nout = {out}\n",
            )
            assert main(["--config", cfg, "--quiet"]) == 0
            traces.append((out / "trace.csv").read_bytes())
            counts = json.loads((out / "metadata.json").read_text())["operator_projection"]
            assert counts["calls"] == 60
            assert 1 <= counts["factorisations"] <= counts["newton_steps"]
        assert traces[0] == traces[1]

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

[sampling]
kind = full
""",
        )
        assert main(["--config", cfg, "--quiet"]) == 0
        assert (out / "trace.csv").exists()

    @pytest.mark.parametrize("mu", ["-1", "nan", "inf"])
    def test_custom_mu_domain(self, tmp_path, capsys, mu):
        # the random_ls domain: finite and >= 0
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        np.savetxt(a_path, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), delimiter=",")
        np.savetxt(b_path, np.array([1.0, 2.0, 0.0]), delimiter=",")
        cfg = write_config(
            tmp_path / "mu.cfg",
            f"[run]\nexperiment = custom\nk_max = 300\nout = {tmp_path / 'o'}\n\n"
            f"[instance]\na_path = {a_path}\nb_path = {b_path}\ndims = 1 1\nmu = {mu}\n",
        )
        assert main(["--config", cfg, "--quiet"]) == 2
        assert "[instance] mu must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("key, a, b", [
        ("b_path", [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, np.inf, 0.0]),
        ("a_path", [[1.0, 0.0], [0.0, np.nan], [1.0, 1.0]], [1.0, 2.0, 0.0]),
    ])
    def test_custom_non_finite_data_exit_code(self, tmp_path, capsys, key, a, b):
        # inf in b reached gelsy, nan in A the policy's SVD
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        np.savetxt(a_path, np.array(a), delimiter=",")
        np.savetxt(b_path, np.array(b), delimiter=",")
        cfg = write_config(
            tmp_path / "nonfinite.cfg",
            f"[run]\nexperiment = custom\nk_max = 300\nout = {tmp_path / 'o'}\n\n"
            f"[instance]\na_path = {a_path}\nb_path = {b_path}\ndims = 1 1\nmu = 0.5\n",
        )
        assert main(["--config", cfg, "--quiet"]) == 2
        assert f"[instance] {key} holds a value that is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("b, message", [
        # a matrix b reached the least-squares solve, which exited 1
        ([[1.0, 2.0], [0.0, 1.0], [2.0, 0.0]], "[instance] b must be a vector, got an array of shape (3, 2)"),
        ([1.0, 2.0], "[instance] b has length 2 but A has 3 rows"),
    ], ids=["matrix-b", "short-b"])
    def test_custom_b_shape_exit_code(self, tmp_path, capsys, b, message):
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        np.savetxt(a_path, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), delimiter=",")
        np.savetxt(b_path, np.array(b), delimiter=",")
        cfg = write_config(
            tmp_path / "b.cfg",
            f"[run]\nexperiment = custom\nk_max = 300\nout = {tmp_path / 'o'}\n\n"
            f"[instance]\na_path = {a_path}\nb_path = {b_path}\ndims = 1 1\nmu = 0.5\n",
        )
        assert main(["--config", cfg, "--quiet"]) == 2
        assert message in capsys.readouterr().err

    def test_uncoupled_unscaled_block_exit_code(self, tmp_path, capsys):
        # column 2 of A is zero and mu = 0: block 1 would get B_1 = 0
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        np.savetxt(a_path, np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 0.0]]), delimiter=",")
        np.savetxt(b_path, np.array([1.0, 2.0, 0.0]), delimiter=",")
        cfg = write_config(
            tmp_path / "zero.cfg",
            f"[run]\nexperiment = custom\nk_max = 300\nout = {tmp_path / 'o'}\n\n"
            f"[instance]\na_path = {a_path}\nb_path = {b_path}\ndims = 1 1\n",
        )
        assert main(["--config", cfg, "--quiet"]) == 2
        assert "[policy] block 1 has no coupling columns" in capsys.readouterr().err

    def test_nan_before_the_first_check_exit_code(self, tmp_path, capsys, monkeypatch):
        # block 0's prox returns NaN and k_max is below NAN_CHECK_EVERY: the
        # last iterate is checked (the exact reference runs no solver)
        import dataclasses

        import blockpd.cli as cli
        from blockpd.blocks import ProxBlock

        def with_nan_prox(make):
            def build(**kwargs):
                p = make(**kwargs)
                nan = ProxBlock(lambda x: 0.0, lambda g, v: v * np.nan, 0.0)
                return dataclasses.replace(p, prox=(nan,) + p.prox[1:])
            return build

        monkeypatch.setattr(
            cli, "make_random_inconsistent_ls", with_nan_prox(cli.make_random_inconsistent_ls)
        )
        body = BASE_RANDOM_LS.format(k_max=50, trace_every=10, out=tmp_path / "o")
        assert main(["--config", write_config(tmp_path / "c.cfg", body), "--quiet"]) == 3
        assert "non-finite iterate at k=50" in capsys.readouterr().err

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

    def test_projection_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        from blockpd import dlmp

        # an unreachable tolerance: the operator projection must give up
        monkeypatch.setattr(dlmp, "NEWTON_TOL", -1.0)
        out = tmp_path / "stuck"
        cfg = write_config(
            tmp_path / "stuck.cfg",
            f"""
[run]
experiment = opf15
k_max = 10
out = {out}
""",
        )
        assert main(["--config", cfg, "--quiet"]) == 3
        assert "projection did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("table, old, new, message", [
        ("bus", "n,S,R_e3,", "n,S,", "bus table is missing columns"),
        ("edges", "8,7", "20,7", "bus 7: parent 20 is neither a bus"),
        ("edges", "0,12\n", "", "bus 12 has no parent edge"),
        ("edges", "8,7\n", "8,7\n5,7\n", "edge 5,7: bus 7 has two parent edges"),
        ("edges", "0,12\n", "0,12\n3,99\n", "edge 3,99: child 99 is not in the bus table"),
        ("bus", "\n4,", "\n3,9.999,138.4,197.8,2.4,0.003,0.011,0.020,0.035,0.047,0.418\n4,",
         "bus 3 has two rows in the bus table"),
        ("bus", "\n3,0.256,138.4,197.8,2.4,0.003,", "\n3,0.256,138.4,197.8,2.4,nan,",
         "bus 3: consumption floor Pmin [nan, 0.011] is not finite"),
        ("bus", "\n3,0.256,", "\n3,-1,", "bus 3: line capacity S -1.0 is negative"),
        ("bus", "0.047,0.418", "0.047,nan", "bus 3: reactive ratio tau_c nan is not finite"),
        ("bus", "0.035,0.047,", "0.035,inf,", "bus 3: energy demand E inf is not finite"),
    ], ids=["bus-columns-missing", "parent-not-a-bus", "bus-without-parent",
            "repeated-child", "child-not-a-bus", "repeated-bus", "nan-floor",
            "negative-capacity", "nan-tau_c", "infinite-energy"])
    def test_malformed_grid_data_exit_code(self, tmp_path, capsys, table, old, new, message):
        from blockpd.dlmp import default_network_paths

        paths = dict(zip(("bus", "edges"), default_network_paths()))
        bad = tmp_path / f"{table}.csv"
        bad.write_text(open(paths[table]).read().replace(old, new))
        paths[table] = bad
        cfg = write_config(
            tmp_path / "grid.cfg",
            f"[run]\nexperiment = opf15\nk_max = 10\nout = {tmp_path / 'o'}\n\n"
            f"[instance]\nbus_path = {paths['bus']}\nedges_path = {paths['edges']}\n",
        )
        assert main(["--config", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "config error: [instance]" in err and message in err

    @pytest.mark.parametrize("table, old, new, message", [
        ("bus", "n,S,R_e3,", "n,S,", "bus table is missing columns"),
        ("edges", "8,7\n", "8,7\n5,7\n", "edge 5,7: bus 7 has two parent edges"),
    ], ids=["lone-bus-path", "lone-edges-path"])
    def test_lone_grid_path_is_read(self, tmp_path, capsys, table, old, new, message):
        # the path not given falls back to its own bundled file; the given
        # one is still read
        from blockpd.dlmp import default_network_paths

        paths = dict(zip(("bus", "edges"), default_network_paths()))
        bad = tmp_path / f"{table}.csv"
        bad.write_text(open(paths[table]).read().replace(old, new))
        cfg = write_config(
            tmp_path / "lone.cfg",
            f"[run]\nexperiment = opf15\nk_max = 10\nout = {tmp_path / 'o'}\n\n"
            f"[instance]\n{table}_path = {bad}\n",
        )
        assert main(["--config", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "config error: [instance]" in err and message in err

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

    def test_consumption_floor_above_cap_exit_code(self, tmp_path, capsys):
        from blockpd.dlmp import default_network_paths

        bus, edges = default_network_paths()
        bad = tmp_path / "bus.csv"
        bad.write_text(open(bus).read().replace("2.4,0.003,0.011", "2.4,0.030,0.011"))
        cfg = write_config(
            tmp_path / "empty.cfg",
            f"[run]\nexperiment = opf15\nk_max = 10\nout = {tmp_path / 'o'}\n\n"
            f"[instance]\nbus_path = {bad}\nedges_path = {edges}\n",
        )
        assert main(["--config", cfg, "--quiet"]) == 4
        err = capsys.readouterr().err
        assert "infeasible instance: bus 3, period 0: consumption floor 0.03" in err


CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"
WORDS = ("zebra", "maybe", "lots", "none_of_these")
# fields no bundled config sets, added at an admissible value before the
# sweep: config name (None for every config with a [fit]), section, key, value
UNSET_FIELDS = (
    ("random_ls_accel", "policy", "tau0", "0.02"),  # the default 0.0138 < tau0 < 1/kappa
    ("random_ls_convex", "policy", "sigma", "0.05"),  # the default is 0.1
    (None, "fit", "k_min", "2"),
)


def config_mutations(seed=2026):
    """Every field of each bundled config deleted, emptied, set to 0, -1,
    nan, inf and a word, and one key per section repeated under a misspelled
    name, each with ``k_max = 20`` unless ``k_max`` itself is the field and
    with the ``UNSET_FIELDS`` set:
    tuples (config name, section, key, value or None for a deletion,
    misspelled key or None, INI text)."""
    rng = random.Random(seed)
    for path in sorted(CONFIGS.glob("*.cfg")):
        base = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        base.read(path)
        base["run"]["k_max"] = "20"
        for name, section, key, value in UNSET_FIELDS:
            if name == path.stem or (name is None and base.has_section(section)):
                base[section][key] = value

        def mutated(section, key, value, typo=None):
            cp = configparser.ConfigParser()
            cp.read_dict(base)
            if typo is not None:  # beside the field it misspells
                cp[section][typo] = cp[section][key]
            elif value is None:
                del cp[section][key]
            else:
                cp[section][key] = value
            text = io.StringIO()
            cp.write(text)
            return (path.stem, section, key, value, typo, text.getvalue())

        for section in base.sections():
            for key in base[section]:
                for value in (None, "", "0", "-1", "nan", "inf", rng.choice(WORDS)):
                    yield mutated(section, key, value)
            # a missing experiment is rejected before any other field
            key = rng.choice([k for k in base[section] if k != "experiment"])
            at = rng.randrange(len(key))
            yield mutated(section, key, None, key[:at] + key[at] + key[at:])


def accepted(name, section, key, value):
    """Whether a run takes the mutation: a deleted field falls back to its
    default, and a few fields admit the value given."""
    if value is None:
        # nothing stands in for the experiment; consensus's nice sampling
        # needs m, which a single sampling does not read; and the convex
        # policy a deleted kind falls back to does not read tau0
        if key == "experiment" or (name == "consensus" and section == "sampling"):
            return False
        return not (name == "random_ls_accel" and section == "policy" and key == "kind")
    if key == "out":
        return value != ""  # any path but the empty one, which names no directory
    admits = {
        "stop_kkt_tol": {""},  # none
        "tau0": {""},  # the default
        "k_min": {""},  # the default, k_max // 10
        "columns": {""},  # fit nothing
        "certify": {"0"},  # a boolean word
        "seed": {"0"},
        "noise": {"0"},
        "rank_deficiency": {"0"},
        # mu = 0 leaves the accelerated policy without strong convexity
        "mu": {"0"} if name == "random_ls_convex" else set(),
    }
    return key in admits and value in admits[key]


class TestConfigMutations:
    def test_every_mutation_exits_with_its_documented_code(self, tmp_path, monkeypatch, capsys):
        # outputs land under tmp_path: every bundled config names a relative out
        monkeypatch.chdir(tmp_path)
        seen = 0
        for name, section, key, value, typo, text in config_mutations():
            cfg = write_config(tmp_path / "m.cfg", text)
            code = main(["--config", cfg, "--quiet"])
            err = capsys.readouterr().err
            case = f"{name} [{section}] {typo or key} = {value!r}: exit {code} {err}"
            if typo is not None:
                assert code == 2 and f"[{section}] {typo}" in err, case
            elif accepted(name, section, key, value):
                assert code == 0, case
            else:
                # the message names a section, mostly the field's own
                assert code == 2 and re.search(r"config error: .*\[[a-z]+\]", err), case
            seen += 1
        assert seen == 7 * 52 + 16  # 52 fields, 16 sections
