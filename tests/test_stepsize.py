import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blockpd as bp
from blockpd import stepsize
from blockpd.blocks import BlockStructure, ProblemSpec, SmoothBlock
from blockpd.errors import InvariantViolation, StrongConvexityRequired
from blockpd.proxops import prox_quadratic_block, prox_zero_block
from blockpd.sampling import weight_matrix_p, xi_matrix
from blockpd.stepsize import (
    cumulative_weight_bound,
    make_accelerated_policy,
    mi_margins,
    normalized_s_step,
    step_map,
    tau_lower_bound,
    tau_next,
)


def tiny_problem(a_blocks, l_vals, mu_vals):
    d = len(a_blocks)
    dims = tuple(a.shape[1] for a in a_blocks)
    smooth = []
    prox = []
    for i in range(d):
        h = l_vals[i] * np.eye(dims[i])
        smooth.append(SmoothBlock.quadratic(h, np.zeros(dims[i])))
        prox.append(
            prox_quadratic_block(mu_vals[i]) if mu_vals[i] > 0 else prox_zero_block(dims[i])
        )
    return ProblemSpec(
        BlockStructure(dims),
        tuple(smooth),
        tuple(prox),
        tuple(a_blocks),
        np.zeros(a_blocks[0].shape[0]),
    )


class TestConvexDefault:
    def test_single_block_tight_case(self):
        # one block, A = [1;1]: lambda = 2, L = 1, B = 3, sigma = 1, equality
        p = tiny_problem([np.array([[1.0], [1.0]])], [1.0], [0.0])
        s = bp.full(1)
        pol = bp.convex_default_policy(p, s)
        assert pol.sigma == pytest.approx(1.0)
        assert np.allclose(pol.b_diag, [3.0])
        assert pol.certified_margin == pytest.approx(0.0, abs=1e-10)
        assert pol.halvings == 0

    def test_orthogonal_design_no_halving(self):
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))[0]
        p = tiny_problem([q[:, :3], q[:, 3:]], [1.0, 2.0], [0.0, 0.0])
        pol = bp.convex_default_policy(p, bp.single_coordinate(2))
        assert pol.halvings == 0
        assert pol.sigma == pytest.approx(0.5)

    def test_zero_coupling_any_sigma(self):
        p = tiny_problem([np.zeros((2, 2)), np.zeros((2, 3))], [0.0, 0.0], [0.0, 0.0])
        pol = bp.convex_default_policy(p, bp.single_coordinate(2))
        assert pol.sigma == pytest.approx(0.5)
        assert pol.certified_margin >= -1e-8


class TestAccelParams:
    def test_hand_case(self):
        # two scalar blocks, uniform one-at-a-time activation, unit data
        p = tiny_problem([np.eye(2)[:, :1], np.eye(2)[:, 1:]], [1.0, 1.0], [1.0, 1.0])
        alpha, beta, kappa = bp.accel_params(p, bp.single_coordinate(2))
        assert alpha == pytest.approx(0.25, abs=1e-12)
        assert kappa == pytest.approx(4.0, abs=1e-12)
        assert beta == pytest.approx(1.0, abs=1e-12)

    def test_identity_case(self):
        p = tiny_problem([np.eye(2)[:, :1], np.eye(2)[:, 1:]], [0.0, 0.0], [1.0, 1.0])
        alpha, beta, kappa = bp.accel_params(p, bp.full(2))
        assert (alpha, beta, kappa) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)

    def test_kappa_dominates_inverse_marginals(self, bench_instance):
        s = bp.single_coordinate(bench_instance.d)
        _, _, kappa = bp.accel_params(bench_instance, s)
        assert kappa >= 1.0 / float(np.min(s.pi)) - 1e-12

    def test_requires_strong_convexity(self):
        p = tiny_problem([np.eye(2)[:, :1], np.eye(2)[:, 1:]], [1.0, 1.0], [1.0, 0.0])
        with pytest.raises(StrongConvexityRequired):
            bp.accel_params(p, bp.single_coordinate(2))


class TestTauRecursion:
    def test_hand_value(self):
        # kappa=4, pi=1/2, tau=0.2: root of 0.44 x^2 + 0.12 x - 0.04 = 0
        val = tau_next(0.2, 4.0, 0.5)
        assert val == pytest.approx(0.19455044951275083, abs=1e-12)

    def test_normalized_illustration(self):
        assert normalized_s_step(2.0, 1.0) == pytest.approx(4.0 / (2.0 + np.sqrt(8.0)))

    def test_ratio_tends_to_one(self):
        t = 1e-8
        assert tau_next(t, 3.0, 0.5) / t == pytest.approx(1.0, abs=1e-6)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            tau_next(0.3, 4.0, 0.5)  # tau >= 1/kappa

    def test_dual_paths_agree_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            pi = float(rng.uniform(0.05, 1.0))
            kappa = float(rng.uniform(1.0 / pi, 60.0))
            tau = float(rng.uniform(1e-8, 0.999 / kappa))
            tau_next(tau, kappa, pi)  # asserts the two paths agree internally

    def test_strictly_decreasing_long_run(self):
        taus = [0.01]
        for _ in range(2000):
            taus.append(tau_next(taus[-1], 12.0, 0.25))
        diffs = np.diff(taus)
        assert (diffs < 0).all()

    def test_one_root_per_distinct_marginal(self, monkeypatch):
        # 250 blocks with one marginal share one root
        calls = []
        root = stepsize._tau_root

        def counted(t, kappa, pi_i):
            calls.append(pi_i)
            return root(t, kappa, pi_i)

        monkeypatch.setattr(stepsize, "_tau_root", counted)
        pi = np.full(250, 4.0 / 250)
        kappa = 1.0 / pi[0] + 3.0
        tau = 0.5 / kappa
        assert tau_next(tau, kappa, pi) == root(tau, kappa, pi[0])
        assert len(calls) == 1
        calls.clear()
        tau_next(tau, kappa, np.concatenate([pi[:200], np.full(50, 0.02)]))
        assert len(calls) == 2

    def test_fixed_point_at_inverse_kappa(self):
        for kappa, pi in ((4.0, 0.5), (10.0, 0.2), (1.5, 1.0)):
            assert step_map(1.0 / kappa, 1.0 / kappa, kappa, pi) == pytest.approx(
                0.0, abs=1e-14
            )
        assert step_map(0.0, 0.0, 4.0, 0.5) == pytest.approx(0.0, abs=1e-15)


class TestInvariantChecks:
    """The production cross-checks raise InvariantViolation, which, unlike a
    bare assert, ``python -O`` keeps."""

    def test_tau_paths_disagree(self, monkeypatch):
        monkeypatch.setattr(stepsize, "_tau_normalized", lambda t, kappa, pi: 0.5 * t)
        with pytest.raises(InvariantViolation, match="paths disagree"):
            tau_next(0.2, 4.0, 0.5)

    def test_tau_must_decrease(self, monkeypatch):
        monkeypatch.setattr(stepsize, "_tau_root", lambda t, kappa, pi: t)
        with pytest.raises(InvariantViolation, match="did not decrease"):
            tau_next(0.2, 4.0, [0.5, 0.25])

    def test_closed_forms_disagree(self, monkeypatch):
        # two blocks on the same row: Xi couples them, so the block-diagonal
        # closed forms do not apply and must not match
        p = tiny_problem([np.ones((1, 1)), np.ones((1, 1))], [1.0, 1.0], [1.0, 1.0])
        monkeypatch.setattr(stepsize, "_xi_block_diagonal", lambda xi, p: True)
        with pytest.raises(InvariantViolation, match="closed forms"):
            bp.accel_params(p, bp.full(2))

    def test_checks_survive_optimize_flag(self):
        code = (
            "import blockpd.stepsize as s\n"
            "s._tau_normalized = lambda t, kappa, pi: 0.5 * t\n"
            "s.tau_next(0.2, 4.0, 0.5)\n"
        )
        src = str(Path(bp.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
        )
        assert out.returncode != 0
        assert "InvariantViolation" in out.stderr

    def test_no_assert_statements_in_package(self):
        # python -O strips assert statements, so the package checks its
        # invariants with explicit raises only
        package = Path(bp.__file__).resolve().parent
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(package.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Assert)
        ]
        assert found == []


class TestLowerBound:
    def test_k_zero_is_tau0(self):
        assert tau_lower_bound(0, 0.05, 8.0, 0.25) == 0.05

    def test_delta_zero_form(self):
        # kappa = 1/pi: bound is 2 tau0 / (tau0 k + 2)
        assert tau_lower_bound(7, 0.1, 4.0, 0.25) == pytest.approx(
            2 * 0.1 / (0.1 * 7 + 2)
        )

    def test_hand_value(self):
        assert tau_lower_bound(10, 0.2, 4.0, 0.5) == pytest.approx(0.05)

    def test_sequence_respects_bound_and_vanishes(self, bench_instance):
        s = bp.single_coordinate(bench_instance.d)
        pol = make_accelerated_policy(bench_instance, s)
        pi = float(s.pi[0])
        tau = pol.tau0
        for k in range(100_000):
            if k % 97 == 0:  # spot-check the closed-form floor along the way
                assert tau >= tau_lower_bound(k, pol.tau0, pol.kappa, pi) - 1e-15
            tau = tau_next(tau, pol.kappa, pi) if k < 99_999 else tau
        assert tau < 1e-3


class TestPolicies:
    def test_sigma_monotone_tau_monotone(self, bench_instance):
        s = bp.single_coordinate(bench_instance.d)
        pol = make_accelerated_policy(bench_instance, s)
        taus = [pol.tau_at(k) for k in range(500)]
        sigmas = [pol.sigma_at(k) for k in range(500)]
        assert (np.diff(taus) < 0).all()
        assert (np.diff(sigmas) >= 0).all()
        for k in range(500):
            # coupling sigma_k tau_k = alpha - beta tau_k
            assert sigmas[k] * taus[k] == pytest.approx(
                pol.alpha - pol.beta * taus[k], abs=1e-12
            )

    def test_cumulative_weight_quadratic_bound(self, bench_instance):
        s = bp.single_coordinate(bench_instance.d)
        pol = make_accelerated_policy(bench_instance, s)
        s_k = 1.0
        sigma0 = pol.sigma_at(0)
        for k in range(1, 3000):
            s_k += pol.sigma_at(k)
            assert s_k <= cumulative_weight_bound(k, pol.alpha, pol.delta, sigma0) + 1e-9

    def test_default_tau0_keeps_theta0_admissible(self, bench_instance):
        s = bp.single_coordinate(bench_instance.d)
        pol = make_accelerated_policy(bench_instance, s)
        assert pol.sigma_at(0) <= float(np.min(s.pi)) + 1e-12

    def test_oversized_tau0_warns(self, bench_instance):
        s = bp.single_coordinate(bench_instance.d)
        base = make_accelerated_policy(bench_instance, s)
        small_tau0 = 0.25 * base.alpha / (base.beta + np.min(s.pi))
        with pytest.warns(UserWarning):
            make_accelerated_policy(bench_instance, s, tau0=small_tau0)

    def test_nonuniform_flagged(self, bench_instance):
        probs = np.linspace(1, 2, bench_instance.d)
        probs /= probs.sum()
        s = bp.single_coordinate(bench_instance.d, probs)
        with pytest.warns(UserWarning, match="outside the proven regime"):
            pol = make_accelerated_policy(bench_instance, s)
        assert not pol.uniform


class TestCertificates:
    def _pieces(self, problem, sampling):
        return (
            problem.lam_full,
            problem.mu_vector,
            xi_matrix(sampling, problem.a_blocks),
            weight_matrix_p(sampling, problem.blocks),
        )

    def test_constant_ratio_second_inequality_tight(self):
        # no strong convexity and sigma/tau constant: the second inequality
        # holds with equality
        p = tiny_problem([np.array([[1.0], [1.0]])], [1.0], [0.0])
        s = bp.full(1)
        pol = bp.convex_default_policy(p, s)
        lam, ups, xi, p_diag = self._pieces(p, s)
        m1, m2 = mi_margins(
            lam, ups, xi, p_diag, pol.b_diag, pol.sigma, 1.0, pol.sigma, 1.0
        )
        assert m2 == pytest.approx(0.0, abs=1e-12)
        flags = bp.certify_mi(
            lam, ups, xi, p_diag, pol.b_diag, pol.sigma, 1.0, pol.sigma, 1.0
        )
        assert flags == (True, True)

    def test_accelerated_sequence_certified(self, bench_instance):
        s = bp.single_coordinate(bench_instance.d)
        pol = make_accelerated_policy(bench_instance, s)
        lam, ups, xi, p_diag = self._pieces(bench_instance, s)
        for k in range(0, 200):
            ok1, ok2 = bp.certify_mi(
                lam,
                ups,
                xi,
                p_diag,
                pol.b_diag,
                pol.sigma_at(k),
                pol.tau_at(k),
                pol.sigma_at(k + 1),
                pol.tau_at(k + 1),
            )
            assert ok1 and ok2, f"certificate failed at k={k}"

    def test_inflated_tau_breaks_first_inequality(self, bench_instance):
        s = bp.single_coordinate(bench_instance.d)
        pol = make_accelerated_policy(bench_instance, s)
        lam, ups, xi, p_diag = self._pieces(bench_instance, s)
        k = 50
        ok1, _ = bp.certify_mi(
            lam,
            ups,
            xi,
            p_diag,
            pol.b_diag,
            pol.sigma_at(k),
            25.0 * pol.tau_at(k),
            pol.sigma_at(k + 1),
            pol.tau_at(k + 1),
        )
        assert not ok1
