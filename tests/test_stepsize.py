import ast
import dataclasses
import gc
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

import blockpd as bp
from blockpd import dlmp, oracles, stepsize
from blockpd.blocks import BlockStructure, ProblemSpec, SmoothBlock
from blockpd.errors import InvariantViolation, PolicyConstructionError, StrongConvexityRequired
from blockpd.proxops import prox_quadratic_block, prox_zero_block
from blockpd.sampling import weight_matrix_p, xi_matrix
from blockpd.stepsize import MI_TOL, make_accelerated_policy, tau_next
from instruments import (
    accel_delta,
    cumulative_weight_bound,
    full_spectrum_alpha,
    generalised_sigma_max,
    lam_full,
    looped_apply_hessian,
    looped_block_sq_norms,
    looped_coupled_factors,
    looped_scaled_curvature_top,
    looped_smooth_lipschitz,
    mi_margins,
    normalized_s_step,
    schedule,
    step_map,
    tau_lower_bound,
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
            prox_quadratic_block(mu_vals[i]) if mu_vals[i] > 0 else prox_zero_block()
        )
    return ProblemSpec(
        BlockStructure(dims),
        tuple(smooth),
        tuple(prox),
        np.hstack(a_blocks),
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

    def test_orthogonal_design_no_halving(self):
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))[0]
        p = tiny_problem([q[:, :3], q[:, 3:]], [1.0, 2.0], [0.0, 0.0])
        pol = bp.convex_default_policy(p, bp.single_coordinate(2))
        assert pol.sigma == pytest.approx(0.5)

    def test_zero_coupling_any_sigma(self):
        # uncoupled blocks with curvature: no row of Xi, so any sigma certifies
        p = tiny_problem([np.zeros((2, 2)), np.zeros((2, 3))], [1.0, 1.0], [0.0, 0.0])
        pol = bp.convex_default_policy(p, bp.single_coordinate(2))
        assert pol.sigma == pytest.approx(0.5)
        assert pol.certified_margin >= -1e-8

    def test_lost_coupling_names_its_block(self):
        # lambda_1 = 1e-18 beside L_1 = 1: D_1 - Lam_1 = (1e-18 + 1) - 1 = 0
        # in floating point, so block 1's factor does not exist
        p = tiny_problem([np.ones((2, 1)), np.array([[1e-9], [0.0]])], [1.0, 1.0], [0.0, 0.0])
        assert p.block_sq_norms[1] > 0.0
        with pytest.raises(PolicyConstructionError, match="block 1 is not positive definite"):
            bp.convex_default_policy(p, bp.single_coordinate(2))

    @pytest.mark.parametrize("certify", [True, False])
    def test_zero_scaling_rejected(self, certify):
        # block 1 has neither coupling columns nor curvature: B_1 would be 0
        p = tiny_problem([np.ones((2, 1)), np.zeros((2, 3))], [1.0, 0.0], [0.0, 0.0])
        with pytest.raises(PolicyConstructionError, match="block 1 has no coupling"):
            bp.convex_default_policy(p, bp.single_coordinate(2), certify=certify)


def _edge_cases(name, two_block, bench):
    if name == "two_block":
        return two_block, bp.single_coordinate(2)
    if name == "bench":
        return bench, bp.single_coordinate(bench.d)
    if name == "ring":
        local = [prox_quadratic_block(1.0, center=0.25 * i) for i in range(8)]
        return bp.make_consensus([(i, (i + 1) % 8) for i in range(8)], local), bp.nice(8, 2)
    if name == "opf15":
        problem = dlmp.build_opf_problem(dlmp.load_network(*dlmp.default_network_paths()))
        return problem, bp.paired_dso(problem.d - 1)
    if name == "uncoupled":
        # block 1 has no coupling columns, between two coupled blocks
        rng = np.random.default_rng(3)
        a_blocks = [rng.standard_normal((6, 2)), np.zeros((6, 3)), rng.standard_normal((6, 2))]
        return tiny_problem(a_blocks, [1.0, 2.0, 0.5], [1.0, 1.0, 1.0]), bp.nice(3, 2)
    wide = bp.make_random_inconsistent_ls(
        seed=1, d=24, dims=4, q=144, noise=0.6, mu=1.0, rank_deficiency=4
    )
    return wide, bp.nice(24, 4)


def dense_margin(p, s, sigma):
    """Smallest eigenvalue of P B - sigma Xi - Lam, from the dense matrix."""
    b_diag = bp.convex_default_policy(p, s, certify=False).b_diag
    m1, _ = mi_margins(
        lam_full(p), p.mu_vector, xi_matrix(s, p.gram, p.blocks), weight_matrix_p(s, p.blocks),
        b_diag, sigma, 1.0, sigma, 1.0,
    )
    return m1


class TestCertificateEdge:
    """The constant step against the dense eigenproblem: the margin is a
    true lower bound, and the largest certified step it implies is the edge
    of the matrix inequality, not a loose bound."""

    @pytest.mark.parametrize("name", ["two_block", "bench", "ring", "opf15", "wide"])
    def test_margin_bounds_dense_and_step_is_at_the_edge(
        self, name, two_block_instance, bench_instance
    ):
        p, s = _edge_cases(name, two_block_instance, bench_instance)
        pol = bp.convex_default_policy(p, s)
        lam_min = float(np.min(p.block_sq_norms))
        assert pol.certified_margin >= MI_TOL
        assert dense_margin(p, s, pol.sigma) >= pol.certified_margin - 1e-10
        # margin = (1 - sigma / sigma_max) min_i lambda_i
        sigma_max = pol.sigma / (1.0 - pol.certified_margin / lam_min)
        pi_min = float(np.min(s.pi))
        if pol.sigma != pi_min:
            assert pi_min > sigma_max
            assert pol.sigma == pytest.approx(stepsize.EDGE_FRACTION * sigma_max, rel=1e-12)
        assert dense_margin(p, s, sigma_max * (1.0 + 1e-6)) < 0.0
        assert dense_margin(p, s, sigma_max * (1.0 - 1e-6)) >= -1e-10

    def test_bench_keeps_the_smallest_marginal(self, bench_instance):
        pol = bp.convex_default_policy(bench_instance, bp.single_coordinate(bench_instance.d))
        assert pol.sigma == 0.1
        assert pol.certified_margin > 0.0

    def test_one_eigensolve_and_no_halving(self, bench_instance, monkeypatch):
        # counts the eigen- and singular-value calls on m x m matrices; the
        # per-block curvature is not the certificate
        p, s = bench_instance, bp.single_coordinate(bench_instance.d)
        calls = counted_eigen_calls(monkeypatch)
        pol = bp.convex_default_policy(p, s)
        assert_one_top_eigenvalue_each(calls, p.m, solves=1)
        assert not hasattr(pol, "halvings")


def counted_eigen_calls(monkeypatch):
    """Record (name, shape, positional args, keywords) of every eigen- and
    singular-value call, LAPACK's ``dsyevr`` among them."""
    calls = []

    def counted(name, fn):
        def wrapper(a, *args, **kwargs):
            calls.append((name, np.shape(a), args, kwargs))
            return fn(a, *args, **kwargs)
        return wrapper

    for mod, attr in ((sla, "eigh"), (sla, "eigvalsh"), (stepsize.lapack, "dsyevr"),
                      (np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                      (np.linalg, "eig"), (np.linalg, "svd")):
        monkeypatch.setattr(mod, attr, counted(attr, getattr(mod, attr)))
    return calls


def assert_one_top_eigenvalue_each(calls, m, solves):
    # every m x m call is a standard dsyevr (dsyevr has no second matrix,
    # so no generalised pencil) for the top eigenvalue alone: no full
    # spectrum and no eigenvectors
    big = [c for c in calls if c[1] == (m, m)]
    assert [name for name, *_ in big] == ["dsyevr"] * solves
    for _, _, args, kwargs in big:
        assert args == ()
        assert kwargs["range"] == "I" and kwargs["il"] == kwargs["iu"] == m
        assert kwargs["compute_v"] == 0


def test_no_eigensolve_on_the_activation_matrix(monkeypatch):
    # the ls_wide sampling (4-of-250, closed form): neither policy runs an
    # eigen- or singular-value call on a d x d matrix (the pair-probability
    # matrix is PSD by construction); two-column blocks keep m != d
    p = bp.make_random_inconsistent_ls(
        seed=1, d=250, dims=2, q=750, noise=0.6, mu=1.0, rank_deficiency=4
    )
    s = bp.nice(p.d, 4)
    calls = counted_eigen_calls(monkeypatch)
    bp.convex_default_policy(p, s)
    make_accelerated_policy(p, s)
    assert (p.d, p.d) not in [shape for _, shape, *_ in calls]
    assert_one_top_eigenvalue_each(calls, p.m, solves=2)


class TestOneTopEigenvalue:
    """Both certificates take one top eigenvalue of a standard symmetric
    matrix; the dense generalised pencil (Xi, D - Lam) and the full
    spectrum they replace are the oracles."""

    @staticmethod
    def _tops(monkeypatch):
        tops, real = [], stepsize._top_eigenvalue

        def spy(sym):
            tops.append(real(sym))
            return tops[-1]

        monkeypatch.setattr(stepsize, "_top_eigenvalue", spy)
        return tops

    @pytest.mark.parametrize(
        "name", ["two_block", "bench", "ring", "opf15", "wide", "uncoupled"]
    )
    def test_matches_the_dense_eigenproblems(
        self, name, two_block_instance, bench_instance, monkeypatch
    ):
        p, s = _edge_cases(name, two_block_instance, bench_instance)
        tops = self._tops(monkeypatch)
        bp.convex_default_policy(p, s)
        sigma_max, oracle = 1.0 / tops[0], generalised_sigma_max(p, s)
        assert abs(sigma_max - oracle) <= 1e-12 * oracle
        if np.all(p.mu_vector > 0.0):
            alpha, oracle = bp.accel_params(p, s)[0], full_spectrum_alpha(p, s)
            assert abs(alpha - oracle) <= 1e-12 * oracle
            assert alpha == 1.0 / tops[1]
        else:
            with pytest.raises(StrongConvexityRequired):
                bp.accel_params(p, s)


def test_failed_eigensolve_is_a_policy_error():
    # LAPACK reports a NaN matrix through a nonzero info
    with pytest.raises(PolicyConstructionError, match="syevr info"):
        stepsize._top_eigenvalue(np.full((5, 5), np.nan, order="F"))


class TestOneGram:
    """Both step certificates and the least-squares reference read the
    problem's one cached Gram matrix A'A."""

    def test_formed_once_and_never_stacked(self, monkeypatch):
        p = bp.make_random_inconsistent_ls(
            seed=1, d=24, dims=4, q=144, noise=0.6, mu=1.0, rank_deficiency=4
        )
        s = bp.nice(p.d, 4)
        formed, stacked, read = [], [], []
        prop = ProblemSpec.__dict__["gram"]
        real_gram, real_hstack = prop.func, np.hstack
        real_xi, real_pstrf = stepsize.xi_matrix, oracles.lapack.dpstrf

        def gram(problem):
            formed.append(problem)
            return real_gram(problem)

        def hstack(*args, **kwargs):
            stacked.append(args)
            return real_hstack(*args, **kwargs)

        def xi(sampling, g, blocks):
            read.append(g)
            return real_xi(sampling, g, blocks)

        def pstrf(g, *args, **kwargs):
            read.append(g)
            return real_pstrf(g, *args, **kwargs)

        monkeypatch.setattr(prop, "func", gram)
        monkeypatch.setattr(np, "hstack", hstack)
        monkeypatch.setattr(stepsize, "xi_matrix", xi)
        monkeypatch.setattr(oracles.lapack, "dpstrf", pstrf)
        bp.convex_default_policy(p, s)
        make_accelerated_policy(p, s)
        bp.least_squares_reference(p)
        assert formed == [p]
        assert stacked == []
        assert len(read) == 3 and all(g is p.gram for g in read)
        assert not p.gram.flags.writeable

    def test_xi_bits_match_the_stacked_form(self, xi_oracles):
        p = bp.make_random_inconsistent_ls(
            seed=1, d=24, dims=4, q=144, noise=0.6, mu=1.0, rank_deficiency=4
        )
        probs = np.random.default_rng(5).uniform(0.5, 1.5, p.d)
        cases = [
            (p, bp.single_coordinate(p.d)),
            (p, bp.single_coordinate(p.d, probs / probs.sum())),
            (p, bp.nice(p.d, 2)),
            (p, bp.nice(p.d, 4)),
            (p, bp.full(p.d)),
            (p, bp.paired_dso(p.d - 1)),
        ]
        grid = dlmp.build_opf_problem(dlmp.load_network(*dlmp.default_network_paths()))
        assert len(set(grid.blocks.dims)) > 1
        cases += [(grid, bp.paired_dso(grid.d - 1)), (grid, bp.single_coordinate(grid.d))]
        # blocks of one size that are not contiguous: sizes 2, 5, 3, 2, 5
        mixed, _ = _stacked_case("mixed", None)
        assert not isinstance(mixed.blocks._size_groups[0].cols, slice)
        cases += [(mixed, bp.nice(mixed.d, 2)), (mixed, bp.single_coordinate(mixed.d))]
        assert cases[2][1].support is not None and cases[3][1].support is None
        for problem, sampling in cases:
            xi = xi_matrix(sampling, problem.gram, problem.blocks)
            assert np.array_equal(xi, xi_oracles.stacked(sampling, problem.a_blocks)), sampling.kind
            # a fresh array each call: the convex certificate overwrites it
            assert xi.flags.writeable and not np.shares_memory(xi, problem.gram)
            # C-ordered: the certificate solves its row slabs in place
            assert xi.flags.c_contiguous


class TestSetUpMemory:
    def test_convex_certificate_holds_one_m_by_m_array(self):
        # Xi is the one m x m array the certificate makes: its two L^{-1}
        # passes and the top eigenvalue run in place
        p = bp.make_random_inconsistent_ls(
            seed=1, d=50, dims=4, q=300, noise=0.6, mu=1.0, rank_deficiency=4
        )
        s = bp.nice(p.d, 4)
        p.gram, p.block_sq_norms, p.smooth_lipschitz, p.lam_stacks
        tracemalloc.start()
        try:
            bp.convex_default_policy(p, s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert p.m == 200 and peak < 1.5 * p.m**2 * 8


class TestAccelParams:
    def test_no_coupled_block_rejected(self):
        p = tiny_problem([np.zeros((2, 1)), np.zeros((2, 2))], [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(PolicyConstructionError, match="coupled block"):
            make_accelerated_policy(p, bp.single_coordinate(2))

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


class TestAccelOracles:
    """accel_params against the block-diagonal closed forms and against the
    dense eigenproblem for beta."""

    @staticmethod
    def _orthogonal_design():
        q = np.linalg.qr(np.random.default_rng(5).standard_normal((9, 9)))[0]
        return tiny_problem([q[:, :2], q[:, 2:5], q[:, 5:]], [1.0, 2.0, 0.5], [1.0, 0.5, 2.0])

    def test_closed_forms_where_xi_is_block_diagonal(self, bench_instance):
        # block diagonal Xi by the sampling (one block at a time) and by the
        # design (orthogonal columns under 2-of-3 activation)
        for p, s in (
            (bench_instance, bp.single_coordinate(bench_instance.d)),
            (self._orthogonal_design(), bp.nice(3, 2)),
        ):
            xi = xi_matrix(s, p.gram, p.blocks)
            off = xi.copy()
            for i in range(p.d):
                sl = p.blocks.block_slice(i)
                off[sl, sl] = 0.0
            assert np.max(np.abs(off)) < 1e-12 * max(1.0, np.max(np.abs(xi)))
            alpha, beta, kappa = bp.accel_params(p, s)
            mu_b = np.array([p.prox[i].mu for i in range(p.d)])
            alpha_cf = 1.0 / float(np.max(p.block_sq_norms / (mu_b * s.pi**2)))
            kappa_cf = float(np.max((p.smooth_lipschitz + mu_b) / (s.pi * mu_b)))
            assert abs(alpha - alpha_cf) <= 1e-10 * max(1.0, alpha)
            assert abs(kappa - kappa_cf) <= 1e-10 * max(1.0, kappa)
            assert beta == pytest.approx(alpha * kappa, rel=1e-14)

    def test_blockwise_beta_matches_dense(self, bench_instance, two_block_instance):
        wide = bp.make_random_inconsistent_ls(
            seed=1, d=24, dims=4, q=144, noise=0.6, mu=1.0, rank_deficiency=4
        )
        for p, s in (
            (bench_instance, bp.single_coordinate(bench_instance.d)),
            (two_block_instance, bp.single_coordinate(2)),
            (wide, bp.nice(24, 4)),
        ):
            alpha, beta, kappa = bp.accel_params(p, s)
            scale = 1.0 / np.sqrt(p.mu_vector / weight_matrix_p(s, p.blocks))
            lam_ups = lam_full(p) + np.diag(p.mu_vector)
            dense = alpha * float(
                np.linalg.eigvalsh(scale[:, None] * lam_ups * scale[None, :]).max()
            )
            assert abs(beta - dense) <= 1e-12 * dense
            assert abs(kappa - dense / alpha) <= 1e-12 * kappa


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

    def test_dual_paths_agree_randomized(self, tau_oracle):
        # the root formula against the normalized recursion
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            pi = float(rng.uniform(0.05, 1.0))
            kappa = float(rng.uniform(1.0 / pi, 60.0))
            tau = float(rng.uniform(1e-8, 0.999 / kappa))
            out = tau_next(tau, kappa, pi)
            alt = tau_oracle(tau, kappa, pi)
            assert abs(out - alt) <= 1e-10 * max(1.0, out), (tau, kappa, pi)

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

    def test_largest_root_over_marginals(self):
        for pis in ([0.5, 0.25], (0.1, 0.05, 0.3), np.array([0.3, 0.1, 0.3, 0.05])):
            roots = [tau_next(0.01, 30.0, float(p)) for p in pis]
            assert tau_next(0.01, 30.0, pis) == max(roots)

    def test_policy_sequence_matches_full_marginals(self, bench_instance):
        # the policy hands tau_next its distinct marginals once; the
        # sequence is the one the full marginal array gives, bit for bit
        # (block 0 has the largest marginal, so the smallest root)
        probs = np.linspace(2, 1, bench_instance.d)
        for s in (
            bp.single_coordinate(bench_instance.d),
            bp.single_coordinate(bench_instance.d, probs / probs.sum()),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                pol = make_accelerated_policy(bench_instance, s)
            taus = [pol.tau0]
            for _ in range(2000):
                taus.append(tau_next(taus[-1], pol.kappa, s.pi))
            assert schedule(pol, 2000)[0] == taus

    def test_fixed_point_at_inverse_kappa(self):
        for kappa, pi in ((4.0, 0.5), (10.0, 0.2), (1.5, 1.0)):
            assert step_map(1.0 / kappa, 1.0 / kappa, kappa, pi) == pytest.approx(
                0.0, abs=1e-14
            )
        assert step_map(0.0, 0.0, 4.0, 0.5) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize(
        "t, kappa, pi",
        [(0.01, 30.0, (0.5, 0.25)), (0.02, 12.0, (0.9, 0.3, 0.6)), (1e-4, 30.0, (0.5, 0.25))],
    )
    def test_vanishes_at_successor_for_non_uniform_marginals(self, t, kappa, pi):
        # every block's quadratic is >= 0 at the largest root, the binding
        # one is 0, so the map over blocks is their minimum
        assert step_map(tau_next(t, kappa, pi), t, kappa, pi) == pytest.approx(0.0, abs=1e-15)


REPO = Path(__file__).resolve().parents[1]


def caller_sources() -> dict[str, str]:
    """The package's modules, ``scripts/`` and ``perfbench/``, keyed by path
    from the repository root; the package ``__init__`` only re-exports, so
    it is left out."""
    return {
        f.relative_to(REPO).as_posix(): f.read_text()
        for top in ("src/blockpd", "scripts", "perfbench")
        for f in sorted((REPO / top).rglob("*.py"))
        if f != REPO / "src/blockpd/__init__.py"
    }


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each function and class, and ``module.Class.name``
    of each non-dunder method, defined under ``src/blockpd/`` in ``sources``
    that nothing in ``sources`` references outside the definition itself.
    A reference is a name, an attribute, an imported name or a string equal
    to the name (``perfbench/tracer.py`` patches functions by string); a
    method or property is reached only through an attribute or a string, so
    for it a bare name (a local, a parameter) does not count."""
    trees = {path: ast.parse(text, filename=path) for path, text in sources.items()}
    refs = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            refs.setdefault(name, []).append((path, node))
    found = []
    for path, tree in trees.items():
        if not path.startswith("src/blockpd/"):
            continue
        for parent in ast.walk(tree):
            for node in ast.iter_child_nodes(parent):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                name = node.name
                method = isinstance(parent, ast.ClassDef)
                if method and name.startswith("__") and name.endswith("__"):
                    continue
                own = {id(n) for n in ast.walk(node)}
                if all(
                    (where == path and id(ref) in own)
                    or (method and isinstance(ref, (ast.Name, ast.alias)))
                    for where, ref in refs.get(name, ())
                ):
                    owner = f"{parent.name}." if method else ""
                    found.append(f"{Path(path).stem}.{owner}{name}")
    return found


class TestInvariantChecks:
    """The production cross-checks raise InvariantViolation, which, unlike a
    bare assert, ``python -O`` keeps."""

    def test_tau_must_decrease(self, monkeypatch):
        monkeypatch.setattr(stepsize, "_tau_root", lambda t, kappa, pi: t)
        with pytest.raises(InvariantViolation, match="did not decrease"):
            tau_next(0.2, 4.0, [0.5, 0.25])

    def test_checks_survive_optimize_flag(self):
        code = (
            "import blockpd.stepsize as s\n"
            "s._tau_root = lambda t, kappa, pi: t\n"
            "s.tau_next(0.2, 4.0, 0.5)\n"
        )
        src = str(Path(bp.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
        )
        assert out.returncode != 0
        assert "InvariantViolation" in out.stderr
        assert "did not decrease" in out.stderr

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

    def test_package_defines_only_what_runs_reference(self):
        # what only the tests call lives in tests/instruments.py
        assert unreferenced_definitions(caller_sources()) == []

    def test_reference_guard_sees_a_definition_put_back(self):
        sources = caller_sources()
        sources["src/blockpd/stepsize.py"] += (
            "\n\ndef normalized_s_step(s_k, d_k):\n    return normalized_s_step(s_k, d_k)\n"
        )
        assert unreferenced_definitions(sources) == ["stepsize.normalized_s_step"]
        # a method is not hidden by a local of its name (default_aggregators
        # has a local ``children``)
        sources = caller_sources()
        anchor = "    @property\n    def n_buses(self)"
        assert sources["src/blockpd/dlmp.py"].count(anchor) == 1
        sources["src/blockpd/dlmp.py"] = sources["src/blockpd/dlmp.py"].replace(
            anchor,
            "    def children(self, n):\n"
            "        return [m for m in self.buses if self.parent[m] == n]\n\n" + anchor,
        )
        assert unreferenced_definitions(sources) == ["dlmp.NetworkModel.children"]


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
        taus, sigmas = schedule(pol, 499)
        assert (np.diff(taus) < 0).all()
        assert (np.diff(sigmas) >= 0).all()
        for k in range(500):
            # coupling sigma_k tau_k = alpha - beta tau_k
            assert sigmas[k] * taus[k] == pytest.approx(
                pol.alpha - pol.beta * taus[k], abs=1e-12
            )

    def test_one_tau_step_per_run_step(self, bench_instance, monkeypatch):
        # each step advances (tau_k, sigma_k) once, sigma_k with the bits of
        # alpha/tau_k - beta; a policy keeps nothing of a run, so a second
        # run on it repeats the recursion and the rows
        s = bp.single_coordinate(bench_instance.d)
        pol = make_accelerated_policy(bench_instance, s)
        calls = []
        orig = stepsize.tau_next
        monkeypatch.setattr(stepsize, "tau_next", lambda *a: calls.append(a) or orig(*a))
        runs = []
        for n_calls in (300, 600):
            runs.append(bp.run(bench_instance, s, pol, np.zeros(bench_instance.m), 300,
                               trace_every=10))
            assert len(calls) == n_calls
        for name in bp.TraceRecord.CSV_FIELDS:
            first, second = (r.trace.column(name) for r in runs)
            assert first.tobytes() == second.tobytes(), name
        taus, sigmas = schedule(pol, 300)
        for k in range(301):
            assert sigmas[k] == pol.alpha / taus[k] - pol.beta
        trace = runs[0].trace
        ks = trace.column("k").astype(int)
        assert trace.column("tau").tolist() == [taus[k] for k in ks]
        assert trace.column("sigma").tolist() == [sigmas[k] for k in ks]
        for frozen in (pol, bp.convex_default_policy(bench_instance, s)):
            for f in dataclasses.fields(frozen):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(frozen, f.name, getattr(frozen, f.name))

    def test_a_run_keeps_no_schedule(self, bench_instance, bench_reference):
        """What an accelerated run keeps is within 10% of what a
        constant-policy run of the same length keeps: both keep their state
        and trace rows, and the schedule lives in the state.  A memo of
        (tau_k, sigma_k) on the policy would keep 16 bytes a step, twice
        the rows at trace_every = 10."""
        p = bench_instance
        s = bp.single_coordinate(p.d)
        policies = (bp.convex_default_policy(p, s), make_accelerated_policy(p, s))

        def kept(pol, k_max):
            gc.collect()
            tracemalloc.start()
            try:
                res = bp.run(p, s, pol, np.zeros(p.m), k_max, seed=1, trace_every=10,
                             reference=bench_reference)
                gc.collect()
                return tracemalloc.get_traced_memory()[0], len(res.trace)
            finally:
                tracemalloc.stop()

        for pol in policies:  # first-run allocations land outside the measurement
            kept(pol, 10)
        # 100 steps suffice: a policy-side memo kept 1.25 times the constant run
        (const, n_const), (accel, n_accel) = (kept(pol, 100) for pol in policies)
        assert n_const == n_accel == 10
        assert accel <= 1.1 * const, (accel, const)

    def test_cumulative_weight_quadratic_bound(self, bench_instance):
        s = bp.single_coordinate(bench_instance.d)
        pol = make_accelerated_policy(bench_instance, s)
        s_k = 1.0
        _, sigmas = schedule(pol, 2999)
        sigma0 = sigmas[0]
        for k in range(1, 3000):
            s_k += sigmas[k]
            assert s_k <= cumulative_weight_bound(k, pol.alpha, accel_delta(pol), sigma0) + 1e-9

    def test_default_tau0_keeps_theta0_admissible(self, bench_instance):
        s = bp.single_coordinate(bench_instance.d)
        pol = make_accelerated_policy(bench_instance, s)
        _, (sigma0,) = schedule(pol, 0)
        assert sigma0 <= float(np.min(s.pi)) + 1e-12

    def test_oversized_tau0_warns(self, bench_instance):
        s = bp.single_coordinate(bench_instance.d)
        base = make_accelerated_policy(bench_instance, s)
        small_tau0 = 0.25 * base.alpha / (base.beta + np.min(s.pi))
        with pytest.warns(UserWarning):
            make_accelerated_policy(bench_instance, s, tau0=small_tau0)

    @pytest.mark.parametrize("tau0", [0.0, -0.5])
    def test_tau0_below_interval_rejected(self, bench_instance, tau0):
        s = bp.single_coordinate(bench_instance.d)
        with pytest.raises(PolicyConstructionError, match="outside the admissible interval"):
            make_accelerated_policy(bench_instance, s, tau0=tau0)

    def test_nonuniform_flagged(self, bench_instance):
        probs = np.linspace(1, 2, bench_instance.d)
        probs /= probs.sum()
        s = bp.single_coordinate(bench_instance.d, probs)
        with pytest.warns(UserWarning, match="outside the proven regime"):
            make_accelerated_policy(bench_instance, s)


class TestCertificates:
    def _pieces(self, problem, sampling):
        return (
            lam_full(problem),
            problem.mu_vector,
            xi_matrix(sampling, problem.gram, problem.blocks),
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
        assert m1 >= MI_TOL and m2 >= MI_TOL

    def test_accelerated_sequence_certified(self, bench_instance):
        s = bp.single_coordinate(bench_instance.d)
        pol = make_accelerated_policy(bench_instance, s)
        lam, ups, xi, p_diag = self._pieces(bench_instance, s)
        taus, sigmas = schedule(pol, 200)
        for k in range(0, 200):
            m1, m2 = mi_margins(
                lam,
                ups,
                xi,
                p_diag,
                pol.b_diag,
                sigmas[k],
                taus[k],
                sigmas[k + 1],
                taus[k + 1],
            )
            assert m1 >= MI_TOL and m2 >= MI_TOL, f"certificate failed at k={k}"

    def test_inflated_tau_breaks_first_inequality(self, bench_instance):
        s = bp.single_coordinate(bench_instance.d)
        pol = make_accelerated_policy(bench_instance, s)
        lam, ups, xi, p_diag = self._pieces(bench_instance, s)
        k = 50
        taus, sigmas = schedule(pol, k + 1)
        m1, _ = mi_margins(
            lam,
            ups,
            xi,
            p_diag,
            pol.b_diag,
            sigmas[k],
            25.0 * taus[k],
            sigmas[k + 1],
            taus[k + 1],
        )
        assert not m1 >= MI_TOL


def _stacked_case(name, bench):
    """An instance and a sampling for the stacked-against-looped tests."""
    if name == "bench":
        return bench, bp.single_coordinate(bench.d)
    if name == "mixed":
        p = bp.make_random_inconsistent_ls(
            seed=5, d=5, dims=[2, 5, 3, 2, 5], q=30, noise=0.6, mu=1.0, rank_deficiency=3
        )
        return p, bp.nice(5, 2)
    if name == "one_block":
        return bp.make_random_inconsistent_ls(seed=7, d=1, dims=6, q=9, noise=0.6), bp.full(1)
    if name == "no_rows":
        # q = 0: no coupling at all, every block certified by its curvature
        p = tiny_problem([np.zeros((0, 2)), np.zeros((0, 3)), np.zeros((0, 2))],
                         [1.0, 2.0, 0.5], [1.0, 1.0, 1.0])
        return p, bp.single_coordinate(3)
    return _edge_cases(name, None, bench)


STACKED_CASES = ["bench", "mixed", "one_block", "uncoupled", "no_rows", "opf15"]


class TestStackedSetUp:
    """Each per-block set-up quantity runs as one LAPACK call per block
    size on the stacked blocks, with the bits of the per-block loops it
    replaced (``tests/instruments.py``)."""

    @pytest.mark.parametrize("name", STACKED_CASES)
    def test_norms_and_curvatures_match_the_loops(self, name, bench_instance):
        p, _ = _stacked_case(name, bench_instance)
        assert np.array_equal(p.block_sq_norms, looped_block_sq_norms(p))
        assert np.array_equal(p.smooth_lipschitz, looped_smooth_lipschitz(p))
        scale = np.random.default_rng(1).uniform(0.5, 2.0, p.m)
        top = stepsize._scaled_curvature_top(p, scale)
        assert top == looped_scaled_curvature_top(p, scale)

    @pytest.mark.parametrize("name", STACKED_CASES)
    def test_factors_sigma_and_margin_match_the_loops(self, name, bench_instance, monkeypatch):
        p, s = _stacked_case(name, bench_instance)
        b_diag = bp.convex_default_policy(p, s, certify=False).b_diag
        pb_diag = weight_matrix_p(s, p.blocks) * b_diag
        coupled = p.block_sq_norms > 0.0
        stacked = stepsize._coupled_factors(p, pb_diag, coupled)
        looped = looped_coupled_factors(p, pb_diag, coupled)
        assert sorted(stacked) == sorted(looped) == np.flatnonzero(coupled).tolist()
        assert all(np.array_equal(stacked[i], looped[i]) for i in looped)
        pol = bp.convex_default_policy(p, s)
        monkeypatch.setattr(stepsize, "_coupled_factors", looped_coupled_factors)
        oracle = bp.convex_default_policy(p, s)
        assert (pol.sigma, pol.certified_margin) == (oracle.sigma, oracle.certified_margin)
        assert np.array_equal(pol.b_diag, oracle.b_diag)

    @pytest.mark.parametrize("name", STACKED_CASES)
    def test_hessian_product_matches_the_loop(self, name, bench_instance, monkeypatch):
        p, _ = _stacked_case(name, bench_instance)
        v = np.random.default_rng(2).standard_normal((p.m, 3))
        hv = oracles._apply_hessian(p, v)
        assert np.array_equal(hv, looped_apply_hessian(p, v))
        # every case but the grid states its quadratic in its oracles
        if name != "opf15":
            ref = oracles.quadratic_reference(dataclasses.replace(p))
            monkeypatch.setattr(oracles, "_apply_hessian", looped_apply_hessian)
            oracle = oracles.quadratic_reference(dataclasses.replace(p))
            assert np.array_equal(ref.x_star, oracle.x_star)
            assert np.array_equal(ref.y_star, oracle.y_star)
            assert ref.psi_star == oracle.psi_star

    def test_first_lost_block_is_named_across_sizes(self):
        # blocks 1 (one column) and 2 (two columns) both lose lambda_i
        # beside L_i; the two-column stack fails first, and the block named
        # is still the first in block order
        tiny = np.array([[1e-9, 0.0], [0.0, 0.0]])
        p = tiny_problem([np.ones((2, 2)), tiny[:, :1], tiny], [1.0, 1.0, 1.0], [0.0] * 3)
        assert [g.n for g in p.blocks._size_groups] == [2, 1]
        with pytest.raises(PolicyConstructionError, match="block 1 is not positive definite"):
            bp.convex_default_policy(p, bp.single_coordinate(3))


def counted_calls(monkeypatch, *targets):
    """Count the calls of each ``(module, name)`` in ``targets``, patched
    by name."""
    counts = dict.fromkeys((name for _, name in targets), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for mod, name in targets:
        monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    return counts


class TestCallsPerBlockSize:
    """One LAPACK call per distinct block size, not per block: five blocks
    of sizes 2, 5, 3, 2, 5 make three calls each."""

    @staticmethod
    def mixed():
        return _stacked_case("mixed", None)

    def test_norms_and_curvatures(self, monkeypatch):
        p, _ = self.mixed()
        counts = counted_calls(monkeypatch, (np.linalg, "svd"), (np.linalg, "eigvalsh"))
        p.block_sq_norms
        assert counts == {"svd": 3, "eigvalsh": 0}
        p.smooth_lipschitz
        assert counts == {"svd": 3, "eigvalsh": 3}

    def test_beta(self, monkeypatch):
        p, s = self.mixed()
        counts = counted_calls(monkeypatch, (np.linalg, "eigvalsh"))
        make_accelerated_policy(p, s)
        assert counts == {"eigvalsh": 3}

    def test_convex_factors(self, monkeypatch):
        p, s = self.mixed()
        p.block_sq_norms, p.smooth_lipschitz
        counts = counted_calls(
            monkeypatch, (np.linalg, "cholesky"), (stepsize.lapack, "dpotrf")
        )
        bp.convex_default_policy(p, s)
        assert counts == {"cholesky": 3, "dpotrf": 0}

    @pytest.mark.parametrize("name, sizes", [("bench", 1), ("mixed", 3)])
    def test_curvature_matrices_stacked_once(self, name, sizes, bench_instance, monkeypatch):
        # the generator stores each H_i as its block's curvature matrix, so
        # the objective and the Hessian product read the curvature stacks
        p, s = _stacked_case(name, bench_instance)
        p = dataclasses.replace(p)
        counts = counted_calls(monkeypatch, (np, "stack"))
        p.phi(np.ones(p.m))
        bp.convex_default_policy(p, s)
        make_accelerated_policy(p, s)
        bp.quadratic_reference(p)
        assert counts == {"stack": sizes}

    def test_references_share_one_gram_factor(self, bench_instance, monkeypatch):
        p = dataclasses.replace(bench_instance)
        counts = counted_calls(monkeypatch, (oracles.lapack, "dpstrf"))
        bp.least_squares_reference(p)
        bp.quadratic_reference(p)
        assert counts == {"dpstrf": 1}
