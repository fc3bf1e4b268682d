import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockpd as bp
from blockpd.blocks import BlockStructure, ProblemSpec, SmoothBlock
from blockpd import stepsize
from blockpd.errors import InfeasibleInstance, InvariantViolation, PolicyConstructionError
from blockpd.oracles import long_run_reference
from blockpd.proxops import prox_box_block, prox_quadratic_block, prox_zero_block


def scalar_problem(phi=None, prox=None, a=None, b=None, dims=(1,)):
    d = len(dims)
    structure = BlockStructure(dims)
    smooth = tuple(
        phi[i] if phi else SmoothBlock.zero(dims[i]) for i in range(d)
    )
    pr = tuple(prox[i] if prox else prox_zero_block(dims[i]) for i in range(d))
    if a is None:
        a = [np.zeros((1, dims[i])) for i in range(d)]
        b = np.zeros(1)
    return ProblemSpec(structure, smooth, pr, tuple(a), np.asarray(b, dtype=float))


def quad1(coef=1.0, shift=0.0):
    # phi(t) = coef*(t - shift)^2
    h = np.array([[2.0 * coef]])
    c = np.array([-2.0 * coef * shift])
    return SmoothBlock.quadratic(h, c)


class TestEvalPsi:
    def test_indicator_feasible(self):
        p = scalar_problem(prox=[prox_box_block(0.0, 1.0)] * 2, dims=(1, 1))
        assert bp.eval_psi(p, np.array([0.5, 0.5])) == 0.0

    def test_hand_sum(self):
        # phi_i(t) = t^2, r_i = |.|, x = (1, -2): 1 + 4 + 1 + 2 = 8
        from blockpd.proxops import prox_l1_block

        p = scalar_problem(
            phi=[quad1(1.0), quad1(1.0)],
            prox=[prox_l1_block(1.0)] * 2,
            dims=(1, 1),
        )
        assert bp.eval_psi(p, np.array([1.0, -2.0])) == pytest.approx(8.0, abs=1e-12)

    def test_infeasible_indicator(self):
        p = scalar_problem(prox=[prox_box_block(0.0, 1.0)] * 2, dims=(1, 1))
        assert bp.eval_psi(p, np.array([2.0, 0.0])) == math.inf

    def test_dimension_mismatch(self):
        p = scalar_problem(dims=(1, 1))
        with pytest.raises(ValueError):
            bp.eval_psi(p, np.zeros(3))


class TestPenalty:
    def test_identity_matrix(self):
        p = scalar_problem(
            a=[np.eye(2)], b=np.zeros(2), dims=(2,)
        )
        assert bp.penalty_h(p, np.array([3.0, 4.0])) == pytest.approx(12.5)

    def test_inconsistent_column(self):
        p = scalar_problem(a=[np.array([[1.0], [1.0]])], b=np.array([0.0, 1.0]))
        assert bp.penalty_h(p, np.zeros(1)) == pytest.approx(0.5)
        # normal equations: 2x = 1 -> x* = 0.5, h* = 0.25
        assert bp.penalty_h(p, np.array([0.5])) == pytest.approx(0.25)

    def test_grad_identity(self, rng):
        p = scalar_problem(a=[np.eye(3)], b=np.zeros(3), dims=(3,))
        x = rng.standard_normal(3)
        assert np.allclose(bp.grad_h(p, x), x)

    def test_partial_grad_hand(self):
        p = scalar_problem(a=[np.array([[1.0], [1.0]])], b=np.array([0.0, 1.0]))
        assert bp.partial_grad_h(p, np.zeros(1), 0) == pytest.approx(-1.0)

    def test_partial_concatenation(self, rng):
        p = bp.make_random_inconsistent_ls(seed=5, d=3, dims=(2, 3, 1), q=8, noise=0.3)
        x = rng.standard_normal(p.m)
        parts = np.concatenate([bp.partial_grad_h(p, x, i) for i in range(p.d)])
        assert np.allclose(parts, bp.grad_h(p, x), atol=1e-12)


class TestKktResidual:
    def test_simple_saddle(self):
        p = scalar_problem(phi=[quad1(0.5)], a=[np.array([[1.0]])], b=np.zeros(1))
        assert bp.kkt_residual(p, np.zeros(1), np.zeros(1)) == pytest.approx(0.0, abs=1e-14)

    def test_shifted_saddle(self):
        # phi(t) = (t-1)^2/2, A = 1, b = 0: x* = 0, y* = -phi'(0) = 1
        p = scalar_problem(phi=[quad1(0.5, shift=1.0)], a=[np.array([[1.0]])], b=np.zeros(1))
        assert bp.kkt_residual(p, np.zeros(1), np.ones(1)) == pytest.approx(0.0, abs=1e-14)

    def test_nonstationary_point(self):
        p = scalar_problem(phi=[quad1(0.5)], a=[np.array([[1.0]])], b=np.zeros(1))
        assert bp.kkt_residual(p, np.ones(1), np.zeros(1)) == pytest.approx(1.0)


class TestConsensus:
    def test_two_node_fixed_point(self):
        local = [prox_quadratic_block(1.0, center=c) for c in (0.0, 2.0)]
        p = bp.make_consensus([(0, 1)], local)
        s = bp.full(2)
        pol = bp.convex_default_policy(p, s)
        res = bp.run(p, s, pol, np.zeros(2), 5000, seed=0, trace_every=5000)
        assert np.allclose(res.state.x, [1.0, 1.0], atol=1e-4)

    def test_zero_local_terms(self):
        p = bp.make_consensus([(0, 1), (1, 2)], [prox_zero_block(1)] * 3)
        const = np.full(3, 0.7)
        assert bp.penalty_h(p, const) == pytest.approx(0.0, abs=1e-15)

    def test_triangle_kernel(self, rng):
        p = bp.make_consensus([(0, 1), (1, 2), (2, 0)], [prox_zero_block(1)] * 3)
        a = p.a
        # ||Ax|| = 0 iff x constant
        assert np.linalg.norm(a @ np.ones(3)) == pytest.approx(0.0, abs=1e-15)
        x = rng.standard_normal(3)
        x -= x.mean()
        if np.linalg.norm(x) > 1e-9:
            assert np.linalg.norm(a @ x) > 1e-9

    def test_disconnected_graph_rejected(self):
        with pytest.raises(InfeasibleInstance):
            bp.make_consensus([(0, 1), (2, 3)], [prox_zero_block(1)] * 4)


class TestModelFitting:
    def test_consistent_least_squares(self):
        losses = [SmoothBlock.quadratic(np.eye(1), np.zeros(1)) for _ in range(2)]
        regs = [prox_zero_block(1) for _ in range(2)]
        p = bp.make_model_fitting(np.eye(2), np.ones(2), losses, regs)
        # lifted optimum: v = 0, u = b; multiplier y = v = 0
        x_star = np.array([1.0, 1.0, 0.0, 0.0])
        assert bp.kkt_residual(p, x_star, np.zeros(2)) == pytest.approx(0.0, abs=1e-14)
        s = bp.single_coordinate(p.d)
        pol = bp.convex_default_policy(p, s)
        res = bp.run(p, s, pol, np.zeros(p.m), 20000, seed=0, trace_every=20000)
        assert np.allclose(res.state.x, x_star, atol=1e-3)

    def test_heavy_l1_pins_features(self):
        from blockpd.proxops import prox_l1_block

        rng = np.random.default_rng(0)
        k = rng.standard_normal((3, 2))
        b = rng.standard_normal(3)
        weight = 10.0 * float(np.max(np.abs(k.T @ b)))
        losses = [SmoothBlock.quadratic(np.eye(1), np.zeros(1)) for _ in range(3)]
        regs = [prox_l1_block(weight) for _ in range(2)]
        p = bp.make_model_fitting(k, b, losses, regs)
        x_star = np.concatenate([np.zeros(2), -b])
        assert bp.kkt_residual(p, x_star, -b) == pytest.approx(0.0, abs=1e-12)

    def test_trivial_instance(self):
        losses = [SmoothBlock.quadratic(np.eye(1), np.zeros(1))]
        p = bp.make_model_fitting(np.eye(1), np.zeros(1), losses, [prox_zero_block(1)])
        assert bp.kkt_residual(p, np.zeros(2), np.zeros(1)) == pytest.approx(0.0, abs=1e-14)


class TestRandomInstanceGenerator:
    def test_zero_noise_is_consistent(self):
        p = bp.make_random_inconsistent_ls(seed=1, d=3, dims=2, q=10, noise=0.0)
        assert p.meta["h_star"] == pytest.approx(0.0, abs=1e-15)

    def test_recorded_solution_solves_normal_equations(self):
        p = bp.make_random_inconsistent_ls(seed=9, d=4, dims=3, q=20, noise=0.7)
        x = p.meta["x_ls"]
        assert float(np.max(np.abs(p.a.T @ (p.a @ x - p.b)))) < 1e-10

    def test_h_star_matches_penalty(self):
        p = bp.make_random_inconsistent_ls(seed=9, d=4, dims=3, q=20, noise=0.7)
        assert bp.penalty_h(p, p.meta["x_ls"]) == pytest.approx(p.meta["h_star"], rel=1e-12)

    def test_rank_deficiency_gives_null_space(self):
        p = bp.make_random_inconsistent_ls(
            seed=9, d=4, dims=3, q=20, noise=0.7, rank_deficiency=3
        )
        assert np.linalg.matrix_rank(p.a) == p.m - 3


class TestSmoothnessModel:
    def test_curvature_upper_bound_sampled(self, rng):
        p = bp.make_random_inconsistent_ls(seed=21, d=3, dims=(2, 4, 3), q=15, noise=0.5)
        for i in range(p.d):
            ni = p.blocks.dims[i]
            lam = p.smooth[i].lam_matrix(ni)
            for _ in range(100):
                x = rng.standard_normal(ni)
                t = rng.standard_normal(ni)
                gap = (
                    p.smooth[i].value(x + t)
                    - p.smooth[i].value(x)
                    - float(p.smooth[i].grad(x) @ t)
                )
                assert -1e-9 <= gap <= 0.5 * float(t @ (lam @ t)) + 1e-9

    def test_gradient_matches_finite_differences(self, rng):
        p = bp.make_random_inconsistent_ls(seed=22, d=3, dims=(2, 4, 3), q=15, noise=0.5)
        step = 1e-5
        for i in range(p.d):
            ni = p.blocks.dims[i]
            x = rng.standard_normal(ni)
            g = p.smooth[i].grad(x)
            fd = np.zeros(ni)
            for j in range(ni):
                e = np.zeros(ni)
                e[j] = step
                fd[j] = (p.smooth[i].value(x + e) - p.smooth[i].value(x - e)) / (2 * step)
            assert np.linalg.norm(fd - g) <= 1e-5 * max(1.0, np.linalg.norm(g))


class TestPenaltyIdentities:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_three_point_identity(self, seed):
        rng = np.random.default_rng(seed)
        p = bp.make_random_inconsistent_ls(seed=3, d=2, dims=3, q=8, noise=0.5)
        u, w, x = (rng.standard_normal(p.m) for _ in range(3))
        lhs = bp.penalty_h(p, u) - bp.penalty_h(p, x)
        rhs = (
            float(bp.grad_h(p, w) @ (u - x))
            + 0.5 * float(np.sum((p.a @ (u - w)) ** 2))
            - 0.5 * float(np.sum((p.a @ (x - w)) ** 2))
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_quadratic_interpolation_identity(self, seed, t):
        rng = np.random.default_rng(seed)
        p = bp.make_random_inconsistent_ls(seed=3, d=2, dims=3, q=8, noise=0.5)
        x, y = rng.standard_normal(p.m), rng.standard_normal(p.m)
        lhs = bp.penalty_h(p, t * x + (1 - t) * y)
        rhs = (
            t * bp.penalty_h(p, x)
            + (1 - t) * bp.penalty_h(p, y)
            - 0.5 * t * (1 - t) * float(np.sum((p.a @ (x - y)) ** 2))
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_gap_identity_against_normal_equations(self, rng):
        p = bp.make_random_inconsistent_ls(seed=13, d=3, dims=4, q=20, noise=0.8)
        ref = bp.least_squares_reference(p)
        for _ in range(20):
            x = rng.standard_normal(p.m)
            gap = bp.penalty_h(p, x) - ref.h_star
            ident = 0.5 * float(np.sum((p.a @ (x - ref.x_ls)) ** 2))
            assert gap == pytest.approx(ident, rel=1e-9, abs=1e-12)


class TestReferenceChecks:
    def test_normal_equation_check(self, monkeypatch):
        p = bp.make_random_inconsistent_ls(seed=13, d=3, dims=4, q=20, noise=0.8)
        real = np.linalg.lstsq

        def off_by_one(*args, **kwargs):
            x, *rest = real(*args, **kwargs)
            return (x + 1.0, *rest)

        monkeypatch.setattr(np.linalg, "lstsq", off_by_one)
        with pytest.raises(InvariantViolation, match="normal equations"):
            bp.least_squares_reference(p)

    def test_long_run_falls_back_without_strong_convexity(self):
        p = bp.make_random_inconsistent_ls(seed=13, d=3, dims=4, q=20, noise=0.8, mu=0.0)
        ref = long_run_reference(p, k_max=10)
        assert ref.source == "long-run[k=10]"

    def test_penalty_gap_anchors_at_least_squares_solution(self):
        # a short long-run reference stores an iterate far from the
        # normal-equation solutions as x_star; h_gap must not measure from it
        p = bp.make_random_inconsistent_ls(seed=3, d=4, dims=3, q=18, noise=0.5)
        ref = long_run_reference(p, k_max=5)
        assert ref.h_gap(p, ref.x_ls) == pytest.approx(0.0, abs=1e-12)
        x = np.zeros(p.m)
        assert ref.h_gap(p, x) == pytest.approx(bp.penalty_h(p, x) - ref.h_star, rel=1e-10)

    def test_long_run_keeps_other_policy_errors(self, monkeypatch):
        p = bp.make_random_inconsistent_ls(seed=13, d=3, dims=4, q=20, noise=0.8)

        def broken(*args, **kwargs):
            raise PolicyConstructionError("no admissible parameters")

        monkeypatch.setattr(stepsize, "make_accelerated_policy", broken)
        with pytest.raises(PolicyConstructionError):
            long_run_reference(p, k_max=10)
