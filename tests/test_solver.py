import ast
import inspect
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import blockpd as bp
from blockpd import dlmp, solver
from blockpd.blocks import BlockStructure, ProblemSpec, ProxBlock, SmoothBlock, eval_psi
from blockpd.errors import InvariantViolation, SolverDivergence
from blockpd.proxops import prox_quadratic_block, prox_zero_block
from blockpd.sampling import weight_matrix_p
from blockpd.solver import PdaEngine, RbcdEngine, RunResult
from blockpd.stepsize import ConvexPolicy
from instruments import (
    aw,
    copy_state,
    dual_scale,
    expectation_over_sampling,
    extrapolated,
    forward_backward_block,
    fresh_trace_record,
    gamma_table,
    grad_h,
    lyapunov,
    penalty_h,
    prox_box_block,
    recorded,
    step_on,
)


def one_dim_problem(l_val=1.0, a=None, b=None):
    a = np.zeros((1, 1)) if a is None else a
    b = np.zeros(a.shape[0]) if b is None else b
    return ProblemSpec(
        BlockStructure((1,)),
        (SmoothBlock.quadratic(np.array([[l_val]]), np.zeros(1)),),
        (prox_zero_block(),),
        (a,),
        b,
    )


class TestForwardBackward:
    def test_no_movement_without_signal(self):
        p = ProblemSpec(
            BlockStructure((2,)),
            (SmoothBlock.zero(2),),
            (prox_zero_block(),),
            (np.zeros((1, 2)),),
            np.zeros(1),
        )
        s = bp.full(1)
        pol = ConvexPolicy(sigma=1.0, b_diag=np.ones(2))
        eng = RbcdEngine(p, s, pol)
        state = eng.init_state(np.array([0.3, -0.7]), bp.make_rng(0))
        assert np.allclose(forward_backward_block(eng, state, 0), [0.3, -0.7])

    def test_explicit_gradient_step(self):
        # phi(t) = t^2/2, unit metric, x = 1: new point 1 - 1 = 0
        p = one_dim_problem()
        eng = RbcdEngine(p, bp.full(1), ConvexPolicy(sigma=1.0, b_diag=np.ones(1)))
        state = eng.init_state(np.ones(1), bp.make_rng(0))
        assert forward_backward_block(eng, state, 0)[0] == pytest.approx(0.0)

    def test_minimizer_against_grid(self, rng):
        from blockpd.proxops import prox_l1_block

        p = ProblemSpec(
            BlockStructure((1,)),
            (SmoothBlock.quadratic(np.array([[2.0]]), np.array([0.3])),),
            (prox_l1_block(0.5),),
            (np.array([[1.0], [-2.0]]),),
            np.array([0.1, -0.4]),
        )
        pol = ConvexPolicy(sigma=0.7, b_diag=np.array([4.0]))
        eng = RbcdEngine(p, bp.full(1), pol)
        state = eng.init_state(rng.standard_normal(1), bp.make_rng(3))
        x_hat = forward_backward_block(eng, state, 0)[0]
        z, az, _ = extrapolated(eng, state)
        g = p.smooth[0].grad(state.x) + state.s_cur * (p.a_blocks[0].T @ (az - p.b))
        q_val = pol.b_diag[0] / 1.0

        def objective(u):
            return (
                0.5 * abs(u)
                + g[0] * (u - state.x[0])
                + 0.5 * q_val * (u - state.x[0]) ** 2
            )

        grid = np.linspace(x_hat - 2.0, x_hat + 2.0, 40001)
        assert objective(x_hat) <= float(np.min([objective(u) for u in grid])) + 1e-9


class TestAveragingStep:
    def test_full_sampling_contracts_quadratic(self):
        p = one_dim_problem()
        pol = ConvexPolicy(sigma=1.0, b_diag=np.ones(1))
        eng = recorded(RbcdEngine(p, bp.full(1), pol))
        bp.run(p, eng.sampling, pol, np.ones(1), 30, seed=0, trace_every=30, engine=eng)
        mags = [abs(float(x[0])) for x in eng.iterates]
        assert all(b <= a + 1e-15 for a, b in zip(mags, mags[1:]))
        assert mags[-1] < 1e-8

    def test_theta0_equal_pi_makes_w_equal_x(self, two_block_instance):
        p = two_block_instance
        s = bp.single_coordinate(2)
        pol = ConvexPolicy(sigma=0.5, b_diag=np.full(p.m, 50.0))
        eng = RbcdEngine(p, s, pol)
        state = eng.init_state(np.zeros(p.m), bp.make_rng(1))
        eng.step(state)
        assert np.allclose(state.w, state.x, atol=1e-14)

    def test_no_coupling_decouples_from_w(self):
        # with A = 0 the primal path must match plain proximal gradient
        p = one_dim_problem()
        pol = ConvexPolicy(sigma=0.25, b_diag=np.full(1, 2.0))
        eng = recorded(RbcdEngine(p, bp.full(1), pol))
        bp.run(p, eng.sampling, pol, np.ones(1), 10, seed=0, trace_every=10, engine=eng)
        x = 1.0
        for nxt in eng.iterates[1:]:
            x = x - (1.0 / 2.0) * x  # gradient step in the fixed metric
            assert float(nxt[0]) == pytest.approx(x, abs=1e-14)

    def test_initial_point_must_be_feasible(self):
        p = ProblemSpec(
            BlockStructure((1,)),
            (SmoothBlock.zero(1),),
            (prox_box_block(0.0, 1.0),),
            (np.zeros((1, 1)),),
            np.zeros(1),
        )
        eng = RbcdEngine(p, bp.full(1), ConvexPolicy(sigma=1.0, b_diag=np.ones(1)))
        with pytest.raises(ValueError, match="dom R"):
            eng.init_state(np.array([5.0]), bp.make_rng(0))


class TestPrimalDualStep:
    def test_chambolle_pock_form(self):
        # one block, all coordinates active, constant sigma: the dual update
        # collapses to y + sigma (A(2x' - x) - b)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 2))
        b = rng.standard_normal(3)
        p = ProblemSpec(
            BlockStructure((2,)),
            (SmoothBlock.quadratic(np.eye(2), np.zeros(2)),),
            (prox_zero_block(),),
            (a,),
            b,
        )
        pol = ConvexPolicy(sigma=0.3, b_diag=np.full(2, 8.0))
        eng = PdaEngine(p, bp.full(1), pol)
        state = eng.init_state(rng.standard_normal(2), bp.make_rng(0))
        x_old, y_old = state.x.copy(), state.y.copy()
        eng.step(state)
        expect = y_old + 0.3 * (a @ (2 * state.x - x_old) - b)
        assert np.allclose(state.y, expect, atol=1e-12)

    def test_dual_initialisation_matches_identity(self, two_block_instance):
        # y^0 = S_0 (A z^0 - b) with z^0 = x^0
        p = two_block_instance
        pol = ConvexPolicy(sigma=0.5, b_diag=np.full(p.m, 50.0))
        eng = PdaEngine(p, bp.single_coordinate(2), pol)
        x0 = np.random.default_rng(0).standard_normal(p.m)
        state = eng.init_state(x0, bp.make_rng(0))
        assert np.allclose(state.y, p.a @ x0 - p.b, atol=1e-15)

    def test_residual_cache_matches_truth(self, two_block_instance):
        p = two_block_instance
        s = bp.single_coordinate(2)
        pol = bp.convex_default_policy(p, s)
        res = bp.run(p, s, pol, np.zeros(p.m), 400, seed=2, trace_every=400, engine="pda")
        assert np.allclose(res.state.u, p.a @ res.state.x - p.b, atol=1e-9)


class TestEquivalence:
    @pytest.mark.parametrize("sampling_name", ["single", "nice", "full", "paired"])
    @pytest.mark.parametrize("policy_name", ["convex", "accel"])
    def test_paths_coincide(self, sampling_name, policy_name, two_block_instance):
        p = bp.make_random_inconsistent_ls(
            seed=77, d=4, dims=2, q=12, noise=0.5, mu=1.0
        )
        samplings = {
            "single": bp.single_coordinate(4),
            "nice": bp.nice(4, 2),
            "full": bp.full(4),
            "paired": bp.paired_dso(3),
        }
        s = samplings[sampling_name]
        if policy_name == "convex":
            pol1 = bp.convex_default_policy(p, s)
            pol2 = bp.convex_default_policy(p, s)
        else:
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                pol1 = bp.make_accelerated_policy(p, s)
                pol2 = bp.make_accelerated_policy(p, s)
        e1, e2 = recorded(RbcdEngine(p, s, pol1)), recorded(PdaEngine(p, s, pol2))
        r1 = bp.run(p, s, pol1, np.zeros(p.m), 300, seed=5, trace_every=300, engine=e1)
        r2 = bp.run(p, s, pol2, np.zeros(p.m), 300, seed=5, trace_every=300, engine=e2)
        dev = max(
            float(np.max(np.abs(a - b))) for a, b in zip(e1.iterates, e2.iterates)
        )
        assert dev <= 1e-9
        assert len(r1.trace) == len(r2.trace) >= 1
        for row1, row2 in zip(r1.trace, r2.trace):
            assert row2.psi_x == pytest.approx(row1.psi_x, rel=1e-8)


class TestImplicitAveragedIterate:
    """The implicit w = x + gamma e against the explicit step it replaced
    (``ExplicitRbcdOracle`` in conftest), drawing the same blocks."""

    @staticmethod
    def _compare(p, s, pol_new, pol_old, oracle_cls, steps, recompute_every, seed=8):
        eng = RbcdEngine(p, s, pol_new)
        ora = oracle_cls(p, s, pol_old)
        st = eng.init_state(np.zeros(p.m), bp.make_rng(seed))
        so = ora.init_state(np.zeros(p.m), bp.make_rng(seed))

        def rel(new, old):
            return float(np.max(np.abs(new - old))) / max(1.0, float(np.max(np.abs(old))))

        worst_w = worst_x = 0.0
        for _ in range(steps):
            eng.step(st)
            ora.step(so)
            if recompute_every and st.k % recompute_every == 0:
                eng.refresh(st)
                ora.refresh(so)
            worst_w = max(worst_w, rel(st.w, so.w), rel(aw(st), so.aw))
            worst_x = max(worst_x, rel(st.x, so.x))
        assert worst_w <= 1e-12
        # x feeds rounding differences of the residual back through the
        # gradient weight S_k (about 1e6 here), so it is held to less
        assert worst_x <= 1e-10
        assert st.psi_hat == pytest.approx(so.psi_hat, rel=1e-12)
        return st

    @pytest.mark.parametrize("recompute_every", [0, 1000])
    def test_accelerated_matches_explicit(self, recompute_every, bench_instance, explicit_rbcd):
        p = bench_instance
        s = bp.single_coordinate(p.d)
        pol = bp.make_accelerated_policy(p, s)
        self._compare(p, s, pol, replace(pol), explicit_rbcd, 10_000, recompute_every)

    def test_full_sampling_accelerated_matches_explicit(self, bench_instance, explicit_rbcd):
        # sigma_0 = min pi = 1 to rounding, so gamma starts near 1e-16
        p = bench_instance
        s = bp.full(p.d)
        pol = bp.make_accelerated_policy(p, s)
        assert pol.sigma_at(0) == pytest.approx(1.0, abs=1e-12)
        self._compare(p, s, pol, replace(pol), explicit_rbcd, 10_000, 1000)

    def test_theta0_one_restarts_the_average(self, bench_instance, explicit_rbcd):
        # theta_0 = sigma / S_0 = 1 exactly; B >= d A_i'A_i + Lam_i blockwise
        # bounds A'A + Lam, so sigma = 1 is admissible under full sampling
        p = bench_instance
        s = bp.full(p.d)
        b_diag = p.blocks.expand(p.d * p.block_sq_norms + p.smooth_lipschitz)
        pol = ConvexPolicy(sigma=1.0, b_diag=b_diag)
        eng = RbcdEngine(p, s, pol)
        st = eng.init_state(np.zeros(p.m), bp.make_rng(0))
        eng.step(st)
        assert st.gamma == 1.0 and not st.e.any()
        assert np.array_equal(st.w, st.x)
        self._compare(p, s, pol, replace(pol), explicit_rbcd, 10_000, 0)

    def test_averaged_iterate_is_read_only(self, two_block_instance):
        p = two_block_instance
        s = bp.single_coordinate(2)
        eng = RbcdEngine(p, s, bp.convex_default_policy(p, s))
        st = eng.init_state(np.zeros(p.m), bp.make_rng(0))
        for attr in ("w", "aw"):
            with pytest.raises(AttributeError):
                setattr(st, attr, np.zeros(2))


class TestGammaTable:
    def test_initial_weight(self):
        gam = gamma_table([], np.array([0.5, 0.25]))
        assert np.allclose(gam[0, 0], 1.0)

    def test_theta_equal_pi_shifts_all_mass(self):
        gam = gamma_table([0.5], np.array([0.5]))
        assert gam[1, 0, 0] == pytest.approx(0.0)
        assert gam[1, 1, 0] == pytest.approx(1.0)

    def test_convex_combination_property(self):
        pi = np.array([0.5, 0.25, 0.25])
        sigma = 0.25  # theta_0 = min pi, decreasing thereafter
        thetas = [sigma / (1 + k * sigma) for k in range(40)]
        gam = gamma_table(thetas, pi)
        assert gam.min() >= -1e-12
        sums = gam.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-12

    def test_nan_theta_fails_the_closure_check(self):
        with pytest.raises(InvariantViolation, match="closure"):
            gamma_table([0.5, math.nan], np.array([0.5, 0.5]))


class TestAveragedIterate:
    def test_matches_weighted_history(self, two_block_instance):
        p = two_block_instance
        s = bp.single_coordinate(2)
        pol = bp.convex_default_policy(p, s)
        eng = recorded(RbcdEngine(p, s, pol))
        bp.run(p, s, pol, np.zeros(p.m), 50, seed=3, trace_every=50, engine=eng)
        thetas = [pol.sigma / (1 + k * pol.sigma) for k in range(50)]
        gam = gamma_table(thetas, s.pi)
        for k in range(51):
            w_direct = np.zeros(p.m)
            for t in range(k + 1):
                for i in range(p.d):
                    sl = p.blocks.block_slice(i)
                    w_direct[sl] += gam[k, t, i] * eng.iterates[t][sl]
            assert np.max(np.abs(w_direct - eng.averaged[k])) < 1e-10

    def test_objective_estimate_dominates_averaged_value(self, two_block_instance):
        p = two_block_instance
        s = bp.single_coordinate(2)
        pol = bp.convex_default_policy(p, s)
        eng = RbcdEngine(p, s, pol)
        state = eng.init_state(np.zeros(p.m), bp.make_rng(9))
        for _ in range(200):
            eng.step(state)
            assert state.psi_hat >= eval_psi(p, state.w) - 1e-9

    def test_averaged_penalty_gap_nonnegative(self, two_block_instance, two_block_reference):
        p, ref = two_block_instance, two_block_reference
        s = bp.single_coordinate(2)
        pol = bp.convex_default_policy(p, s)
        res = bp.run(p, s, pol, np.zeros(p.m), 2000, seed=4, trace_every=50,
                     reference=ref)
        for rec in res.trace:
            assert rec.h_gap_w >= -1e-12
            assert rec.h_gap_x >= -1e-12


class TestExactExpectations:
    def _engine_state(self, p, pol, seed=3, warm=5):
        s = bp.single_coordinate(2)
        eng = RbcdEngine(p, s, pol)
        state = eng.init_state(np.zeros(p.m), bp.make_rng(seed))
        for _ in range(warm):
            eng.step(state)
        return s, eng, state

    def test_scaled_distance_identity(self, two_block_instance, rng):
        # E[ |x+ - x*|^2_{PM} ] = |xhat - x*|^2_M + |x - x*|^2_{(P-I)M}
        p = two_block_instance
        pol = bp.convex_default_policy(p, bp.single_coordinate(2))
        s, eng, state = self._engine_state(p, pol)
        x_ref = rng.standard_normal(p.m)
        m_diag = rng.uniform(0.5, 2.0, size=p.m)
        p_diag = weight_matrix_p(s, p.blocks)
        x_hat = np.concatenate(
            [forward_backward_block(eng, state, i) for i in range(p.d)]
        )

        def dist(mask):
            st = copy_state(state)
            step_on(eng, st, mask)
            dx = st.x - x_ref
            return float(dx @ (p_diag * m_diag * dx))

        lhs = expectation_over_sampling(s, dist)
        d1 = x_hat - x_ref
        d0 = state.x - x_ref
        rhs = float(d1 @ (m_diag * d1)) + float(d0 @ ((p_diag - 1.0) * m_diag * d0))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_objective_estimate_recursion(self, two_block_instance):
        # E[psi_hat_{k+1}] = (1 - theta) psi_hat_k + theta Psi(xhat)
        p = two_block_instance
        pol = bp.convex_default_policy(p, bp.single_coordinate(2))
        s, eng, state = self._engine_state(p, pol)
        theta = pol.sigma_at(state.k) / state.s_cur
        x_hat = np.concatenate(
            [forward_backward_block(eng, state, i) for i in range(p.d)]
        )

        def nxt(mask):
            st = copy_state(state)
            step_on(eng, st, mask)
            return st.psi_hat

        lhs = expectation_over_sampling(s, nxt)
        rhs = (1 - theta) * state.psi_hat + theta * eval_psi(p, x_hat)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_penalty_gradient_blend(self, two_block_instance):
        # the extrapolated penalty gradient is the theta-blend of the w and x
        # gradients
        p = two_block_instance
        pol = bp.convex_default_policy(p, bp.single_coordinate(2))
        s, eng, state = self._engine_state(p, pol, warm=9)
        z, az, theta = extrapolated(eng, state)
        lhs = p.a.T @ (az - p.b)
        rhs = (1 - theta) * grad_h(p, state.w) + theta * grad_h(p, state.x)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestProxInequality:
    def test_sampled_probes(self, two_block_instance, rng):
        p = two_block_instance
        s = bp.single_coordinate(2)
        pol = bp.convex_default_policy(p, s)
        eng = RbcdEngine(p, s, pol)
        state = eng.init_state(np.zeros(p.m), bp.make_rng(0))
        for _ in range(4):
            eng.step(state)
        z, az, _ = extrapolated(eng, state)
        res_z = az - p.b
        tau = pol.tau_at(state.k)
        # blockwise metric B / (pi * tau)
        q_diag = pol.b_diag * weight_matrix_p(s, p.blocks) / tau
        grad_phi = p.grad_phi(state.x)
        grad_pen = p.a.T @ res_z

        def zeta(x):
            return (
                p.phi(state.x)
                + float(grad_phi @ (x - state.x))
                + state.s_cur * float(grad_pen @ (x - z))
                + 0.5 * float((x - state.x) @ (q_diag * (x - state.x)))
            )

        x_hat = np.concatenate(
            [forward_backward_block(eng, state, i) for i in range(p.d)]
        )
        mu = p.mu_vector
        lhs = p.r_value(x_hat) + zeta(x_hat)
        for _ in range(200):
            x = rng.standard_normal(p.m) * 2.0
            dx = x - x_hat
            rhs = (
                p.r_value(x)
                + zeta(x)
                - 0.5 * float(dx @ ((q_diag + mu) * dx))
            )
            assert lhs <= rhs + 1e-9


class TestLyapunovDescent:
    @pytest.mark.parametrize("policy_name", ["convex", "accel"])
    def test_exhaustive_supermartingale(
        self, policy_name, two_block_instance, two_block_reference
    ):
        p, ref = two_block_instance, two_block_reference
        s = bp.single_coordinate(2)
        pol = (
            bp.convex_default_policy(p, s)
            if policy_name == "convex"
            else bp.make_accelerated_policy(p, s)
        )
        eng = RbcdEngine(p, s, pol)
        state = eng.init_state(np.zeros(p.m), bp.make_rng(5))
        for k in range(100):
            v_k, _ = lyapunov(p, s, pol, state, ref)

            def nxt(mask):
                st = copy_state(state)
                step_on(eng, st, mask)
                return lyapunov(p, s, pol, st, ref)[0]

            exp_v = expectation_over_sampling(s, nxt)
            h_gap = ref.h_gap(p.a @ state.x - p.b)
            assert exp_v <= v_k - pol.sigma_at(k) ** 2 * h_gap + 1e-9
            eng.step(state)


class TestRunLoop:
    def test_zero_iterations(self, two_block_instance):
        p = two_block_instance
        s = bp.single_coordinate(2)
        pol = bp.convex_default_policy(p, s)
        res = bp.run(p, s, pol, np.zeros(p.m), 0, seed=0)
        assert res.trace == []
        assert np.allclose(res.state.x, 0.0)

    def test_run_options(self):
        assert list(inspect.signature(bp.run).parameters) == [
            "problem", "sampling", "policy", "x0", "k_max", "engine", "seed",
            "trace_every", "stop_kkt_tol", "reference",
        ]

    @pytest.mark.parametrize("engine", [RbcdEngine, PdaEngine, dlmp.PpdlmpEngine])
    def test_step_takes_only_the_state(self, engine):
        assert list(inspect.signature(engine.step).parameters) == ["self", "state"]

    def test_run_result_fields(self):
        assert [f.name for f in fields(RunResult)] == [
            "state", "trace", "reference", "stopped_at",
        ]

    def test_trace_every_must_be_positive(self, two_block_instance):
        p = two_block_instance
        s = bp.single_coordinate(2)
        pol = bp.convex_default_policy(p, s)
        for bad in (0, -1):
            with pytest.raises(ValueError, match="trace_every"):
                bp.run(p, s, pol, np.zeros(p.m), 10, seed=0, trace_every=bad)

    def test_consensus_two_node_limit(self):
        local = [prox_quadratic_block(1.0, center=c) for c in (0.0, 2.0)]
        p = bp.make_consensus([(0, 1)], local)
        s = bp.single_coordinate(2)
        pol = bp.convex_default_policy(p, s)
        res = bp.run(p, s, pol, np.zeros(2), 10_000, seed=0, trace_every=10_000)
        assert np.allclose(res.state.x, [1.0, 1.0], atol=1e-4)

    def test_inconsistent_single_block_limit(self):
        p = ProblemSpec(
            BlockStructure((1,)),
            (SmoothBlock.zero(1),),
            (prox_zero_block(),),
            (np.array([[1.0], [1.0]]),),
            np.array([0.0, 1.0]),
        )
        pol = bp.convex_default_policy(p, bp.full(1))
        res = bp.run(p, bp.full(1), pol, np.zeros(1), 4000, seed=0, trace_every=4000)
        assert res.state.x[0] == pytest.approx(0.5, abs=1e-6)
        assert penalty_h(p, res.state.x) == pytest.approx(0.25, abs=1e-8)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self, two_block_instance):
        p = two_block_instance
        s = bp.single_coordinate(2)
        bad = ConvexPolicy(sigma=5.0, b_diag=np.full(p.m, 1e-6))
        with pytest.raises(SolverDivergence):
            bp.run(p, s, bad, np.zeros(p.m), 2000, seed=0, trace_every=100)

    @pytest.mark.parametrize("engine", ["rbcd", "pda"])
    def test_nan_before_the_first_check(self, engine):
        # k_max = 50 < NAN_CHECK_EVERY: the last iterate is checked too
        p = ProblemSpec(
            BlockStructure((1, 1)),
            (SmoothBlock.zero(1), SmoothBlock.zero(1)),
            (prox_zero_block(), ProxBlock(lambda x: 0.0, lambda g, v: v * np.nan, 0.0)),
            (np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])),
            np.array([1.0, 2.0]),
        )
        s = bp.single_coordinate(2)
        pol = bp.convex_default_policy(p, s)
        with pytest.raises(SolverDivergence, match="k=50"):
            bp.run(p, s, pol, np.zeros(p.m), 50, engine=engine, seed=0, trace_every=100)

    @pytest.mark.parametrize("engine", ["rbcd", "pda"])
    def test_trace_rows_hold_plain_floats(self, two_block_instance, two_block_reference, engine):
        # a NumPy scalar in a row would print as np.float64(...) in the
        # divergence message; the rows cross a cache refresh
        p = two_block_instance
        s = bp.single_coordinate(2)
        pol = bp.convex_default_policy(p, s)
        res = bp.run(p, s, pol, np.zeros(p.m), 1200, engine=engine, seed=3, trace_every=100,
                     reference=two_block_reference)
        for rec in res.trace:
            kinds = {f.name: type(getattr(rec, f.name)) for f in fields(rec)}
            assert kinds == {**dict.fromkeys(kinds, float), "k": int}, rec
            assert "np.float64" not in repr(rec)

    def test_deterministic_traces(self, two_block_instance, two_block_reference):
        p, ref = two_block_instance, two_block_reference
        s = bp.single_coordinate(2)
        pol = bp.convex_default_policy(p, s)
        r1 = bp.run(p, s, pol, np.zeros(p.m), 500, seed=11, trace_every=50, reference=ref)
        r2 = bp.run(p, s, pol, np.zeros(p.m), 500, seed=11, trace_every=50, reference=ref)
        for a, b in zip(r1.trace, r2.trace):
            for name in ("k", "psi_x", "psi_hat", "h_gap_x", "h_gap_w", "kkt_res"):
                assert getattr(a, name) == getattr(b, name)

    def test_stop_on_kkt(self):
        local = [prox_quadratic_block(1.0, center=c) for c in (0.0, 2.0)]
        p = bp.make_consensus([(0, 1)], local)
        s = bp.full(2)
        pol = bp.convex_default_policy(p, s)
        res = bp.run(
            p, s, pol, np.zeros(2), 50_000, seed=0, trace_every=100, stop_kkt_tol=1e-6
        )
        assert res.stopped_at is not None
        assert res.trace[-1].kkt_res < 1e-6

    def test_dual_scale_bounds_objective_dip(self, two_block_instance,
                                             two_block_reference):
        p, ref = two_block_instance, two_block_reference
        delta = dual_scale(ref)
        assert delta > 0
        s = bp.single_coordinate(2)
        pol = bp.convex_default_policy(p, s)
        eng = recorded(RbcdEngine(p, s, pol))
        res = bp.run(p, s, pol, np.zeros(p.m), 3000, seed=2, trace_every=50,
                     reference=ref, engine=eng)
        import math

        for rec, w in zip(res.trace, eng.averaged[50::50]):
            psi_w = eval_psi(p, w)
            assert psi_w - ref.psi_star >= -delta * math.sqrt(rec.h_gap_w) - 1e-9


class TestTraceRowsFromState:
    """Rows read the residual Ax - b from the engines' maintained products;
    a from-scratch row (``fresh_trace_record``) differs from them only in
    the columns that read it, and there by the products' drift."""

    @pytest.mark.parametrize("engine", ["rbcd", "pda"])
    @pytest.mark.parametrize("kind", ["convex", "accelerated"])
    @pytest.mark.parametrize("instance", ["bench", "nice"])
    def test_rows_match_from_scratch_values(
        self, bench_instance, monkeypatch, instance, kind, engine
    ):
        if instance == "bench":
            p, s = bench_instance, bp.single_coordinate(bench_instance.d)
        else:
            p = bp.make_random_inconsistent_ls(
                seed=1, d=24, dims=4, q=144, noise=0.6, mu=1.0, rank_deficiency=4
            )
            s = bp.nice(24, 4)
        ref = bp.quadratic_reference(p)
        pol = bp.convex_default_policy(p, s) if kind == "convex" else bp.make_accelerated_policy(p, s)
        # each of the at most REFRESH_EVERY steps since a refresh rounds every
        # entry of a maintained product once, at the size of |A| times the
        # iterates it adds up (x, and w - x in gamma Ae); b and r_ls add one
        # rounding each.  So the residual read for x, or w, lies within
        # drift(...) of the fresh one, the penalty gap g = 0.5||r - r_ls||^2
        # within drift (sqrt(2 g) + drift), and the saddle residual within drift
        eps, abs_a = np.finfo(float).eps, np.abs(p.a)

        def drift(*parts):
            size = abs_a @ sum(np.abs(v) for v in (*parts, ref.x_ls))
            return 4 * solver.REFRESH_EVERY * eps * (np.linalg.norm(size) + np.linalg.norm(p.b))

        rows = []
        record = solver._trace_record

        def spy(problem, eng, state, reference):
            rec = record(problem, eng, state, reference)
            fresh = fresh_trace_record(problem, eng, state, reference)
            w_drift = drift(state.x, state.w - state.x) if engine == "rbcd" else math.nan
            rows.append((rec, fresh, drift(state.x), w_drift))
            return rec

        monkeypatch.setattr(solver, "_trace_record", spy)
        res = bp.run(p, s, pol, np.zeros(p.m), 1500, engine=engine, seed=3, trace_every=7,
                     reference=ref)
        assert len(rows) == len(res.trace) == 1500 // 7 + 1
        for rec, fresh, x_drift, w_drift in rows:
            for name in ("k", "psi_x", "psi_hat", "primal_res", "tau", "sigma"):
                assert np.array_equal(getattr(rec, name), getattr(fresh, name), equal_nan=True), name
            for name, bound in (("h_gap_x", x_drift), ("h_gap_w", w_drift)):
                got, want = getattr(rec, name), getattr(fresh, name)
                if engine == "pda" and name == "h_gap_w":
                    assert math.isnan(got) and math.isnan(want)
                    continue
                assert abs(got - want) <= bound * (math.sqrt(2 * want) + bound), (rec.k, name)
            assert abs(rec.kkt_res - fresh.kkt_res) <= x_drift, rec.k


# functions on the step and trace-row paths, per module of the package; their
# products go through ndarray.dot, which on the few-column slabs of a block
# step skips most of @'s dispatch cost
HOT_PATHS = {
    "solver.py": ("RbcdEngine.step", "PdaEngine.step", "_trace_record"),
    "blocks.py": ("kkt_residual", "SmoothBlock.quadratic"),
    "oracles.py": ("Reference.h_gap",),
    "dlmp.py": (
        "_OperatorProjector._inner",
        "_OperatorProjector.project",
        "_OperatorProjector._newton_matrix",
    ),
}


def matmul_uses(source: str, names) -> list[str]:
    """``name:line`` of every ``@`` or ``@=`` inside the named module-level
    functions or methods of ``source``; a missing name raises KeyError."""
    tree = ast.parse(source)
    funcs = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            funcs[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    funcs[f"{node.name}.{item.name}"] = item
    return [
        f"{name}:{node.lineno}"
        for name in names
        for node in ast.walk(funcs[name])
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]


class TestHotPathProducts:
    def test_hot_paths_have_no_matmul(self):
        package = Path(bp.__file__).resolve().parent
        found = [
            f"{module}:{use}"
            for module, names in HOT_PATHS.items()
            for use in matmul_uses((package / module).read_text(), names)
        ]
        assert found == []

    def test_guard_sees_a_matmul_put_back(self):
        source = (Path(bp.__file__).resolve().parent / "solver.py").read_text()
        assert "a_t.dot(res)" in source
        back = source.replace("a_t.dot(res)", "a_t @ res")
        assert [use.split(":")[0] for use in matmul_uses(back, HOT_PATHS["solver.py"])] == [
            "RbcdEngine.step"
        ]
