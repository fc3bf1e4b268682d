import math

import numpy as np
import pytest

import blockpd as bp
from blockpd.blocks import BlockStructure, ProblemSpec, SmoothBlock, eval_psi
from blockpd.errors import InvariantViolation, SolverDivergence
from blockpd.proxops import prox_quadratic_block, prox_zero_block
from blockpd.sampling import expectation_over_sampling, weight_matrix_p
from blockpd.solver import PdaEngine, RbcdEngine, gamma_table, lyapunov
from blockpd.stepsize import ConvexPolicy


def one_dim_problem(l_val=1.0, a=None, b=None):
    a = np.zeros((1, 1)) if a is None else a
    b = np.zeros(a.shape[0]) if b is None else b
    return ProblemSpec(
        BlockStructure((1,)),
        (SmoothBlock.quadratic(np.array([[l_val]]), np.zeros(1)),),
        (prox_zero_block(1),),
        (a,),
        b,
    )


class TestForwardBackward:
    def test_no_movement_without_signal(self):
        p = ProblemSpec(
            BlockStructure((2,)),
            (SmoothBlock.zero(2),),
            (prox_zero_block(2),),
            (np.zeros((1, 2)),),
            np.zeros(1),
        )
        s = bp.full(1)
        pol = ConvexPolicy(sigma=1.0, b_diag=np.ones(2))
        eng = RbcdEngine(p, s, pol)
        state = eng.init_state(np.array([0.3, -0.7]), bp.make_rng(0))
        assert np.allclose(eng.forward_backward_block(state, 0), [0.3, -0.7])

    def test_explicit_gradient_step(self):
        # phi(t) = t^2/2, unit metric, x = 1: new point 1 - 1 = 0
        p = one_dim_problem()
        eng = RbcdEngine(p, bp.full(1), ConvexPolicy(sigma=1.0, b_diag=np.ones(1)))
        state = eng.init_state(np.ones(1), bp.make_rng(0))
        assert eng.forward_backward_block(state, 0)[0] == pytest.approx(0.0)

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
        x_hat = eng.forward_backward_block(state, 0)[0]
        z, az, _ = eng.extrapolated(state)
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
        res = bp.run(p, bp.full(1), pol, np.ones(1), 30, seed=0, trace_every=30,
                     record_iterates=True)
        mags = [abs(float(x[0])) for x in res.iterates]
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
        res = bp.run(p, bp.full(1), pol, np.ones(1), 10, seed=0, trace_every=10,
                     record_iterates=True)
        x = 1.0
        for nxt in res.iterates[1:]:
            x = x - (1.0 / 2.0) * x  # gradient step in the fixed metric
            assert float(nxt[0]) == pytest.approx(x, abs=1e-14)

    def test_initial_point_must_be_feasible(self):
        from blockpd.proxops import prox_box_block

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
            (prox_zero_block(2),),
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

    @pytest.mark.parametrize("shape", ["q+1", "1,q", "q,1"])
    def test_dual_start_shape_checked(self, two_block_instance, shape):
        p = two_block_instance
        pol = ConvexPolicy(sigma=0.5, b_diag=np.full(p.m, 50.0))
        eng = PdaEngine(p, bp.single_coordinate(2), pol)
        bad = {"q+1": (p.q + 1,), "1,q": (1, p.q), "q,1": (p.q, 1)}[shape]
        with pytest.raises(ValueError, match="y0"):
            eng.init_state(np.zeros(p.m), bp.make_rng(0), y0=np.zeros(bad))

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
        r1 = bp.run(p, s, pol1, np.zeros(p.m), 300, seed=5, trace_every=300,
                    record_iterates=True)
        r2 = bp.run(p, s, pol2, np.zeros(p.m), 300, seed=5, trace_every=300,
                    engine="pda", record_iterates=True)
        dev = max(
            float(np.max(np.abs(a - b))) for a, b in zip(r1.iterates, r2.iterates)
        )
        assert dev <= 1e-9
        assert len(r1.trace) == len(r2.trace) >= 1
        for row1, row2 in zip(r1.trace, r2.trace):
            assert row2.psi_x == pytest.approx(row1.psi_x, rel=1e-8)


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
        res = bp.run(p, s, pol, np.zeros(p.m), 50, seed=3, trace_every=50,
                     record_iterates=True)
        thetas = [pol.sigma / (1 + k * pol.sigma) for k in range(50)]
        gam = gamma_table(thetas, s.pi)
        for k in range(51):
            w_direct = np.zeros(p.m)
            for t in range(k + 1):
                for i in range(p.d):
                    sl = p.blocks.block_slice(i)
                    w_direct[sl] += gam[k, t, i] * res.iterates[t][sl]
            assert np.max(np.abs(w_direct - res.averaged[k])) < 1e-10

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
            [eng.forward_backward_block(state, i) for i in range(p.d)]
        )

        def dist(mask):
            st = state.copy()
            eng.step(st, active_mask=mask)
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
            [eng.forward_backward_block(state, i) for i in range(p.d)]
        )

        def nxt(mask):
            st = state.copy()
            eng.step(st, active_mask=mask)
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
        z, az, theta = eng.extrapolated(state)
        lhs = p.a.T @ (az - p.b)
        rhs = (1 - theta) * bp.grad_h(p, state.w) + theta * bp.grad_h(p, state.x)
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
        z, az, _ = eng.extrapolated(state)
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
            [eng.forward_backward_block(state, i) for i in range(p.d)]
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
                st = state.copy()
                eng.step(st, active_mask=mask)
                return lyapunov(p, s, pol, st, ref)[0]

            exp_v = expectation_over_sampling(s, nxt)
            h_gap = ref.h_gap(p, state.x)
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
            (prox_zero_block(1),),
            (np.array([[1.0], [1.0]]),),
            np.array([0.0, 1.0]),
        )
        pol = bp.convex_default_policy(p, bp.full(1))
        res = bp.run(p, bp.full(1), pol, np.zeros(1), 4000, seed=0, trace_every=4000)
        assert res.state.x[0] == pytest.approx(0.5, abs=1e-6)
        assert bp.penalty_h(p, res.state.x) == pytest.approx(0.25, abs=1e-8)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self, two_block_instance):
        p = two_block_instance
        s = bp.single_coordinate(2)
        bad = ConvexPolicy(sigma=5.0, b_diag=np.full(p.m, 1e-6))
        with pytest.raises(SolverDivergence):
            bp.run(p, s, bad, np.zeros(p.m), 2000, seed=0, trace_every=100)

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

    def test_trace_sink_streams_rows(self, two_block_instance):
        p = two_block_instance
        s = bp.single_coordinate(2)
        pol = bp.convex_default_policy(p, s)
        seen = []
        res = bp.run(p, s, pol, np.zeros(p.m), 300, seed=0, trace_every=100,
                     trace_sink=seen.append)
        assert [r.k for r in seen] == [r.k for r in res.trace] == [100, 200, 300]

    def test_dual_scale_bounds_objective_dip(self, two_block_instance,
                                             two_block_reference):
        p, ref = two_block_instance, two_block_reference
        delta = ref.dual_scale(p)
        assert delta > 0
        s = bp.single_coordinate(2)
        pol = bp.convex_default_policy(p, s)
        res = bp.run(p, s, pol, np.zeros(p.m), 3000, seed=2, trace_every=50,
                     reference=ref, record_iterates=True)
        import math

        for rec, w in zip(res.trace, res.averaged[50::50]):
            psi_w = eval_psi(p, w)
            assert psi_w - ref.psi_star >= -delta * math.sqrt(rec.h_gap_w) - 1e-9

    def test_stop_callback(self, two_block_instance):
        p = two_block_instance
        s = bp.single_coordinate(2)
        pol = bp.convex_default_policy(p, s)
        res = bp.run(
            p, s, pol, np.zeros(p.m), 1000, seed=0, trace_every=10,
            stop_callback=lambda st: st.k >= 30,
        )
        assert res.stopped_at == 30
