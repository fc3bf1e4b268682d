import ast
import gc
import inspect
import math
import os
import subprocess
import sys
import tracemalloc
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
from blockpd.solver import PdaEngine, RbcdEngine, RunResult, Trace, TraceRecord
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
    schedule,
    step_on,
)


def one_dim_problem(l_val=1.0, a=None, b=None):
    a = np.zeros((1, 1)) if a is None else a
    b = np.zeros(a.shape[0]) if b is None else b
    return ProblemSpec(
        BlockStructure((1,)),
        (SmoothBlock.quadratic(np.array([[l_val]]), np.zeros(1)),),
        (prox_zero_block(),),
        a,
        b,
    )


class TestForwardBackward:
    def test_no_movement_without_signal(self):
        p = ProblemSpec(
            BlockStructure((2,)),
            (SmoothBlock.zero(2),),
            (prox_zero_block(),),
            np.zeros((1, 2)),
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
            np.array([[1.0], [-2.0]]),
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
            np.zeros((1, 1)),
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
            a,
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


def loop_copy(p):
    """A copy of ``p`` whose grads are wrapped, as ``perfbench``'s tracer
    wraps them: its blocks no longer stack, so every step takes the
    per-block loop."""
    smooth = tuple(replace(sb, grad=lambda x, f=sb.grad: f(x)) for sb in p.smooth)
    return replace(p, smooth=smooth)


def final_bytes(result):
    """The bytes of a run's final state arrays, psi_hat and trace columns."""
    st = result.state
    names = ("x", "e", "ax", "ae") if isinstance(st, solver.RbcdState) else ("x", "u", "y")
    out = {name: getattr(st, name).tobytes() for name in names}
    if isinstance(st, solver.RbcdState):
        out["psi_hat"] = np.float64(st.psi_hat).tobytes()
    for name in TraceRecord.CSV_FIELDS:
        out[f"trace.{name}"] = result.trace.column(name).tobytes()
    return out


class TestStackedStep:
    """A step that draws several blocks of a problem whose blocks stack runs
    their oracles as one stacked call; it must give the loop's bits."""

    @staticmethod
    def _policies(p, s):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return {
                "convex": bp.convex_default_policy(p, s),
                "accel": bp.make_accelerated_policy(p, s),
            }

    @staticmethod
    def _stacked_calls(monkeypatch):
        calls = []
        real = solver._EngineBase._fb_stacked

        def counted(self, *args, **kwargs):
            calls.append(len(args[0]))
            return real(self, *args, **kwargs)

        monkeypatch.setattr(solver._EngineBase, "_fb_stacked", counted)
        return calls

    @pytest.mark.parametrize("d, sampling", [(8, "nice3"), (24, "nice4"), (8, "full")])
    def test_stacked_path_gives_the_loop_bits(self, d, sampling, monkeypatch):
        p = bp.make_random_inconsistent_ls(
            seed=d, d=d, dims=3, q=5 * d, noise=0.5, mu=1.0, rank_deficiency=2
        )
        s = {"nice3": bp.nice(d, 3), "nice4": bp.nice(d, 4), "full": bp.full(d)}[sampling]
        assert (s.support is None) == (sampling == "nice4")
        looped = loop_copy(p)
        assert p._quadratic_stack is not None and looped._quadratic_stack is None
        ref = bp.least_squares_reference(p)
        calls = self._stacked_calls(monkeypatch)
        steps = 2500
        assert steps > solver.REFRESH_EVERY
        for name, pol in self._policies(p, s).items():
            for engine in ("rbcd", "pda"):
                kw = dict(engine=engine, seed=3, trace_every=100, reference=ref)
                calls.clear()
                fast = bp.run(p, s, pol, np.zeros(p.m), steps, **kw)
                assert len(calls) == steps and min(calls) > 1
                calls.clear()
                slow = bp.run(looped, s, pol, np.zeros(p.m), steps, **kw)
                assert calls == []
                assert final_bytes(fast) == final_bytes(slow), (name, engine)

    def test_mixed_block_sizes_take_the_loop(self, monkeypatch):
        p = bp.make_random_inconsistent_ls(
            seed=5, d=8, dims=[3, 4] * 4, q=40, noise=0.5, mu=1.0
        )
        assert p._quadratic_stack is None and p._shared_prox is not None
        s = bp.nice(8, 3)
        ref = bp.least_squares_reference(p)
        calls = self._stacked_calls(monkeypatch)
        for name, pol in self._policies(p, s).items():
            for engine in ("rbcd", "pda"):
                kw = dict(engine=engine, seed=3, trace_every=100, reference=ref)
                mixed = bp.run(p, s, pol, np.zeros(p.m), 1200, **kw)
                looped = bp.run(loop_copy(p), s, pol, np.zeros(p.m), 1200, **kw)
                assert final_bytes(mixed) == final_bytes(looped), (name, engine)
        assert calls == []

    @pytest.mark.parametrize("engine", ["rbcd", "pda"])
    def test_every_step_draws_once_and_advances_tau_once(self, engine, monkeypatch):
        # perfbench calibrates at draws and checks tau_next calls == iters,
        # patching the module attributes as done here
        import blockpd.sampling as sampling_mod
        import blockpd.stepsize as stepsize_mod

        p = bp.make_random_inconsistent_ls(seed=24, d=24, dims=3, q=72, noise=0.5, mu=1.0)
        s = bp.nice(24, 4)
        pols = self._policies(p, s)
        counts = {"draw": 0, "tau_next": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        for name, owner in (("draw", sampling_mod), ("tau_next", stepsize_mod)):
            real = getattr(owner, name)
            new = counting(name, real)
            for mod in (bp, sampling_mod, stepsize_mod, solver):
                if getattr(mod, name, None) is real:
                    monkeypatch.setattr(mod, name, new)
        k = 300
        stacked = self._stacked_calls(monkeypatch)
        for problem in (p, loop_copy(p)):
            for name, pol in pols.items():
                counts.update(draw=0, tau_next=0)
                bp.run(problem, s, pol, np.zeros(p.m), k, engine=engine, seed=1, trace_every=k)
                assert counts == {"draw": k, "tau_next": k if name == "accel" else 0}
        assert len(stacked) == 2 * k


class TestImplicitAveragedIterate:
    """The implicit w = x + gamma e against the explicit step it replaced
    (``ExplicitRbcdOracle`` in conftest), drawing the same blocks and
    sharing one policy."""

    @staticmethod
    def _compare(p, s, pol, oracle_cls, steps, recompute_every, seed=8):
        eng = RbcdEngine(p, s, pol)
        ora = oracle_cls(p, s, pol)
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
        self._compare(p, s, pol, explicit_rbcd, 10_000, recompute_every)

    def test_full_sampling_accelerated_matches_explicit(self, bench_instance, explicit_rbcd):
        # sigma_0 = min pi = 1 to rounding, so gamma starts near 1e-16
        p = bench_instance
        s = bp.full(p.d)
        pol = bp.make_accelerated_policy(p, s)
        _, (sigma0,) = schedule(pol, 0)
        assert sigma0 == pytest.approx(1.0, abs=1e-12)
        self._compare(p, s, pol, explicit_rbcd, 10_000, 1000)

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
        self._compare(p, s, pol, explicit_rbcd, 10_000, 0)

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
        theta = state.sigma / state.s_cur
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
        tau = state.tau
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
        for _ in range(100):
            v_k, _ = lyapunov(p, s, pol, state, ref)

            def nxt(mask):
                st = copy_state(state)
                step_on(eng, st, mask)
                return lyapunov(p, s, pol, st, ref)[0]

            exp_v = expectation_over_sampling(s, nxt)
            h_gap = ref.h_gap(p.a @ state.x - p.b)
            assert exp_v <= v_k - state.sigma ** 2 * h_gap + 1e-9
            eng.step(state)


class TestRunLoop:
    def test_zero_iterations(self, two_block_instance):
        p = two_block_instance
        s = bp.single_coordinate(2)
        pol = bp.convex_default_policy(p, s)
        res = bp.run(p, s, pol, np.zeros(p.m), 0, seed=0)
        assert len(res.trace) == 0
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

    def test_k_max_must_not_be_negative(self, two_block_instance):
        p = two_block_instance
        s = bp.single_coordinate(2)
        pol = bp.convex_default_policy(p, s)
        with pytest.raises(ValueError, match=r"k_max must be >= 0, got -5"):
            bp.run(p, s, pol, np.zeros(p.m), -5, seed=0)

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
    def test_stop_kkt_tol_must_be_finite_and_positive(self, two_block_instance, bad):
        # each of these once ran all k_max steps without stopping
        p = two_block_instance
        s = bp.single_coordinate(2)
        pol = bp.convex_default_policy(p, s)
        with pytest.raises(ValueError, match="stop_kkt_tol must be finite and > 0"):
            bp.run(p, s, pol, np.zeros(p.m), 200, seed=0, trace_every=1, stop_kkt_tol=bad)

    @pytest.mark.parametrize("field", ["x_ls", "r_ls"])
    def test_reference_of_another_shape_fails_before_the_first_step(
        self, two_block_instance, two_block_reference, monkeypatch, field
    ):
        p = two_block_instance
        s = bp.single_coordinate(2)
        pol = bp.convex_default_policy(p, s)
        n = len(getattr(two_block_reference, field))
        ref = replace(two_block_reference, **{field: np.zeros(n + 3)})

        def no_step(self, state):
            raise AssertionError("stepped before the reference was checked")

        monkeypatch.setattr(RbcdEngine, "step", no_step)
        with pytest.raises(
            ValueError, match=rf"reference {field} has shape \({n + 3},\), expected \({n},\)"
        ):
            bp.run(p, s, pol, np.zeros(p.m), 100, seed=0, trace_every=10, reference=ref)

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
            np.array([[1.0], [1.0]]),
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
            np.eye(2),
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


class TestTrace:
    """``run`` keeps its rows as columns; the trace reads as a sequence of
    records built on access."""

    @pytest.fixture(scope="class", params=["rbcd", "pda"])
    def traced(self, request, two_block_instance, two_block_reference):
        p = two_block_instance
        s = bp.single_coordinate(2)
        pol = bp.convex_default_policy(p, s)
        return bp.run(p, s, pol, np.zeros(p.m), 1200, engine=request.param, seed=3,
                      trace_every=100, reference=two_block_reference).trace

    def test_sequence_access(self, traced):
        assert isinstance(traced, Trace)
        rows = list(traced)
        assert len(traced) == len(rows) == 12
        assert all(isinstance(r, TraceRecord) for r in rows)
        assert [r.k for r in traced] == list(range(100, 1201, 100))
        assert traced[0].k == 100 and traced[-1].k == 1200
        assert traced[-12].k == 100 and traced[11].k == 1200
        for bad in (12, -13):
            with pytest.raises(IndexError):
                traced[bad]
        assert [r.k for r in traced[2:5]] == [300, 400, 500]
        assert [r.k for r in traced[::-5]] == [1200, 700, 200]
        assert traced[5:5] == []
        assert [r.k for r in traced] == [r.k for r in rows]  # iterates afresh

    def test_column_is_a_bit_equal_copy_of_the_rows(self, traced):
        for f in fields(TraceRecord):
            col = traced.column(f.name)
            want = np.array([getattr(r, f.name) for r in traced], dtype=float)
            assert col.dtype == np.float64
            assert np.array_equal(col.view(np.int64), want.view(np.int64)), f.name
            col[:] = 0.0
            assert np.array_equal(traced.column(f.name).view(np.int64), want.view(np.int64))

    def test_a_row_keeps_under_100_bytes(self, bench_instance, bench_reference):
        """20 000 steps at trace_every = 1 under the constant policy, whose
        schedule keeps nothing per step: what the run keeps beyond a one-step
        run (its state and one row) is its rows.  A list of records kept
        about 320 bytes a row."""
        p = bench_instance
        s = bp.single_coordinate(p.d)
        pol = bp.convex_default_policy(p, s)

        def kept(k_max):
            gc.collect()
            tracemalloc.start()
            try:
                res = bp.run(p, s, pol, np.zeros(p.m), k_max, seed=1, trace_every=1,
                             reference=bench_reference)
                gc.collect()
                return tracemalloc.get_traced_memory()[0], len(res.trace)
            finally:
                tracemalloc.stop()

        one, n_one = kept(1)
        many, n_many = kept(20_000)
        assert (n_one, n_many) == (1, 20_000)
        assert (many - one) / (n_many - n_one) < 100


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
    "solver.py": ("RbcdEngine.step", "PdaEngine.step", "_EngineBase._fb_stacked", "_trace_record"),
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


class TestStepLadder:
    def test_small_rungs_run(self):
        # the default rungs once stopped at d=10^4 on an m x m Gram matrix
        # with no test noticing; two small rungs keep the script running
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        out = subprocess.run(
            [sys.executable, str(root / "scripts" / "step_ladder.py"), "--d", "10", "100",
             "--steps", "200", "--windows", "2"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        (at,) = [i for i, line in enumerate(lines) if line.split()[:2] == ["d", "m"]]
        rows = [line.split() for line in lines[at + 1:at + 3]]
        assert [row[:2] for row in rows] == [["10", "40"], ["100", "400"]]
        assert all(len(row) == 6 and all(float(x) > 0.0 for x in row[2:]) for row in rows)
        for title in ("reference ms: ", "quadratic ms: "):
            (refs,) = [line for line in lines if line.startswith(title)]
            parts = [part.split() for part in refs[len(title):].split(", ")]
            assert [part[0] for part in parts] == ["d=10", "d=100"], title
            assert all(float(part[1]) > 0.0 for part in parts), title
        assert lines[-1].startswith("maxrss_mb at the end: ")

    def test_against_mode_runs(self):
        # the --against comparisons are made with this script, which reads
        # the private solver._trace_record: its smallest rung, this tree
        # timed against itself
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        out = subprocess.run(
            [sys.executable, str(root / "scripts" / "step_ladder.py"), "--d", "10",
             "--steps", "50", "--windows", "1", "--against", str(root)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        for title in ("this: ", "against: ", "this / against (ratio of the medians)"):
            (at,) = [i for i, line in enumerate(lines) if line.startswith(title)]
            head, row = lines[at + 1], lines[at + 2].split()
            assert head.split()[:2] == ["d", "m"] and row[:2] == ["10", "40"], title
            assert len(row) == 6 and all(float(x) > 0.0 for x in row[2:]), title
        for title in ("reference ratio: ", "quadratic ratio: "):
            (ratios,) = [line for line in lines if line.startswith(title)]
            (part,) = ratios[len(title):].split(", ")
            assert part.split()[0] == "d=10" and float(part.split()[1]) > 0.0, title

    def test_tau_times_the_stacked_step(self):
        # --tau T draws nice(d, T), which on these instances takes the
        # stacked multi-block step that traced perfbench runs do not reach
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        out = subprocess.run(
            [sys.executable, str(root / "scripts" / "step_ladder.py"), "--d", "10",
             "--steps", "50", "--windows", "1", "--tau", "3"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        (at,) = [i for i, line in enumerate(lines) if line.split()[:2] == ["d", "m"]]
        row = lines[at + 1].split()
        assert row[:2] == ["10", "40"] and all(float(x) > 0.0 for x in row[2:])
