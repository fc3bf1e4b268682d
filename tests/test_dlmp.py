from dataclasses import replace

import numpy as np
import pytest

import blockpd as bp
from blockpd import dlmp
from blockpd.errors import InfeasibleInstance, ProjectionDidNotConverge, SolverDivergence
from blockpd.proxops import (
    AffineSubspace,
    Box,
    Halfspace,
    dykstra_project,
    exact_projection_qp,
)
from blockpd.sampling import weight_matrix_p


@pytest.fixture(scope="module")
def net15():
    bus, edges = dlmp.default_network_paths()
    return dlmp.load_network(bus, edges)


@pytest.fixture(scope="module")
def opf15(net15):
    return dlmp.build_opf_problem(net15)


# 5700 steps is the seed-1 iteration count to residual 1e-4
PATH_STEPS = 5700


def final_iterate(problem):
    eng = dlmp.PpdlmpEngine(problem)
    state = eng.init_state(dlmp.opf_initial_point(problem), bp.make_rng(0))
    for _ in range(PATH_STEPS):
        eng.step(state)
    return state


@pytest.fixture(scope="module")
def opf15_path_end(opf15):
    """Final iterate of the pair-activated loop at seed 0 with the grid's own
    projections, shared by the trajectory comparisons below."""
    return final_iterate(opf15)


def kkt_certificate(prims, v, x, tol):
    """Check that x is the projection of v onto {C x = e} ∩ K from the
    optimality conditions alone: x in K, C x = e, and a multiplier lam with
    v - x - C^T lam in the normal cone of K at x.  lam solves, by least
    squares, the equations that the cone makes exact: a zero component off
    the active box bounds and off the binding balls, and no tangential
    component on a binding ball."""
    affine, box, balls = prims
    c, e = affine.c_matrix, affine.e
    idx = np.arange(v.size)
    f_idx, g_idx = idx[balls.f], idx[balls.g]
    assert np.all(x >= box.lo) and np.all(x <= box.hi)
    nrm = np.hypot(x[f_idx], x[g_idx])
    assert np.all(nrm <= balls.radii * (1.0 + 1e-12))
    assert np.max(np.abs(c @ x - e)) <= 1e-12

    at_lo, at_hi = x <= box.lo, x >= box.hi
    on_ball = nrm >= balls.radii * (1.0 - 1e-12)
    free = ~(at_lo | at_hi)
    free[f_idx[on_ball]] = False
    free[g_idx[on_ball]] = False
    xf, xg = x[f_idx[on_ball]], x[g_idx[on_ball]]
    gap = v - x
    rows = np.vstack(
        [
            c.T[free],
            xg[:, None] * c.T[f_idx[on_ball]] - xf[:, None] * c.T[g_idx[on_ball]],
        ]
    )
    rhs = np.concatenate(
        [gap[free], xg * gap[f_idx[on_ball]] - xf * gap[g_idx[on_ball]]]
    )
    lam, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    z = gap - c.T @ lam
    assert np.max(np.abs(rows @ lam - rhs), initial=0.0) <= tol
    assert np.all(z[at_hi] >= -tol) and np.all(z[at_lo] <= tol)
    radial = z[f_idx[on_ball]] * xf + z[g_idx[on_ball]] * xg
    assert np.all(radial >= -tol)
    return int(at_lo.sum() + at_hi.sum()), int(on_ball.sum())


class TestLoadNetwork:
    def test_line_one_parameters(self, net15):
        assert net15.s_cap[1] == pytest.approx(2.000)
        assert net15.r[1] == pytest.approx(1.0e-3)
        assert net15.x[1] == pytest.approx(120e-3)

    def test_renewable_caps(self, net15):
        assert np.allclose(net15.renewable[11], [0.438, 0.201])
        assert set(net15.renewable) == {11}

    def test_voltage_bounds(self, net15):
        assert (net15.v_lo, net15.v_hi) == (0.81, 1.21)
        assert net15.v0 == 1.0

    def test_tree_structure(self, net15):
        assert net15.parent[7] == 8
        assert net15.parent[8] == 3
        assert sorted(net15.children(0)) == [1, 12]
        assert net15.n_buses == 14

    def test_default_partition(self, net15):
        assert net15.aggregators == (
            (1, 2, 3, 4, 5, 6),
            (7, 8, 9, 10, 11),
            (12, 13, 14),
        )

    def test_missing_column_rejected(self, tmp_path, net15):
        bad = tmp_path / "bus.csv"
        bad.write_text("n,S,R_e3\n1,2.0,1.0\n")
        _, edges = dlmp.default_network_paths()
        with pytest.raises(ValueError, match="missing columns"):
            dlmp.load_network(str(bad), edges)

    def test_cyclic_edges_rejected(self, tmp_path):
        bus, _ = dlmp.default_network_paths()
        cyc = tmp_path / "edges.csv"
        rows = ["parent,child", "0,1", "1,2", "2,3", "3,4", "4,5", "5,6", "3,8",
                "8,7", "8,9", "9,10", "10,11", "14,12", "12,13", "13,14"]
        cyc.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="cycle"):
            dlmp.load_network(bus, str(cyc))

    def test_energy_above_caps_rejected(self, tmp_path):
        bus, edges = dlmp.default_network_paths()
        text = open(bus).read().replace("2.213", "9.9")
        bad = tmp_path / "bus.csv"
        bad.write_text(text)
        with pytest.raises(InfeasibleInstance):
            dlmp.load_network(str(bad), edges)


class TestBuildProblem:
    def test_slack_cost_values(self):
        costs = dlmp.default_slack_costs(2)
        assert costs[0][0](1.0) == pytest.approx(3.0)
        assert costs[1][0](1.0) == pytest.approx(1.0)

    def test_aggregator_objectives_vanish(self, opf15, rng):
        for a in range(1, opf15.d):
            sl = opf15.blocks.block_slice(a)
            xa = rng.standard_normal(sl.stop - sl.start)
            assert opf15.smooth[a].value(xa) == 0.0
            assert np.allclose(opf15.smooth[a].grad(xa), 0.0)

    def test_row_bus_bijection(self, net15, opf15):
        seen = set()
        for n in net15.buses:
            for t in range(net15.horizon):
                seen.add(dlmp.row_p(net15, n, t))
                seen.add(dlmp.row_q(net15, n, t))
        assert seen == set(range(opf15.q))

    def test_coupling_is_consistent_by_default(self, opf15):
        ref = bp.least_squares_reference(opf15)
        assert ref.h_star == pytest.approx(0.0, abs=1e-20)

    def test_pair_sampling_shape(self, opf15):
        s = bp.paired_dso(opf15.d - 1)
        assert np.allclose(s.pi, [1.0, 1 / 3, 1 / 3, 1 / 3])
        p_diag = weight_matrix_p(s, opf15.blocks)
        sl0 = opf15.blocks.block_slice(0)
        assert np.allclose(p_diag[sl0], 1.0)
        assert np.allclose(p_diag[sl0.stop :], 3.0)

    def test_initial_point_feasible(self, opf15):
        x0 = dlmp.opf_initial_point(opf15)
        assert opf15.r_value(x0) == 0.0


class TestProjectors:
    def test_aggregator_prox_feasible_exactly(self, net15, opf15, rng):
        for a in range(1, opf15.d):
            sl = opf15.blocks.block_slice(a)
            dim = sl.stop - sl.start
            blk = opf15.prox[a]
            for _ in range(10):
                v = rng.standard_normal(dim) * 0.5
                out = blk.prox(np.ones(dim), v)
                assert blk.value(out) == 0.0  # membership at 1e-8

    def test_dso_prox_feasible(self, opf15, rng):
        sl = opf15.blocks.block_slice(0)
        dim = sl.stop - sl.start
        blk = opf15.prox[0]
        x0 = dlmp.opf_initial_point(opf15)[sl]
        for scale in (0.01, 0.1):
            v = x0 + rng.standard_normal(dim) * scale
            out = blk.prox(np.ones(dim), v)
            assert blk.value(out) == 0.0

    def test_production_pair_projection(self):
        out = dlmp._project_production_pair(np.array([0.5, 0.3]), 0.4, 0.0, 0.0)
        assert np.allclose(out, [0.4, 0.0])
        out = dlmp._project_production_pair(np.array([-1.0, 5.0]), 0.4, 0.0, 0.0)
        assert np.allclose(out, [0.0, 0.0])
        # nondegenerate ratio cone
        out = dlmp._project_production_pair(np.array([0.2, 0.5]), 1.0, -0.5, 0.5)
        assert out[1] <= 0.5 * out[0] + 1e-9
        assert out[1] >= -0.5 * out[0] - 1e-9

    @pytest.mark.parametrize("ratios", [(-0.6, 0.4), (0.2, 1.5)])
    def test_production_pair_matches_qp_oracle(self, rng, ratios):
        lo, hi = ratios
        for trial in range(300):
            cap = float(rng.uniform(0.1, 2.0))
            v2 = rng.standard_normal(2) * 1.5
            mine = dlmp._project_production_pair(v2, cap, lo, hi)
            oracle = exact_projection_qp(
                [
                    Box(np.array([0.0, -np.inf]), np.array([cap, np.inf])),
                    Halfspace(np.array([-hi, 1.0]), 0.0),
                    Halfspace(np.array([lo, -1.0]), 0.0),
                ],
                v2,
            )
            assert np.allclose(mine, oracle, atol=1e-9), f"trial {trial}"

    def test_operator_affine_projector_matches_normal_equations(self, opf15, rng):
        import scipy.linalg as sla

        affine = opf15.meta["dso_primitives"][0]
        assert isinstance(affine, AffineSubspace)
        c, e = affine.c_matrix, affine.e
        assert c.shape[1] == 88
        factor = sla.cho_factor(c @ c.T + 1e-14 * np.eye(c.shape[0]))
        for _ in range(20):
            v = rng.standard_normal(c.shape[1])
            direct = v - c.T @ sla.cho_solve(factor, c @ v - e)
            assert np.max(np.abs(affine.project(v) - direct)) <= 1e-12

    def test_exact_budget_keeps_the_bisection_trajectory(
        self, opf15, opf15_path_end, monkeypatch, bisection_budget
    ):
        calls = []

        def bisection_rows(lo, hi, demand, v):
            calls.append(len(v))
            return np.array([bisection_budget(*row) for row in zip(lo, hi, demand, v)])

        monkeypatch.setattr(dlmp, "project_energy_budgets", bisection_rows)
        bisected = final_iterate(opf15)
        # one batched call per aggregator prox, a row per bus of the group
        assert len(calls) >= PATH_STEPS and set(calls) == {6, 5, 3}
        assert np.max(np.abs(opf15_path_end.x - bisected.x)) <= 1e-10
        assert np.max(np.abs(opf15_path_end.y - bisected.y)) <= 1e-10


class TestOperatorProjection:
    @pytest.fixture
    def around_start(self, opf15):
        sl = opf15.blocks.block_slice(0)
        return dlmp.opf_initial_point(opf15)[sl]

    def test_matches_dykstra(self, opf15, around_start, rng):
        prims = opf15.meta["dso_primitives"]
        for scale in (0.01, 0.1, 0.3, 1.0, 3.0):
            for _ in range(4):
                v = around_start + rng.standard_normal(around_start.size) * scale
                oracle = dykstra_project(prims, v, tol=1e-12)
                out = opf15.prox[0].prox(None, v)
                assert np.max(np.abs(out - oracle)) <= 1e-9, f"scale {scale}"

    def test_kkt_certificate(self, opf15, around_start, rng):
        prims = opf15.meta["dso_primitives"]
        active = []
        for scale in (0.01, 0.3, 3.0, 10.0):
            for _ in range(5):
                v = around_start + rng.standard_normal(around_start.size) * scale
                x = opf15.prox[0].prox(None, v)
                active.append(kkt_certificate(prims, v, x, 1e-9 * max(1.0, scale)))
        # the draws exercise both the box and the flow balls
        assert max(a for a, _ in active) > 0 and max(b for _, b in active) > 0

    def test_converges_where_dykstra_gives_up(self, opf15, around_start):
        prims = opf15.meta["dso_primitives"]
        v = around_start + np.random.default_rng(0).standard_normal(around_start.size) * 10.0
        # the tolerance and sweep cap the operator prox used with Dykstra
        with pytest.raises(ProjectionDidNotConverge):
            dykstra_project(prims, v, tol=1e-10, max_iter=10_000)
        kkt_certificate(prims, v, opf15.prox[0].prox(None, v), 1e-8)

    def test_iteration_cap_raises(self, opf15, around_start, monkeypatch):
        v = around_start + np.random.default_rng(0).standard_normal(around_start.size) * 10.0
        monkeypatch.setattr(dlmp, "NEWTON_MAX_ITER", 1)
        with pytest.raises(ProjectionDidNotConverge, match="after 1 Newton steps"):
            opf15.prox[0].prox(None, v)

    def test_keeps_the_dykstra_trajectory(self, opf15, opf15_path_end):
        prims = opf15.meta["dso_primitives"]
        dykstra_prox = replace(
            opf15.prox[0],
            prox=lambda g, v: dykstra_project(prims, v, tol=1e-10, max_iter=10_000),
        )
        dykstra_path = final_iterate(replace(opf15, prox=(dykstra_prox, *opf15.prox[1:])))
        assert np.max(np.abs(opf15_path_end.x - dykstra_path.x)) <= 1e-9
        assert np.max(np.abs(opf15_path_end.y - dykstra_path.y)) <= 1e-10


class TestToyNetworkPrices:
    def test_prices_match_marginal_cost(self):
        net = dlmp.make_single_line_network(demand=(0.5, 0.25))
        prob = dlmp.build_opf_problem(net)
        x0 = dlmp.opf_initial_point(prob)
        res = dlmp.ppdlmp_run(prob, x0, 30_000, seed=0, trace_every=1000,
                              stop_kkt_tol=1e-10)
        prices = dict()
        for busn, t, yp, yq in dlmp.extract_dlmp(res.state.y, prob):
            prices[(busn, t)] = (yp, yq)
        assert prices[(1, 0)][0] == pytest.approx(2.0 + 2.0 * 0.5, abs=1e-6)
        assert prices[(1, 1)][0] == pytest.approx(1.0, abs=1e-6)

    def test_zero_demand_prices(self):
        net = dlmp.make_single_line_network(demand=(0.0, 0.0))
        prob = dlmp.build_opf_problem(net)
        res = dlmp.ppdlmp_run(prob, dlmp.opf_initial_point(prob), 30_000, seed=0,
                              trace_every=1000, stop_kkt_tol=1e-10)
        prices = dlmp.extract_dlmp(res.state.y, prob)
        assert prices[0][2] == pytest.approx(2.0, abs=1e-6)
        assert prices[1][2] == pytest.approx(1.0, abs=1e-6)


class TestConvergenceDiagnostics:
    def test_residual_trend_and_averaged_decay(self, opf15):
        # one generic averaging-engine run gives (a) window-monotone
        # residual trends and (b) the averaged iterate's coupling residual
        # decaying at empirical order >= 1/k
        from blockpd.cli import fit_rate

        s = bp.paired_dso(opf15.d - 1)
        pol = bp.convex_default_policy(opf15, s)
        x0 = dlmp.opf_initial_point(opf15)
        res = bp.run(opf15, s, pol, x0, 6000, seed=0, trace_every=100)
        ks = np.array([r.k for r in res.trace], dtype=float)
        h_gap_w = np.array([r.h_gap_w for r in res.trace])
        slope, _ = fit_rate(ks, np.sqrt(2.0 * np.maximum(h_gap_w, 1e-300)),
                            k_min=600)
        assert slope <= -0.9

        kkt = np.array([r.kkt_res for r in res.trace])
        primal = np.array([r.primal_res for r in res.trace])
        for series in (kkt, primal):
            # compare means over consecutive 1000-iteration windows,
            # skipping the initial transient
            windows = [series[i : i + 10].mean() for i in range(10, 60, 10)]
            assert all(b <= a * 1.05 for a, b in zip(windows, windows[1:]))


class TestPairActivatedLoop:
    def test_matches_generic_engine(self, opf15, pair_oracle):
        # the primal-dual engine under pair sampling replays the
        # coordinator/aggregator recursion at every one of the 200 steps
        x0 = dlmp.opf_initial_point(opf15)
        eng = dlmp.PpdlmpEngine(opf15)
        res = bp.run(opf15, eng.sampling, eng.policy, x0, 200, engine=eng, seed=3,
                     trace_every=200, record_iterates=True)
        path, y_end = pair_oracle(opf15, x0, 200, seed=3)
        assert len(res.iterates) == len(path) == 201
        for x, x_oracle in zip(res.iterates, path):
            assert np.max(np.abs(x - x_oracle)) <= 1e-9
        assert np.max(np.abs(res.state.y - y_end)) <= 1e-9

    def test_trace_every_must_be_positive(self, opf15):
        x0 = dlmp.opf_initial_point(opf15)
        for bad in (0, -5):
            with pytest.raises(ValueError, match="trace_every"):
                dlmp.ppdlmp_run(opf15, x0, 10, seed=0, trace_every=bad)

    def test_initialisation_identities(self, opf15):
        eng = dlmp.PpdlmpEngine(opf15)
        x0 = dlmp.opf_initial_point(opf15)
        state = eng.init_state(x0, bp.make_rng(0))
        sigma = eng.policy.sigma
        assert np.allclose(state.y, sigma * (opf15.a @ x0 - opf15.b), atol=1e-14)

    def test_refresh_restores_perturbed_residual(self, opf15):
        eng = dlmp.PpdlmpEngine(opf15)
        x0 = dlmp.opf_initial_point(opf15)
        state = eng.init_state(x0, bp.make_rng(1))
        for _ in range(40):
            eng.step(state)
        u_true = opf15.a @ state.x - opf15.b
        assert np.allclose(state.u, u_true, atol=1e-10)
        state.u = state.u + 1.0
        eng.refresh(state)
        assert np.allclose(state.u, u_true, atol=1e-10)

    def test_shared_loop_stops_at_nan_aggregator_bid(self, opf15):
        # every step calls exactly one aggregator prox; the fifth returns NaN
        calls = []

        def nan_on_fifth(prox):
            def wrapped(g, v):
                calls.append(None)
                out = prox(g, v)
                return np.full_like(out, np.nan) if len(calls) == 5 else out

            return wrapped

        prox = [opf15.prox[0]] + [
            replace(pb, prox=nan_on_fifth(pb.prox)) for pb in opf15.prox[1:]
        ]
        problem = replace(opf15, prox=tuple(prox))
        eng = dlmp.PpdlmpEngine(problem)
        x0 = dlmp.opf_initial_point(opf15)
        with pytest.raises(SolverDivergence, match="k=5"):
            bp.run(problem, eng.sampling, eng.policy, x0, 20, engine=eng,
                   nan_check_every=1)

    def test_shared_loop_streams_grid_rows(self, opf15):
        eng = dlmp.PpdlmpEngine(opf15)
        x0 = dlmp.opf_initial_point(opf15)
        seen = []
        res = bp.run(opf15, eng.sampling, eng.policy, x0, 30, engine=eng, seed=2,
                     trace_every=10, trace_sink=seen.append)
        assert seen == res.trace
        assert [r.k for r in seen] == [10, 20, 30]
        assert all(np.isfinite(r.wall_time) for r in seen)
        assert all(np.isfinite(r.psi_x) and np.isnan(r.psi_hat) for r in seen)

    def test_engine_object_must_match_run_arguments(self, opf15):
        eng = dlmp.PpdlmpEngine(opf15)
        other = bp.convex_default_policy(opf15, eng.sampling)
        with pytest.raises(ValueError, match="built for another"):
            bp.run(opf15, eng.sampling, other, dlmp.opf_initial_point(opf15), 5,
                   engine=eng)
