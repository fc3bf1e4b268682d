import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockpd as bp
from blockpd.blocks import BlockStructure, ProblemSpec, SmoothBlock, _Quadratic
from blockpd import blocks, cli, oracles
from blockpd.errors import InfeasibleInstance, InvariantViolation
from blockpd import dlmp
from blockpd.proxops import prox_l1_block, prox_quadratic_block, prox_zero_block
from instruments import (
    dense_quadratic, dense_quadratic_reference, grad_h, penalty_h, prox_box_block,
    svd_projected_noise,
)


def scalar_problem(phi=None, prox=None, a=None, b=None, dims=(1,)):
    d = len(dims)
    structure = BlockStructure(dims)
    smooth = tuple(
        phi[i] if phi else SmoothBlock.zero(dims[i]) for i in range(d)
    )
    pr = tuple(prox[i] if prox else prox_zero_block() for i in range(d))
    if a is None:
        a = np.zeros((1, structure.m))
        b = np.zeros(1)
    return ProblemSpec(structure, smooth, pr, a, np.asarray(b, dtype=float))


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
            a=np.eye(2), b=np.zeros(2), dims=(2,)
        )
        assert penalty_h(p, np.array([3.0, 4.0])) == pytest.approx(12.5)

    def test_inconsistent_column(self):
        p = scalar_problem(a=np.array([[1.0], [1.0]]), b=np.array([0.0, 1.0]))
        assert penalty_h(p, np.zeros(1)) == pytest.approx(0.5)
        # normal equations: 2x = 1 -> x* = 0.5, h* = 0.25
        assert penalty_h(p, np.array([0.5])) == pytest.approx(0.25)

    def test_grad_identity(self, rng):
        p = scalar_problem(a=np.eye(3), b=np.zeros(3), dims=(3,))
        x = rng.standard_normal(3)
        assert np.allclose(grad_h(p, x), x)


class TestKktResidual:
    def test_simple_saddle(self):
        p = scalar_problem(phi=[quad1(0.5)], a=np.array([[1.0]]), b=np.zeros(1))
        assert bp.kkt_residual(p, np.zeros(1), np.zeros(1), p.a @ np.zeros(1) - p.b) == pytest.approx(0.0, abs=1e-14)

    def test_shifted_saddle(self):
        # phi(t) = (t-1)^2/2, A = 1, b = 0: x* = 0, y* = -phi'(0) = 1
        p = scalar_problem(phi=[quad1(0.5, shift=1.0)], a=np.array([[1.0]]), b=np.zeros(1))
        assert bp.kkt_residual(p, np.zeros(1), np.ones(1), p.a @ np.zeros(1) - p.b) == pytest.approx(0.0, abs=1e-14)

    def test_nonstationary_point(self):
        p = scalar_problem(phi=[quad1(0.5)], a=np.array([[1.0]]), b=np.zeros(1))
        assert bp.kkt_residual(p, np.ones(1), np.zeros(1), p.a @ np.ones(1) - p.b) == pytest.approx(1.0)


class TestConsensus:
    def test_two_node_fixed_point(self):
        local = [prox_quadratic_block(1.0, center=c) for c in (0.0, 2.0)]
        p = bp.make_consensus([(0, 1)], local)
        s = bp.full(2)
        pol = bp.convex_default_policy(p, s)
        res = bp.run(p, s, pol, np.zeros(2), 5000, seed=0, trace_every=5000)
        assert np.allclose(res.state.x, [1.0, 1.0], atol=1e-4)

    def test_zero_local_terms(self):
        p = bp.make_consensus([(0, 1), (1, 2)], [prox_zero_block()] * 3)
        const = np.full(3, 0.7)
        assert penalty_h(p, const) == pytest.approx(0.0, abs=1e-15)

    def test_triangle_kernel(self, rng):
        p = bp.make_consensus([(0, 1), (1, 2), (2, 0)], [prox_zero_block()] * 3)
        a = p.a
        # ||Ax|| = 0 iff x constant
        assert np.linalg.norm(a @ np.ones(3)) == pytest.approx(0.0, abs=1e-15)
        x = rng.standard_normal(3)
        x -= x.mean()
        if np.linalg.norm(x) > 1e-9:
            assert np.linalg.norm(a @ x) > 1e-9

    @pytest.mark.parametrize("edges", [[(0, 1.7), (1.2, 2)], [(0, True), (1, 2)], [(0, 1), (1, "2")]])
    def test_every_edge_end_is_a_node_index(self, edges):
        # ends were cast with int(), so (0, 1.7), (1.2, 2) built (0, 1), (1, 2)
        with pytest.raises(ValueError, match="^edges must be an integer"):
            bp.make_consensus(edges, [prox_zero_block()] * 3)

    def test_disconnected_graph_rejected(self):
        with pytest.raises(InfeasibleInstance):
            bp.make_consensus([(0, 1), (2, 3)], [prox_zero_block()] * 4)

    def test_centred_nodes_are_a_declared_quadratic(self):
        # sum_i mu/2 (x - c_i)^2 over the constant vectors: at mu = 1, x* is
        # the centres' mean; at mu = 0 every constant is a solution
        def path(mu):
            local = [prox_quadratic_block(mu, center=t) for t in (0.0, 1.0, 2.0)]
            return bp.make_consensus([(0, 1), (1, 2)], local)

        assert np.array_equal(path(1.0).quadratic_c, [0.0, -1.0, -2.0])
        ref = oracles.quadratic_reference(path(1.0))
        assert np.allclose(ref.x_star, 1.0, rtol=1e-12, atol=0.0)
        assert path(0.0).quadratic_c is not None
        with pytest.raises(ValueError, match=r"x\* is not unique"):
            oracles.quadratic_reference(path(0.0))


class TestModelFitting:
    def test_consistent_least_squares(self):
        losses = [SmoothBlock.quadratic(np.eye(1), np.zeros(1)) for _ in range(2)]
        regs = [prox_zero_block() for _ in range(2)]
        p = bp.make_model_fitting(np.eye(2), np.ones(2), losses, regs)
        # lifted optimum: v = 0, u = b; multiplier y = v = 0
        x_star = np.array([1.0, 1.0, 0.0, 0.0])
        assert bp.kkt_residual(p, x_star, np.zeros(2), p.a @ x_star - p.b) == pytest.approx(0.0, abs=1e-14)
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
        assert bp.kkt_residual(p, x_star, -b, p.a @ x_star - p.b) == pytest.approx(0.0, abs=1e-12)

    def test_trivial_instance(self):
        losses = [SmoothBlock.quadratic(np.eye(1), np.zeros(1))]
        p = bp.make_model_fitting(np.eye(1), np.zeros(1), losses, [prox_zero_block()])
        assert bp.kkt_residual(p, np.zeros(2), np.zeros(1), p.a @ np.zeros(2) - p.b) == pytest.approx(0.0, abs=1e-14)


class TestRandomInstanceGenerator:
    @pytest.mark.parametrize("kwargs, name", [
        (dict(d=0, dims=4), "d"), (dict(d=-1, dims=4), "d"),
        (dict(d=3, dims=0), "dims"), (dict(d=3, dims=[4, 0, 4]), "dims"),
        (dict(d=3, dims=4, q=-1), "q"), (dict(d=3, dims=4, seed=-1), "seed"),
        # not integers: a bool once built a 1-block problem, a float raised
        # a bare TypeError
        (dict(d=True, dims=4), "d"), (dict(d=2.0, dims=4), "d"),
        (dict(d=3, dims=4, q=60.0), "q"), (dict(d=3, dims=4, seed=1.5), "seed"),
        (dict(d=3, dims=2.5), "dims"), (dict(d=3, dims=[4, 2.5, 4]), "dims"),
        (dict(d=3, dims=[4, True, 4]), "dims"),
        (dict(d=3, dims=4, rank_deficiency=-1), "rank_deficiency"),
        (dict(d=3, dims=4, rank_deficiency=1.5), "rank_deficiency"),
    ])
    def test_an_empty_block_count_or_size_is_named(self, kwargs, name, monkeypatch):
        # these once reached LAPACK's QR with n = 0, or NumPy's array and
        # seeding errors, which name no argument; nothing is drawn first
        monkeypatch.setattr(blocks.np.random, "default_rng", None)
        with pytest.raises(ValueError, match=f"^{name} must"):
            bp.make_random_inconsistent_ls(**{"seed": 1, "q": 10, "noise": 0.5, **kwargs})

    def test_zero_noise_is_consistent(self):
        p = bp.make_random_inconsistent_ls(seed=1, d=3, dims=2, q=10, noise=0.0)
        assert p.meta["h_star"] == pytest.approx(0.0, abs=1e-15)

    def test_recorded_solution_solves_normal_equations(self):
        p = bp.make_random_inconsistent_ls(seed=9, d=4, dims=3, q=20, noise=0.7)
        x = p.meta["x_ls"]
        assert float(np.max(np.abs(p.a.T @ (p.a @ x - p.b)))) < 1e-10

    def test_h_star_matches_penalty(self):
        p = bp.make_random_inconsistent_ls(seed=9, d=4, dims=3, q=20, noise=0.7)
        assert penalty_h(p, p.meta["x_ls"]) == pytest.approx(p.meta["h_star"], rel=1e-12)

    def test_rank_deficiency_gives_null_space(self):
        p = bp.make_random_inconsistent_ls(
            seed=9, d=4, dims=3, q=20, noise=0.7, rank_deficiency=3
        )
        assert np.linalg.matrix_rank(p.a) == p.m - 3

    def test_a_wide_rank_deficient_draw_holds_no_whole_factor(self):
        # G2 is 3996 x 4000 here: 128 MB when drawn at once
        tracemalloc.start()
        try:
            p = bp.make_random_inconsistent_ls(
                seed=1, d=1000, dims=4, q=60, noise=0.6, rank_deficiency=4
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.a.shape == (60, 4000)
        assert peak < 24 * 2**20

    @pytest.mark.parametrize("d", [10, 300])
    def test_chunked_factor_keeps_the_random_stream(self, d):
        # G2 fits one chunk at d = 10 (36 x 40), which keeps the one-draw
        # bits; at d = 300 (1196 x 1200) it is two row chunks of 873 rows
        q, r = 60, 4
        p = bp.make_random_inconsistent_ls(seed=3, d=d, dims=4, q=q, noise=0.6,
                                           rank_deficiency=r)
        m = p.m
        assert (2**20 // m < m - r) == (d == 300)
        rng = np.random.default_rng(3)
        g1 = rng.standard_normal((q, m - r))
        a = g1 @ rng.standard_normal((m - r, m))
        a /= math.sqrt(m * (m - r))
        if d == 10:
            assert np.array_equal(p.a, a)
        assert np.allclose(p.a, a, rtol=0.0, atol=1e-13 * np.abs(a).max())

    # draws whose range factor (G1 of A = G1 G2, or A itself) has fewer
    # columns than rows, so xi keeps a component
    DRAWS = {
        "rank_deficient": dict(seed=3, d=10, dims=4, q=60, rank_deficiency=4),
        "full_rank": dict(seed=4, d=10, dims=4, q=60),
        "mixed": dict(seed=5, d=5, dims=[2, 5, 3, 6, 4], q=30, rank_deficiency=3),
    }

    @staticmethod
    def generated(monkeypatch, kwargs, factor=lambda f: f):
        """A generator instance, with the coupling matrix and the raw noise
        draw its range projection was given; ``factor`` edits the range
        factor on its way in."""
        real, seen = blocks._range_complement, []

        def spy(a, span, v):
            seen.append((a.copy(), v.copy()))
            return real(a, factor(span), v)

        monkeypatch.setattr(blocks, "_range_complement", spy)
        p = bp.make_random_inconsistent_ls(noise=0.6, mu=1.0, **kwargs)
        ((a, draw),) = seen
        assert np.array_equal(a, p.a)
        return p, draw

    @pytest.mark.parametrize("case", sorted(DRAWS))
    def test_no_svd_on_generator_draws(self, case, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        p = bp.make_random_inconsistent_ls(noise=0.6, mu=1.0, **self.DRAWS[case])
        assert np.linalg.norm(p.meta["xi"]) == pytest.approx(0.6, rel=1e-14)

    @pytest.mark.parametrize("case", sorted(DRAWS))
    def test_xi_matches_the_svd_projection(self, case, monkeypatch):
        p, draw = self.generated(monkeypatch, self.DRAWS[case])
        xi, oracle = p.meta["xi"], svd_projected_noise(p.a, draw, 0.6)
        assert np.linalg.norm(xi - oracle) <= 1e-12 * np.linalg.norm(oracle)
        assert float(np.max(np.abs(p.a.T @ xi))) <= 1e-13
        assert p.meta["h_star"] == pytest.approx(0.18, rel=1e-14)

    def test_lost_rank_in_the_factor_falls_back_to_the_svd(self, monkeypatch):
        # a zero column gives R a zero diagonal entry
        def rank_deficient(span):
            span = span.copy()
            span[:, 1] = 0.0
            return span

        svd_calls = []
        real_svd = np.linalg.svd

        def counted(*args, **kwargs):
            svd_calls.append(1)
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        p, draw = self.generated(monkeypatch, self.DRAWS["rank_deficient"], rank_deficient)
        assert len(svd_calls) == 1
        monkeypatch.setattr(np.linalg, "svd", real_svd)
        assert np.array_equal(p.meta["xi"], svd_projected_noise(p.a, draw, 0.6))

    @pytest.mark.parametrize("rank_deficiency", [0, 4])
    def test_no_noise_survives_when_the_range_is_everything(self, rank_deficiency):
        # q = 10 rows against m = 20 columns (16 after the rank loss): A
        # maps onto R^q, so no b is inconsistent and h* = 0
        p = bp.make_random_inconsistent_ls(
            seed=1, d=5, dims=4, q=10, noise=0.6, rank_deficiency=rank_deficiency
        )
        assert not np.any(p.meta["xi"]) and p.meta["h_star"] == 0.0
        assert bp.least_squares_reference(p).h_star <= 1e-28
        x = p.meta["x_ls"]
        assert float(np.max(np.abs(p.a.T @ (p.a @ x - p.b)))) <= 1e-14


class TestSmoothnessModel:
    def test_curvature_upper_bound_sampled(self, rng):
        p = bp.make_random_inconsistent_ls(seed=21, d=3, dims=(2, 4, 3), q=15, noise=0.5)
        for i in range(p.d):
            ni = p.blocks.dims[i]
            lam = p.smooth[i].lam
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

    @pytest.mark.parametrize("h, c, message", [
        # 0.5 x'Hx has gradient 0.5 (H + H')x, not Hx: at x = (1, -1) the
        # gradient read -1e-6 along t = 1e-6 (1, 0) where the value's
        # central difference reads 0
        ([[1.0, 2.0], [0.0, 1.0]], [0.0, 0.0], "symmetric"),
        ([[1.0, np.nan], [np.nan, 1.0]], [0.0, 0.0], "finite square"),
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [0.0, 0.0], "finite square"),
        ([1.0, 2.0], [0.0, 0.0], "finite square"),
        ([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0, 0.0], r"c has shape \(3,\), expected \(2,\)"),
    ], ids=["asymmetric", "nan", "not-square", "vector", "long-c"])
    def test_quadratic_rejects_a_malformed_h_or_c(self, h, c, message):
        with pytest.raises(ValueError, match=message):
            SmoothBlock.quadratic(np.array(h), np.array(c))

    def test_quadratic_accepts_symmetric_rounding(self):
        # F D F' differs from its transpose by rounding only (4e-16 here)
        rng = np.random.default_rng(3)
        f = rng.standard_normal((4, 4))
        h = f @ np.diag(rng.uniform(1.0, 2.0, 4)) @ f.T
        assert not np.array_equal(h, h.T)
        assert np.array_equal(SmoothBlock.quadratic(h, np.zeros(4)).lam, h)


class TestPenaltyIdentities:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_three_point_identity(self, seed):
        rng = np.random.default_rng(seed)
        p = bp.make_random_inconsistent_ls(seed=3, d=2, dims=3, q=8, noise=0.5)
        u, w, x = (rng.standard_normal(p.m) for _ in range(3))
        lhs = penalty_h(p, u) - penalty_h(p, x)
        rhs = (
            float(grad_h(p, w) @ (u - x))
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
        lhs = penalty_h(p, t * x + (1 - t) * y)
        rhs = (
            t * penalty_h(p, x)
            + (1 - t) * penalty_h(p, y)
            - 0.5 * t * (1 - t) * float(np.sum((p.a @ (x - y)) ** 2))
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_gap_identity_against_normal_equations(self, rng):
        p = bp.make_random_inconsistent_ls(seed=13, d=3, dims=4, q=20, noise=0.8)
        ref = bp.least_squares_reference(p)
        for _ in range(20):
            x = rng.standard_normal(p.m)
            gap = penalty_h(p, x) - ref.h_star
            ident = 0.5 * float(np.sum((p.a @ (x - ref.x_ls)) ** 2))
            assert gap == pytest.approx(ident, rel=1e-9, abs=1e-12)


def built_problem(build, tmp_path):
    """A small problem from each builder of the package."""
    if build == "generator":
        return bp.make_random_inconsistent_ls(seed=4, d=3, dims=2, q=5, noise=0.3)
    if build == "wide_generator":
        return bp.make_random_inconsistent_ls(seed=1, d=24, dims=4, q=144, noise=0.6, mu=1.0,
                                              rank_deficiency=4)
    if build == "consensus":
        return bp.make_consensus([(0, 1), (1, 2)], [prox_quadratic_block(1.0)] * 3)
    if build == "model_fit":
        return bp.make_model_fitting(
            np.random.default_rng(2).standard_normal((3, 2)), np.zeros(3),
            [SmoothBlock.zero(1)] * 3, [prox_zero_block()] * 2,
        )
    if build == "custom":
        np.savetxt(tmp_path / "a.csv", np.arange(6.0).reshape(2, 3), delimiter=",")
        np.savetxt(tmp_path / "b.csv", np.ones(2), delimiter=",")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "[run]\nexperiment = custom\nk_max = 1\n"
            f"[instance]\na_path = {tmp_path / 'a.csv'}\nb_path = {tmp_path / 'b.csv'}\n"
        )
        return cli._build_custom(cli.parse_config(cfg))
    return dlmp.build_opf_problem(dlmp.load_network(*dlmp.default_network_paths()))


class TestCouplingLayout:
    def test_blocks_are_contiguous_read_only_views(self):
        p = bp.make_random_inconsistent_ls(seed=4, d=5, dims=(1, 3, 2, 4, 2), q=9, noise=0.3)
        assert p.a.flags.f_contiguous and not p.a.flags.writeable
        for i, a_i in enumerate(p.a_blocks):
            assert a_i.flags.f_contiguous and not a_i.flags.writeable
            assert a_i.base is p.a
            assert np.array_equal(a_i, p.a[:, p.blocks.block_slice(i)])
        with pytest.raises(ValueError):
            p.a_blocks[0][0, 0] = 1.0

    def test_caller_blocks_are_copied(self):
        a = np.hstack([np.arange(6.0).reshape(3, 2), np.ones((3, 1))])
        p = scalar_problem(a=a, b=np.zeros(3), dims=(2, 1))
        a[0, 0] = 99.0
        assert p.a[0, 0] == 0.0
        assert np.array_equal(p.a, np.hstack([np.arange(6.0).reshape(3, 2), np.ones((3, 1))]))

    def test_replace_copy_shares_a(self, bench_instance):
        p = dataclasses.replace(bench_instance)
        assert p.a is bench_instance.a
        assert all(a_i.base is p.a for a_i in p.a_blocks)
        assert dataclasses.replace(p, b=-p.b).a is p.a

    @pytest.mark.parametrize("source", [
        "writable", "c_ordered", "read_only_view_of_writable", "float32",
    ])
    def test_other_sources_are_copied(self, source):
        """Only an owning, read-only, column-major float64 matrix is taken
        as it is; any other source leaves the problem its own read-only,
        column-major float64 copy, which a later write to the source does
        not reach."""
        src = np.asfortranarray(np.random.default_rng(3).standard_normal((4, 7)))
        a = src
        if source == "c_ordered":
            src = np.ascontiguousarray(src)
            src.flags.writeable = False
            a = src
        elif source == "read_only_view_of_writable":
            a = src.view()
            a.flags.writeable = False
        elif source == "float32":
            src = src.astype(np.float32, order="F")
            src.flags.writeable = False
            a = src
        p = scalar_problem(a=a, b=np.zeros(4), dims=(2, 3, 2))
        want = np.array(a, dtype=float)
        assert not np.shares_memory(p.a, src)
        assert p.a.dtype == np.float64
        assert p.a.flags.f_contiguous and not p.a.flags.writeable
        src.flags.writeable = True
        src[...] = 0.0
        assert np.array_equal(p.a, want)
        assert all(np.array_equal(a_i, want[:, sl]) for a_i, sl in zip(p.a_blocks, p.blocks.slices))

    def test_caller_b_is_copied_and_replace_shares_it(self):
        # b was kept by reference: adding 5 to the caller's b[0] moved h*
        # from 0.125 to 5.354
        gen = bp.make_random_inconsistent_ls(seed=1, d=5, dims=3, q=20, noise=0.5)
        b = np.array(gen.b)
        p = ProblemSpec(gen.blocks, gen.smooth, gen.prox, np.array(gen.a), b)
        h_star = bp.least_squares_reference(p).h_star
        b[0] += 5.0
        assert np.array_equal(p.b, gen.b)
        assert p.b.flags.owndata and not p.b.flags.writeable
        assert bp.least_squares_reference(dataclasses.replace(p)).h_star == h_star
        assert dataclasses.replace(p).b is p.b
        with pytest.raises(ValueError, match="read-only"):
            p.b[0] = 0.0

    @pytest.mark.parametrize("name", [
        "block_sq_norms", "lam_stacks", "smooth_lipschitz", "mu_vector", "quadratic_c",
        "_quadratic_stack",
    ])
    def test_cached_arrays_are_read_only(self, bench_instance, name):
        value = getattr(dataclasses.replace(bench_instance), name)
        for arr in value if isinstance(value, tuple) else (value,):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1.0

    @pytest.mark.parametrize("build", ["generator", "consensus", "model_fit", "custom", "opf15"])
    def test_every_builder_shares_a_under_replace(self, build, tmp_path):
        p = built_problem(build, tmp_path)
        assert p.a.flags.f_contiguous and not p.a.flags.writeable and p.a.flags.owndata
        assert dataclasses.replace(p).a is p.a

    @pytest.mark.parametrize("build", ["generator", "wide_generator", "consensus", "model_fit", "opf15"])
    def test_gram_is_exactly_symmetric(self, build, tmp_path):
        """NumPy forms A'A with one BLAS syrk and mirrors its triangle; the
        convex certificate's column-slab pass reads Xi, which scales the
        Gram, as exactly symmetric."""
        p = built_problem(build, tmp_path)
        assert np.array_equal(p.gram, p.gram.T)

    def test_a_with_the_wrong_columns_names_its_shape(self):
        with pytest.raises(ValueError, match=r"A has shape \(3, 2\), expected 3 columns"):
            scalar_problem(a=np.ones((3, 2)), b=np.zeros(3), dims=(1, 2))


class TestProblemShapes:
    def test_b_must_be_a_vector(self):
        a = np.arange(6.0).reshape(3, 2)
        with pytest.raises(ValueError, match=r"b must be a vector, got an array of shape \(3, 2\)"):
            scalar_problem(a=a, b=np.ones((3, 2)), dims=(1, 1))

    def test_b_length_names_the_rows_of_a(self):
        a = np.arange(6.0).reshape(3, 2)
        with pytest.raises(ValueError, match="b has length 2 but A has 3 rows"):
            scalar_problem(a=a, b=np.ones(2), dims=(1, 1))

    def test_consensus_needs_an_edge(self):
        with pytest.raises(ValueError, match="consensus needs an edge"):
            bp.make_consensus([], [prox_quadratic_block(1.0)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["A", "b"])
    def test_a_and_b_must_be_finite(self, name, bad):
        # a NaN or inf reached the references as a bare SciPy error and the
        # policy as a failed SVD or a block with "no coupling columns"
        a, b = np.arange(6.0).reshape(3, 2), np.ones(3)
        (a if name == "A" else b)[1] = bad
        with pytest.raises(ValueError, match=f"{name} holds a value that is not finite"):
            scalar_problem(a=a, b=b, dims=(1, 1))
        if name == "A":
            # an A kept as it is, as a dataclasses.replace copy passes it
            p = scalar_problem(a=np.arange(6.0).reshape(3, 2), b=np.ones(3), dims=(1, 1))
            kept = np.array(a, order="F")
            kept.flags.writeable = False
            with pytest.raises(ValueError, match="A holds a value that is not finite"):
                dataclasses.replace(p, a=kept)

    @pytest.mark.parametrize("dims", [(2.5, 3), (True, 2), (3, np.float64(2.0)), (0, 2), (2, -1)])
    def test_every_dim_is_a_count(self, dims):
        # dims were cast with int(): (2.5, 3) gave (2, 3) and (True, 2) (1, 2)
        with pytest.raises(ValueError, match="^dims must be"):
            BlockStructure(dims)
        assert BlockStructure((np.int64(2), 3)).dims == (2, 3)

    def test_size_groups(self):
        groups = BlockStructure((2, 5, 3, 2, 5))._size_groups
        assert [(g.n, g.ids) for g in groups] == [(2, (0, 3)), (5, (1, 4)), (3, (2,))]
        assert groups[0].cols.tolist() == [0, 1, 10, 11]
        assert groups[2].blocks == slice(2, 3) and groups[2].cols == slice(7, 10)
        x = np.arange(17.0)
        assert groups[1].take(x).tolist() == [[2.0, 3.0, 4.0, 5.0, 6.0], [12.0, 13.0, 14.0, 15.0, 16.0]]
        (one,) = BlockStructure((4,) * 6)._size_groups
        assert one.blocks == slice(0, 6) and one.cols == slice(0, 24)
        y = np.zeros((24, 3))
        assert np.shares_memory(one.take(y), y)


class TestGramFactor:
    @pytest.mark.parametrize("inside", [True, False], ids=["in-range", "off-range"])
    @pytest.mark.parametrize("rank", [0, 5, 12])
    def test_lstsq_is_the_pseudoinverse_solution(self, rank, inside):
        # a PSD G = B B' of rank 0, of rank 5 < n and of full rank n = 12,
        # with rhs in range(G) and with a component in null(G)
        n = 12
        for seed in range(5):
            rng = np.random.default_rng(seed)
            half = rng.standard_normal((n, rank))
            g = half @ half.T
            rhs = g @ rng.standard_normal(n) if inside else rng.standard_normal(n)
            factor = oracles._pivoted_factor(g)
            assert len(factor.perm) == rank
            want = np.linalg.pinv(g, hermitian=True) @ rhs
            err = np.linalg.norm(factor.lstsq(rhs) - want)
            assert err <= 1e-10 * np.linalg.norm(want), seed


class TestReferenceChecks:
    def test_normal_equation_check(self, monkeypatch):
        p = bp.make_random_inconsistent_ls(seed=13, d=3, dims=4, q=20, noise=0.8)
        # both solves, the Gram solve and its lstsq fallback, miss by one
        for name in ("_gram_min_norm", "_lstsq_min_norm"):
            real = getattr(oracles, name)
            monkeypatch.setattr(oracles, name, lambda prob, real=real: real(prob) + 1.0)
        with pytest.raises(InvariantViolation, match="normal equations"):
            bp.least_squares_reference(p)

    def test_small_scale_miss_is_caught(self, monkeypatch):
        # A and b scaled by 1e-5: both solves missing by one leave a
        # residual of about 1e-10, which an absolute 1e-8 bound accepted
        p = bp.make_random_inconsistent_ls(seed=13, d=3, dims=4, q=20, noise=0.8)
        p = dataclasses.replace(p, a=1e-5 * p.a, b=1e-5 * p.b)
        for name in ("_gram_min_norm", "_lstsq_min_norm"):
            real = getattr(oracles, name)
            monkeypatch.setattr(oracles, name, lambda prob, real=real: real(prob) + 1.0)
        with pytest.raises(InvariantViolation, match="normal equations"):
            bp.least_squares_reference(p)

    @pytest.mark.parametrize("scale", [1e-5, 1e2, 1e3, 1e4])
    def test_normal_equation_check_scales_with_the_problem(self, scale):
        # A and b scaled together keep x_ls; the residual of an accurate
        # solve grows with scale^2 (about 1e-7 at 1e4), and so must the bound
        p = bp.make_random_inconsistent_ls(seed=13, d=3, dims=4, q=20, noise=0.8)
        base = bp.least_squares_reference(p).x_ls
        big = dataclasses.replace(p, a=scale * p.a, b=scale * p.b)
        x_ls = bp.least_squares_reference(big).x_ls
        assert np.max(np.abs(x_ls - base)) <= 1e-12 * np.max(np.abs(base))

    def test_lstsq_fallback_when_gram_solve_misses(self):
        # 22 singular values from 1 down to 5.2e-8 on 56 columns: G = A'A
        # squares that spread, so its factor drops the directions below
        # about 1e-7, which A does not null; solved anyway, G missed the
        # normal equations (4.8e-8) where NumPy's SVD-based lstsq on A
        # meets them (6.5e-10)
        rng = np.random.default_rng(1462)
        q, m = 22, 56
        u = np.linalg.qr(rng.standard_normal((q, q)))[0]
        v = np.linalg.qr(rng.standard_normal((m, m)))[0]
        a = (u * np.logspace(0.0, np.log10(5.2223527848731225e-08), q)) @ v[:, :q].T
        p = scalar_problem(a=a, b=rng.standard_normal(q), dims=(1,) * m)

        def normal(x):
            return float(np.max(np.abs(p.a.T @ (p.a @ x - p.b))))

        assert oracles._gram_min_norm(p) is None, "the case no longer needs the fallback"
        ref = bp.least_squares_reference(p)
        assert normal(ref.x_ls) < 1e-8

    def test_lstsq_fallback_when_gram_solution_misses(self, monkeypatch):
        p = bp.make_random_inconsistent_ls(seed=13, d=3, dims=4, q=20, noise=0.8)
        real = oracles._gram_min_norm
        monkeypatch.setattr(oracles, "_gram_min_norm", lambda prob: real(prob) + 1.0)
        ref = bp.least_squares_reference(p)
        assert np.array_equal(ref.x_ls, oracles._lstsq_min_norm(p))

    def test_gram_rank_follows_numpy_cutoff(self):
        # singular values 1 and 1e-9: G's factor cuts at m eps = 4.4e-16 on
        # 1e-18 and drops the second column, whose normal-equation residual
        # 1e-9 would pass the 1e-8 check; NumPy's cut-off
        # eps * max(q, m) * ||A||_2 keeps it, so the floor is 0.5, not 1.0
        a = np.array([[1.0, 0.0], [0.0, 1e-9], [0.0, 0.0]])
        p = scalar_problem(a=a, b=np.ones(3), dims=(1, 1))
        x_np, *_ = np.linalg.lstsq(p.a, p.b, rcond=None)
        ref = bp.least_squares_reference(p)
        assert ref.h_star == pytest.approx(penalty_h(p, x_np), abs=1e-12)
        assert np.allclose(ref.x_ls, x_np, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("q, m", [(3, 2), (1, 3), (0, 2)], ids=["tall", "wide", "no-rows"])
    def test_zero_coupling(self, q, m, capfd):
        # rank 0: no triangular solve reaches LAPACK, which would reject an
        # empty one on the console; with no rows the range-space method has
        # no q x q system to solve
        h = np.arange(2.0, 2.0 + m)
        c = np.linspace(-1.0, 1.0, m)
        p = scalar_problem(
            phi=[SmoothBlock.quadratic(np.array([[t]]), np.array([u])) for t, u in zip(h, c)],
            prox=[prox_quadratic_block(1.0)] * m,
            a=np.zeros((q, m)), b=np.ones(q), dims=(1,) * m,
        )
        for ref in (bp.least_squares_reference(p), oracles.quadratic_reference(p)):
            assert np.array_equal(ref.x_ls, np.zeros(m)) and ref.h_star == 0.5 * q
        assert np.allclose(ref.x_star, -c / (h + 1.0), rtol=1e-12, atol=0.0)
        assert np.array_equal(ref.y_star, np.zeros(q))
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("q", [20, 9])
    def test_minimum_norm_on_rank_deficient_coupling(self, q):
        # rank 9 of 12 columns, with more rows than columns and with fewer
        p = bp.make_random_inconsistent_ls(seed=21, d=3, dims=4, q=q, noise=0.8, rank_deficiency=3)
        x_np, *_ = np.linalg.lstsq(p.a, p.b, rcond=None)
        ref = bp.least_squares_reference(p)
        assert np.max(np.abs(ref.x_ls - x_np)) <= 1e-9

    def test_wide_reference_forms_no_m_by_m_array(self):
        # q = 20 rows on m = 4000 columns: G = A'A alone would take
        # m^2 * 8 bytes = 128 MB; the q-side solve holds q x m arrays of
        # 640 kB and the 20 x 20 K = AA'
        p = bp.make_random_inconsistent_ls(seed=7, d=1000, dims=4, q=20, noise=0.8)
        tracemalloc.start()
        try:
            ref = bp.least_squares_reference(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert "gram" not in vars(p)
        x_np, *_ = np.linalg.lstsq(p.a, p.b, rcond=None)
        assert np.max(np.abs(ref.x_ls - x_np)) <= 1e-9 * np.max(np.abs(x_np))

    def test_wide_rank_deficient_reference_projects_b(self):
        # 20 rows of rank 15 on 30 columns, b outside range(A): the q-side
        # factor of K = AA' keeps 15 rows, and the basic solution of those
        # rows of K z = b is no least-squares solution of K z = b, so the
        # solve first takes out b's component in null(K)
        p = bp.make_random_inconsistent_ls(
            seed=11, d=10, dims=3, q=20, noise=0.8, rank_deficiency=15
        )
        factor = oracles._gram_factor(p)
        assert factor is not None and len(factor.perm) == 15
        x_np, *_ = np.linalg.lstsq(p.a, p.b, rcond=None)
        ref = bp.least_squares_reference(p)
        assert np.array_equal(ref.x_ls, oracles._gram_min_norm(p)), "lstsq fallback ran"
        assert np.max(np.abs(ref.x_ls - x_np)) <= 1e-9 * np.max(np.abs(x_np))
        assert ref.h_star == pytest.approx(p.meta["h_star"], rel=1e-9)
        assert "gram" not in vars(p)
        z = np.zeros(p.q)
        kept = np.ix_(factor.perm, factor.perm)
        z[factor.perm] = np.linalg.solve((p.a @ p.a.T)[kept], p.b[factor.perm])
        assert np.max(np.abs(p.a.T @ z - x_np)) > 1e-3 * np.max(np.abs(x_np))

    @staticmethod
    def quadratic_scaled(scale):
        """The rank-deficient d=50 generator instance with H, c and mu scaled
        together by ``scale`` in its oracles, which leaves x* where it was."""
        p = bp.make_random_inconsistent_ls(
            seed=1, d=50, dims=4, q=300, noise=0.6, mu=1.0, rank_deficiency=4
        )
        smooth = [
            SmoothBlock.quadratic(scale * blk.lam, scale * blk.grad(np.zeros(4)))
            for blk in p.smooth
        ]
        prox = [prox_quadratic_block(scale * blk.mu) for blk in p.prox]
        return p, dataclasses.replace(p, smooth=smooth, prox=prox)

    def test_a_copy_is_solved_for_its_own_oracles(self):
        # every smooth block of a copy doubled: the reference solves the
        # copy, as its dense KKT system does, not the problem it copied
        p = bp.make_random_inconsistent_ls(
            seed=1, d=10, dims=4, q=60, noise=0.6, mu=1.0, rank_deficiency=4
        )
        smooth = [
            SmoothBlock.quadratic(2.0 * blk.lam, 2.0 * blk.grad(np.zeros(4))) for blk in p.smooth
        ]
        copy = dataclasses.replace(p, smooth=smooth)
        ref = oracles.quadratic_reference(copy)
        h, c = dense_quadratic(copy)
        kkt = np.block([[h, copy.a.T], [copy.a, np.zeros((copy.q, copy.q))]])
        sol, *_ = np.linalg.lstsq(kkt, np.concatenate([-c, copy.a @ ref.x_ls]), rcond=None)
        x_kkt = sol[:copy.m]
        assert np.max(np.abs(ref.x_star - x_kkt)) <= 1e-11 * np.max(np.abs(x_kkt))
        assert ref.psi_star == pytest.approx(bp.eval_psi(copy, x_kkt), rel=1e-12)

    def test_a_copy_with_a_prox_that_is_no_quadratic_has_no_reference(self):
        p = bp.make_random_inconsistent_ls(seed=1, d=10, dims=4, q=60, noise=0.6)
        copy = dataclasses.replace(p, prox=(prox_l1_block(0.1),) + p.prox[1:])
        assert p.quadratic_c is not None and copy.quadratic_c is None
        with pytest.raises(ValueError, match="declare no quadratic"):
            oracles.quadratic_reference(copy)

    @pytest.mark.parametrize("scale", [1e-5, 1e3, 1e5, 1e7])
    def test_stationarity_check_scales_with_the_problem(self, scale):
        # at 1e7 an accurate multiplier misses stationarity by about 1e-6,
        # which an absolute 1e-7 bound rejected
        p, big = self.quadratic_scaled(scale)
        base = oracles.quadratic_reference(p).x_star
        x_star = oracles.quadratic_reference(big).x_star
        assert np.max(np.abs(x_star - base)) <= 1e-12 * np.max(np.abs(base))

    def test_small_scale_stationarity_miss_is_caught(self, monkeypatch):
        # at 1e-5 a multiplier that misses by 1e-3 of the scale leaves a
        # residual of 1e-8, which an absolute 1e-7 bound accepted
        scale = 1e-5
        _, small = self.quadratic_scaled(scale)
        real = oracles._null_space_solve

        def missing(prob, *args):
            x_star, hx, y = real(prob, *args)
            y[0] += 1e-3 * scale / np.max(np.abs(prob.a[0]))
            return x_star, hx, y

        monkeypatch.setattr(oracles, "_null_space_solve", missing)
        with pytest.raises(InvariantViolation, match="stationarity"):
            oracles.quadratic_reference(small)

    @staticmethod
    def quadratic_instance(case, request):
        """A generator instance, or the matrix of
        ``test_lstsq_fallback_when_gram_solve_misses`` with quadratic
        blocks."""
        if case in ("bench", "two_block"):
            return request.getfixturevalue(f"{case}_instance")
        if case != "declining":
            kwargs = {
                "wide": dict(seed=3, d=10, dims=4, q=20, rank_deficiency=4),
                "full_rank": dict(seed=4, d=10, dims=4, q=60, rank_deficiency=0),
                "mixed": dict(seed=5, d=5, dims=[2, 5, 3, 6, 4], q=30, rank_deficiency=3),
            }[case]
            return bp.make_random_inconsistent_ls(noise=0.6, mu=1.0, **kwargs)
        rng = np.random.default_rng(1462)
        q, m = 22, 56
        u = np.linalg.qr(rng.standard_normal((q, q)))[0]
        v = np.linalg.qr(rng.standard_normal((m, m)))[0]
        a = (u * np.logspace(0.0, np.log10(5.2223527848731225e-08), q)) @ v[:, :q].T
        h_blocks = [np.array([[t]]) for t in rng.uniform(1.0, 3.0, m)]
        c_blocks = [np.array([t]) for t in rng.standard_normal(m)]
        return scalar_problem(
            phi=[SmoothBlock.quadratic(h, c) for h, c in zip(h_blocks, c_blocks)],
            prox=[prox_quadratic_block(1.0)] * m,
            a=a, b=rng.standard_normal(q), dims=(1,) * m,
        )

    @pytest.mark.parametrize(
        "case", ["bench", "two_block", "wide", "full_rank", "mixed", "declining"]
    )
    def test_quadratic_reference_matches_the_dense_solve(self, case, request, monkeypatch):
        # the Gram factor's null basis and multiplier move x*, y* and psi*
        # by rounding only; the declining matrix's factor declines, so its
        # reference takes the SVD path
        p = self.quadratic_instance(case, request)
        dense = dense_quadratic_reference(p)
        real, svds = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda a: svds.append(a) or real(a))
        ref = oracles.quadratic_reference(p)
        assert len(svds) == (case == "declining")
        assert np.array_equal(ref.x_ls, dense.x_ls) and ref.h_star == dense.h_star

        def rel(x, oracle):
            return np.max(np.abs(x - oracle)) / np.max(np.abs(oracle))

        assert rel(ref.x_star, dense.x_star) <= 1e-11
        assert rel(ref.y_star, dense.y_star) <= 1e-10
        assert abs(ref.psi_star - dense.psi_star) <= 1e-12 * abs(dense.psi_star)

    @pytest.mark.parametrize(
        "d, rank",
        [(15, 20), (15, 12), (6, 20)],
        ids=["full-row-rank", "rank-deficient", "small-null-space"],
    )
    def test_range_space_reference_matches_the_kkt_solve(self, d, rank, monkeypatch):
        # q = 20 < m on m = 60 or 24 columns: x* and y* come from the q x q
        # system A H^{-1} A', with neither the null-space method nor G = A'A,
        # also where null(A) has fewer dimensions than q (m = 24); at rank 12
        # b lies outside range(A) and the multiplier is not unique
        p = bp.make_random_inconsistent_ls(seed=6, d=d, dims=4, q=20, noise=0.6, mu=0.5)
        if rank < p.q:
            rng = np.random.default_rng(6)
            a = rng.standard_normal((p.q, rank)) @ rng.standard_normal((rank, p.m)) / p.m
            p = dataclasses.replace(p, a=a, b=rng.standard_normal(p.q))

        def null_space_method(*args):
            raise AssertionError("the null-space method ran on a range-space case")

        monkeypatch.setattr(oracles, "_null_space_solve", null_space_method)
        ref = oracles.quadratic_reference(p)
        assert "gram" not in vars(p)
        # the dense KKT system H x + A'y = -c, A x = A x_ls; its null space
        # is {(0, v): A'v = 0}, so its minimum-norm solution carries the
        # unique x* and the minimum-norm multiplier
        h, c = dense_quadratic(p)
        kkt = np.block([[h, p.a.T], [p.a, np.zeros((p.q, p.q))]])
        sol, *_ = np.linalg.lstsq(kkt, np.concatenate([-c, p.a @ ref.x_ls]), rcond=None)
        y_min, *_ = np.linalg.lstsq(p.a.T, -(h @ ref.x_star + c), rcond=None)

        def rel(x, oracle):
            return np.max(np.abs(x - oracle)) / np.max(np.abs(oracle))

        assert rel(ref.x_star, sol[:p.m]) <= 1e-11
        assert rel(ref.y_star, sol[p.m:]) <= 1e-10
        assert rel(ref.y_star, y_min) <= 1e-10

    def test_declined_range_space_solve_takes_the_svd_path(self, request, monkeypatch):
        # a wide instance whose range-space solve declines runs the
        # null-space method on an SVD of A, not on G = A'A
        p = self.quadratic_instance("wide", request)
        dense = dense_quadratic_reference(p)
        real, svds = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda a: svds.append(a) or real(a))
        monkeypatch.setattr(oracles, "_range_space_solve", lambda *args: None)
        ref = oracles.quadratic_reference(p)
        assert len(svds) == 1 and "gram" not in vars(p)
        assert np.max(np.abs(ref.x_star - dense.x_star)) <= 1e-11 * np.max(np.abs(dense.x_star))
        assert np.max(np.abs(ref.y_star - dense.y_star)) <= 1e-10 * np.max(np.abs(dense.y_star))

    def test_bench_reference_takes_no_svd(self, bench_instance, monkeypatch):
        def svd(*args, **kwargs):
            raise AssertionError("SVD-based solve on the bench instance")

        monkeypatch.setattr(np.linalg, "svd", svd)
        monkeypatch.setattr(np.linalg, "lstsq", svd)
        ref = oracles.quadratic_reference(bench_instance)
        assert ref.source == "reduced-qp"

    def test_penalty_gap_anchors_at_least_squares_solution(self):
        # a reference whose x_star is an iterate far from the normal-equation
        # solutions; h_gap must not measure from it
        p = bp.make_random_inconsistent_ls(seed=3, d=4, dims=3, q=18, noise=0.5)
        s = bp.full(p.d)
        iterate = bp.run(p, s, bp.convex_default_policy(p, s), np.zeros(p.m), 5).state.x
        ref = dataclasses.replace(oracles.least_squares_reference(p), x_star=iterate)
        assert ref.h_gap(p.a @ ref.x_ls - p.b) == pytest.approx(0.0, abs=1e-12)
        x = np.zeros(p.m)
        assert ref.h_gap(p.a @ x - p.b) == pytest.approx(penalty_h(p, x) - ref.h_star, rel=1e-10)


def block_loops(p, x, gamma):
    """grad_phi, prox_r and phi evaluated block by block, as the loops the
    one-call paths replace."""
    sls = p.blocks.slices
    grad = np.concatenate([blk.grad(x[sl]) for sl, blk in zip(sls, p.smooth)])
    prox = np.concatenate([blk.prox(gamma[sl], x[sl]) for sl, blk in zip(sls, p.prox)])
    phi = sum(float(blk.value(x[sl])) for sl, blk in zip(sls, p.smooth))
    return grad, prox, phi


def assert_same_bits_as_block_loops(p, seed, points=20):
    rng = np.random.default_rng(seed)
    for _ in range(points):
        x = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal(p.m)
        gamma = 10.0 ** rng.uniform(-3, 3, size=p.m)
        grad, prox, phi = block_loops(p, x, gamma)
        assert np.array_equal(p.grad_phi(x), grad)
        assert np.array_equal(p.prox_r(gamma, x), prox)
        assert p.phi(x) == phi


class TestWholeVectorOracles:
    @pytest.mark.parametrize("seed", [1, 2, 2024])
    @pytest.mark.parametrize("d", [10, 250])
    def test_one_call_paths_match_the_block_loops(self, d, seed):
        p = bp.make_random_inconsistent_ls(
            seed=seed, d=d, dims=4, q=6 * d, noise=0.6, mu=1.0, rank_deficiency=4
        )
        assert p._quadratic_stack is not None and p._shared_prox is not None
        assert_same_bits_as_block_loops(p, seed)

    def test_replaced_problem_keeps_the_fast_path(self, bench_instance):
        p = dataclasses.replace(bench_instance)
        assert p._quadratic_stack is not None and p._shared_prox is not None
        assert_same_bits_as_block_loops(p, 3, points=5)

    def test_fast_path_makes_no_per_block_call(self, bench_instance):
        class Refusing(_Quadratic):
            def value(self, x):
                raise AssertionError("per-block oracle called")

            grad = value

        quads = [Refusing(blk.lam, blk.grad.__self__.c) for blk in bench_instance.smooth]
        p = dataclasses.replace(
            bench_instance,
            smooth=tuple(SmoothBlock(quad.value, quad.grad, quad.h) for quad in quads),
        )
        x = np.ones(p.m)
        p.grad_phi(x), p.phi(x), p.prox_r(np.ones(p.m), x)

    @pytest.mark.parametrize("oracle", ["grad", "value"])
    def test_replaced_oracle_takes_the_loop(self, bench_instance, oracle):
        """A block whose grad or value was swapped, as a tracer swaps grad
        for a timed wrapper, is no longer read as its stored quadratic."""
        calls = []

        def wrap(f):
            def wrapped(x):
                calls.append(1)
                return 2.0 * f(x)

            return wrapped

        blk = bench_instance.smooth[0]
        p = dataclasses.replace(
            bench_instance,
            smooth=(dataclasses.replace(blk, **{oracle: wrap(getattr(blk, oracle))}),)
            + bench_instance.smooth[1:],
        )
        assert p._quadratic_stack is None
        assert_same_bits_as_block_loops(p, 4, points=3)
        assert calls

    def test_grid_and_consensus_take_the_loop(self):
        grid = dlmp.build_opf_problem(dlmp.load_network(*dlmp.default_network_paths()))
        ring = bp.make_consensus(
            [(i, (i + 1) % 8) for i in range(8)],
            [prox_quadratic_block(1.0, center=0.25 * i) for i in range(8)],
        )
        assert grid._quadratic_stack is None and grid._shared_prox is None
        # the ring's zero quadratics stack, but its centred proxes are not shared
        assert ring._shared_prox is None
        assert_same_bits_as_block_loops(ring, 5, points=5)

    @pytest.mark.parametrize("variant", [
        "mixed-dims", "one-block-not-quadratic", "prox-not-shared", "shared-not-coordinatewise",
    ])
    def test_partial_matches_take_the_loop(self, variant):
        dims = (2, 3, 2) if variant == "mixed-dims" else (2, 2, 2)
        p = bp.make_random_inconsistent_ls(seed=8, d=3, dims=dims, q=12, noise=0.3)
        if variant == "one-block-not-quadratic":
            p = dataclasses.replace(p, smooth=p.smooth[:2] + (SmoothBlock.zero(2),))
        elif variant == "prox-not-shared":
            p = dataclasses.replace(p, prox=p.prox[:2] + (prox_quadratic_block(1.0),))
        elif variant == "shared-not-coordinatewise":
            p = dataclasses.replace(
                p, prox=tuple(dataclasses.replace(blk, coordinatewise=False) for blk in p.prox)
            )
        fast = (p._quadratic_stack is not None, p._shared_prox is not None)
        assert fast == {
            "mixed-dims": (False, True),
            "one-block-not-quadratic": (False, True),
            "prox-not-shared": (True, False),
            "shared-not-coordinatewise": (True, False),
        }[variant]
        assert_same_bits_as_block_loops(p, 9, points=5)
