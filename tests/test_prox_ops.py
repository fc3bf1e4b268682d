import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockpd.errors import InfeasibleInstance, ProjectionDidNotConverge
from blockpd.proxops import (
    AffineSubspace,
    dykstra_project,
    project_energy_budget,
    project_energy_budgets,
    prox_l1_block,
    prox_zero_block,
)
from instruments import (
    Ball,
    Box,
    EnergyBudget,
    Halfspace,
    Hyperplane,
    exact_projection_qp,
    prox_box_block,
)


class TestWeightedProx:
    def test_zero_is_identity(self, rng):
        v = rng.standard_normal(4)
        out = prox_zero_block().prox(np.full(4, 2.0), v)
        assert np.allclose(out, v)

    def test_l1_soft_threshold(self):
        out = prox_l1_block(1.0).prox(np.array([2.0]), np.array([3.0]))
        assert out[0] == pytest.approx(2.5)

    def test_box_clamp(self):
        out = prox_box_block(0.0, 1.0).prox(np.array([7.0]), np.array([1.7]))
        assert out[0] == pytest.approx(1.0)

    def test_optimality_quadratic_plus_box(self, rng):
        # r = mu/2 ||.||^2 restricted to [0, 1]: projected-gradient residual
        # of the prox objective must vanish
        mu = 0.7
        lo, hi = 0.0, 1.0

        def prox(g, v):
            return np.clip(g * v / (g + mu), lo, hi)

        for _ in range(50):
            g = rng.uniform(0.5, 3.0, size=5)
            v = rng.standard_normal(5) * 2
            u = prox(g, v)
            grad = mu * u + g * (u - v)
            pg = u - np.clip(u - grad, lo, hi)
            assert float(np.max(np.abs(pg))) <= 1e-8


class TestProjections:
    def test_box_example(self):
        out = Box(np.zeros(2), np.ones(2)).project(np.array([2.0, -1.0]))
        assert np.allclose(out, [1.0, 0.0])

    def test_ball_radial_scaling(self):
        out = Ball(np.zeros(2), 1.0).project(np.array([3.0, 4.0]))
        assert np.allclose(out, [0.6, 0.8])

    def test_halfspace_example(self):
        out = Halfspace(np.array([1.0, 1.0]), 0.0).project(np.array([1.0, 1.0]))
        assert np.allclose(out, [0.0, 0.0])

    def test_hyperplane(self):
        out = Hyperplane(np.array([1.0, 0.0]), 2.0).project(np.array([0.0, 5.0]))
        assert np.allclose(out, [2.0, 5.0])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_idempotence_and_firm_nonexpansiveness(self, seed):
        rng = np.random.default_rng(seed)
        prims = [
            Box(np.array([-1.0, -0.5, 0.0]), np.array([1.0, 2.0, 0.5])),
            Ball(rng.standard_normal(3), 1.5),
            Halfspace(rng.standard_normal(3), 0.3),
            Hyperplane(rng.standard_normal(3), -0.2),
            EnergyBudget(np.zeros(3), np.ones(3), 1.2),
        ]
        x = rng.standard_normal(3) * 2
        y = rng.standard_normal(3) * 2
        for prim in prims:
            px, py = prim.project(x), prim.project(y)
            assert np.allclose(prim.project(px), px, atol=1e-10)
            lhs = float(np.sum((px - py) ** 2))
            rhs = float((px - py) @ (x - y))
            assert lhs <= rhs + 1e-9


class TestEnergyBudget:
    def test_feasible_point_unchanged(self):
        v = np.array([0.8, 0.9])
        out = project_energy_budget(np.zeros(2), np.ones(2), 1.0, v)
        assert np.allclose(out, v)

    def test_unique_feasible_point(self):
        out = project_energy_budget(np.zeros(2), np.ones(2), 2.0, np.zeros(2))
        assert np.allclose(out, [1.0, 1.0], atol=1e-12)

    def test_symmetric_split(self):
        out = project_energy_budget(np.zeros(2), np.full(2, 10.0), 2.0, np.zeros(2))
        assert np.allclose(out, [1.0, 1.0], atol=1e-9)

    def test_infeasible_demand(self):
        with pytest.raises(InfeasibleInstance):
            project_energy_budget(np.zeros(2), np.ones(2), 3.0, np.zeros(2))

    def test_matches_qp_oracle(self, rng):
        for _ in range(30):
            lo = rng.uniform(-1, 0, 3)
            hi = lo + rng.uniform(0.5, 2.0, 3)
            demand = rng.uniform(np.sum(lo), np.sum(hi))
            v = rng.standard_normal(3) * 2
            mine = project_energy_budget(lo, hi, demand, v)
            oracle = exact_projection_qp(
                [Box(lo, hi), Halfspace(-np.ones(3), -demand)], v
            )
            assert np.allclose(mine, oracle, atol=1e-9)

    @staticmethod
    def _random_budget(rng, t_h=None):
        if t_h is None:
            t_h = int(rng.integers(1, 25))
        lo = rng.uniform(-1.0, 0.5, t_h)
        hi = lo + rng.uniform(0.0, 2.0, t_h)
        v = rng.standard_normal(t_h)
        if rng.random() < 0.3:
            lo[rng.random(t_h) < 0.3] = -np.inf
        if rng.random() < 0.3:
            hi[rng.random(t_h) < 0.3] = np.inf
        if rng.random() < 0.3:
            v = np.round(v, 1)  # ties in v, hence coincident breakpoints
        if np.all(np.isfinite(hi)) and rng.random() < 0.2:
            demand = float(np.sum(hi))
        else:
            reach = np.where(np.isfinite(hi), hi, np.clip(v, lo, None) + 3.0)
            demand = float(rng.uniform(np.sum(np.clip(v, lo, hi)) - 1.0, np.sum(reach)))
        return lo, hi, demand, v

    def test_matches_bisection_random_horizons(self, rng, bisection_budget):
        for trial in range(2000):
            lo, hi, demand, v = self._random_budget(rng)
            mine = project_energy_budget(lo, hi, demand, v)
            oracle = bisection_budget(lo, hi, demand, v)
            assert np.max(np.abs(mine - oracle)) <= 1e-12, f"trial {trial}"

    def test_budget_tight_when_active(self, rng):
        for _ in range(200):
            lo, hi, demand, v = self._random_budget(rng)
            out = project_energy_budget(lo, hi, demand, v)
            assert np.all(out >= lo) and np.all(out <= hi)
            if np.sum(np.clip(v, lo, hi)) < demand - 1e-12:
                assert np.sum(out) == pytest.approx(demand, abs=1e-12)

    def test_demand_at_total_capacity(self, bisection_budget):
        lo, hi = np.zeros(3), np.array([1.0, 2.0, 0.5])
        v = np.array([0.2, 0.2, 0.2])
        out = project_energy_budget(lo, hi, 3.5, v)
        assert np.allclose(out, hi, atol=1e-12)
        assert np.allclose(out, bisection_budget(lo, hi, 3.5, v), atol=1e-12)

    def test_demand_within_tolerance_above_capacity(self):
        # accepted as feasible by the 1e-12 capacity check; the old
        # bisection doubled its bracket forever here
        out = project_energy_budget(np.zeros(2), np.ones(2), 2.0 + 5e-13, np.zeros(2))
        assert np.allclose(out, [1.0, 1.0], atol=1e-15)

    def test_unbounded_coordinates(self, bisection_budget):
        lo = np.array([-np.inf, 0.0, -np.inf])
        hi = np.array([np.inf, 1.0, 0.5])
        v = np.array([-3.0, 0.2, 0.0])
        out = project_energy_budget(lo, hi, 4.0, v)
        assert float(np.sum(out)) == pytest.approx(4.0, abs=1e-12)
        assert np.allclose(out, bisection_budget(lo, hi, 4.0, v), atol=1e-12)

    def test_scalar_bounds_broadcast(self):
        out = project_energy_budget(0.0, 10.0, 2.0, np.zeros(4))
        assert np.allclose(out, 0.5, atol=1e-15)

    def test_batched_rows_match_single_rows(self, rng):
        # same draws as the bisection comparison (infinite bounds, ties,
        # demand == sum hi), stacked into batches of a common horizon
        for trial in range(2000):
            t_h = int(rng.integers(1, 25))
            n_rows = int(rng.integers(1, 7))
            rows = [self._random_budget(rng, t_h) for _ in range(n_rows)]
            lo, hi, demand, v = (np.array(col) for col in zip(*rows))
            batched = project_energy_budgets(lo, hi, demand, v)
            for i, row in enumerate(rows):
                single = project_energy_budget(*row)
                assert np.array_equal(batched[i], single), f"trial {trial} row {i}"

    def test_rows_at_once_bisection_matches_per_row(self, rng, bisection_budget, bisection_budgets):
        # the test oracles: the rows-at-once bisection must be the per-row
        # one bit for bit, at the grid's horizon and at others
        for trial in range(300):
            t_h = 2 if trial % 2 else int(rng.integers(1, 25))
            rows = [self._random_budget(rng, t_h) for _ in range(int(rng.integers(1, 7)))]
            lo, hi, demand, v = (np.array(col) for col in zip(*rows))
            batched = bisection_budgets(lo, hi, demand, v)
            single = np.array([bisection_budget(*row) for row in rows])
            assert batched.tobytes() == single.tobytes(), f"trial {trial}"

    def test_batched_infeasible_row(self):
        lo, hi = np.zeros((3, 2)), np.ones((3, 2))
        with pytest.raises(InfeasibleInstance, match="demand 3.0"):
            project_energy_budgets(lo, hi, [1.0, 3.0, 2.0], np.zeros((3, 2)))


class TestAffineSubspace:
    def test_projector_matches_normal_equations(self, rng):
        import scipy.linalg as sla

        c = rng.standard_normal((3, 7))
        e = rng.standard_normal(3)
        aff = AffineSubspace(c, e)
        for _ in range(20):
            v = rng.standard_normal(7)
            direct = v - c.T @ sla.solve(c @ c.T, c @ v - e)
            out = aff.project(v)
            assert np.allclose(out, direct, atol=1e-12)
            assert np.allclose(c @ out, e, atol=1e-12)

    def test_duplicated_rows(self, rng):
        c = rng.standard_normal((2, 4))
        aff = AffineSubspace(np.vstack([c, c]), np.array([1.0, 2.0, 1.0, 2.0]))
        out = aff.project(rng.standard_normal(4))
        assert np.allclose(c @ out, [1.0, 2.0], atol=1e-10)

    @pytest.mark.parametrize("dependent", [False, True])
    def test_multiplier_is_the_minimum_norm_solution(self, rng, dependent):
        # (C C^T) lam = C v - e, on full-rank rows and on rows whose Gram
        # matrix is singular: the fourth row is the sum of the first two and
        # the fifth repeats the third
        c = rng.standard_normal((5, 12))
        if dependent:
            c[3] = c[0] + c[1]
            c[4] = c[2]
        e = c @ rng.standard_normal(12)
        aff = AffineSubspace(c, e)
        for _ in range(10):
            v = rng.standard_normal(12)
            expected, *_ = np.linalg.lstsq(c @ c.T, c @ v - e, rcond=None)
            lam = aff.multiplier(v)
            assert np.allclose(lam, expected, rtol=1e-10, atol=1e-10 * np.abs(expected).max())
            assert np.allclose(c @ aff.project(v), e, atol=1e-10)

    def test_two_equal_rows_of_norm_2_27_project_onto_the_rows(self):
        # C C^T holds 2^54 everywhere and its second pivot is exactly 0: the
        # pivoted factor keeps one row and the projection lands on C x = e
        c = np.array([[2.0**27, 0.0], [2.0**27, 0.0]])
        e = np.array([3.0, 3.0])
        aff = AffineSubspace(c, e)
        out = aff.project(np.array([1.0, 4.0]))
        assert np.allclose(c @ out, e, rtol=1e-15)
        assert out[1] == 4.0

    def test_non_finite_gram_raises(self):
        # dpstrf takes a NaN pivot for a dropped row, not an error (rank 0,
        # info 1 here), so the factor alone would not refuse this Gram matrix
        c = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError, match="not finite"):
            AffineSubspace(c, np.zeros(2))


class TestDykstra:
    def test_two_overlapping_boxes(self, rng):
        prims = [
            Box(np.array([0.0, 0.0]), np.array([2.0, 2.0])),
            Box(np.array([1.0, -1.0]), np.array([3.0, 1.5])),
        ]
        v = rng.standard_normal(2) * 3
        out = dykstra_project(prims, v)
        direct = np.clip(v, [1.0, 0.0], [2.0, 1.5])
        assert np.allclose(out, direct, atol=1e-9)

    def test_two_hyperplanes(self):
        prims = [
            Hyperplane(np.array([1.0, 0.0]), 0.0),
            Hyperplane(np.array([0.0, 1.0]), 0.0),
        ]
        assert np.allclose(dykstra_project(prims, np.array([1.0, 1.0])), np.zeros(2), atol=1e-9)

    def test_box_halfspace_corner(self):
        prims = [
            Box(np.zeros(2), np.ones(2)),
            Halfspace(np.ones(2), 1.0),
        ]
        out = dykstra_project(prims, np.array([1.0, 1.0]))
        assert np.allclose(out, [0.5, 0.5], atol=1e-8)

    def test_nonconvergence_on_empty_intersection(self):
        prims = [
            Box(np.zeros(2), np.ones(2)),
            Box(np.full(2, 2.0), np.full(2, 3.0)),
        ]
        with pytest.raises(ProjectionDidNotConverge):
            dykstra_project(prims, np.zeros(2), max_iter=200)

    def test_against_enumeration_oracle(self, rng):
        for trial in range(40):
            dim = int(rng.integers(1, 4))
            prims = [Box(-np.ones(dim), np.ones(dim))]
            for _ in range(int(rng.integers(1, 3))):
                a = rng.standard_normal(dim)
                prims.append(Halfspace(a, float(rng.uniform(0.0, 1.0))))
            if rng.random() < 0.4 and dim > 1:
                a = rng.standard_normal(dim)
                prims.append(Hyperplane(a, 0.0))
            v = rng.standard_normal(dim) * 2
            try:
                oracle = exact_projection_qp(prims, v)
            except InfeasibleInstance:
                continue
            mine = dykstra_project(prims, v, tol=1e-12)
            assert np.allclose(mine, oracle, atol=1e-6), f"trial {trial}"
