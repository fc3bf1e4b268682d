from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla

import blockpd as bp
from blockpd.blocks import BlockStructure
from blockpd.errors import UnsupportedSampling
from blockpd.sampling import from_config, nice
from instruments import block_xi, expectation_over_sampling


class TestDraw:
    def test_full_always_everything(self):
        s = bp.full(3)
        rng = bp.make_rng(0)
        for _ in range(10):
            assert np.array_equal(bp.draw(s, rng), np.arange(3))

    def test_deterministic_given_seed(self):
        s = bp.nice(6, 2)
        a = [bp.draw(s, bp.make_rng(42)) for _ in range(5)]
        b = [bp.draw(s, bp.make_rng(42)) for _ in range(5)]
        # same seed used fresh gives the same first draw
        assert (a[0] == b[0]).all()
        rng1, rng2 = bp.make_rng(7), bp.make_rng(7)
        for _ in range(50):
            assert (bp.draw(s, rng1) == bp.draw(s, rng2)).all()

    def test_single_coordinate_frequency(self):
        s = bp.single_coordinate(2)
        rng = bp.make_rng(123)
        hits = sum(bp.draw(s, rng)[0] == 0 for _ in range(100_000))
        assert abs(hits / 100_000 - 0.5) < 0.01

    def test_paired_realizations(self):
        s = bp.paired_dso(3)
        rng = bp.make_rng(5)
        for _ in range(200):
            idx = bp.draw(s, rng)
            assert idx[0] == 0
            assert len(idx) == 2 and 1 <= idx[1] <= 3

    @pytest.mark.parametrize(
        "make",
        [
            lambda: bp.single_coordinate(5),
            lambda: bp.single_coordinate(4, [0.1, 0.2, 0.3, 0.4]),
            lambda: bp.nice(4, 2),
            lambda: bp.nice(250, 4),
            lambda: bp.full(3),
            lambda: bp.paired_dso(3),
        ],
        ids=["single", "single_nonuniform", "nice_2_of_4", "nice_4_of_250", "full", "paired"],
    )
    def test_indices_match_mask_oracle(self, make, draw_oracle):
        # same index sets and the same random stream as the mask form
        s = make()
        rng_new, rng_old = bp.make_rng(77), bp.make_rng(77)
        for _ in range(10_000):
            idx = bp.draw(s, rng_new)
            assert np.array_equal(idx, np.flatnonzero(draw_oracle(s, rng_old)))
        assert rng_new.random() == rng_old.random()

    @pytest.mark.parametrize(
        "make",
        [lambda: bp.single_coordinate(4, [0.1, 0.2, 0.3, 0.4]), lambda: bp.paired_dso(3)],
        ids=["single_nonuniform", "paired"],
    )
    def test_ties_at_cumulative_boundaries(self, make):
        # a uniform equal to a cumulative probability belongs to the next
        # subset (searchsorted side="right"); above the last one it is
        # clamped to the last subset.  Random draws almost never tie.
        s = make()
        cum = np.cumsum(s.probs)
        for u in [*cum.tolist(), float(np.nextafter(1.0, 0.0)), 0.0]:
            stub = SimpleNamespace(random=lambda u=u: u)
            j = min(int(np.searchsorted(cum, u, side="right")), len(s.support) - 1)
            assert np.array_equal(bp.draw(s, stub), sorted(s.support[j]))

    def test_enumerable_indices_are_shared_and_read_only(self):
        s = bp.nice(4, 2)
        rng = bp.make_rng(3)
        idx = bp.draw(s, rng)
        assert not idx.flags.writeable
        assert any(bp.draw(s, rng) is idx for _ in range(50))

    def test_improper_sampling_rejected(self):
        with pytest.raises(ValueError):
            bp.Sampling(2, "explicit", np.array([1.0, 0.0]), ((0,),), np.array([1.0]))


class TestProbMatrix:
    def test_single_coordinate(self):
        pi_mat = bp.prob_matrix(bp.single_coordinate(2))
        assert np.allclose(pi_mat, np.diag([0.5, 0.5]))

    def test_two_nice_on_three(self):
        pi_mat = bp.prob_matrix(bp.nice(3, 2))
        expect = np.full((3, 3), 1.0 / 3.0)
        np.fill_diagonal(expect, 2.0 / 3.0)
        assert np.allclose(pi_mat, expect)

    def test_full(self):
        assert np.allclose(bp.prob_matrix(bp.full(3)), np.ones((3, 3)))

    def test_diag_and_symmetry_and_psd(self):
        # PSD is not checked by prob_matrix: it holds by construction
        closed_form = bp.nice(30, 7)
        assert closed_form.support is None
        for s in (bp.single_coordinate(4), bp.nice(5, 2), bp.full(3), bp.paired_dso(3),
                  closed_form):
            pi_mat = bp.prob_matrix(s)
            assert np.allclose(np.diag(pi_mat), s.pi)
            assert np.allclose(pi_mat, pi_mat.T)
            assert np.linalg.eigvalsh(pi_mat).min() > -1e-12

    def test_strictly_positive_definite_kinds(self):
        # single-block and subset-uniform activations have nonsingular
        # pair-probability matrices; the all-blocks kind is rank one
        for s in (bp.single_coordinate(4), bp.nice(5, 2)):
            assert np.linalg.eigvalsh(bp.prob_matrix(s)).min() > 1e-8

    def test_formula_branch_matches_enumeration(self):
        enumerated = bp.prob_matrix(bp.nice(6, 3))
        # same kind pushed through the closed-form (non-enumerated) branch
        closed_form = bp.Sampling(6, "nice", np.full(6, 0.5), None, None, nice_m=3)
        assert np.allclose(bp.prob_matrix(closed_form), enumerated)

    @pytest.mark.parametrize("s", [
        bp.single_coordinate(10),
        bp.single_coordinate(4, [0.1, 0.2, 0.3, 0.4]),
        bp.nice(5, 2),
        bp.nice(10, 5),
        bp.full(4),
        bp.paired_dso(6),
        bp.Sampling(3, "ragged", np.array([0.3, 0.7, 0.7]), ((0,), (2, 1)), np.array([0.3, 0.7])),
    ], ids=["single", "single-weighted", "nice-2-of-5", "nice-5-of-10", "full", "paired",
            "ragged"])
    def test_one_add_matches_the_per_subset_loop(self, s):
        loop = np.zeros((s.d, s.d))
        for subset, p in zip(s.support, s.probs):
            idx = np.array(subset)
            loop[idx[:, None], idx] += p
        pi_mat = bp.prob_matrix(s)
        assert pi_mat.flags.c_contiguous
        assert np.array_equal(pi_mat, loop)

    def test_huge_support_draw_size(self):
        s = nice(30, 7)  # C(30,7) far above the enumeration cap
        assert s.support is None
        rng = bp.make_rng(0)
        for _ in range(20):
            idx = bp.draw(s, rng)
            assert len(idx) == 7
            assert np.all(np.diff(idx) > 0) and 0 <= idx[0] and idx[-1] < 30


class TestInvariantChecks:
    """A sampling is checked once, when it is built."""

    def test_pair_probabilities_off_the_marginals(self):
        # 2-of-3 has marginals 2/3, not the 1/2 claimed here
        with pytest.raises(ValueError, match="marginals"):
            bp.Sampling(3, "nice", np.full(3, 0.5), None, None, nice_m=2)

    @pytest.mark.parametrize(
        "support, probs, pi, message",
        [
            (((0, 0), (1,)), [0.5, 0.5], [1.0, 0.5], r"subset \(0, 0\)"),
            (((0,), (3,)), [0.5, 0.5], [0.5, 0.5, 0.5], r"subset \(3,\)"),
            (((-1,), (0,)), [0.5, 0.5], [0.5, 0.5, 0.5], None),
            (((0,), (1,), (0, 1)), [0.6, 0.6, -0.2], [0.4, 0.4], "nonnegative"),
            # NaN passes every <=, < and > test; each check must fail it
            (((0,), (1,)), [0.5, 0.5], [np.nan, 0.5], "not proper"),
            (((0,), (1,), (0, 1)), [np.nan, 0.5, 0.5], [0.5, 0.5], "nonnegative"),
        ],
        ids=[
            "repeated-index", "index-above-d", "negative-index", "negative-probability",
            "nan-marginal", "nan-probability",
        ],
    )
    def test_malformed_support_rejected(self, support, probs, pi, message):
        with pytest.raises(ValueError, match=message):
            bp.Sampling(len(pi), "explicit", np.array(pi), support, np.array(probs))

    def test_single_coordinate_rejects_a_nan_probability(self):
        # accepted once, the convex policy then failed on B_i = 0 and the
        # accelerated one inside LAPACK
        with pytest.raises(ValueError, match="not proper"):
            bp.single_coordinate(3, [np.nan, 0.5, 0.5])

    @pytest.mark.parametrize(
        "kind, m",
        [("single", None), ("full", 3), ("nice", None), ("nice", 0), ("nice", 4), ("nice", 1.5)],
        ids=["single", "full", "nice-without-m", "nice-m-zero", "nice-m-above-d", "nice-m-float"],
    )
    def test_non_enumerable_needs_nice_m(self, kind, m):
        with pytest.raises(ValueError, match="nice"):
            bp.Sampling(3, kind, np.full(3, 0.5), None, None, nice_m=m)

    @pytest.mark.parametrize(
        "make, args, name",
        [
            (bp.single_coordinate, (0,), "d"),
            (bp.single_coordinate, (2.0,), "d"),
            (bp.nice, (0, 1), "d"),
            (bp.nice, (5, 0), "m"),
            (bp.nice, (5, 6), "m"),
            (bp.nice, (5, 2.0), "m"),
            (bp.nice, (5, True), "m"),
            (bp.full, (0,), "d"),
            (bp.paired_dso, (0,), "p"),
            (bp.paired_dso, (1.5,), "p"),
        ],
        ids=[
            "single-d-zero", "single-d-float", "nice-d-zero", "nice-m-zero", "nice-m-above-d",
            "nice-m-float", "nice-m-bool", "full-d-zero", "paired-p-zero", "paired-p-float",
        ],
    )
    def test_a_constructor_names_its_bad_count(self, make, args, name):
        # single_coordinate(0) once raised ZeroDivisionError, nice(5, 2.0) a
        # TypeError from math.comb, and nice(5, True) built a sampling
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            make(*args)

    def test_prob_matrix_makes_no_eigen_call(self, monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for mod, attr in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (np.linalg, "eig"),
                          (np.linalg, "svd"), (sla, "eigh"), (sla, "eigvalsh")):
            monkeypatch.setattr(mod, attr, counted(getattr(mod, attr)))
        for s in (bp.single_coordinate(4), bp.single_coordinate(4, [0.1, 0.2, 0.3, 0.4]),
                  bp.nice(6, 2), bp.nice(30, 7), bp.full(3), bp.paired_dso(3)):
            bp.prob_matrix(s)
        assert calls == []


class TestXiOracles:
    """The closed-form Xi against the exhaustive expectation over the
    support and against the per-pair block loop it replaced."""

    def test_matches_exhaustive_enumeration(self, rng, xi_oracles):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        cases = [
            (bp.single_coordinate(3), (2, 2, 2)),
            (bp.single_coordinate(4, probs), (1, 2, 3, 2)),
            (bp.nice(4, 2), (2, 1, 2, 3)),
            (bp.nice(6, 3), (1, 1, 2, 2, 3, 1)),
            (bp.paired_dso(3), (3, 2, 2, 1)),
            (bp.full(3), (3, 1, 2)),
        ]
        for s, dims in cases:
            blocks = [rng.standard_normal((7, n)) for n in dims]
            xi = block_xi(s, blocks)
            exact = xi_oracles.exhaustive(s, blocks)
            tol = 1e-12 * max(1.0, float(np.max(np.abs(exact))))
            assert np.max(np.abs(xi - exact)) <= tol, s.kind
            assert np.max(np.abs(xi - xi_oracles.block_pair(s, blocks))) <= tol, s.kind
            assert np.array_equal(xi, xi.T)

    def test_non_enumerable_matches_block_pair_loop(self, rng, xi_oracles):
        s = bp.nice(40, 10)
        assert s.support is None
        blocks = [rng.standard_normal((30, n)) for n in rng.integers(1, 4, size=40)]
        xi = block_xi(s, blocks)
        oracle = xi_oracles.block_pair(s, blocks)
        assert np.max(np.abs(xi - oracle)) <= 1e-12 * float(np.max(np.abs(oracle)))
        assert np.array_equal(xi, xi.T)


class TestWeights:
    def test_full_identity(self):
        s = bp.full(2)
        blocks = BlockStructure((2, 3))
        assert np.allclose(bp.weight_matrix_p(s, blocks), np.ones(5))

    def test_paired_weights(self):
        s = bp.paired_dso(3)
        p_diag = bp.weight_matrix_p(s, BlockStructure((1, 1, 1, 1)))
        assert np.allclose(p_diag, [1.0, 3.0, 3.0, 3.0])

    def test_nice_weights(self):
        s = bp.nice(6, 2)
        assert np.allclose(bp.weight_matrix_p(s, BlockStructure((1,) * 6)), np.full(6, 3.0))


class TestXiMatrix:
    def test_single_coordinate_hand_case(self):
        s = bp.single_coordinate(2)
        xi = block_xi(s, [np.array([[1.0]]), np.array([[2.0]])])
        assert np.allclose(xi, np.diag([2.0, 8.0]))

    def test_full_sampling_gives_gram(self, rng):
        a = rng.standard_normal((6, 5))
        blocks = [a[:, :2], a[:, 2:]]
        xi = block_xi(bp.full(2), blocks)
        assert np.allclose(xi, a.T @ a, atol=1e-12)

    def test_orthogonal_design_block_diagonal(self):
        q = np.linalg.qr(np.random.default_rng(3).standard_normal((6, 6)))[0]
        blocks = [q[:, :3], q[:, 3:]]
        s = bp.nice(2, 1)
        xi = block_xi(s, blocks)
        expect = np.zeros((6, 6))
        expect[:3, :3] = blocks[0].T @ blocks[0] / s.pi[0]
        expect[3:, 3:] = blocks[1].T @ blocks[1] / s.pi[1]
        assert np.allclose(xi, expect, atol=1e-12)

    def test_scaled_activation_mean_is_identity(self, rng):
        for s in (bp.single_coordinate(3), bp.nice(4, 2), bp.paired_dso(2), bp.full(3)):
            blocks = BlockStructure(tuple([2] * s.d))
            p_diag = bp.weight_matrix_p(s, blocks)

            def scaled(mask):
                m = blocks.expand(mask.astype(float))
                return p_diag * m

            mean = expectation_over_sampling(s, scaled)
            assert np.allclose(mean, np.ones(blocks.m), atol=1e-12)

    def test_variance_identity_random_directions(self, rng):
        # mean-square of the scaled coupled update equals the quadratic form
        # in (Xi - A'A)
        s = bp.nice(3, 2)
        a_blocks = [rng.standard_normal((7, 2)) for _ in range(3)]
        a = np.hstack(a_blocks)
        blocks = BlockStructure((2, 2, 2))
        p_diag = bp.weight_matrix_p(s, blocks)
        xi = block_xi(s, a_blocks)
        for _ in range(10):
            t = rng.standard_normal(6)

            def term(mask):
                m = blocks.expand(mask.astype(float))
                vec = a @ ((p_diag * m - 1.0) * t)
                return float(vec @ vec)

            lhs = expectation_over_sampling(s, term)
            rhs = float(t @ ((xi - a.T @ a) @ t))
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestExpectation:
    def test_constant(self):
        s = bp.nice(4, 2)
        assert expectation_over_sampling(s, lambda m: 1.0) == pytest.approx(1.0)

    def test_marginal(self):
        s = bp.paired_dso(3)
        for i in range(4):
            val = expectation_over_sampling(s, lambda m: float(m[i]))
            assert val == pytest.approx(s.pi[i], abs=1e-12)

    def test_pair_probability(self):
        s = bp.nice(4, 2)
        pi_mat = bp.prob_matrix(s)
        val = expectation_over_sampling(s, lambda m: float(m[0] and m[1]))
        assert val == pytest.approx(pi_mat[0, 1], abs=1e-12)

    def test_unsupported_without_enumeration(self):
        big = bp.Sampling(40, "nice", np.full(40, 0.25), None, None, nice_m=10)
        with pytest.raises(UnsupportedSampling):
            expectation_over_sampling(big, lambda m: 1.0)


def test_from_config_kinds():
    assert from_config("single", 4).kind == "single"
    assert from_config("uniform", 4).kind == "single"
    assert from_config("nice", 5, m=2).nice_m == 2
    assert from_config("full", 3).kind == "full"
    assert from_config("paired", 4).kind == "paired"
    with pytest.raises(UnsupportedSampling):
        from_config("bogus", 3)
