import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patternlab import (
    AffineModel,
    GaussianParams,
    clip,
    conditional_mean_map,
    least_squares,
    optimum_rows,
    paired_block_covariance,
)
from patternlab import solver
from patternlab.solver import CONDITIONING_CHUNK, PRECISION_MAX_CONDITION, lstsq_stack


def pseudoinverse_solution_oracle(features: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Min-norm solution through an eigendecomposition of the normal equations."""
    augmented = np.column_stack([features, np.ones(features.shape[0])])
    gram = augmented.T @ augmented
    eigvals, eigvecs = np.linalg.eigh(gram)
    cutoff = np.finfo(float).eps * max(augmented.shape) * eigvals.max()
    inv = np.where(eigvals > cutoff, 1.0 / np.where(eigvals > 0, eigvals, 1.0), 0.0)
    return eigvecs @ (inv * (eigvecs.T @ (augmented.T @ targets)))


class TestLeastSquares:
    def test_exact_line(self):
        model = least_squares(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        assert model.intercept == pytest.approx(0.0, abs=1e-12)
        assert model.coefficients[0] == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_columns_split_evenly(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        features = np.column_stack([x, x])
        model = least_squares(features, 3.0 * x + 1.0)
        assert model.coefficients[0] == pytest.approx(model.coefficients[1], abs=1e-10)
        assert np.allclose(model.predict(features), 3.0 * x + 1.0, atol=1e-10)

    def test_matches_pseudoinverse_oracle(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(6, 3))
        targets = rng.normal(size=6)
        model = least_squares(features, targets)
        expected = pseudoinverse_solution_oracle(features, targets)
        assert np.allclose(np.append(model.coefficients, model.intercept), expected, atol=1e-8)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            features = rng.normal(size=(12, 4))
            targets = rng.normal(size=12)
            model = least_squares(features, targets)
            residual = model.predict(features) - targets
            augmented = np.column_stack([features, np.ones(12)])
            assert np.abs(augmented.T @ residual).max() < 1e-8

    def test_minimum_norm_on_rank_deficient_system(self):
        x = np.array([0.0, 1.0, 2.0])
        features = np.column_stack([x, x])
        model = least_squares(features, x)
        solution = np.append(model.coefficients, model.intercept)
        # (1, -1, 0) spans the null space of [x, x, 1]; moving along it
        # keeps the fit but can only grow the norm.
        null_direction = np.array([1.0, -1.0, 0.0])
        for t in (-0.5, -0.1, 0.1, 0.5):
            assert np.linalg.norm(solution + t * null_direction) >= np.linalg.norm(solution) - 1e-12

    def test_intercept_only(self):
        model = least_squares(np.empty((4, 0)), np.array([1.0, 2.0, 3.0, 4.0]))
        assert model.intercept == pytest.approx(2.5)
        assert model.coefficients.size == 0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            least_squares(np.array([[np.nan]]), np.array([1.0]))
        with pytest.raises(ValueError):
            least_squares(np.array([[1.0]]), np.array([np.inf]))


class TestClip:
    @pytest.mark.parametrize("value,level,expected", [(0.5, 1.0, 0.5), (-7.0, 2.0, -2.0), (3.0, 3.0, 3.0)])
    def test_examples(self, value, level, expected):
        assert clip(value, level) == expected

    def test_requires_positive_level(self):
        with pytest.raises(ValueError):
            clip(1.0, 0.0)

    @given(
        st.floats(-1e6, 1e6),
        st.floats(-1e6, 1e6),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=100, deadline=None)
    def test_idempotent_and_monotone(self, v1, v2, level):
        assert clip(clip(v1, level), level) == clip(v1, level)
        lo, hi = sorted((v1, v2))
        assert clip(lo, level) <= clip(hi, level)


def conditional_mean(params, observed, x_obs):
    offset, gain = conditional_mean_map(params, observed)
    return offset + gain @ x_obs


class TestConditionalGaussian:
    def test_identity_covariance_ignores_observed(self):
        params = GaussianParams(np.array([1.0, 2.0, 3.0]), np.eye(3))
        out = conditional_mean(params, [0], np.array([99.0]))
        assert np.allclose(out, [2.0, 3.0])

    def test_bivariate_textbook_formula(self):
        rho = 0.45
        params = GaussianParams(np.array([1.0, -2.0]), np.array([[1.0, rho], [rho, 1.0]]))
        out = conditional_mean(params, [0], np.array([2.5]))
        assert out[0] == pytest.approx(-2.0 + rho * (2.5 - 1.0), abs=1e-12)

    def test_rank_one_comonotone(self):
        d = 4
        params = GaussianParams(np.arange(1.0, 5.0), np.ones((d, d)))
        out = conditional_mean(params, [1], np.array([5.0]))
        shift = 5.0 - 2.0
        assert np.allclose(out, np.array([1.0, 3.0, 4.0]) + shift, atol=1e-10)

    def test_all_observed_empty(self):
        params = GaussianParams(np.zeros(2), np.eye(2))
        offset, gain = conditional_mean_map(params, [0, 1])
        assert offset.size == 0 and gain.shape == (0, 2)

    def test_none_observed_returns_mean(self):
        params = GaussianParams(np.array([3.0, 4.0]), np.eye(2))
        assert np.allclose(conditional_mean(params, [], np.array([])), [3.0, 4.0])

    def test_pinv_cutoff(self):
        # the observed block has eigenvalues 2 and 1e-10; pinv's hermitian
        # cutoff (eps * k relative to the largest) keeps the small one
        cov = np.array([[2.0, 0.0, 0.5], [0.0, 1e-10, 3e-11], [0.5, 3e-11, 1.0]])
        params = GaussianParams(np.zeros(3), cov)
        cutoff = np.finfo(float).eps * 2
        expected = cov[2:, :2] @ np.linalg.pinv(cov[:2, :2], rcond=cutoff, hermitian=True)
        _, gain = conditional_mean_map(params, [0, 1])
        assert np.allclose(gain, [[0.25, 0.3]], rtol=1e-6, atol=0.0)
        assert np.abs(gain - expected).max() <= 1e-12
        coef, _ = optimum_rows(params, 0.0, np.array([1.0, 1.0, 2.0]), np.array([[False, False, True]]))
        assert np.abs(coef[0, :2] - (1.0 + 2.0 * expected[0])).max() <= 1e-12

    def test_singular_block_drops_null_direction(self):
        # duplicated coordinates: the observed block [[1, 1], [1, 1]] is
        # singular and the minimum-norm gain splits evenly
        params = GaussianParams(np.zeros(3), np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]]))
        _, gain = conditional_mean_map(params, [0, 1])
        assert np.allclose(gain, [[0.25, 0.25]], atol=1e-15)
        coef, _ = optimum_rows(params, 0.0, np.ones(3), np.array([[False, False, True]]))
        assert np.allclose(coef, [[1.25, 1.25, 0.0]], atol=1e-15)

    def test_dimension_mismatch(self):
        params = GaussianParams(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError):
            conditional_mean(params, [0], np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            conditional_mean_map(params, [5])


def per_pattern_rows(params, beta0, beta, missing):
    """The optimum rows composed pattern by pattern from conditional_mean_map."""
    coef = np.zeros(missing.shape)
    intercepts = np.empty(missing.shape[0])
    for i, row in enumerate(missing):
        obs, mis = np.flatnonzero(~row), np.flatnonzero(row)
        offset, gain = conditional_mean_map(params, obs)
        coef[i, obs] = beta[obs] + gain.T @ beta[mis]
        intercepts[i] = beta0 + beta[mis] @ offset
    return coef, intercepts


def assert_rows_match(got, expected):
    for a, b in zip(got, expected):
        assert a.shape == b.shape
        assert (np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(b))).all()


def ar_covariance(d, rho=0.5):
    lags = np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
    return rho**lags


def covariance_for(kind, rng):
    if kind == "paired_block_8":
        return paired_block_covariance(8)
    if kind == "ar_20":
        return ar_covariance(20)
    # a random rank-deficient A A^T with small integer loadings
    d = int(rng.integers(2, 9))
    loadings = rng.integers(-1, 2, size=(d, int(rng.integers(1, d)))).astype(float)
    return loadings @ loadings.T


class TestOptimumRows:
    @given(
        st.sampled_from(["paired_block_8", "rank_deficient", "ar_20"]),
        st.integers(1, 80),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_stacked_rows_equal_per_pattern_maps(self, kind, count, seed):
        rng = np.random.default_rng(seed)
        cov = covariance_for(kind, rng)
        d = cov.shape[0]
        params = GaussianParams(rng.normal(size=d), cov)
        beta = rng.normal(size=d)
        missing = rng.random((count + 2, d)) < rng.random()
        missing[0], missing[1] = False, True  # k = d and k = 0
        got = optimum_rows(params, 0.7, beta, missing)
        assert_rows_match(got, per_pattern_rows(params, 0.7, beta, missing))
        assert (got[0][missing] == 0.0).all()

    def test_more_than_one_chunk(self):
        rng = np.random.default_rng(4)
        d = 20
        params = GaussianParams(rng.normal(size=d), ar_covariance(d))
        beta = rng.normal(size=d)
        count = 2 * CONDITIONING_CHUNK + 5
        missing = rng.permuted(np.tile(np.arange(d) < 10, (count, 1)), axis=1)
        got = optimum_rows(params, -0.2, beta, missing)
        assert_rows_match(got, per_pattern_rows(params, -0.2, beta, missing))

    def test_full_and_empty_patterns(self):
        params = GaussianParams(np.array([1.0, -2.0, 0.5]), ar_covariance(3))
        beta = np.array([1.0, 2.0, 3.0])
        coef, intercepts = optimum_rows(params, 0.5, beta, np.array([[False] * 3, [True] * 3]))
        assert np.array_equal(coef, [beta, np.zeros(3)])
        assert intercepts[0] == 0.5
        assert intercepts[1] == pytest.approx(0.5 + beta @ params.mean, abs=1e-15)

    def test_no_patterns(self):
        params = GaussianParams(np.zeros(2), np.eye(2))
        coef, intercepts = optimum_rows(params, 0.0, np.ones(2), np.zeros((0, 2), dtype=bool))
        assert coef.shape == (0, 2) and intercepts.shape == (0,)

    def test_shape_validation(self):
        params = GaussianParams(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            optimum_rows(params, 0.0, np.ones(3), np.zeros((1, 2), dtype=bool))
        with pytest.raises(ValueError):
            optimum_rows(params, 0.0, np.ones(2), np.zeros((1, 3), dtype=bool))


def spd_with_condition(rng, d, kappa):
    """A random SPD covariance whose eigenvalues run geometrically from 1 to kappa."""
    basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
    cov = (basis * np.geomspace(1.0, kappa, d)) @ basis.T
    return (cov + cov.T) / 2.0


def routes_taken(monkeypatch):
    """Counts of stacked eigendecompositions (the pseudoinverse route) and of
    stacked solves (the precision route) made by ``optimum_rows``."""
    calls = {"pinv": 0, "solve": 0}
    pinv_apply, solve = solver._pinv_apply, np.linalg.solve

    def counting_pinv(*args):
        calls["pinv"] += 1
        return pinv_apply(*args)

    def counting_solve(*args):
        calls["solve"] += 1
        return solve(*args)

    monkeypatch.setattr(solver, "_pinv_apply", counting_pinv)
    monkeypatch.setattr(solver.np.linalg, "solve", counting_solve)
    return calls


class TestPrecisionRoute:
    @given(st.integers(1, 20), st.floats(0.0, 2.0), st.integers(1, 60), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_well_conditioned_rows_equal_per_pattern_maps(self, d, log_kappa, count, seed):
        rng = np.random.default_rng(seed)
        params = GaussianParams(rng.normal(size=d), spd_with_condition(rng, d, 10.0**log_kappa))
        beta = rng.normal(size=d)
        missing = rng.random((count + 2, d)) < rng.random()
        missing[0], missing[1] = False, True  # k = d and k = 0
        got = optimum_rows(params, 0.7, beta, missing)
        assert_rows_match(got, per_pattern_rows(params, 0.7, beta, missing))
        assert (got[0][missing] == 0.0).all()

    @pytest.mark.parametrize(
        "kappa,route", [(PRECISION_MAX_CONDITION * 0.99, "solve"), (PRECISION_MAX_CONDITION * 1.01, "pinv")]
    )
    def test_condition_number_picks_the_route(self, monkeypatch, kappa, route):
        rng = np.random.default_rng(17)
        d = 12
        params = GaussianParams(rng.normal(size=d), spd_with_condition(rng, d, kappa))
        assert params.condition_number == pytest.approx(kappa, rel=1e-9)
        beta = rng.normal(size=d)
        missing = rng.random((200, d)) < 0.3
        calls = routes_taken(monkeypatch)
        got = optimum_rows(params, -1.0, beta, missing)
        assert calls[route] > 0 and calls["solve" if route == "pinv" else "pinv"] == 0
        assert_rows_match(got, per_pattern_rows(params, -1.0, beta, missing))

    def test_singular_covariance_takes_the_pseudoinverse_route(self, monkeypatch):
        rng = np.random.default_rng(5)
        d = 20
        params = GaussianParams(rng.normal(size=d), paired_block_covariance(d))
        assert params.condition_number == np.inf
        beta = rng.normal(size=d)
        count = 2 * CONDITIONING_CHUNK + 5
        missing = rng.permuted(np.tile(np.arange(d) < 10, (count, 1)), axis=1)
        calls = routes_taken(monkeypatch)
        got = optimum_rows(params, 0.4, beta, missing)
        assert calls == {"pinv": 3, "solve": 0}
        assert_rows_match(got, per_pattern_rows(params, 0.4, beta, missing))

    def test_condition_numbers(self):
        assert GaussianParams(np.zeros(3), np.eye(3)).condition_number == 1.0
        assert GaussianParams(np.zeros(2), np.ones((2, 2))).condition_number == np.inf
        assert GaussianParams(np.zeros(20), ar_covariance(20)).condition_number == pytest.approx(8.6, abs=0.05)


class TestLstsqStack:
    def test_bit_identical_to_numpy_lstsq_on_rank_deficient_systems(self):
        rng = np.random.default_rng(8)
        for rows, cols in [(1, 4), (3, 3), (6, 4), (9, 7), (40, 9)]:
            rank = max(1, min(rows, cols) - 2)
            systems = rng.normal(size=(5, rows, rank)) @ rng.normal(size=(5, rank, cols))
            systems[0, :, -1] = systems[0, :, 0]  # a duplicated column
            systems[1] = 1.0  # rank one
            targets = rng.normal(size=(5, rows))
            got = lstsq_stack(systems, targets)
            for system, target, solution in zip(systems, targets, got):
                assert np.array_equal(solution, np.linalg.lstsq(system, target, rcond=None)[0])

    def test_non_convergence_raises_like_numpy(self):
        system = np.array([[1.0, np.nan], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.lstsq(system, np.ones(3), rcond=None)
        with pytest.raises(np.linalg.LinAlgError):
            lstsq_stack(system[None], np.ones((1, 3)))


class TestGaussianParams:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            GaussianParams(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_negative_definite(self):
        with pytest.raises(ValueError):
            GaussianParams(np.zeros(2), np.array([[1.0, 0.0], [0.0, -0.5]]))

    def test_singular_factor_reproduces_covariance(self):
        cov = np.ones((3, 3))
        params = GaussianParams(np.zeros(3), cov)
        assert np.allclose(params.factor @ params.factor.T, cov, atol=1e-12)

    @pytest.mark.parametrize(
        "mean, cov",
        [
            (np.zeros(3), np.ones((3, 3))),
            (np.array([1.0, -2.0, 1e5]), np.ones((3, 3))),
            (np.arange(8.0), paired_block_covariance(8)),
            (
                np.array([0.5, -1.0, 3.0, 2.0]),
                np.array([[2.0, 0.6, 0.0, -0.3], [0.6, 1.0, 0.2, 0.0], [0.0, 0.2, 1.5, 0.4], [-0.3, 0.0, 0.4, 0.8]]),
            ),
            (np.full(5, -7.25), np.eye(5)),
        ],
        ids=["ones3", "ones3_shifted", "paired8", "dense4", "eye5"],
    )
    @pytest.mark.parametrize("size", [0, 1, 7, 4096])
    def test_sample_adds_the_mean_in_place_bit_for_bit(self, mean, cov, size):
        params = GaussianParams(mean, cov)
        reference_rng, rng = np.random.default_rng(size), np.random.default_rng(size)
        z = reference_rng.standard_normal((size, params.dimension))
        reference = params.mean + z @ params.factor.T
        got = params.sample(rng, size)
        assert got.shape == (size, params.dimension) and got.flags.writeable
        assert np.array_equal(got, reference)
        assert rng.random() == reference_rng.random()


class TestAffineModel:
    def test_batch_and_single_prediction(self):
        model = AffineModel(1.0, np.array([2.0]))
        assert model.predict(np.array([3.0])) == 7.0
        assert np.allclose(model.predict(np.array([[3.0], [0.0]])), [7.0, 1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            AffineModel(np.nan, np.array([1.0]))
