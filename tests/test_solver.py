import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patternlab import (
    AffineModel,
    GaussianParams,
    least_squares,
    optimum_rows,
    paired_block_covariance,
)
from patternlab import solver
from patternlab.solver import CONDITIONING_CHUNK, PRECISION_MAX_CONDITION, _normal_mass, _truncated_normal, lstsq_stack
from references import conditional_mean_map


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

    def test_arrays_are_read_only(self):
        # a write to the factor would change every later draw but not the covariance
        params = GaussianParams(np.zeros(2), np.eye(2))
        for array in (params.mean, params.covariance, params.factor):
            with pytest.raises(ValueError, match="read-only"):
                array[0, ...] = 1.0

    def test_rejects_an_empty_mean(self):
        # an empty Gaussian has no condition number, factor rows or optima
        with pytest.raises(ValueError, match="mean must hold at least one number"):
            GaussianParams(np.zeros(0), np.zeros((0, 0)))

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


def _phi(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def truncated_moments(a, b):
    """Mean and variance of a standard normal truncated to [a, b], a < b and
    b > 0, from the closed forms; the mass is a difference of upper tails."""
    mass = 0.5 * (math.erfc(a / math.sqrt(2.0)) - math.erfc(b / math.sqrt(2.0)))
    mean = (_phi(a) - _phi(b)) / mass
    return mean, 1.0 + (a * _phi(a) - b * _phi(b)) / mass - mean * mean


class SpyRng:
    """A generator that records the names of the methods called on it."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = set()

    def __getattr__(self, name):
        self.calls.add(name)
        return getattr(self.rng, name)


class TestTruncatedNormal:
    # (a, b) >= 0 per regime, with the proposal Robert's rule picks for it;
    # each window is also drawn mirrored to (-b, -a), below 0
    REGIMES = {
        "uniform_around_0": ((-0.5, 0.7), "uniform"),
        "normal_around_0": ((-1.0, 3.0), "standard_normal"),
        "uniform_in_the_tail": ((2.0, 2.3), "uniform"),
        "exponential_in_the_tail": ((2.0, 5.0), "exponential"),
        "exponential_far_out": ((8.0, 9.0), "exponential"),
    }

    @pytest.mark.parametrize("mirrored", [False, True], ids=["as_given", "mirrored"])
    @pytest.mark.parametrize("regime", list(REGIMES))
    def test_draws_follow_the_truncated_law(self, regime, mirrored):
        (a, b), proposal = self.REGIMES[regime]
        mean, variance = truncated_moments(a, b)
        if mirrored:
            a, b, mean = -b, -a, -mean
        rng = SpyRng(7)
        size = 20_000
        z = _truncated_normal(rng, size, a, b)
        assert z.shape == (size,) and ((a <= z) & (z <= b)).all()
        assert proposal in rng.calls and not {"uniform", "standard_normal", "exponential"} - {proposal} & rng.calls
        centred = z - z.mean()
        fourth = (centred**4).mean()
        assert abs(z.mean() - mean) <= 5.0 * math.sqrt(variance / size), (regime, z.mean(), mean)
        assert abs(z.var() - variance) <= 5.0 * math.sqrt((fourth - z.var() ** 2) / size), (regime, z.var(), variance)

    # an empty window, or one whose bounds rounded to 0, is thinned to size 0
    @pytest.mark.parametrize("a, b", [(1.0, 2.0), (-2.0, -1.0), (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)])
    def test_empty_draw(self, a, b):
        assert _truncated_normal(np.random.default_rng(0), 0, a, b).shape == (0,)

    def test_mass_far_out_keeps_its_precision(self):
        # 1 - erf would round this window's mass (6e-16) to 0 or a multiple of 1e-16
        want = 0.5 * (math.erfc(8.0 / math.sqrt(2.0)) - math.erfc(9.0 / math.sqrt(2.0)))
        assert _normal_mass(8.0, 9.0) == pytest.approx(want, rel=1e-12)
        assert _normal_mass(-9.0, -8.0) == pytest.approx(want, rel=1e-12)
        assert _normal_mass(-1.0, 1.0) == pytest.approx(math.erf(1.0 / math.sqrt(2.0)), rel=1e-15)


def _normal_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


class TestSampleWithin:
    # every count and moment below must hold within this many standard
    # errors, a bound fixed before the tests were first run
    SE = 5.0

    @pytest.mark.parametrize(
        "mean, cov",
        [
            (np.arange(8.0), paired_block_covariance(8)),
            (np.array([0.5, -1.0, 3.0]), np.array([[2.0, -0.6, 0.3], [-0.6, 1.0, 0.2], [0.3, 0.2, 1.5]])),
            (np.zeros(4), np.ones((4, 4))),
        ],
        ids=["paired8", "dense3", "ones4"],
    )
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_coordinate_j_is_exactly_the_truncated_normal(self, mean, cov, j):
        params = GaussianParams(mean, cov)
        sigma = math.sqrt(cov[j, j])
        half = 0.3 * sigma
        # a box on j and up to two later coordinates, each window centred
        # 0.4 of its own standard deviation above its mean
        obs = np.arange(j, min(j + 3, params.dimension))
        center = mean[obs] + 0.4 * np.sqrt(np.diagonal(cov)[obs])
        rows = params.sample_within(np.random.default_rng(j), 100_000, obs, center, half)
        assert rows.shape[1] == params.dimension and rows.shape[0] > 0
        # L's row for j is sigma_j e1, and later coordinates are kept by
        # their own windows, so rounding is the only gap
        assert (np.abs(rows[:, obs] - center) <= half * (1.0 + 1e-12)).all()
        # with the box on j alone, coordinate j is the standard normal
        # truncated to [0.1, 0.7] standard deviations, scaled
        rows = params.sample_within(np.random.default_rng(10 + j), 200_000, [j], center[:1], half)
        z = (rows[:, j] - mean[j]) / sigma
        want_mean, want_var = truncated_moments(0.1, 0.7)
        assert abs(z.mean() - want_mean) <= self.SE * math.sqrt(want_var / z.size)
        assert abs(z.var() - want_var) <= self.SE * math.sqrt(((z - z.mean()) ** 4).mean() / z.size)

    def test_window_far_out_is_thinned_not_emptied(self):
        # the first window, [8, 9] sigma out, has mass 6e-16, and the second
        # coordinate's window keeps most of those rows: n = 1e18 joint draws
        # keep about 400, and P(box) is integrated from the conditional law
        # X_1 | X_0 = x ~ N(x / 4, 3 / 4)
        params = GaussianParams(np.zeros(2), np.array([[4.0, 1.0], [1.0, 1.0]]))
        center, half, n = np.array([17.0, 4.25]), 1.0, 10**18
        rows = params.sample_within(np.random.default_rng(3), n, [0, 1], center, half)
        x = np.linspace(16.0, 18.0, 2001)
        density = np.exp(-0.5 * (x / 2.0) ** 2) / (2.0 * math.sqrt(2.0 * math.pi))
        sd = math.sqrt(0.75)
        inner = np.array([_normal_cdf((5.25 - v / 4.0) / sd) - _normal_cdf((3.25 - v / 4.0) / sd) for v in x])
        f = density * inner
        probability = (x[1] - x[0]) / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())
        expected = n * probability
        assert 200.0 <= expected <= 800.0
        assert abs(rows.shape[0] - expected) <= self.SE * math.sqrt(expected)
        assert (np.abs(rows - center) <= half).all()

    def test_offset_is_taken_before_dividing(self):
        # every window [1e308 - 0.1, 1e308 + 0.1] is a single float, but its
        # mass is that of +-0.1 standard deviations: each coordinate keeps
        # erf(0.1 / sqrt 2) of the rows
        params = GaussianParams(np.full(2, 1e308), np.eye(2))
        n = 100_000
        rows = params.sample_within(np.random.default_rng(4), n, [0, 1], np.full(2, 1e308), 0.1)
        p = math.erf(0.1 / math.sqrt(2.0)) ** 2
        assert abs(rows.shape[0] - n * p) <= self.SE * math.sqrt(n * p * (1.0 - p))
        assert (rows == 1e308).all()

    def test_window_rounding_to_zero_width_yields_no_rows(self):
        # sigma_0 = 1e150 and half = 1e-200: both standardized bounds round to 0
        params = GaussianParams(np.zeros(2), np.array([[1e300, 0.0], [0.0, 1.0]]))
        rows = params.sample_within(np.random.default_rng(6), 1000, [0, 1], np.zeros(2), 1e-200)
        assert rows.shape == (0, 2)

    def test_zero_variance_falls_back_to_the_plain_draw(self):
        # coordinate 0 is constant at 2: a window holding it keeps all n rows,
        # drawn plainly; one that misses it keeps none
        params = GaussianParams(np.array([2.0, 0.0]), np.array([[0.0, 0.0], [0.0, 1.0]]))
        n = 10_000
        rows = params.sample_within(np.random.default_rng(5), n, [0], [2.05], 0.1)
        assert rows.shape == (n, 2) and (rows[:, 0] == 2.0).all()
        assert abs(rows[:, 1].mean()) <= self.SE / math.sqrt(n)
        assert abs(rows[:, 1].var() - 1.0) <= self.SE * math.sqrt(2.0 / n)
        assert params.sample_within(np.random.default_rng(5), n, [0], [7.0], 0.1).shape == (0, 2)

    @pytest.mark.parametrize("constant_center, kept", [(2.1, True), (7.0, False)])
    def test_constant_later_coordinate_keeps_all_rows_or_none(self, constant_center, kept):
        # coordinate 1 is constant at 2; coordinate 0 thins the count
        params = GaussianParams(np.array([0.0, 2.0]), np.array([[1.0, 0.0], [0.0, 0.0]]))
        n = 100_000
        rows = params.sample_within(np.random.default_rng(7), n, [0, 1], [0.5, constant_center], 0.3)
        if not kept:
            assert rows.shape == (0, 2)
            return
        p = _normal_cdf(0.8) - _normal_cdf(0.2)
        assert abs(rows.shape[0] - n * p) <= self.SE * math.sqrt(n * p * (1.0 - p))
        assert (rows[:, 1] == 2.0).all() and (np.abs(rows[:, 0] - 0.5) <= 0.3).all()

    def test_no_observed_coordinate_is_the_plain_draw(self):
        params = GaussianParams(np.array([1.0, -1.0]), np.array([[2.0, 0.5], [0.5, 1.0]]))
        got = params.sample_within(np.random.default_rng(8), 500, [], [], 0.1)
        assert np.array_equal(got, params.sample(np.random.default_rng(8), 500))


class TestAffineModel:
    def test_batch_and_single_prediction(self):
        model = AffineModel(1.0, np.array([2.0]))
        assert model.predict(np.array([3.0])) == 7.0
        assert np.allclose(model.predict(np.array([[3.0], [0.0]])), [7.0, 1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            AffineModel(np.nan, np.array([1.0]))
