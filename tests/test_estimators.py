import dataclasses
import inspect
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patternlab import (
    BayesPredictor,
    EstimatorSpec,
    MaskedDataset,
    MissingPattern,
    PbpRegression,
    ConstantImputeRegression,
    IterativeImputeRegression,
    build_pattern_index,
    default_ball_radius,
    excess_risk,
    fit_constant_impute,
    fit_iterative_impute,
    fit_pbp,
    least_squares,
    preset,
    theory_config,
)
from patternlab import estimators
from patternlab.estimators import _impute_features
from patternlab.patterns import AffineModel, group_rows_by_key, pack_mask_rows
from references import predict_one


def linear_dataset(rng, n, d, beta0, beta, noise_sd, miss_rate):
    values = rng.normal(size=(n, d))
    mask = rng.random((n, d)) < miss_rate
    responses = beta0 + values @ beta + noise_sd * rng.standard_normal(n)
    return MaskedDataset(values, mask, responses), values


class TestDefaultBallRadius:
    def test_log_one_vanishes(self):
        assert default_ball_radius(1.0, 1) == 1.0

    def test_formula_values(self):
        e = np.exp(1.0)
        assert default_ball_radius(1.0, e) == pytest.approx(2.0, abs=1e-12)
        assert default_ball_radius(4.0, e) == pytest.approx(6.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            default_ball_radius(0.0, 10)
        with pytest.raises(ValueError):
            default_ball_radius(1.0, 0)


class TestEstimatorConfig:
    """The pbp fields of an ``EstimatorSpec`` and the spec ``theory_config`` derives."""

    def test_tau_range(self):
        with pytest.raises(ValueError):
            EstimatorSpec("pbp", 1.5)
        with pytest.raises(ValueError):
            EstimatorSpec("pbp", -0.01)

    def test_fields_are_what_a_fit_reads(self):
        # one field per knob: the kind, pbp's three, and the iterative fit's sweeps
        names = ["kind", "tau_rule", "rounds", "clip_level", "ball_radius"]
        assert [f.name for f in dataclasses.fields(EstimatorSpec)] == names

    def test_theory_config(self):
        rng = np.random.default_rng(0)
        data, _ = linear_dataset(rng, 200, 3, 0.0, np.ones(3), 0.1, 0.2)
        config = theory_config(data)
        assert config.tau_rule == pytest.approx(3 / 200)
        observed = ~data.mask
        gamma = max(np.mean(data.values[observed[:, j], j] ** 2) for j in range(3))
        assert config.ball_radius == default_ball_radius(gamma, 200)
        assert config.clip_level is None
        with_clip = theory_config(data, lipschitz_bound=3.0)
        assert with_clip.clip_level == pytest.approx((with_clip.ball_radius + 1.0) * 4.0)

    def test_theory_config_on_one_row(self):
        # at n = 1 the radius is exactly sqrt(gamma): log 1 = 0
        data = MaskedDataset([[2.0, 0.0]], [[0, 1]], [1.0])
        config = theory_config(data, lipschitz_bound=1.0)
        assert config.ball_radius == default_ball_radius(4.0, 1) == 2.0
        assert config.tau_rule == 1.0 and config.clip_level == 6.0
        assert len(fit_pbp(data, config).models) == 0

    @pytest.mark.parametrize("bound", [0.0, -1.0, float("nan")])
    def test_theory_config_rejects_a_nonpositive_slope_bound(self, bound):
        data, _ = linear_dataset(np.random.default_rng(0), 50, 2, 0.0, np.ones(2), 0.1, 0.2)
        with pytest.raises(ValueError, match="lipschitz_bound must be positive"):
            theory_config(data, lipschitz_bound=bound)


class TestFitPbp:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(5)
        d = 4
        beta0, beta = 0.7, np.array([1.0, -2.0, 0.5, 3.0])
        data, values = linear_dataset(rng, d + 5, d, beta0, beta, 0.0, 0.0)
        fit = fit_pbp(data, EstimatorSpec("pbp", 0.0))
        model = fit.models[MissingPattern(0, d)]
        assert model.intercept == pytest.approx(beta0, abs=1e-8)
        assert np.allclose(model.coefficients, beta, atol=1e-8)

    def test_threshold_excludes_singleton(self):
        values = np.zeros((4, 2))
        mask = [[0, 0], [0, 0], [0, 0], [0, 1]]
        data = MaskedDataset(values, mask, np.ones(4))
        fit = fit_pbp(data, EstimatorSpec("pbp", 2 / 4))
        rare = MissingPattern.from_string("01")
        assert rare not in fit.models
        assert predict_one(fit, np.array([0.0]), rare) == 0.0
        # strict inequality also drops a pattern sitting exactly at tau
        tied = fit_pbp(data, EstimatorSpec("pbp", 3 / 4))
        assert MissingPattern.from_string("00") not in tied.models

    def test_fully_missing_pattern_mean_model(self):
        values = np.zeros((5, 2))
        mask = np.ones((5, 2))
        responses = np.array([1.0, 2.0, 3.0, 4.0, 10.0])
        data = MaskedDataset(values, mask, responses)
        fit = fit_pbp(data, EstimatorSpec("pbp", 0.0))
        model = fit.models[MissingPattern(0b11, 2)]
        assert model.coefficients.size == 0
        assert model.intercept == pytest.approx(responses.mean())

    def test_ball_filter_and_zero_fallback(self):
        values = np.array([[10.0], [12.0], [0.5]])
        mask = np.zeros((3, 1))
        data = MaskedDataset(values, mask, np.array([5.0, 6.0, 1.0]))
        fit = fit_pbp(data, EstimatorSpec("pbp", 0.0, ball_radius=1.0))
        model = fit.models[MissingPattern(0, 1)]
        # only the third row survives the filter; exact interpolation of it
        assert model.predict(np.array([0.5])) == pytest.approx(1.0)
        empty = fit_pbp(data, EstimatorSpec("pbp", 0.0, ball_radius=0.1))
        zero_model = empty.models[MissingPattern(0, 1)]
        assert zero_model.intercept == 0.0
        assert np.all(zero_model.coefficients == 0.0)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(9)
        data, _ = linear_dataset(rng, 300, 4, 0.0, np.ones(4), 0.5, 0.3)
        low = fit_pbp(data, EstimatorSpec("pbp", 0.01))
        high = fit_pbp(data, EstimatorSpec("pbp", 0.08))
        assert set(high.models) <= set(low.models)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(13)
        data, values = linear_dataset(rng, 150, 3, 1.0, np.ones(3), 0.2, 0.25)
        perm = rng.permutation(150)
        shuffled = MaskedDataset(
            np.where(data.mask, 0.0, data.values)[perm], data.mask[perm], data.responses[perm]
        )
        a = fit_pbp(data, EstimatorSpec("pbp", 0.02))
        b = fit_pbp(shuffled, EstimatorSpec("pbp", 0.02))
        assert set(a.models) == set(b.models)
        for pattern, model in a.models.items():
            assert model.intercept == pytest.approx(b.models[pattern].intercept, abs=1e-10)
            assert np.allclose(model.coefficients, b.models[pattern].coefficients, atol=1e-10)


class TestPredictPbp:
    def _fixed(self, clip_level=None):
        from patternlab import PatternBank

        return PbpRegression(
            models=PatternBank.from_json(2, [{"mask": "01", "intercept": 1.0, "coef": [2.0]}]),
            config=EstimatorSpec("pbp", 0.0, clip_level=clip_level),
        )

    def test_unseen_pattern_predicts_zero(self):
        fit = self._fixed()
        assert predict_one(fit, np.array([1.0, 2.0]), MissingPattern.from_string("00")) == 0.0

    def test_affine_evaluation(self):
        fit = self._fixed()
        assert predict_one(fit, np.array([3.0]), MissingPattern.from_string("01")) == 7.0

    def test_clip_saturation(self):
        fit = self._fixed(clip_level=5.0)
        assert predict_one(fit, np.array([3.0]), MissingPattern.from_string("01")) == 5.0

    def test_prediction_magnitude_bounded_by_clip(self):
        rng = np.random.default_rng(3)
        data, _ = linear_dataset(rng, 200, 3, 0.0, np.array([10.0, -10.0, 5.0]), 0.1, 0.2)
        fit = fit_pbp(data, EstimatorSpec("pbp", 0.0, clip_level=2.0))
        probe_values = rng.normal(size=(500, 3)) * 10
        probe_mask = rng.random((500, 3)) < 0.3
        preds = fit.predict_masked(probe_values, probe_mask)
        assert np.abs(preds).max() <= 2.0

    def test_dimension_mismatch(self):
        fit = self._fixed()
        with pytest.raises(ValueError):
            predict_one(fit, np.array([1.0, 2.0]), MissingPattern.from_string("01"))


class TestPbpSerialization:
    def test_schema_and_round_trip(self):
        rng = np.random.default_rng(21)
        data, _ = linear_dataset(rng, 120, 3, 0.5, np.ones(3), 0.3, 0.25)
        fit = fit_pbp(data, EstimatorSpec("pbp", 0.02, clip_level=9.0))
        payload = fit.to_json()
        assert set(payload) == {"tau", "clip", "ball_radius", "d", "models"}
        assert payload["tau"] == 0.02 and payload["clip"] == 9.0 and payload["ball_radius"] is None
        for entry in payload["models"]:
            assert set(entry) == {"mask", "intercept", "coef"}
            assert len(entry["coef"]) == MissingPattern.from_string(entry["mask"]).n_observed
        again = PbpRegression.from_json(json.loads(json.dumps(payload)))
        probe_values = rng.normal(size=(50, 3))
        probe_mask = rng.random((50, 3)) < 0.3
        assert np.allclose(
            fit.predict_masked(probe_values, probe_mask),
            again.predict_masked(probe_values, probe_mask),
        )


def _pbp_case(d, n, seed, tau, clip_level, never_observed):
    """A fit on n random rows (column 0 masked throughout when
    ``never_observed``) and 40 probe rows whose masks cover unseen patterns."""
    rng = np.random.default_rng(seed)
    data, _ = linear_dataset(rng, n, d, 0.3, rng.normal(size=d), 0.5, 0.4)
    if never_observed:
        mask = data.mask.copy()
        mask[:, 0] = True
        data = MaskedDataset(np.where(mask, 0.0, data.values), mask, data.responses)
    fit = fit_pbp(data, EstimatorSpec("pbp", tau, clip_level=clip_level))
    return fit, rng.normal(size=(40, d)) * 3.0, rng.random((40, d)) < 0.5


pbp_cases = st.tuples(
    st.integers(1, 5),
    st.integers(1, 60),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.05, 1.0]),
    st.sampled_from([None, 0.5, 3.0]),
    st.booleans(),
)


class TestPbpProperties:
    @given(pbp_cases)
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_single_rows(self, case):
        fit, values, mask = _pbp_case(*case)
        batch = fit.predict_masked(values, mask)
        keys = pack_mask_rows(mask)
        for i in range(values.shape[0]):
            m = MissingPattern(int(keys[i]), mask.shape[1])
            x_obs = values[i][~mask[i]]
            assert batch[i] == predict_one(fit, x_obs, m)
            # reference: the pattern's own affine model, clipped
            model = fit.models.get(m)
            expected = 0.0 if model is None else model.predict(x_obs)
            scale = 1.0 if model is None else 1.0 + abs(model.intercept) + np.abs(x_obs) @ np.abs(model.coefficients)
            if fit.config.clip_level is not None:
                expected = float(np.clip(expected, -fit.config.clip_level, fit.config.clip_level))
            assert abs(batch[i] - expected) <= 1e-12 * scale

    @given(pbp_cases)
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip_is_identity(self, case):
        fit, values, mask = _pbp_case(*case)
        payload = fit.to_json()
        again = PbpRegression.from_json(json.loads(json.dumps(payload)))
        assert again.to_json() == payload
        assert again.dimension == fit.dimension
        assert np.array_equal(again.predict_masked(values, mask), fit.predict_masked(values, mask))


def per_pattern_fit(data, config):
    """{pattern: (intercept, coefficients)} of the kept patterns, one
    ``least_squares`` call per pattern on its rows in ascending order."""
    out = {}
    for key, rows in group_rows_by_key(data.mask_keys()):
        if not rows.size / data.n > config.tau_rule:
            continue
        pattern = MissingPattern(key, data.d)
        obs = np.array(pattern.observed_indices, dtype=int)
        block = data.values[np.ix_(rows, obs)]
        if config.ball_radius is not None and obs.size:
            inside = np.abs(block).max(axis=1) <= config.ball_radius
            rows, block = rows[inside], block[inside]
        if rows.size:
            model = least_squares(block, data.responses[rows])
            out[pattern] = (model.intercept, model.coefficients)
        else:
            out[pattern] = (0.0, np.zeros(obs.size))
    return out


def assert_fit_matches_per_pattern(data, config):
    fit = fit_pbp(data, config)
    expected = per_pattern_fit(data, config)
    assert set(fit.models) == set(expected)
    for pattern, (intercept, coefficients) in expected.items():
        model = fit.models[pattern]
        assert np.array_equal(model.intercept, intercept)
        assert np.array_equal(model.coefficients, coefficients)
    assert fit.train_frequencies == build_pattern_index(data).frequencies
    return fit


class TestStackedFit:
    @given(
        st.integers(1, 6),
        st.integers(1, 70),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["independent", "ones", "integer_loadings"]),
        st.integers(0, 3),
        st.sampled_from([0.0, 0.02, 0.1, 1.0]),
        st.sampled_from([None, 0.8, 2.5]),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_per_pattern_least_squares_bit_for_bit(self, d, n, seed, columns, all_missing, tau, radius):
        rng = np.random.default_rng(seed)
        if columns == "ones":  # every column equal, as in the rank-one gpmm_c component
            values = np.repeat(rng.normal(size=(n, 1)), d, axis=1)
        elif columns == "integer_loadings":
            values = rng.normal(size=(n, 2)) @ rng.integers(-1, 2, size=(2, d)).astype(float)
        else:
            values = rng.normal(size=(n, d))
        values *= rng.choice([1.0, 5.0], size=(n, 1))  # rows a ball filter drops
        mask = rng.random((n, d)) < rng.uniform(0.1, 0.6)
        mask[: min(all_missing, n)] = True
        responses = 0.3 + values @ rng.normal(size=d) + rng.normal(size=n)
        data = MaskedDataset(values, mask, responses)
        assert_fit_matches_per_pattern(data, EstimatorSpec("pbp", tau, ball_radius=radius))

    def test_edge_patterns(self):
        # all-missing (2 rows), a one-row pattern, two patterns of 3 rows
        # with different observed counts, two equal columns, and a pattern
        # whose rows all leave the ball
        masks = ["111", "111", "010", "000", "000", "000", "100", "100", "100", "001", "001"]
        mask = np.array([[c == "1" for c in row] for row in masks])
        values = np.array(
            [[0, 0, 0], [0, 0, 0], [0.5, 0, 0.2], [1, 1, 0.3], [2, 2, -0.1], [-1, -1, 0.4],
             [0, 0.1, 0.2], [0, 0.3, -0.5], [0, -0.2, 0.6], [9.0, 8.0, 0], [-7.0, 9.0, 0]]
        )
        data = MaskedDataset(values, mask, np.arange(11.0))
        fit = assert_fit_matches_per_pattern(data, EstimatorSpec("pbp", 0.0, ball_radius=2.5))
        assert len(fit.models) == 5
        empty = fit.models[MissingPattern.from_string("001")]
        assert empty.intercept == 0.0 and not empty.coefficients.any()
        assert fit.models[MissingPattern.from_string("111")].intercept == pytest.approx(0.5)
        assert_fit_matches_per_pattern(data, EstimatorSpec("pbp", 1 / 11))

    @pytest.mark.parametrize(
        "fit", [lambda data: fit_pbp(data, EstimatorSpec("pbp", 0.0)), fit_constant_impute, fit_iterative_impute],
        ids=["pbp", "constant_impute", "iterative_impute"],
    )
    def test_empty_dataset_rejected(self, fit):
        """No fit meets an empty batch: the dataset it would read refuses to exist."""
        with pytest.raises(ValueError, match="dataset is empty"):
            fit(MaskedDataset(np.zeros((0, 2)), np.zeros((0, 2), dtype=bool), np.zeros(0)))


@pytest.mark.parametrize(
    "predictor",
    [
        lambda data: fit_pbp(data, EstimatorSpec("pbp", 0.0)),
        fit_constant_impute,
        fit_iterative_impute,
        lambda data: BayesPredictor(preset("mcar_a")),
    ],
    ids=["pbp", "constant_impute", "iterative_impute", "bayes"],
)
def test_predict_rejects_a_mask_entry_of_two(predictor):
    """Every batch predictor reads its mask through ``masked_batch``: a 2 is not read as "missing"."""
    data, values = linear_dataset(np.random.default_rng(5), 40, 8, 0.0, np.ones(8), 0.1, 0.2)
    mask = np.zeros((3, 8), dtype=int)
    mask[1, 4] = 2
    with pytest.raises(ValueError, match="mask entries must be 0/1"):
        predictor(data).predict_masked(values[:3], mask)


def _baseline_data(d, n, seed, never_observed):
    """n random rows (column 0 masked throughout when ``never_observed``),
    30 probe rows and their probe mask."""
    rng = np.random.default_rng(seed)
    data, _ = linear_dataset(rng, n, d, 0.3, rng.normal(size=d), 0.5, 0.3)
    if never_observed:
        mask = data.mask.copy()
        mask[:, 0] = True
        data = MaskedDataset(np.where(mask, 0.0, data.values), mask, data.responses)
    return data, rng.normal(size=(30, d)) * 2.0, rng.random((30, d)) < 0.4


def _baseline_case(kind, d, n, seed, never_observed):
    """A fitted imputation baseline on ``_baseline_data`` and its probes."""
    data, values, mask = _baseline_data(d, n, seed, never_observed)
    fit = fit_constant_impute(data) if kind == "constant" else fit_iterative_impute(data, rounds=3)
    return fit, values, mask


baseline_cases = st.tuples(
    st.sampled_from(["constant", "iterative"]),
    st.integers(1, 5),
    st.integers(2, 60),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)


class TestImputationBaselineProperties:
    @given(baseline_cases)
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_single_rows(self, case):
        fit, values, mask = _baseline_case(*case)
        batch = fit.predict_masked(values, mask)
        # the rounding scale of the final regression, whose coefficients
        # reach 1e6 on nearly collinear imputed columns
        filled = np.where(mask, 0.0, values)
        features = fit.complete(filled, mask) if case[0] == "iterative" else np.hstack([filled, mask])
        scale = 1.0 + abs(fit.regression.intercept) + np.abs(features) @ np.abs(fit.regression.coefficients)
        keys = pack_mask_rows(mask)
        for i in range(values.shape[0]):
            single = predict_one(fit, values[i][~mask[i]], MissingPattern(int(keys[i]), mask.shape[1]))
            assert abs(batch[i] - single) <= 1e-12 * scale[i]

    @given(baseline_cases)
    @settings(max_examples=40, deadline=None)
    def test_json_round_trip_is_identity(self, case):
        fit, values, mask = _baseline_case(*case)
        payload = fit.to_json()
        again = type(fit).from_json(json.loads(json.dumps(payload)))
        assert again.to_json() == payload
        assert np.array_equal(again.predict_masked(values, mask), fit.predict_masked(values, mask))


class TestConstantImpute:
    def test_fully_observed_matches_plain_regression(self):
        rng = np.random.default_rng(2)
        data, values = linear_dataset(rng, 80, 3, 1.0, np.array([1.0, 2.0, 3.0]), 0.4, 0.0)
        fit = fit_constant_impute(data)
        plain = least_squares(values, data.responses)
        assert np.allclose(
            fit.predict_masked(values, np.zeros_like(values, dtype=bool)),
            plain.predict(values),
            atol=1e-10,
        )

    def test_mask_dependent_target_is_expressible(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=40)
        mask = (rng.random(40) < 0.5)[:, None]
        y = np.where(mask[:, 0], 5.0, x)
        data = MaskedDataset(x[:, None], mask, y)
        fit = fit_constant_impute(data)
        preds = fit.predict_masked(np.where(mask, 0.0, x[:, None]), mask)
        assert np.allclose(preds, y, atol=1e-8)

    def test_predict_one_matches_batch(self):
        rng = np.random.default_rng(6)
        data, _ = linear_dataset(rng, 100, 3, 0.0, np.ones(3), 0.2, 0.3)
        fit = fit_constant_impute(data)
        m = MissingPattern.from_string("010")
        single = predict_one(fit, np.array([1.5, -0.5]), m)
        batch_values = np.array([[1.5, 0.0, -0.5]])
        batch_mask = np.array([[False, True, False]])
        assert single == pytest.approx(fit.predict_masked(batch_values, batch_mask)[0])

    def test_json_round_trip(self):
        rng = np.random.default_rng(8)
        data, _ = linear_dataset(rng, 60, 2, 0.0, np.ones(2), 0.2, 0.2)
        fit = fit_constant_impute(data)
        again = ConstantImputeRegression.from_json(fit.to_json())
        probe = rng.normal(size=(10, 2))
        mask = rng.random((10, 2)) < 0.5
        assert np.allclose(fit.predict_masked(probe, mask), again.predict_masked(probe, mask))


class TestConstantImputeDesign:
    """The fit on its one-buffer design equals ``least_squares`` on the
    (n, 2d) features, bit for bit."""

    @staticmethod
    def assert_same_regression(data):
        fit = fit_constant_impute(data).regression
        expected = least_squares(_impute_features(data.values, data.mask), data.responses)
        assert fit.intercept == expected.intercept
        assert np.array_equal(fit.coefficients, expected.coefficients)

    @pytest.mark.parametrize("name", ["mcar_a", "mar_b", "gpmm_c"])
    @pytest.mark.parametrize("n", [100, 1000])
    def test_presets(self, name, n):
        self.assert_same_regression(preset(name).generate(n, np.random.default_rng(n), with_bayes=False).dataset)

    def test_fortran_ordered_input(self):
        sample = preset("mcar_a").generate(300, np.random.default_rng(4), with_bayes=False)
        mask = np.asfortranarray(sample.dataset.mask)
        self.assert_same_regression(MaskedDataset(np.asfortranarray(sample.full_values), mask, sample.dataset.responses))

    @given(baseline_cases.filter(lambda case: case[0] == "constant"))
    @settings(max_examples=40, deadline=None)
    def test_baseline_cases(self, case):
        self.assert_same_regression(_baseline_data(*case[1:])[0])


class TestIterativeImpute:
    def test_no_missing_equals_plain_regression(self):
        rng = np.random.default_rng(10)
        data, values = linear_dataset(rng, 90, 3, 0.3, np.array([1.0, -1.0, 2.0]), 0.3, 0.0)
        fit = fit_iterative_impute(data, rounds=2)
        plain = least_squares(values, data.responses)
        assert np.allclose(
            fit.predict_masked(values, np.zeros_like(values, dtype=bool)),
            plain.predict(values),
            atol=1e-8,
        )

    def test_collinear_column_recovered_in_one_round(self):
        rng = np.random.default_rng(3)
        x1 = rng.normal(size=60)
        values = np.column_stack([x1, 2.0 * x1])
        mask = np.zeros_like(values, dtype=bool)
        mask[::4, 1] = True
        data = MaskedDataset(values, mask, values.sum(axis=1))
        fit = fit_iterative_impute(data, rounds=1)
        completed = fit.complete(np.where(mask, 0.0, values), mask)
        assert np.abs(completed[::4, 1] - 2.0 * x1[::4]).max() <= 1e-6

    def test_sweep_changes_stabilize(self):
        scenario = preset("mcar_a")
        sample = scenario.generate(2000, np.random.default_rng(77))
        fit = fit_iterative_impute(sample.dataset, rounds=10, tol=0.0)
        deltas = fit.round_deltas
        assert len(deltas) == 10
        assert deltas[-1] <= deltas[1] + 1e-12

    def test_early_stop_on_convergence(self):
        scenario = preset("mcar_a")
        sample = scenario.generate(2000, np.random.default_rng(77))
        fit = fit_iterative_impute(sample.dataset, rounds=10)
        assert 1 <= fit.rounds < 10
        assert len(fit.round_deltas) == fit.rounds

    def test_fully_missing_column_imputes_zero(self):
        rng = np.random.default_rng(12)
        values = rng.normal(size=(50, 2))
        mask = np.zeros_like(values, dtype=bool)
        mask[:, 1] = True
        data = MaskedDataset(values, mask, values[:, 0])
        fit = fit_iterative_impute(data, rounds=2)
        assert fit.column_models[1] is None
        completed = fit.complete(np.where(mask, 0.0, values), mask)
        assert np.all(completed[:, 1] == 0.0)

    def test_json_round_trip(self):
        rng = np.random.default_rng(14)
        data, _ = linear_dataset(rng, 80, 3, 0.0, np.ones(3), 0.2, 0.25)
        fit = fit_iterative_impute(data, rounds=3)
        again = IterativeImputeRegression.from_json(json.loads(json.dumps(fit.to_json())))
        probe = rng.normal(size=(20, 3))
        mask = rng.random((20, 3)) < 0.4
        assert np.allclose(fit.predict_masked(probe, mask), again.predict_masked(probe, mask))

    def test_rounds_validation(self):
        rng = np.random.default_rng(1)
        data, _ = linear_dataset(rng, 20, 2, 0.0, np.ones(2), 0.1, 0.1)
        with pytest.raises(ValueError):
            fit_iterative_impute(data, rounds=0)


def reference_column_model(features, targets, damping):
    """The evidence-tuned column model as first written: a fresh residual
    array each iteration."""
    n, k = features.shape
    x_mean = features.mean(axis=0) if n else np.zeros(k)
    y_mean = float(targets.mean()) if n else 0.0
    centered = features - x_mean
    residual_y = targets - y_mean
    gram = centered.T @ centered
    eigvals, eigvecs = np.linalg.eigh(gram)
    eigvals = np.clip(eigvals, 0.0, None)
    projected = eigvecs.T @ (centered.T @ residual_y)
    alpha = 1.0 / (float(residual_y @ residual_y) / max(n, 1) + 1e-12)
    lam, hyper, coef = 1.0, 1e-6, np.zeros(k)
    for _ in range(300):
        shrink = eigvals + lam / alpha
        new_coef = eigvecs @ (projected / np.where(shrink > 0.0, shrink, 1.0))
        dof = float((eigvals / shrink).sum()) if k else 0.0
        sse = float(np.sum((residual_y - centered @ new_coef) ** 2))
        lam = (dof + 2.0 * hyper) / (float(new_coef @ new_coef) + 2.0 * hyper)
        alpha = (n - dof + 2.0 * hyper) / (sse + 2.0 * hyper)
        done = float(np.abs(new_coef - coef).sum()) < 1e-3
        coef = new_coef
        if done:
            break
    scale = float(np.trace(gram)) / k if k else 1.0
    ridge = max(lam / alpha, damping * scale, 1e-300)
    solution = np.linalg.solve(gram + ridge * np.eye(k), centered.T @ residual_y)
    return AffineModel(y_mean - float(x_mean @ solution), solution)


def reference_complete(fit, values, mask):
    """Chained-equations completion as first written: rows and columns
    re-indexed with np.ix_ for every column of every round."""
    completed = np.where(mask, fit.column_means, values)
    for _ in range(fit.rounds):
        for j in range(fit.dimension):
            model = fit.column_models[j]
            rows = np.flatnonzero(mask[:, j])
            if model is None or rows.size == 0:
                continue
            others = np.delete(np.arange(fit.dimension), j)
            completed[rows, j] = model.predict(completed[np.ix_(rows, others)])
    return completed


def reference_fit(data, rounds=10, damping=1e-14, tol=1e-3):
    """The chained-equations fit as first written: full-matrix copies and
    differences per round, and np.ix_ gathers per column per round."""
    observed = ~data.mask
    means = np.array(
        [data.values[observed[:, j], j].mean() if observed[:, j].any() else 0.0 for j in range(data.d)]
    )
    completed = np.where(data.mask, means, data.values)
    column_models = [None] * data.d
    deltas = []
    value_scale = float(np.abs(completed[observed]).max()) if observed.any() else 0.0
    for _ in range(rounds):
        before = completed.copy()
        for j in range(data.d):
            rows_obs = np.flatnonzero(observed[:, j])
            if rows_obs.size == 0:
                continue
            others = np.delete(np.arange(data.d), j)
            model = reference_column_model(completed[np.ix_(rows_obs, others)], completed[rows_obs, j], damping)
            column_models[j] = model
            rows_mis = np.flatnonzero(data.mask[:, j])
            if rows_mis.size:
                completed[rows_mis, j] = model.predict(completed[np.ix_(rows_mis, others)])
        if not data.mask.any():
            deltas.append(0.0)
            break
        changes = np.abs(completed - before)[data.mask]
        deltas.append(float(changes.mean()))
        if changes.max() < tol * value_scale:
            break
    fitted = IterativeImputeRegression(
        data.d, means, tuple(column_models), len(deltas), AffineModel(0.0, np.zeros(data.d)), tuple(deltas)
    )
    replayed = reference_complete(fitted, np.where(data.mask, 0.0, data.values), data.mask)
    return IterativeImputeRegression(
        data.d, means, tuple(column_models), len(deltas), least_squares(replayed, data.responses), tuple(deltas)
    )


def assert_same_fit(data, values, mask, **kwargs):
    """The fit, its sweep changes and its predictions on (values, mask)
    equal the reference's bit for bit."""
    fit, expected = fit_iterative_impute(data, **kwargs), reference_fit(data, **kwargs)
    assert fit.to_json() == expected.to_json()
    assert fit.round_deltas == expected.round_deltas
    filled = np.where(mask, 0.0, values)
    reference = expected.regression.predict(reference_complete(expected, filled, mask))
    assert np.array_equal(fit.predict_masked(values, mask), reference)


class TestIterativeImputeMatchesReference:
    """The hoisted-plan fit and completion give the first implementation's
    output, bit for bit."""

    @pytest.mark.parametrize("name", ["mcar_a", "mar_b", "gpmm_c"])
    @pytest.mark.parametrize("n", [100, 1000])
    def test_presets(self, name, n):
        scenario = preset(name)
        train = scenario.generate(n, np.random.default_rng(n + 1), with_bayes=False)
        test = scenario.generate(2000, np.random.default_rng(n + 2), with_bayes=False)
        assert_same_fit(train.dataset, test.dataset.values, test.dataset.mask)

    def test_all_sweeps_and_fully_observed(self):
        scenario = preset("mcar_a")
        sample = scenario.generate(300, np.random.default_rng(5), with_bayes=False)
        data = sample.dataset
        assert_same_fit(data, data.values, data.mask, rounds=4, tol=0.0)
        observed = MaskedDataset(sample.full_values, np.zeros_like(data.mask), data.responses)
        assert_same_fit(observed, data.values, data.mask, rounds=3)

    def test_fortran_ordered_input(self):
        sample = preset("mar_b").generate(400, np.random.default_rng(9), with_bayes=False)
        data = sample.dataset
        fortran = MaskedDataset(np.asfortranarray(sample.full_values), np.asfortranarray(data.mask), data.responses)
        assert_same_fit(fortran, np.asfortranarray(data.values), np.asfortranarray(data.mask))

    @given(baseline_cases.filter(lambda case: case[0] == "iterative"))
    @settings(max_examples=40, deadline=None)
    def test_baseline_cases(self, case):
        data, values, mask = _baseline_data(*case[1:])
        assert_same_fit(data, values, mask, rounds=3)

    @staticmethod
    def _with_observed_columns(data, columns, full=None):
        """``data`` with ``columns`` observed in every row; their masked
        cells are filled from ``full``, or with standard normals."""
        fill = np.random.default_rng(len(columns)).normal(size=data.values.shape) if full is None else full
        mask = data.mask.copy()
        mask[:, columns] = False
        return MaskedDataset(np.where(data.mask, fill, data.values), mask, data.responses)

    @pytest.mark.parametrize("columns", [[0, 1], [3, 4], [6, 7], [0, 4, 7]], ids=["first", "middle", "last", "spread"])
    @pytest.mark.parametrize(
        "kwargs", [{"rounds": 4, "tol": 0.0}, {}, {"rounds": 1}], ids=["all_sweeps", "early_stop", "one_round"]
    )
    def test_fully_observed_column_positions(self, columns, kwargs):
        """Fully observed columns, first, in the middle, last or spread out,
        get the model the last sweep would have fitted them."""
        sample = preset("mcar_a").generate(400, np.random.default_rng(17), with_bayes=False)
        data = self._with_observed_columns(sample.dataset, columns, sample.full_values)
        if not kwargs:
            assert 1 < fit_iterative_impute(data).rounds < 10
        assert_same_fit(data, sample.full_values, sample.dataset.mask, **kwargs)

    @given(
        st.integers(2, 6),
        st.integers(3, 60),
        st.integers(0, 2**32 - 1),
        st.sets(st.integers(0, 5)),
        st.integers(1, 4),
        st.sampled_from([0.0, 0.5]),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_fully_observed_columns(self, d, n, seed, columns, rounds, tol, never_observed):
        # the presets only put fully observed columns before (mar_b) or
        # after (gpmm_c) the imputed ones; here they sit anywhere, also
        # beside a never observed column 0
        data, values, mask = _baseline_data(d, n, seed, never_observed)
        data = self._with_observed_columns(data, sorted(j for j in columns if j < d))
        assert_same_fit(data, values, mask, rounds=rounds, tol=tol)

    @pytest.mark.parametrize("rounds", [1, 3, 10])
    def test_column_model_calls_on_mar_b(self, monkeypatch, rounds):
        """On mar_b, block 1 is never masked: its 4 columns are fitted once
        per fit, block 2's 4 columns once per sweep."""
        calls = []
        fit_column = estimators._damped_column_model

        def counted(features, targets):
            calls.append(features.shape)
            return fit_column(features, targets)

        monkeypatch.setattr(estimators, "_damped_column_model", counted)
        data = preset("mar_b").generate(500, np.random.default_rng(3), with_bayes=False).dataset
        assert fit_iterative_impute(data, rounds=rounds, tol=0.0).rounds == rounds
        assert len(calls) == 4 * rounds + 4


class TestImputeArguments:
    @pytest.mark.parametrize(
        "kwargs, argument",
        [
            ({"tol": float("nan")}, "tol"),
            ({"tol": -1.0}, "tol"),
            ({"tol": True}, "tol"),
            ({"rounds": -3}, "rounds"),
            ({"rounds": True}, "rounds"),
            ({"rounds": 2.5}, "rounds"),
            ({"rounds": 0}, "rounds"),
        ],
    )
    def test_rejected_and_named(self, kwargs, argument):
        data, _ = linear_dataset(np.random.default_rng(1), 20, 2, 0.0, np.ones(2), 0.1, 0.1)
        with pytest.raises(ValueError, match=argument):
            fit_iterative_impute(data, **kwargs)

    def test_only_rounds_and_tol_are_settable(self):
        assert list(inspect.signature(fit_iterative_impute).parameters) == ["data", "rounds", "tol"]

    def test_numpy_integer_rounds_accepted(self):
        data, _ = linear_dataset(np.random.default_rng(1), 20, 2, 0.0, np.ones(2), 0.1, 0.1)
        assert fit_iterative_impute(data, rounds=np.int64(2), tol=0.0).rounds == 2


class TestModelShapes:
    """A model read from JSON has the shapes its dimension implies, or the
    read fails naming the field."""

    @staticmethod
    def _iterative_payload():
        data, _ = linear_dataset(np.random.default_rng(3), 60, 3, 0.0, np.ones(3), 0.2, 0.25)
        return fit_iterative_impute(data, rounds=2).to_json()

    @pytest.mark.parametrize(
        "change, field",
        [
            (lambda p: p.update(column_models=p["column_models"][:2]), "column_models"),
            (lambda p: p.update(column_means=p["column_means"] + [0.0]), "column_means"),
            (lambda p: p.update(coef=p["coef"][:2]), "coef"),
            (lambda p: p["column_models"][1].update(coef=[1.0, 2.0, 3.0]), r"column_models\[1\]"),
            (lambda p: p.update(rounds=0), "rounds"),
            (lambda p: p.update(rounds=-2), "rounds"),
            (lambda p: p.update(rounds=True), "rounds"),
            (lambda p: p.update(rounds=2.5), "rounds"),
            (lambda p: p.update(d=0), "d"),
        ],
    )
    def test_iterative_impute(self, change, field):
        payload = self._iterative_payload()
        IterativeImputeRegression.from_json(payload)
        change(payload)
        with pytest.raises(ValueError, match=field):
            IterativeImputeRegression.from_json(payload)

    @pytest.mark.parametrize("size", [3, 5, 0])
    def test_constant_impute_needs_2d_coefficients(self, size):
        payload = {"kind": "constant_impute", "d": 2, "intercept": 0.0, "coef": [1.0] * size}
        with pytest.raises(ValueError, match="coef"):
            ConstantImputeRegression.from_json(payload)
        payload["coef"] = [1.0] * 4
        assert ConstantImputeRegression.from_json(payload).dimension == 2


class TestBaselineComparison:
    def test_constant_impute_trails_per_pattern_fit(self):
        scenario = preset("mcar_a")
        train = scenario.generate(10_000, np.random.default_rng(31))
        pbp = fit_pbp(train.dataset, EstimatorSpec("pbp", 0.0))
        cst = fit_constant_impute(train.dataset)
        train_preds = cst.predict_masked(train.dataset.values, train.dataset.mask)
        training_mse = float(np.mean((train_preds - train.dataset.responses) ** 2))
        assert training_mse > scenario.noise_sd**2
        rng = np.random.default_rng(32)
        pbp_risk = excess_risk(pbp, scenario, 10_000, rng)
        cst_risk = excess_risk(cst, scenario, 10_000, np.random.default_rng(32))
        assert cst_risk > pbp_risk


class TestBatchShape:
    """Every predictor checks a batch against its dimension and names the
    (n, d) shape it needs. ``predict_one`` is a batch of one, so a pattern of
    another dimension fails the same check."""

    KINDS = ["pbp", "constant_impute", "iterative_impute", "bayes"]

    @pytest.fixture(scope="class")
    def predictors(self):
        scenario = preset("mcar_a")
        train = scenario.generate(300, np.random.default_rng(4), with_bayes=False).dataset
        return {
            "pbp": fit_pbp(train, EstimatorSpec("pbp", 0.0)),
            "constant_impute": fit_constant_impute(train),
            "iterative_impute": fit_iterative_impute(train, rounds=2),
            "bayes": BayesPredictor(scenario),
        }

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "values_shape, mask_shape",
        [((5, 3), (5, 3)), ((5, 8), (4, 8)), ((1, 8), (5, 8)), ((5, 8), (5, 3)), ((8,), (8,)), ((2, 5, 8), (2, 5, 8))],
    )
    def test_predict_masked(self, predictors, kind, values_shape, mask_shape):
        with pytest.raises(ValueError, match=r"values and mask must both be \(n, 8\) matrices"):
            predictors[kind].predict_masked(np.zeros(values_shape), np.zeros(mask_shape, dtype=bool))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("mask", ["010", "0" * 9])
    def test_predict_one(self, predictors, kind, mask):
        m = MissingPattern.from_string(mask)
        with pytest.raises(ValueError, match=r"values and mask must both be \(n, 8\) matrices"):
            predict_one(predictors[kind], np.zeros(m.n_observed), m)
