import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patternlab import (
    BayesPredictor,
    GaussianParams,
    GpmmScenario,
    HomogeneousBernoulli,
    InsufficientSamplesError,
    MarBlockScenario,
    McarGaussianScenario,
    MergeModel,
    MissingPattern,
    NoClosedFormError,
    OracleEstimate,
    SelfMaskingScenario,
    bayes_oracle_mc,
    law_preset,
    paired_block_covariance,
    preset,
    scenario_from_json,
)
from patternlab import simulate, solver
from patternlab.patterns import pack_mask_rows
from patternlab.simulate import _local_linear
from references import conditional_mean_map


def small_mcar(noise_sd=0.3, miss=0.3, d=2, name="tiny"):
    return McarGaussianScenario(
        beta0=0.5,
        beta=np.arange(1.0, d + 1.0),
        noise_sd=noise_sd,
        covariates=GaussianParams(np.zeros(d), np.eye(d)),
        missingness=HomogeneousBernoulli(d, miss),
        name=name,
    )


class TestGenerate:
    @pytest.mark.parametrize(
        "make",
        [lambda: preset("mcar_a"), lambda: preset("mar_b"), lambda: preset("gpmm_c"), lambda: _self_masking_d3()],
        ids=["mcar_a", "mar_b", "gpmm_c", "self_masking"],
    )
    def test_full_values_are_frozen_and_not_shared(self, make):
        sample = make().generate(200, np.random.default_rng(7))
        assert not sample.full_values.flags.writeable
        assert sample.full_values.dtype == np.float64 and sample.full_values.flags.c_contiguous
        assert not np.shares_memory(sample.full_values, sample.dataset.values)
        with pytest.raises(ValueError):
            sample.full_values[0, 0] = 1.0

    @pytest.mark.parametrize("name", ["mcar_a", "mar_b", "gpmm_c"])
    def test_identical_seed_identical_sample(self, name):
        scenario = preset(name)
        a = scenario.generate(300, np.random.default_rng(99))
        b = scenario.generate(300, np.random.default_rng(99))
        assert np.array_equal(a.dataset.mask, b.dataset.mask)
        assert np.array_equal(a.full_values, b.full_values)
        assert np.array_equal(a.dataset.responses, b.dataset.responses)
        assert np.array_equal(a.bayes_values, b.bayes_values)

    def test_masked_cells_agree_with_full_values(self):
        sample = preset("mcar_a").generate(500, np.random.default_rng(3))
        observed = ~sample.dataset.mask
        assert np.array_equal(sample.dataset.values[observed], sample.full_values[observed])
        assert np.isnan(sample.dataset.values[sample.dataset.mask]).all()

    def test_noiseless_fully_observed(self):
        scenario = McarGaussianScenario(
            beta0=1.0,
            beta=np.array([2.0, -1.0]),
            noise_sd=0.0,
            covariates=GaussianParams(np.zeros(2), np.eye(2)),
            missingness=HomogeneousBernoulli(2, 0.0),
        )
        sample = scenario.generate(100, np.random.default_rng(0))
        assert not sample.dataset.mask.any()
        expected = 1.0 + sample.full_values @ np.array([2.0, -1.0])
        assert np.array_equal(sample.dataset.responses, expected)
        assert np.allclose(sample.bayes_values, expected)

    def test_mar_block_mask_is_sign_pattern(self):
        sample = preset("mar_b").generate(400, np.random.default_rng(5))
        block1 = sample.full_values[:, :4]
        assert not sample.dataset.mask[:, :4].any()
        assert np.array_equal(sample.dataset.mask[:, 4:], block1 > 0.0)

    def test_mixture_singular_support(self):
        scenario = preset("gpmm_c")
        sample = scenario.generate(2000, np.random.default_rng(8))
        keys = sample.dataset.mask_keys()
        m2 = MissingPattern.from_string("10110000")
        params = {p: g for _, p, g in scenario.components}[m2]
        rows = np.flatnonzero(keys == m2.bits)
        centered = sample.full_values[rows] - params.mean
        factor = params.factor
        # residual after projecting onto the factor's column span
        projected = factor @ np.linalg.pinv(factor) @ centered.T
        assert np.abs(projected.T - centered).max() <= 1e-8

    def test_self_masking_flat_limit(self):
        d = 3
        scenario = SelfMaskingScenario(
            beta0=0.0,
            beta=np.ones(d),
            noise_sd=0.1,
            covariates=GaussianParams(np.zeros(d), np.eye(d)),
            mask_center=np.zeros(d),
            mask_scale=np.full(d, 1e6),
            mask_peak_prob=np.array([0.2, 0.5, 0.8]),
        )
        sample = scenario.generate(100_000, np.random.default_rng(12))
        freq = sample.dataset.mask.mean(axis=0)
        assert np.abs(freq - np.array([0.2, 0.5, 0.8])).max() <= 0.01
        for j in range(d):
            corr = np.corrcoef(sample.full_values[:, j], sample.dataset.mask[:, j])[0, 1]
            assert abs(corr) < 0.01

    def test_self_masking_peaks_at_center(self):
        scenario = SelfMaskingScenario(
            beta0=0.0,
            beta=np.ones(1),
            noise_sd=0.0,
            covariates=GaussianParams(np.zeros(1), np.eye(1)),
            mask_center=[0.0],
            mask_scale=[0.5],
            mask_peak_prob=1.0,
        )
        sample = scenario.generate(50_000, np.random.default_rng(4))
        x = sample.full_values[:, 0]
        near = np.abs(x) < 0.1
        far = np.abs(x) > 2.0
        assert sample.dataset.mask[near, 0].mean() > 0.9
        assert sample.dataset.mask[far, 0].mean() < 0.1


class TestBayesPredict:
    def test_fully_observed_is_linear_response(self):
        scenario = small_mcar()
        x = np.array([0.7, -1.2])
        out = scenario.bayes_predict(x, MissingPattern(0, 2))
        assert out == pytest.approx(0.5 + 1.0 * 0.7 + 2.0 * (-1.2), abs=1e-12)

    def test_mixture_identity_covariance(self):
        m = MissingPattern.from_string("10")
        params = GaussianParams(np.array([3.0, -1.0]), np.eye(2))
        scenario = GpmmScenario(
            beta0=0.25,
            beta=np.array([2.0, 5.0]),
            noise_sd=0.5,
            components=[(1.0, m, params)],
        )
        out = scenario.bayes_predict(np.array([4.0]), m)
        assert out == pytest.approx(0.25 + 5.0 * 4.0 + 2.0 * 3.0, abs=1e-12)

    def test_mixture_rank_one_component_shift(self):
        scenario = preset("gpmm_c")
        m2 = MissingPattern.from_string("10110000")
        params = {p: g for _, p, g in scenario.components}[m2]
        # every coordinate moves together under the all-ones covariance; an
        # on-support probe shares one shift and each missing coordinate's
        # conditional mean is its own mean plus that shift
        shift = 0.5
        obs = np.array(m2.observed_indices)
        x_obs = params.mean[obs] + shift
        out = scenario.bayes_predict(x_obs, m2)
        mis_mean = params.mean[np.array(m2.missing_indices)] + shift
        assert out == pytest.approx(x_obs.sum() + mis_mean.sum(), abs=1e-10)

    def test_mixture_rank_one_off_support_probe_averages_shifts(self):
        scenario = preset("gpmm_c")
        m2 = MissingPattern.from_string("10110000")
        params = {p: g for _, p, g in scenario.components}[m2]
        obs = np.array(m2.observed_indices)
        shifts = np.array([0.5, 0.1, -0.2, 0.3, 0.4])
        x_obs = params.mean[obs] + shifts
        out = scenario.bayes_predict(x_obs, m2)
        mis_mean = params.mean[np.array(m2.missing_indices)] + shifts.mean()
        assert out == pytest.approx(x_obs.sum() + mis_mean.sum(), abs=1e-10)

    def test_mar_block_conditioning(self):
        scenario = preset("mar_b")
        m = MissingPattern.from_string("00001100")
        x_obs = np.array([0.2, -0.3, 0.1, -0.5, 0.7, 0.9])
        out = scenario.bayes_predict(x_obs, m)
        # coords 5,6 missing with mask mean 1; coords 7,8 observed. Blocks
        # pair (5,6) and (7,8), so the observed block-2 pair is uninformative
        # about the missing pair and the conditional mean is the mask value.
        assert out == pytest.approx(x_obs.sum() + 1.0 + 1.0, abs=1e-10)

    def test_mar_block_rejects_masked_block1(self):
        scenario = preset("mar_b")
        with pytest.raises(ValueError):
            scenario.bayes_predict(np.zeros(7), MissingPattern.from_string("10000000"))

    @pytest.mark.parametrize("block_cov", [[[1.0, 2.0], [0.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]]])
    def test_mar_block_rejects_bad_covariance_at_construction(self, block_cov):
        with pytest.raises(ValueError, match="covariance"):
            MarBlockScenario(0.0, np.ones(4), 0.5, block_cov)

    def test_mixture_rejects_zero_probability_pattern(self):
        scenario = preset("gpmm_c")
        with pytest.raises(ValueError):
            scenario.bayes_predict(np.zeros(8), MissingPattern(0, 8))

    def test_self_masking_has_no_closed_form(self):
        scenario = SelfMaskingScenario(
            beta0=0.0,
            beta=np.ones(2),
            noise_sd=0.1,
            covariates=GaussianParams(np.zeros(2), np.eye(2)),
            mask_center=[0.0, 0.0],
            mask_scale=[1.0, 1.0],
        )
        with pytest.raises(NoClosedFormError):
            scenario.bayes_predict(np.array([1.0]), MissingPattern.from_string("01"))


class TestBayesColumn:
    @given(st.sampled_from(["mcar_a", "mar_b", "gpmm_c"]), st.integers(1, 80), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_single_rows(self, name, n, seed):
        scenario = preset(name)
        sample = scenario.generate(n, np.random.default_rng(seed), with_bayes=False)
        data = sample.dataset
        batch = BayesPredictor(scenario).predict_masked(data.values, data.mask)
        # a second scenario learns its optima one row at a time
        fresh = preset(name)
        for i in range(n):
            m, x_obs = data.pattern(i), data.observed_values(i)
            assert batch[i] == fresh.bayes_predict(x_obs, m)
            model = fresh.pattern_model(m)
            scale = 1.0 + abs(model.intercept) + np.abs(x_obs) @ np.abs(model.coefficients)
            assert abs(batch[i] - model.predict(x_obs)) <= 1e-12 * scale


class TestPatternModelLeavesTheBank:
    """A pattern's optimum is one map: ``pattern_model`` gives, bit for bit,
    the map the Bayes column applies to the pattern's rows."""

    @pytest.mark.parametrize("name", ["mcar_a", "mar_b", "gpmm_c"])
    def test_single_optimum_matches_the_batch(self, monkeypatch, name):
        scenario = preset(name)
        sample = scenario.generate(3000, np.random.default_rng(12), with_bayes=False)
        mask = sample.dataset.mask
        calls = []
        optima = type(scenario)._optima

        def spy(self, keys):
            calls.append((np.array(keys), optima(self, keys)))
            return calls[-1][1]

        monkeypatch.setattr(type(scenario), "_optima", spy)
        BayesPredictor(scenario).predict_masked(sample.full_values, mask)
        # one call: the draw's distinct patterns, ascending
        [(keys, bank)] = calls
        assert keys.tolist() == np.unique(pack_mask_rows(mask)).tolist()
        for key in keys:
            m = MissingPattern(int(key), scenario.d)
            model, batch = scenario.pattern_model(m), bank[m]
            assert model.coefficients.tobytes() == batch.coefficients.tobytes()
            assert float(model.intercept).hex() == float(batch.intercept).hex()


class TestStatelessBayesColumn:
    """A scenario writes nothing after construction, so the draws it has
    served leave its Bayes column unchanged."""

    @pytest.mark.parametrize("name", ["mcar_a", "mar_b", "gpmm_c"])
    def test_served_scenario_matches_a_fresh_one(self, name):
        sample = preset(name).generate(3000, np.random.default_rng(11), with_bayes=False)
        values, mask = sample.full_values, sample.dataset.mask
        fresh = BayesPredictor(preset(name)).predict_masked(values, mask)
        served = preset(name)
        state = dict(vars(served))
        for seed in range(3):
            served.generate(700, np.random.default_rng(seed))
        assert BayesPredictor(served).predict_masked(values, mask).tobytes() == fresh.tobytes()
        assert vars(served).keys() == state.keys()
        assert all(vars(served)[key] is value for key, value in state.items())


def composed_optimum(params, beta0, beta, missing_row):
    """(coefficients over all d coordinates, intercept) of one pattern's
    optimum, composed from conditional_mean_map."""
    obs, mis = np.flatnonzero(~missing_row), np.flatnonzero(missing_row)
    offset, gain = conditional_mean_map(params, obs)
    coef = np.zeros(missing_row.size)
    coef[obs] = beta[obs] + gain.T @ beta[mis]
    return coef, beta0 + beta[mis] @ offset


class TestStackedOptimum:
    """Optima learned in one batch agree with the per-pattern composition of
    conditional_mean_map over each scenario's whole pattern support."""

    @staticmethod
    def _learned(scenario, patterns):
        mask = np.array([[j in m.missing_indices for j in range(scenario.d)] for m in patterns])
        BayesPredictor(scenario).predict_masked(np.zeros(mask.shape), mask)
        return mask

    @staticmethod
    def _assert_close(model, m, coef, intercept):
        expected = coef[list(m.observed_indices)]
        assert np.all(np.abs(model.coefficients - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))
        assert abs(model.intercept - intercept) <= 1e-12 * max(1.0, abs(intercept))

    def test_mar_b(self):
        scenario = preset("mar_b")
        k = scenario.block_size
        patterns = [MissingPattern(bits << k, scenario.d) for bits in range(1 << k)]
        mask = self._learned(scenario, patterns)
        for m, row in zip(patterns, mask):
            params = GaussianParams(row[k:].astype(float), scenario.block_cov)
            block2, intercept = composed_optimum(params, scenario.beta0, scenario.beta[k:], row[k:])
            coef = np.concatenate([scenario.beta[:k], block2])
            self._assert_close(scenario.pattern_model(m), m, coef, intercept)

    def test_gpmm_c(self):
        scenario = preset("gpmm_c")
        patterns = [pattern for _, pattern, _ in scenario.components]
        mask = self._learned(scenario, patterns)
        for (_, m, params), row in zip(scenario.components, mask):
            coef, intercept = composed_optimum(params, scenario.beta0, scenario.beta, row)
            self._assert_close(scenario.pattern_model(m), m, coef, intercept)

    def test_mcar_a(self):
        scenario = preset("mcar_a")
        patterns = [MissingPattern(bits, scenario.d) for bits in range(1 << scenario.d)]
        mask = self._learned(scenario, patterns)
        for m, row in zip(patterns, mask):
            coef, intercept = composed_optimum(scenario.covariates, scenario.beta0, scenario.beta, row)
            self._assert_close(scenario.pattern_model(m), m, coef, intercept)

    def test_unknown_mixture_pattern_in_a_batch_is_rejected(self):
        scenario = preset("gpmm_c")
        mask = np.array([j in scenario.components[0][1].missing_indices for j in range(8)])
        with pytest.raises(ValueError, match="probability zero"):
            BayesPredictor(scenario).predict_masked(np.zeros((2, 8)), np.array([mask, np.zeros(8, dtype=bool)]))

    def test_unknown_mixture_pattern_has_no_model(self):
        scenario = preset("gpmm_c")
        with pytest.raises(ValueError, match="probability zero"):
            scenario.pattern_model(MissingPattern(0, 8))


class TestOracle:
    def test_fully_observed_agreement(self):
        scenario = small_mcar(noise_sd=0.2, miss=0.2)
        m = MissingPattern(0, 2)
        x = np.array([0.3, -0.4])
        closed = scenario.bayes_predict(x, m)
        out = bayes_oracle_mc(scenario, x, m, samples=200_000, bandwidth=0.2, rng=np.random.default_rng(17))
        assert abs(out.estimate - closed) <= 4.0 * out.std_error + 0.05

    def test_partial_pattern_agreement(self):
        scenario = McarGaussianScenario(
            beta0=0.0,
            beta=np.array([1.0, 1.0]),
            noise_sd=0.1,
            covariates=GaussianParams(np.zeros(2), np.array([[1.0, 0.8], [0.8, 1.0]])),
            missingness=HomogeneousBernoulli(2, 0.3),
        )
        m = MissingPattern.from_string("01")
        x = np.array([0.5])
        closed = scenario.bayes_predict(x, m)
        out = bayes_oracle_mc(scenario, x, m, samples=150_000, bandwidth=0.1, rng=np.random.default_rng(23))
        assert abs(out.estimate - closed) <= 4.0 * out.std_error + 0.05

    def test_self_masking_probe_is_finite(self):
        scenario = SelfMaskingScenario(
            beta0=0.0,
            beta=np.ones(2),
            noise_sd=0.2,
            covariates=GaussianParams(np.zeros(2), np.eye(2)),
            mask_center=[0.0, 0.0],
            mask_scale=[1.0, 1.0],
        )
        out = bayes_oracle_mc(
            scenario,
            np.array([0.2]),
            MissingPattern.from_string("10"),
            samples=120_000,
            bandwidth=0.2,
            rng=np.random.default_rng(31),
        )
        assert np.isfinite(out.estimate)
        assert out.std_error > 0.0
        assert out.accepted >= 50

    @pytest.mark.parametrize(
        "name, mask",
        [("mcar_a", "00100000"), ("mar_b", "00001010"), ("gpmm_c", "01010000"), ("gpmm_c", "10110000")],
    )
    def test_reads_only_the_generative_law(self, monkeypatch, name, mask):
        # the oracle checks the closed forms, so it must not call or read
        # them; the scenario is built first, as gpmm's constructor computes
        # its bank of optima
        def closed_form(*args, **kwargs):
            raise AssertionError("the oracle called a closed form")

        class Bank:
            __getattribute__ = __iter__ = __getitem__ = __len__ = closed_form

        scenario, m = preset(name), MissingPattern.from_string(mask)
        monkeypatch.setattr(simulate, "optimum_rows", closed_form)
        monkeypatch.setattr(solver, "optimum_rows", closed_form)
        monkeypatch.setattr(solver, "_pinv_apply", closed_form)
        monkeypatch.setattr(GaussianParams, "precision", property(closed_form))
        monkeypatch.setattr(type(scenario), "_optima", closed_form)
        if isinstance(scenario, GpmmScenario):
            monkeypatch.setitem(vars(scenario), "_bank", Bank())
        rows = scenario._draw_pattern(20_000, np.random.default_rng(71), m)
        x_obs = np.median(rows[:, list(m.observed_indices)], axis=0)
        out = bayes_oracle_mc(scenario, x_obs, m, 400_000, 0.5, np.random.default_rng(72))
        assert np.isfinite(out.estimate) and out.accepted >= 50

    def test_insufficient_samples_error(self):
        scenario = small_mcar()
        with pytest.raises(InsufficientSamplesError):
            bayes_oracle_mc(
                scenario,
                np.array([30.0, 30.0]),
                MissingPattern(0, 2),
                samples=2000,
                bandwidth=0.05,
                rng=np.random.default_rng(1),
            )

    def test_requires_explicit_generator(self):
        scenario = small_mcar()
        with pytest.raises(ValueError):
            bayes_oracle_mc(scenario, np.array([0.0, 0.0]), MissingPattern(0, 2), samples=100)

    @pytest.mark.parametrize(
        "x_obs,samples,bandwidth,argument",
        [
            ([0.0, 0.0], 1000, float("nan"), "bandwidth"),
            ([0.0, 0.0], 1000, 0.0, "bandwidth"),
            ([float("nan"), 0.0], 1000, 0.1, "x_obs"),
            ([0.0, float("inf")], 1000, 0.1, "x_obs"),
            ([0.0, 0.0], 0, 0.1, "samples"),
            ([0.0, 0.0], -5, 0.1, "samples"),
            ([0.0, 0.0], 2.7, 0.1, "samples"),
        ],
    )
    def test_invalid_arguments_are_named(self, x_obs, samples, bandwidth, argument):
        with pytest.raises(ValueError, match=argument):
            bayes_oracle_mc(small_mcar(), np.array(x_obs), MissingPattern(0, 2), samples, bandwidth, np.random.default_rng(0))


def _merge_d4():
    cov = np.array([[2.0, 0.6, 0.0, -0.3], [0.6, 1.0, 0.2, 0.0], [0.0, 0.2, 1.5, 0.4], [-0.3, 0.0, 0.4, 0.8]])
    protocols = [MissingPattern.from_string(s) for s in ("1100", "0011", "0000")]
    return McarGaussianScenario(
        0.3, [1.0, -2.0, 0.5, 1.5], 0.2, GaussianParams(np.arange(4.0), cov), MergeModel(protocols, [0.3, 0.3, 0.4], 0.1)
    )


def _self_masking_d3():
    cov = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])
    return SelfMaskingScenario(0.0, [1.0, 2.0, -1.0], 0.3, GaussianParams(np.array([0.5, 0.0, -0.5]), cov), 0.0, 1.0)


# pattern-first draws checked against the filtered joint draw: per scenario,
# two patterns of different mass (a common one and a rare one)
PATTERN_DRAW_CASES = {
    "mcar_a": (lambda: preset("mcar_a"), ("00000000", "00100000")),
    "merge": (_merge_d4, ("0000", "1100")),
    "mar_b": (lambda: preset("mar_b"), ("00000000", "00001010")),
    "gpmm_c": (lambda: preset("gpmm_c"), ("01010000", "01000000")),
}
# every comparison below must hold within this many standard errors, a
# bound fixed before the test was first run
AGREEMENT_SE = 5.0


def _zero_variance_d3():
    # coordinate 0 is constant at 0.5: the box-first draw keeps the count
    # whole when its window holds 0.5
    cov = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 1.0]])
    covariates = GaussianParams([0.5, 0.0, 1.0], cov)
    return McarGaussianScenario(0.2, [1.0, -1.0, 2.0], 0.3, covariates, HomogeneousBernoulli(3, 0.2))


# box-first draws checked against the joint draw filtered to the pattern and
# the box (center, half): one centre per observed coordinate, ascending
BOX_DRAW_CASES = {
    "mcar_a": (lambda: preset("mcar_a"), "00100000", ((1.3, 1.3, 0.9, 1.2, 1.2, 0.8, 0.8), 0.8)),
    "merge": (_merge_d4, "1100", ((1.5, 3.2), 0.3)),
    # block 2's coordinates 4 and 6 missing: block 1's coordinates 0 and 2
    # are positive, 1 and 3 negative; coordinate 0's window straddles 0
    "mar_b_straddling_0": (lambda: preset("mar_b"), "00001010", ((0.1, -0.6, 0.7, -0.4, 0.2, -0.3), 0.6)),
    "mar_b_positive_side": (lambda: preset("mar_b"), "00001010", ((1.0, -0.6, 0.7, -0.4, 0.2, -0.3), 0.6)),
    "mar_b_negative_side": (
        lambda: preset("mar_b"), "00000000", ((-1.0, -0.6, -0.7, -0.4, 0.2, 0.3, -0.3, -0.1), 0.6)
    ),
    # the two singular gpmm_c components: all-ones and paired-ones covariances
    "gpmm_c_ones8": (lambda: preset("gpmm_c"), "10110000", ((3.2, 0.2, 0.2, 0.2, 0.2), 0.25)),
    "gpmm_c_paired8": (lambda: preset("gpmm_c"), "01010000", ((0.2, 4.1, 0.3, 0.3, -0.2, -0.2), 0.5)),
    "gpmm_c_eye8": (lambda: preset("gpmm_c"), "01110000", ((0.4, 0.1, -0.2, 0.3, 0.0), 1.0)),
    "zero_variance": (_zero_variance_d3, "010", ((0.45, 1.2), 0.1)),
}


class TestPatternDraw:
    """The pattern-first draw and the joint draw filtered to the pattern
    agree in distribution."""

    @pytest.mark.parametrize("name", sorted(PATTERN_DRAW_CASES))
    def test_pattern_first_matches_joint_filtered(self, name):
        make, masks = PATTERN_DRAW_CASES[name]
        scenario = make()
        n = 20_000
        for k, mask in enumerate(masks):
            m = MissingPattern.from_string(mask)
            first = scenario._draw_pattern(n, np.random.default_rng([11, k]), m)
            values, joint_mask = scenario._draw(n, np.random.default_rng([12, k]))
            joint = values[pack_mask_rows(joint_mask) == m.bits]
            assert first.shape[1] == joint.shape[1] == scenario.d
            # both counts are Binomial(n, p_m): compare them with p_m pooled
            c1, c2 = first.shape[0], joint.shape[0]
            assert min(c1, c2) >= 200, (name, mask, c1, c2)
            p = (c1 + c2) / (2 * n)
            assert abs(c1 - c2) <= AGREEMENT_SE * np.sqrt(2 * n * p * (1 - p)), (name, mask, c1, c2)
            # first and second moments, coordinate by coordinate
            for f, g in ((first, joint), (first**2, joint**2)):
                se = np.sqrt(f.var(axis=0, ddof=1) / c1 + g.var(axis=0, ddof=1) / c2)
                gap = np.abs(f.mean(axis=0) - g.mean(axis=0))
                assert (gap <= AGREEMENT_SE * se).all(), (name, mask, gap, se)
            if name == "mar_b":
                # block 1's sign pattern is block 2's mask
                mask2 = np.array([j in m.missing_indices for j in range(4, 8)])
                assert ((first[:, :4] > 0.0) == mask2).all()

    def test_patterns_outside_the_support_yield_no_rows(self):
        mar = preset("mar_b")
        gpmm = preset("gpmm_c")
        for scenario, m in (
            (mar, MissingPattern.from_string("10000000")),
            (gpmm, MissingPattern.from_string("00000000")),
        ):
            values = scenario._draw_pattern(1000, np.random.default_rng(0), m)
            assert values.shape == (0, 8)

    def test_self_masking_filters_the_joint_draw(self):
        scenario = _self_masking_d3()
        m = MissingPattern.from_string("010")
        values, mask = scenario._draw(500, np.random.default_rng(4))
        picked = scenario._draw_pattern(500, np.random.default_rng(4), m)
        assert np.array_equal(picked, values[pack_mask_rows(mask) == m.bits])

    @pytest.mark.parametrize("name", list(BOX_DRAW_CASES))
    def test_window_first_matches_joint_filtered(self, name):
        make, mask, (center, half) = BOX_DRAW_CASES[name]
        scenario, m = make(), MissingPattern.from_string(mask)
        obs, center = list(m.observed_indices), np.array(center)
        n = 400_000
        drawn = scenario._draw_pattern(n, np.random.default_rng(13), m, (center, half))
        # rows leave the box by rounding at most; the oracle filters them
        assert (np.abs(drawn[:, obs] - center) <= half * (1.0 + 1e-12)).all(), name
        first = drawn[np.abs(drawn[:, obs] - center).max(axis=1) <= half]
        values, joint_mask = scenario._draw(n, np.random.default_rng(14))
        joint = values[(pack_mask_rows(joint_mask) == m.bits) & (np.abs(values[:, obs] - center).max(axis=1) <= half)]
        assert first.shape[1] == joint.shape[1] == scenario.d
        # both counts are Binomial(n, P(M = m) P(box | m)): compare them with p pooled
        c1, c2 = first.shape[0], joint.shape[0]
        assert min(c1, c2) >= 200, (name, c1, c2)
        p = (c1 + c2) / (2 * n)
        assert abs(c1 - c2) <= AGREEMENT_SE * np.sqrt(2 * n * p * (1 - p)), (name, c1, c2)
        # first and second moments, coordinate by coordinate; a coordinate
        # constant on both sides must be equal
        for f, g in ((first, joint), (first**2, joint**2)):
            se = np.sqrt(f.var(axis=0, ddof=1) / c1 + g.var(axis=0, ddof=1) / c2)
            gap = np.abs(f.mean(axis=0) - g.mean(axis=0))
            assert (gap <= AGREEMENT_SE * se).all(), (name, gap, se)
        if isinstance(scenario, MarBlockScenario):
            mask2 = np.array([k in m.missing_indices for k in range(4, 8)])
            assert ((first[:, :4] > 0.0) == mask2).all()

    # block 2's coordinate 4 missing puts block 1's coordinate 0 on the
    # positive half-line; these windows lie on the negative side or touch 0
    @pytest.mark.parametrize("center", [-1.0, -0.3])
    def test_window_beyond_the_sign_half_line_yields_no_rows(self, center):
        scenario, m = preset("mar_b"), MissingPattern.from_string("00001010")
        x_obs = np.array([center, 0.0, 0.0, 0.0, 0.0, 0.0])
        drawn = scenario._draw_pattern(100_000, np.random.default_rng(15), m, (x_obs, 0.3))
        assert drawn.shape == (0, 8)
        with pytest.raises(InsufficientSamplesError) as err:
            bayes_oracle_mc(scenario, x_obs, m, 100_000, 0.3, np.random.default_rng(16))
        assert err.value.accepted == 0


class FixedRows(McarGaussianScenario):
    """A scenario whose pattern draws are the given rows, whatever the budget."""

    def __init__(self, rows):
        super().__init__(0.0, [1.0, 1.0], 0.1, GaussianParams(np.zeros(2), np.eye(2)), HomogeneousBernoulli(2, 0.3))
        self.rows = np.asarray(rows, dtype=float)

    def _draw_pattern(self, n, rng, m, box=None):
        return self.rows


class TestOracleReference:
    """The local-linear estimate against the window mean and plain least squares."""

    def test_affine_response_on_a_half_empty_window(self):
        # block 2 is missing exactly where block 1 is positive, so at the
        # probe x1 = 0 only the right half of the window can fill; the
        # response is affine in x1 with slope 2 inside the pattern
        scenario = MarBlockScenario(0.0, [2.0, 1.0], 0.1, [[1.0]])
        m = MissingPattern.from_string("01")
        x_obs, bandwidth = np.array([0.0]), 0.3
        closed = scenario.bayes_predict(x_obs, m)
        sample = scenario.generate(200_000, np.random.default_rng(41), with_bayes=False)
        rows = (pack_mask_rows(sample.dataset.mask) == m.bits) & (np.abs(sample.full_values[:, 0]) <= bandwidth)
        window = sample.dataset.responses[rows]
        mean_se = window.std(ddof=1) / np.sqrt(window.size)
        # the mean sits about slope * E[x1 | 0 < x1 < h] = 0.30 above the closed form
        assert window.mean() - closed > 0.2 and window.mean() - closed > 20 * mean_se
        out = bayes_oracle_mc(scenario, x_obs, m, 200_000, bandwidth, np.random.default_rng(42))
        assert abs(out.estimate - closed) <= 4.0 * out.std_error
        assert out.std_error < 0.05

    def test_no_observed_coordinate_gives_the_mean(self):
        # one chunk: the pattern's rows, then one noise draw per row
        scenario = small_mcar(noise_sd=0.5)
        m = MissingPattern.from_string("11")
        out = bayes_oracle_mc(scenario, np.empty(0), m, 50_000, 0.1, np.random.default_rng(6))
        rng = np.random.default_rng(6)
        values = scenario._draw_pattern(50_000, rng, m)
        responses = scenario.beta0 + values @ scenario.beta + scenario.noise_sd * rng.standard_normal(values.shape[0])
        assert out.accepted == responses.size
        assert out.estimate == pytest.approx(responses.mean(), rel=1e-12)
        assert out.std_error == pytest.approx(responses.std(ddof=1) / np.sqrt(responses.size), rel=1e-12)

    def test_matches_lstsq_and_the_ols_standard_error(self):
        rng = np.random.default_rng(8)
        offsets = rng.uniform(-0.2, 0.2, (400, 3))
        responses = 1.5 + offsets @ [2.0, -1.0, 0.5] + rng.normal(0.0, 0.3, 400)
        design = np.column_stack([np.ones(400), offsets])
        coef, rss, rank, _ = np.linalg.lstsq(design, responses, rcond=None)
        se = np.sqrt(rss[0] / (400 - rank) * np.linalg.inv(design.T @ design)[0, 0])
        estimate, std_error, got_rank = _local_linear(offsets, responses)
        assert got_rank == rank == 4
        assert estimate == pytest.approx(coef[0], rel=1e-12)
        assert std_error == pytest.approx(se, rel=1e-10)

    def test_tied_coordinates_resolve_by_minimum_norm(self):
        # two observed coordinates that always agree (as in gpmm_c's ones8
        # component) give the same intercept and error as one of them alone
        rng = np.random.default_rng(9)
        x = rng.uniform(-0.2, 0.2, 300)
        responses = 0.7 + 3.0 * x + rng.normal(0.0, 0.2, 300)
        single = _local_linear(x[:, None], responses)
        tied = _local_linear(np.column_stack([x, x]), responses)
        assert tied[2] == single[2] == 2
        assert tied[0] == pytest.approx(single[0], rel=1e-12)
        assert tied[1] == pytest.approx(single[1], rel=1e-10)

    @pytest.mark.parametrize("rows", [[[0.0, 0.0]], [[0.0, 0.0], [0.01, 0.02]], [[0.0, 0.0], [0.01, 0.02], [0.02, -0.01]]])
    def test_window_no_larger_than_the_rank_is_insufficient(self, rows):
        scenario = FixedRows(rows)
        with pytest.raises(InsufficientSamplesError) as err:
            bayes_oracle_mc(
                scenario, np.zeros(2), MissingPattern(0, 2), 10, 0.1, np.random.default_rng(0), min_accepted=1
            )
        assert err.value.accepted == len(rows)

    def test_overflowing_response_raises(self):
        scenario = McarGaussianScenario(
            beta0=0.0,
            beta=np.ones(2),
            noise_sd=0.1,
            covariates=GaussianParams(np.full(2, 1e308), np.eye(2)),
            missingness=HomogeneousBernoulli(2, 0.3),
        )
        # the box keeps P(M = 00) erf(0.1 / sqrt 2)^2 = 0.0031 of the draws,
        # about 62 of 20,000, and the first kept row overflows
        with pytest.raises(ValueError, match="responses must be finite"):
            bayes_oracle_mc(
                scenario, np.full(2, 1e308), MissingPattern(0, 2), samples=20_000, bandwidth=0.1,
                rng=np.random.default_rng(3),
            )


def full_block_oracle(scenario, x_obs, m, samples, bandwidth, rng, min_accepted=50):
    """The oracle's chunk loop with the window filtered over the whole
    observed block of every draw: (estimate, std_error, accepted)."""
    x_obs = np.asarray(x_obs, dtype=float)
    obs = np.array(m.observed_indices, dtype=int)
    # the oracle's box, so both draw the same rows
    box = (x_obs, bandwidth)
    offsets, responses, remaining = [], [], samples
    while remaining > 0:
        chunk = min(250_000, remaining)
        remaining -= chunk
        values = scenario._draw_pattern(chunk, rng, m, box)
        noise = rng.standard_normal(values.shape[0])
        block = values[:, obs]
        if not np.isfinite(block).all():
            raise ValueError("observed values must be finite (no NaN or infinity)")
        with np.errstate(over="ignore"):
            offset = block - x_obs
        near = np.abs(offset).max(axis=1, initial=0.0) <= bandwidth
        with np.errstate(over="ignore", invalid="ignore"):
            kept = scenario.beta0 + values[near] @ scenario.beta + scenario.noise_sd * noise[near]
        if not np.isfinite(kept).all():
            raise ValueError("responses must be finite (no NaN or infinity)")
        offsets.append(offset[near])
        responses.append(kept)
    responses = np.concatenate(responses)
    if responses.size < min_accepted:
        raise InsufficientSamplesError("too few", accepted=responses.size)
    estimate, std_error, _ = _local_linear(np.concatenate(offsets), responses)
    return estimate, std_error, responses.size


def _hex_outcome(call):
    """A call's estimate, error and count in hex, or its error's type and text."""
    try:
        out = call()
    except (ValueError, InsufficientSamplesError) as exc:
        return type(exc).__name__, str(exc).split(";")[0] if isinstance(exc, ValueError) else exc.accepted
    if isinstance(out, OracleEstimate):
        out = (out.estimate, out.std_error, out.accepted)
    return out[0].hex(), out[1].hex(), out[2]


# (scenario, mask, budget, bandwidth): three presets, self-masking, a merge
# law, and patterns with no observed coordinate; budgets above one chunk
# exercise a short final chunk
LEAN_ORACLE_CASES = {
    "mcar_a": (lambda: preset("mcar_a"), "00100000", 300_000, 0.5),
    "mcar_a_full": (lambda: preset("mcar_a"), "00000000", 260_000, 0.6),
    "mar_b": (lambda: preset("mar_b"), "00001010", 300_000, 0.5),
    "gpmm_c": (lambda: preset("gpmm_c"), "01010000", 300_000, 0.5),
    "self_masking": (_self_masking_d3, "100", 300_000, 0.3),
    "merge": (_merge_d4, "1100", 120_000, 0.2),
    "mcar_none_observed": (lambda: small_mcar(d=2, miss=0.3), "11", 300_000, 0.1),
    "self_masking_none_observed": (_self_masking_d3, "111", 270_000, 0.1),
    "merge_none_observed": (_merge_d4, "1111", 120_000, 0.1),
}


WINDOW_00 = [[0.0, 0.0], [0.01, 0.02], [0.02, -0.01], [0.03, 0.01]]
WINDOW_01 = [[0.0, 0.0], [0.01, 1.0], [0.02, -1.0], [0.03, 0.5]]


class TestLeanOracle:
    """The oracle's window filter and finiteness checks against the
    full-block filter written out here, bit for bit."""

    @pytest.mark.parametrize("case", list(LEAN_ORACLE_CASES), ids=list(LEAN_ORACLE_CASES))
    def test_estimates_equal_the_full_block_filter(self, case):
        make, mask, budget, bandwidth = LEAN_ORACLE_CASES[case]
        scenario, m = make(), MissingPattern.from_string(mask)
        # probe at the median of the pattern's draws, inside its support
        rows = scenario._draw_pattern(20_000, np.random.default_rng(61), m)
        x_obs = np.median(rows[:, list(m.observed_indices)], axis=0)
        got = _hex_outcome(lambda: bayes_oracle_mc(scenario, x_obs, m, budget, bandwidth, np.random.default_rng(62)))
        want = _hex_outcome(lambda: full_block_oracle(scenario, x_obs, m, budget, bandwidth, np.random.default_rng(62)))
        assert got == want
        assert got[0].startswith(("0x", "-0x")) and got[2] >= 50

    @pytest.mark.parametrize(
        "rows, mask, message",
        [
            # four rows inside the window around 0, then one special row
            (WINDOW_00 + [[np.nan, 0.0]], "00", "observed values must be finite"),
            (WINDOW_00 + [[0.0, np.inf]], "00", "observed values must be finite"),
            (WINDOW_01 + [[5.0, np.nan]], "01", None),
            (WINDOW_01 + [[0.05, np.nan]], "01", "responses must be finite"),
            (WINDOW_00 + [[1e308, 1e308], [1e308, 1.7e308]], "00", None),
            (WINDOW_00 + [[-1e308, -1e308], [np.nan, 1e308]], "00", "observed values must be finite"),
        ],
        ids=["nan_observed", "inf_observed", "nan_missing", "nan_missing_kept", "sum_overflows", "overflow_and_nan"],
    )
    def test_finiteness_check_keeps_its_meaning(self, rows, mask, message):
        scenario, m = FixedRows(rows), MissingPattern.from_string(mask)
        x_obs = np.zeros(m.n_observed)

        def lean():
            return bayes_oracle_mc(scenario, x_obs, m, 10, 0.1, np.random.default_rng(5), min_accepted=1)

        if message is None:
            out = lean()
            assert np.isfinite(out.estimate) and out.accepted == 4
        else:
            with pytest.raises(ValueError, match=message):
                lean()
        want = _hex_outcome(lambda: full_block_oracle(scenario, x_obs, m, 10, 0.1, np.random.default_rng(5), 1))
        assert _hex_outcome(lean) == want

    @pytest.mark.parametrize(
        "argument, value",
        [("samples", True), ("samples", False), ("samples", 2.0), ("min_accepted", 2.5), ("min_accepted", True),
         ("min_accepted", -3), ("min_accepted", 0), ("min_accepted", "50")],
    )
    def test_counts_must_be_positive_integers(self, argument, value):
        kwargs = {"samples": 1000, "min_accepted": 1, argument: value}
        with pytest.raises(ValueError, match=argument):
            bayes_oracle_mc(
                small_mcar(), np.zeros(2), MissingPattern(0, 2), bandwidth=0.5, rng=np.random.default_rng(0), **kwargs
            )


class TestPresets:
    def test_gpmm_component_count_and_mass(self):
        scenario = preset("gpmm_c")
        probs = {pattern: p for p, pattern, _ in scenario.components}
        assert len(probs) == 7
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
        assert probs[MissingPattern.from_string("01010000")] == 0.6

    def test_mcar_a_parameters(self):
        scenario = preset("mcar_a")
        assert scenario.noise_sd == 0.1
        assert scenario.missingness.epsilon == 0.1
        assert np.array_equal(scenario.covariates.mean, np.ones(8))
        assert scenario.covariates.covariance[0, 1] == 1.0
        assert scenario.covariates.covariance[0, 2] == 0.0

    def test_mar_b_parameters(self):
        scenario = preset("mar_b")
        assert scenario.noise_sd == 0.5
        assert scenario.block_size == 4
        assert np.array_equal(scenario.block_cov, paired_block_covariance(4))

    def test_bernoulli_presets(self):
        assert law_preset("bern_pA").epsilon == 0.5
        assert law_preset("bern_pB").epsilon == 0.15
        assert law_preset("bern_pD").epsilon == 0.10
        assert law_preset("bern_pC").epsilons.mean() == pytest.approx(0.15)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown scenario preset 'nope'; choose one of mcar_a, mar_b, gpmm_c"):
            preset("nope")
        with pytest.raises(ValueError, match="unknown law preset 'nope'; choose one of bern_pA, bern_pB"):
            law_preset("nope")


class TestScenarioJson:
    def test_preset_reference(self):
        scenario = scenario_from_json({"preset": "mcar_a"})
        assert scenario.name == "mcar_a"
        with pytest.raises(ValueError, match="unknown scenario preset 'bern_pA'; choose one of mcar_a, mar_b, gpmm_c$"):
            scenario_from_json({"preset": "bern_pA"})
        with pytest.raises(ValueError, match="unknown law preset 'mcar_a'; choose one of bern_pA, bern_pB, bern_pC, bern_pD$"):
            law_preset("mcar_a")

    def test_mcar_gaussian_round_trip(self):
        obj = {
            "kind": "mcar_gaussian",
            "d": 2,
            "beta0": 0.5,
            "beta": [1.0, 2.0],
            "sigma": 0.3,
            "mu": [0.0, 0.0],
            "cov": [[1.0, 0.0], [0.0, 1.0]],
            "missingness": {"kind": "homogeneous_bernoulli", "d": 2, "epsilon": 0.3},
        }
        scenario = scenario_from_json(obj)
        assert isinstance(scenario, McarGaussianScenario)
        sample = scenario.generate(50, np.random.default_rng(0))
        assert sample.bayes_values is not None

    def test_all_kinds_construct(self):
        base = {"d": 2, "beta0": 0.0, "beta": [1.0, 1.0], "sigma": 0.1}
        mar = scenario_from_json(
            {**base, "kind": "mar_block", "block_cov": [[1.0]], "beta": [1.0, 1.0]}
        )
        assert isinstance(mar, MarBlockScenario)
        gpmm = scenario_from_json(
            {
                **base,
                "kind": "gpmm",
                "components": [
                    {"p": 1.0, "mask": "01", "mu": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
                ],
            }
        )
        assert isinstance(gpmm, GpmmScenario)
        sm = scenario_from_json(
            {
                **base,
                "kind": "self_masking",
                "mu": [0.0, 0.0],
                "cov": [[1.0, 0.0], [0.0, 1.0]],
                "mask_center": [0.0, 0.0],
                "mask_scale": [1.0, 1.0],
            }
        )
        assert isinstance(sm, SelfMaskingScenario)
        assert not sm.has_closed_form
        merged = scenario_from_json(
            {
                **base,
                "kind": "merge",
                "mu": [0.0, 0.0],
                "cov": [[1.0, 0.0], [0.0, 1.0]],
                "protocols": ["10", "00"],
                "weights": [0.5, 0.5],
                "eta": 0.1,
            }
        )
        assert isinstance(merged, McarGaussianScenario)
        assert merged.generate(20, np.random.default_rng(1)).bayes_values is not None

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            scenario_from_json({"kind": "mystery", "d": 1, "beta0": 0, "beta": [1.0], "sigma": 0.1})


class TestMergeScenario:
    def test_union_masking_distribution(self):
        protocols = [MissingPattern.from_string("1100"), MissingPattern.from_string("0000")]
        scenario = McarGaussianScenario(
            beta0=0.0,
            beta=np.ones(4),
            noise_sd=0.1,
            covariates=GaussianParams(np.zeros(4), np.eye(4)),
            missingness=MergeModel(protocols=protocols, weights=[0.5, 0.5], eta=0.05),
        )
        sample = scenario.generate(100_000, np.random.default_rng(21))
        # coordinate 1 is masked by protocol 1 or by a failure
        expected = 0.5 + 0.5 * 0.05
        assert sample.dataset.mask[:, 0].mean() == pytest.approx(expected, abs=0.01)
        assert sample.dataset.mask[:, 3].mean() == pytest.approx(0.05, abs=0.01)
