"""Rejection branches that no other test reaches: each bad input raises the
named exception with a message that says what is wrong, and the inputs the
CLI reads exit with the documented code."""

import json
import re

import numpy as np
import pytest

from patternlab import (
    BoundKind,
    ExplicitPatterns,
    GaussianParams,
    GpmmScenario,
    HomogeneousBernoulli,
    MaskedDataset,
    McarGaussianScenario,
    MergeModel,
    MissingPattern,
    Scenario,
    SelfMaskingScenario,
    bayes_oracle_mc,
    default_ball_radius,
    heterogeneous_complexity_bound,
    least_squares,
    paired_block_covariance,
    pattern_complexity_mc,
    preset,
    theory_config,
)
from patternlab.cli import main
from references import conditional_mean_map

GAUSS2 = GaussianParams(np.zeros(2), np.eye(2))
GAUSS3 = GaussianParams(np.zeros(3), np.eye(3))
SELF_MASKING = {
    "kind": "self_masking",
    "d": 2,
    "beta0": 0.5,
    "beta": [1.0, 2.0],
    "sigma": 0.2,
    "mu": [0.0, 0.0],
    "cov": [[1.0, 0.0], [0.0, 1.0]],
    "mask_center": [0.0, 0.0],
    "mask_scale": [1.0, 1.0],
}


def raises(error, fragment):
    return pytest.raises(error, match=re.escape(fragment))


class TestSolver:
    @pytest.mark.parametrize(
        "features, targets, fragment",
        [
            (np.zeros(3), np.zeros(3), "features must be a 2-d matrix"),
            (np.zeros((3, 2)), np.zeros(2), "targets shape (2,) does not match 3 rows"),
            (np.zeros((0, 2)), np.zeros(0), "at least one observation required"),
        ],
        ids=["one_d_features", "target_shape", "no_rows"],
    )
    def test_least_squares_shapes(self, features, targets, fragment):
        with raises(ValueError, fragment):
            least_squares(features, targets)

    def test_covariance_of_another_shape(self):
        with raises(ValueError, "covariance shape (3, 3) does not match dimension 2"):
            GaussianParams([0, 0], np.eye(3))

    @pytest.mark.parametrize(
        "observed, fragment",
        [
            ([[0, 1]], "observed indices must be 1-d"),
            ([0, 0], "observed indices must be distinct"),
            ([0, 3], "observed indices outside the dimension"),
        ],
        ids=["two_d", "repeated", "index_d"],
    )
    def test_conditional_mean_map_indices(self, observed, fragment):
        with raises(ValueError, fragment):
            conditional_mean_map(GAUSS3, observed)


class TestSimulate:
    def test_empty_beta(self):
        with raises(ValueError, "beta must be a nonempty vector"):
            Scenario(0.0, [], 0.1, "empty")

    def test_pattern_model_of_another_dimension(self):
        with raises(ValueError, "pattern dimension 3 does not match scenario dimension 8"):
            preset("mcar_a").pattern_model(MissingPattern(0, 3))

    def test_mcar_covariates_of_another_dimension(self):
        with raises(ValueError, "covariate dimension does not match beta"):
            McarGaussianScenario(0.0, [1.0, 1.0], 0.1, GAUSS3, HomogeneousBernoulli(2, 0.1))

    def test_self_masking_covariates_of_another_dimension(self):
        with raises(ValueError, "covariate dimension does not match beta"):
            SelfMaskingScenario(0.0, [1.0, 1.0], 0.1, GAUSS3, 0.0, 1.0)

    def test_gpmm_component_pattern_of_another_dimension(self):
        with raises(ValueError, "component patterns must match the scenario dimension"):
            GpmmScenario(0.0, [1.0, 1.0], 0.1, [(1.0, MissingPattern(0, 3), GAUSS2)])

    def test_zero_peak_probability(self, tmp_path, capsys):
        message = "peak masking probabilities must lie in (0, 1]"
        with raises(ValueError, message):
            SelfMaskingScenario(0.0, [1.0, 1.0], 0.1, GAUSS2, 0.0, 1.0, 0.0)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**SELF_MASKING, "mask_peak_prob": 0.0}))
        out = tmp_path / "gen.json"
        capsys.readouterr()
        assert main(["gen", "--scenario", str(path), "--n", "10", "--seed", "1", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "x_obs, m, fragment",
        [
            ([], MissingPattern(3, 2), "pattern dimension does not match the scenario"),
            ([1.0], MissingPattern(0, 8), "x_obs does not match the pattern's observed coordinates"),
        ],
        ids=["pattern_dimension", "x_obs_length"],
    )
    def test_oracle_probe_shape(self, x_obs, m, fragment):
        with raises(ValueError, fragment):
            bayes_oracle_mc(preset("mcar_a"), x_obs, m, 1000, rng=np.random.default_rng(0))

    def test_odd_paired_block_covariance(self):
        with raises(ValueError, "dimension 3 is not a multiple of the block size 2"):
            paired_block_covariance(3)


class _DisagreeingLaw(HomogeneousBernoulli):
    """A law that never masks, whose sampler draws only the all-missing pattern."""

    def sample_masks(self, rng, size):
        return np.full(size, (1 << self.dimension) - 1, dtype=np.int64)


class TestComplexity:
    def test_one_monte_carlo_sample(self):
        with raises(ValueError, "at least 2 samples required, got 1"):
            pattern_complexity_mc(HomogeneousBernoulli(2, 0.1), 0.1, 1, np.random.default_rng(0))

    def test_sampler_that_disagrees_with_its_law(self):
        with raises(RuntimeError, "sampled a pattern of zero probability"):
            pattern_complexity_mc(_DisagreeingLaw(2, 0.0), 0.1, 10, np.random.default_rng(0))

    def test_unknown_bound_kind(self):
        with raises(ValueError, "unknown bound kind 'foo'"):
            BoundKind("foo")

    def test_wrong_rate_count(self):
        with raises(ValueError, "expected 3 rates, got shape (2,)"):
            heterogeneous_complexity_bound(3, 100, [0.1, 0.2])


class TestDistributions:
    def test_explicit_law_keyed_by_strings(self):
        with raises(TypeError, "keys must be MissingPattern instances"):
            ExplicitPatterns(2, {"00": 1.0})

    def test_merge_protocols_as_strings(self):
        with raises(TypeError, "protocols must be MissingPattern instances"):
            MergeModel(["00"], [1.0], 0.1)

    def test_merge_protocols_of_two_dimensions(self):
        protocols = [MissingPattern(0, 2), MissingPattern(0, 3)]
        with raises(ValueError, "protocols must share one dimension"):
            MergeModel(protocols, [0.5, 0.5], 0.1)


class TestPatterns:
    def test_one_d_values(self):
        with raises(ValueError, "values must be a 2-d matrix"):
            MaskedDataset(np.zeros(3), np.zeros(3, dtype=bool), np.zeros(3))


class TestTheoryConfig:
    def test_no_observed_entry(self):
        data = MaskedDataset(np.zeros((3, 2)), np.ones((3, 2), dtype=bool), np.arange(3.0))
        with raises(ValueError, "no observed entries to estimate the covariate scale from"):
            theory_config(data)

    def test_all_zero_observed_values_use_scale_one(self):
        mask = np.array([[False, True], [False, False], [True, False], [False, False]])
        spec = theory_config(MaskedDataset(np.zeros((4, 2)), mask, np.arange(4.0)))
        assert spec.ball_radius == default_ball_radius(1.0, 4)
        assert spec.clip_level is None


def test_bench_without_the_exact_optimum_exits_3(tmp_path, capsys):
    """A self-masking scenario has no exact optimum to score against: a numeric failure, and no CSV."""
    config = {"scenario": SELF_MASKING, "estimators": [{"kind": "pbp"}], "n_grid": [50], "repetitions": 1, "n_test": 100}
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "bench.csv"
    capsys.readouterr()
    assert main(["bench", "--config", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: self_masking: ") and "the exact optimum" in err
    assert not out.exists()
