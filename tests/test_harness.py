import numpy as np
import pytest

from patternlab import (
    BayesPredictor,
    EstimatorSpec,
    ExperimentConfig,
    GaussianParams,
    HomogeneousBernoulli,
    McarGaussianScenario,
    NoClosedFormError,
    SelfMaskingScenario,
    UniformPatterns,
    clip,
    complexity_curves,
    derive_seed,
    excess_risk,
    pattern_complexity,
    preset,
    run_experiment,
)
from patternlab.harness import bound_report_csv, estimator_spec_from_json, records_to_csv


def tiny_scenario(name="tiny"):
    return McarGaussianScenario(
        beta0=0.2,
        beta=np.array([1.0, -1.0]),
        noise_sd=0.2,
        covariates=GaussianParams(np.zeros(2), np.eye(2)),
        missingness=HomogeneousBernoulli(2, 0.25),
        name=name,
    )


class ZeroPredictor:
    def predict_masked(self, values, mask):
        return np.zeros(values.shape[0])


class NanPredictor:
    def predict_masked(self, values, mask):
        return np.full(values.shape[0], np.nan)


class ClippedBayes:
    def __init__(self, scenario, level):
        self.inner = BayesPredictor(scenario)
        self.level = level

    def predict_masked(self, values, mask):
        return clip(self.inner.predict_masked(values, mask), self.level)


class TestExcessRisk:
    @pytest.mark.parametrize("name", ["mcar_a", "mar_b", "gpmm_c"])
    def test_bayes_predictor_has_zero_risk(self, name):
        scenario = preset(name)
        risk = excess_risk(BayesPredictor(scenario), scenario, 2000, np.random.default_rng(1))
        assert risk == 0.0

    def test_zero_predictor_two_draw_agreement(self):
        scenario = preset("mcar_a")
        risks, errors = [], []
        for seed in (10, 11):
            sample = scenario.generate(4000, np.random.default_rng(seed))
            squared = sample.bayes_values**2
            risks.append(squared.mean())
            errors.append(squared.std(ddof=1) / np.sqrt(squared.size))
            assert excess_risk(ZeroPredictor(), scenario, 4000, np.random.default_rng(seed)) == pytest.approx(
                risks[-1]
            )
        combined = np.hypot(errors[0], errors[1])
        assert abs(risks[0] - risks[1]) <= 4.0 * combined

    def test_clipped_bayes_with_loose_level_is_exact(self):
        scenario = tiny_scenario()
        sample = scenario.generate(4000, np.random.default_rng(3))
        level = float(np.abs(sample.bayes_values).max()) + 1.0
        risk = excess_risk(ClippedBayes(scenario, level), scenario, 4000, np.random.default_rng(3))
        assert risk == 0.0

    def test_requires_closed_form(self):
        scenario = SelfMaskingScenario(
            beta0=0.0,
            beta=np.ones(2),
            noise_sd=0.1,
            covariates=GaussianParams(np.zeros(2), np.eye(2)),
            mask_center=[0.0, 0.0],
            mask_scale=[1.0, 1.0],
        )
        with pytest.raises(NoClosedFormError, match="oracle"):
            excess_risk(ZeroPredictor(), scenario, 500, np.random.default_rng(0))

    def test_nonfinite_risk_is_a_numeric_failure(self):
        with pytest.raises(FloatingPointError, match="not finite"):
            excess_risk(NanPredictor(), tiny_scenario(), 100, np.random.default_rng(0))


class TestEstimatorSpec:
    def test_names(self):
        assert EstimatorSpec("pbp", "d_over_n").name == "pbp_tau_d_over_n"
        assert EstimatorSpec("pbp", 0.05).name == "pbp_tau_0.05"
        assert EstimatorSpec("cst_impute_lr").name == "cst_impute_lr"
        assert EstimatorSpec("iterative_impute_lr", rounds=7).name == "iterative_impute_lr_7"

    def test_tau_resolution(self):
        spec = EstimatorSpec("pbp", "d_over_n")
        assert spec.resolve_tau(8, 100) == pytest.approx(0.08)
        assert EstimatorSpec("pbp", "one_over_n").resolve_tau(8, 100) == 0.0
        assert EstimatorSpec("pbp", 0.3).resolve_tau(8, 100) == 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            EstimatorSpec("nope")
        with pytest.raises(ValueError):
            EstimatorSpec("pbp", "sometimes")

    @pytest.mark.parametrize("rounds", [True, False, 2.5, 0, -1, "3"])
    def test_rounds_must_be_a_positive_integer(self, rounds):
        with pytest.raises(ValueError, match="rounds"):
            EstimatorSpec("iterative_impute_lr", rounds=rounds)

    @pytest.mark.parametrize("rounds", [True, 2.5])
    def test_json_rounds_must_be_a_positive_integer(self, rounds):
        with pytest.raises(ValueError, match="rounds"):
            estimator_spec_from_json({"kind": "iterative_impute_lr", "rounds": rounds})
        assert estimator_spec_from_json({"kind": "iterative_impute_lr", "rounds": 3}).rounds == 3

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_tau_rejected(self, flag):
        with pytest.raises(ValueError, match="tau rule"):
            EstimatorSpec("pbp", flag)


class TestExperimentConfig:
    def test_validation(self):
        scenario = tiny_scenario()
        est = (EstimatorSpec("pbp", "d_over_n"),)
        with pytest.raises(ValueError):
            ExperimentConfig(scenario, est, (100, 50), repetitions=1)
        with pytest.raises(ValueError):
            ExperimentConfig(scenario, est, (100,), repetitions=0)
        with pytest.raises(ValueError):
            ExperimentConfig(scenario, est, (100,), repetitions=1, n_test=50)
        with pytest.raises(ValueError):
            ExperimentConfig(scenario, (), (100,), repetitions=1)


    @pytest.mark.parametrize(
        "field, value",
        [
            ("repetitions", 2.5),
            ("repetitions", True),
            ("n_test", 1000.9),
            ("n_test", np.float64(500.0)),
            ("seed", 3.7),
            ("seed", True),
            ("n_grid", (True, 100)),
            ("n_grid", (100.7,)),
            ("n_grid", ("100",)),
            ("n_grid", (0, 100)),
            ("n_grid", (-5, 100)),
        ],
    )
    def test_counts_are_strict_integers(self, field, value):
        kwargs = {"n_grid": (100,), "repetitions": 1, field: value}
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(tiny_scenario(), (EstimatorSpec("pbp", "d_over_n"),), **kwargs)

    def test_numpy_integers_are_accepted(self):
        config = ExperimentConfig(
            tiny_scenario(), (EstimatorSpec("cst_impute_lr"),), np.array([100, 200]), np.int64(2), seed=np.int32(-4)
        )
        assert (config.n_grid, config.repetitions, config.seed) == ((100, 200), 2, -4)
        assert all(type(v) is int for v in (*config.n_grid, config.repetitions, config.n_test, config.seed))


class TestRunExperiment:
    def _config(self, **kwargs):
        defaults = dict(
            scenario=tiny_scenario(),
            estimators=(
                EstimatorSpec("pbp", "d_over_n"),
                EstimatorSpec("cst_impute_lr"),
                EstimatorSpec("iterative_impute_lr", rounds=2),
            ),
            n_grid=(60, 120),
            repetitions=2,
            n_test=300,
            seed=1234,
            record_timings=False,
        )
        defaults.update(kwargs)
        return ExperimentConfig(**defaults)

    def test_single_cell(self):
        config = self._config(estimators=(EstimatorSpec("pbp", "d_over_n"),), n_grid=(100,), repetitions=1)
        records = run_experiment(config)
        assert len(records) == 1
        assert records[0].n == 100 and records[0].repetition == 0
        assert records[0].excess_risk >= 0.0

    def test_record_count_and_order(self):
        records = run_experiment(self._config())
        assert len(records) == 3 * 2 * 2
        labels = [(r.estimator, r.n, r.repetition) for r in records]
        assert labels == sorted(labels, key=lambda t: (["pbp_tau_d_over_n", "cst_impute_lr", "iterative_impute_lr_2"].index(t[0]), t[1], t[2]))

    def test_rerun_is_byte_identical(self, tmp_path):
        config = self._config()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(config, out_path=a)
        run_experiment(config, out_path=b)
        assert a.read_bytes() == b.read_bytes()

    def test_timing_columns_populated_when_requested(self):
        config = self._config(record_timings=True, n_grid=(60,), repetitions=1)
        records = run_experiment(config)
        text = records_to_csv(records, record_timings=True)
        line = text.splitlines()[1].split(",")
        assert float(line[6]) > 0.0
        zeroed = records_to_csv(records, record_timings=False)
        assert zeroed.splitlines()[1].split(",")[6] == "0.000000"

    def test_risk_improves_with_training_size(self):
        config = self._config(
            estimators=(EstimatorSpec("pbp", "one_over_n"),),
            n_grid=(100, 2000),
            repetitions=5,
            n_test=2000,
            seed=7,
        )
        records = run_experiment(config)
        small = np.median([r.excess_risk for r in records if r.n == 100])
        large = np.median([r.excess_risk for r in records if r.n == 2000])
        assert large < small

    def test_cell_risk_is_the_excess_risk_of_its_fit(self):
        config = self._config(n_grid=(60,), repetitions=1)
        for spec, record in zip(config.estimators, run_experiment(config), strict=True):
            seeds = [derive_seed(config.seed, spec.name, 60, 0, part) for part in ("train", "test")]
            train = config.scenario.generate(60, np.random.default_rng(seeds[0]), with_bayes=False)
            fit = spec.fit(train.dataset)
            rng = np.random.default_rng(seeds[1])
            assert excess_risk(fit, config.scenario, config.n_test, rng) == record.excess_risk

    def test_derive_seed_stability(self):
        assert derive_seed(1, "a", 2, 3) == derive_seed(1, "a", 2, 3)
        assert derive_seed(1, "a", 2, 3) != derive_seed(2, "a", 2, 3)
        assert 0 <= derive_seed(5, "x") < 2**63

    def test_threshold_rules_nest_on_identical_data(self):
        train = preset("gpmm_c").generate(400, np.random.default_rng(5))
        keep_all = EstimatorSpec("pbp", "one_over_n").fit(train.dataset)
        thresholded = EstimatorSpec("pbp", "d_over_n").fit(train.dataset)
        assert set(thresholded.models) <= set(keep_all.models)


class TestComplexityCurves:
    def test_rows_and_values(self):
        taus = [0.01, 0.1]
        rows = complexity_curves({"u3": UniformPatterns(3)}, taus)
        assert len(rows) == 2
        assert rows[0] == ("u3", 0.01, pattern_complexity(UniformPatterns(3), 0.01))

    def test_bound_report_csv_header(self):
        text = bound_report_csv({"u3": UniformPatterns(3)}, [0.01], alpha=0.5)
        header = text.splitlines()[0]
        assert header == "dist,tau,cp_exact,hartley,shannon,shannon_valid,renyi_alpha,renyi,bertrand,bertrand_valid"
        row = text.splitlines()[1].split(",")
        assert row[0] == "u3"
        assert float(row[2]) == pattern_complexity(UniformPatterns(3), 0.01)
        assert row[5] in ("true", "false")
