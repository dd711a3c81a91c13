"""Excess-risk benchmarking: seeded experiment runs and complexity curves.

Every (estimator, training size, repetition) cell derives its own seeds
from the root seed by hashing, trains on a fresh draw, and scores the mean
squared gap to the exact optimum predictor on a fresh test draw. Results
are therefore independent of execution order. Cells run one after another
in the calling thread, so their recorded timings are not shared with other
cells.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import time
from dataclasses import dataclass

import numpy as np

from .complexity import pattern_complexity
from .estimators import EstimatorConfig, fit_constant_impute, fit_iterative_impute, fit_pbp
from .patterns import RowPredictor, json_field, json_object
from .patterns import array, boolean, count, integer, is_number, positive, probability, records
from .simulate import NoClosedFormError, Scenario, scenario_from_json

CSV_HEADER = (
    "scenario",
    "estimator",
    "n",
    "repetition",
    "seed",
    "excess_risk",
    "fit_seconds",
    "predict_seconds",
)


class BayesPredictor(RowPredictor):
    """The scenario's own optimum predictor, exposed as a fitted regressor."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario

    def predict_masked(self, values, mask) -> np.ndarray:
        return self.scenario._bayes_for(values, mask)


def excess_risk(predictor, scenario: Scenario, n_test: int, rng: np.random.Generator) -> float:
    """Mean squared gap to the exact optimum on a fresh test draw."""
    if not scenario.has_closed_form:
        raise NoClosedFormError(
            f"{scenario.name}: excess risk needs the exact optimum; use bayes_oracle_mc probes instead"
        )
    return _score(predictor, scenario, n_test, rng)[0]


def _score(predictor, scenario: Scenario, n_test: int, rng: np.random.Generator) -> tuple[float, float]:
    """(excess risk, seconds of ``predict_masked``) on a fresh test draw of
    n_test rows. A non-finite risk is a numeric failure, never a reported
    risk; overflow and invalid-value warnings stay off, because the raise
    already reports them."""
    test = scenario.generate(n_test, rng)
    with np.errstate(over="ignore", invalid="ignore"):
        t0 = time.perf_counter()
        predictions = predictor.predict_masked(test.dataset.values, test.dataset.mask)
        seconds = time.perf_counter() - t0
        risk = float(np.mean((predictions - test.bayes_values) ** 2))
    if not math.isfinite(risk):
        raise FloatingPointError(f"excess risk is {risk!r}: the predictions are not finite")
    return risk, seconds


@dataclass(frozen=True)
class EstimatorSpec:
    """One estimator entry of an experiment.

    kind: "pbp", "cst_impute_lr", or "iterative_impute_lr".
    tau_rule: for pbp, "d_over_n", "one_over_n" (every pattern seen at
        least once), or a fixed float threshold.
    """

    kind: str
    tau_rule: str | float | None = None
    rounds: int = 10
    clip_level: float | None = None
    ball_radius: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("pbp", "cst_impute_lr", "iterative_impute_lr"):
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        rule = self.tau_rule
        if self.kind == "pbp" and rule not in ("d_over_n", "one_over_n"):
            if not is_number(rule):
                raise ValueError(f"invalid tau rule {rule!r}")
            probability(rule, "tau rule")
        object.__setattr__(self, "rounds", count(self.rounds, "rounds"))

    @property
    def name(self) -> str:
        if self.kind == "pbp":
            rule = self.tau_rule
            tag = rule if isinstance(rule, str) else f"{float(rule):g}"
            return f"pbp_tau_{tag}"
        if self.kind == "iterative_impute_lr":
            return f"iterative_impute_lr_{self.rounds}"
        return self.kind

    def resolve_tau(self, d: int, n: int) -> float:
        if self.tau_rule == "d_over_n":
            return min(1.0, d / n)
        if self.tau_rule == "one_over_n":
            # Any threshold below 1/n keeps exactly the patterns observed at
            # least once; 0 is the canonical representative.
            return 0.0
        return float(self.tau_rule)

    def fit(self, dataset):
        if self.kind == "pbp":
            config = EstimatorConfig(
                tau=self.resolve_tau(dataset.d, dataset.n),
                clip_level=self.clip_level,
                ball_radius=self.ball_radius,
            )
            return fit_pbp(dataset, config)
        if self.kind == "cst_impute_lr":
            return fit_constant_impute(dataset)
        return fit_iterative_impute(dataset, rounds=self.rounds)


def estimator_spec_from_json(obj: dict) -> EstimatorSpec:
    return EstimatorSpec(
        kind=json_field(obj, "kind"),
        tau_rule=json_field(obj, "tau", default=None),
        rounds=json_field(obj, "rounds", default=10),
        clip_level=json_field(obj, "clip", positive, None),
        ball_radius=json_field(obj, "ball_radius", positive, None),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: Scenario
    estimators: tuple
    n_grid: tuple
    repetitions: int
    n_test: int = 10_000
    seed: int = 0
    record_timings: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "n_grid", tuple(count(n, "each n_grid entry") for n in self.n_grid))
        object.__setattr__(self, "repetitions", count(self.repetitions, "repetitions"))
        object.__setattr__(self, "n_test", count(self.n_test, "n_test"))
        object.__setattr__(self, "seed", integer(self.seed, "seed"))
        if self.n_test < 100:
            raise ValueError("n_test must be >= 100")
        if not self.n_grid or list(self.n_grid) != sorted(set(self.n_grid)):
            raise ValueError("n_grid must be strictly ascending and nonempty")
        if not self.estimators:
            raise ValueError("at least one estimator required")


def experiment_config_from_json(obj: dict) -> ExperimentConfig:
    return ExperimentConfig(
        scenario=json_object(obj, "scenario", scenario_from_json),
        estimators=tuple(estimator_spec_from_json(e) for e in json_field(obj, "estimators", records)),
        n_grid=json_field(obj, "n_grid", array),
        repetitions=json_field(obj, "repetitions", integer),
        n_test=json_field(obj, "n_test", integer, 10_000),
        seed=json_field(obj, "seed", integer, 0),
        record_timings=json_field(obj, "record_timings", boolean, True),
    )


@dataclass(frozen=True)
class RunRecord:
    scenario: str
    estimator: str
    n: int
    repetition: int
    seed: int
    excess_risk: float
    fit_seconds: float
    predict_seconds: float


def derive_seed(root: int, *parts) -> int:
    """Stable 63-bit seed from the root seed and a label tuple."""
    text = "|".join([str(int(root))] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _run_cell(config: ExperimentConfig, spec: EstimatorSpec, n: int, repetition: int) -> RunRecord:
    train_seed = derive_seed(config.seed, spec.name, n, repetition, "train")
    test_seed = derive_seed(config.seed, spec.name, n, repetition, "test")
    train = config.scenario.generate(n, np.random.default_rng(train_seed), with_bayes=False)
    t0 = time.perf_counter()
    predictor = spec.fit(train.dataset)
    fit_seconds = time.perf_counter() - t0
    risk, predict_seconds = _score(predictor, config.scenario, config.n_test, np.random.default_rng(test_seed))
    return RunRecord(
        scenario=config.scenario.name,
        estimator=spec.name,
        n=n,
        repetition=repetition,
        seed=train_seed,
        excess_risk=risk,
        fit_seconds=fit_seconds,
        predict_seconds=predict_seconds,
    )


def run_experiment(config: ExperimentConfig, out_path=None) -> list:
    """All (estimator, n, repetition) records, in that nested order."""
    if not config.scenario.has_closed_form:
        raise NoClosedFormError(f"{config.scenario.name}: benchmark scenarios need the exact optimum")
    records = [
        _run_cell(config, spec, n, repetition)
        for spec in config.estimators
        for n in config.n_grid
        for repetition in range(config.repetitions)
    ]
    if out_path is not None:
        text = records_to_csv(records, record_timings=config.record_timings)
        with open(out_path, "w", newline="") as handle:
            handle.write(text)
    return records


def records_to_csv(records, record_timings: bool = True) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in records:
        fit_s = f"{r.fit_seconds:.6f}" if record_timings else "0.000000"
        pred_s = f"{r.predict_seconds:.6f}" if record_timings else "0.000000"
        writer.writerow(
            [r.scenario, r.estimator, r.n, r.repetition, r.seed, repr(r.excess_risk), fit_s, pred_s]
        )
    return buffer.getvalue()


def complexity_curves(named_distributions: dict, taus) -> list:
    """Rows (name, tau, complexity) for each named law on the tau grid."""
    rows = []
    for name, dist in named_distributions.items():
        for tau in taus:
            rows.append((name, float(tau), pattern_complexity(dist, tau)))
    return rows


def bound_report_csv(named_distributions: dict, taus, alpha: float = 0.5) -> str:
    """Per-law, per-threshold CSV of the exact complexity and its bounds."""
    from .complexity import BoundKind, bound_report

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        [
            "dist",
            "tau",
            "cp_exact",
            "hartley",
            "shannon",
            "shannon_valid",
            "renyi_alpha",
            "renyi",
            "bertrand",
            "bertrand_valid",
        ]
    )
    for name, dist in named_distributions.items():
        for tau in taus:
            report = bound_report(dist, tau, alpha=alpha)
            bounds = report.bounds
            shannon = bounds[BoundKind.shannon()]
            bertrand = bounds[BoundKind.bertrand(alpha)]
            writer.writerow(
                [
                    name,
                    repr(float(tau)),
                    repr(report.cp_exact),
                    repr(bounds[BoundKind.hartley()].value),
                    repr(shannon.value),
                    str(shannon.valid).lower(),
                    repr(float(alpha)),
                    repr(bounds[BoundKind.renyi(alpha)].value),
                    repr(bertrand.value),
                    str(bertrand.valid).lower(),
                ]
            )
    return buffer.getvalue()
