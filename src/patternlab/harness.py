"""Excess-risk benchmarking: seeded experiment runs.

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
from dataclasses import dataclass, fields

import numpy as np

from .estimators import EstimatorSpec, estimator_spec_from_json
from .patterns import json_fields, nested
from .patterns import array, boolean, count, integer, records
from .simulate import NoClosedFormError, Scenario, scenario_from_json


class BayesPredictor:
    """The scenario's own optimum predictor, exposed as a fitted regressor."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario

    def predict_masked(self, values, mask) -> np.ndarray:
        return self.scenario._bayes_for(values, mask)


def excess_risk(predictor, scenario: Scenario, n_test: int, rng: np.random.Generator) -> float:
    """Mean squared gap to the exact optimum on a fresh test draw."""
    _require_closed_form(scenario)
    return _score(predictor, scenario, n_test, rng)[0]


def _require_closed_form(scenario: Scenario) -> None:
    """``NoClosedFormError`` when the scenario has no exact optimum to score
    against: ``excess_risk`` and ``run_experiment`` call it before any draw."""
    if not scenario.has_closed_form:
        raise NoClosedFormError(
            f"{scenario.name}: excess risk needs the exact optimum; use bayes_oracle_mc probes instead"
        )


def _score(predictor, scenario: Scenario, n_test: int, rng: np.random.Generator) -> tuple[float, float]:
    """(excess risk, seconds of ``predict_masked``) on a fresh test draw of
    n_test rows, for a scenario with the exact optimum. A non-finite risk
    is a numeric failure, never a reported risk; overflow and invalid-value
    warnings stay off, because the raise already reports them."""
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
        names = [spec.name for spec in self.estimators]
        twice = next((name for i, name in enumerate(names) if name in names[:i]), None)
        if twice is not None:
            raise ValueError(f"estimator names must be distinct; {twice!r} is given twice")


def experiment_config_from_json(obj: dict) -> ExperimentConfig:
    """The benchmark config of ``obj``, one field per ``ExperimentConfig``
    field; any other field is a ValueError."""
    required = {"scenario": nested(scenario_from_json), "estimators": records, "n_grid": array, "repetitions": integer}
    optional = {"n_test": (integer, 10_000), "seed": (integer, 0), "record_timings": (boolean, True)}
    scenario, estimators, *rest = json_fields(obj, "benchmark config", {**required, **optional})
    return ExperimentConfig(scenario, tuple(estimator_spec_from_json(e) for e in estimators), *rest)


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


CSV_HEADER = tuple(f.name for f in fields(RunRecord))


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


def run_experiment(config: ExperimentConfig) -> list:
    """All (estimator, n, repetition) records, in that nested order, written
    to no file. A scenario without the exact optimum is refused before the
    first cell."""
    _require_closed_form(config.scenario)
    return [
        _run_cell(config, spec, n, repetition)
        for spec in config.estimators
        for n in config.n_grid
        for repetition in range(config.repetitions)
    ]


def records_to_csv(records, record_timings: bool = True) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in records:
        seconds = (r.fit_seconds, r.predict_seconds) if record_timings else (0.0, 0.0)
        row = [r.scenario, r.estimator, r.n, r.repetition, r.seed, repr(r.excess_risk)]
        writer.writerow(row + [f"{s:.6f}" for s in seconds])
    return buffer.getvalue()
