"""Excess-risk benchmark across training sizes on the built-in scenarios.

Fits the per-pattern regressors (thresholded and not) and the two
imputation baselines on growing training sets, scoring each fit by the
mean squared gap to the exact optimum predictor on a fresh test draw.
Every cell derives its own seed, so reruns and the order of the cells
cannot change the CSV.

Run:  python demos/benchmark_presets.py            (quick, preset mcar_a)
      python demos/benchmark_presets.py --full     (all three presets)
"""

import sys

import numpy as np

from patternlab import EstimatorSpec, ExperimentConfig, preset, run_experiment
from patternlab.harness import records_to_csv

full = "--full" in sys.argv
scenarios = ("mcar_a", "mar_b", "gpmm_c") if full else ("mcar_a",)
estimators = (
    EstimatorSpec("pbp", "d_over_n"),
    EstimatorSpec("pbp", "one_over_n"),
    EstimatorSpec("cst_impute_lr"),
    EstimatorSpec("iterative_impute_lr", rounds=10),
)
n_grid = (100, 1000, 10_000)
repetitions = 10 if full else 20

all_rows = []
for name in scenarios:
    config = ExperimentConfig(
        scenario=preset(name),
        estimators=estimators,
        n_grid=n_grid,
        repetitions=repetitions,
        n_test=10_000,
        seed=20_24,
    )
    records = run_experiment(config)
    all_rows.extend(records)
    print(f"\n{name}: median excess risk over {repetitions} repetitions")
    print(f"{'estimator':>24} " + " ".join(f"{n:>9}" for n in n_grid))
    for spec in estimators:
        meds = [
            np.median([r.excess_risk for r in records if r.estimator == spec.name and r.n == n])
            for n in n_grid
        ]
        print(f"{spec.name:>24} " + " ".join(f"{m:9.4f}" for m in meds))

with open("benchmark.csv", "w", newline="") as handle:
    handle.write(records_to_csv(all_rows))
print("\nwrote benchmark.csv")
