"""The benchmark's metrics: name, unit, better direction, and for each
per-layer metric the end-to-end metric and workload it should move.

BENCHMARK.json lists the same names, units and directions; the tests keep
the two in step. The ``moves`` text is what later performance claims cite.
"""

from __future__ import annotations

WORKLOADS = {
    "presets_grid": (
        "paper experiment at d=8 with at most 256 patterns: iterative-imputation fits and "
        "train/test draws dominate, the per-pattern bank is bypassed"
    ),
    "many_patterns_d20": (
        "d=20 Bernoulli(0.2) masking, ~11k patterns per 20k rows: per-pattern Python loops, "
        "cold optima and 2^20 complexity enumeration dominate"
    ),
    "oracle_probes": (
        "rejection-sampling oracle on fixed probes of the three presets, the tier-1 hot path; "
        "the only workload where pattern-first sampling shows"
    ),
}

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# (name, unit, better, moves)
PER_LAYER = (
    ("simulate.draw_s", "s", "lower", "wall_s on presets_grid (about half); small on many_patterns_d20"),
    ("simulate.rows", "count", "lower", "a count; moves no end-to-end metric"),
    ("simulate.pattern_model_s", "s", "lower", "wall_s on many_patterns_d20; about 0 on presets_grid"),
    ("simulate.pattern_models_cold", "count", "lower", "a count of cache misses; moves no end-to-end metric"),
    ("simulate.bayes_s", "s", "lower", "wall_s on many_patterns_d20"),
    ("simulate.oracle_s", "s", "lower", "wall_s and peak_rss_mb on oracle_probes; absent elsewhere"),
    ("simulate.oracle_draws_per_s", "1/s", "higher", "wall_s and peak_rss_mb on oracle_probes; absent elsewhere"),
    ("simulate.oracle_accept_ratio", "ratio", "higher", "useful-work ratio of oracle_probes; guards the budget's meaning"),
    ("simulate.oracle_draw_share", "ratio", "lower", "says whether drawing or filtering is the lever on oracle_probes"),
    ("patterns.dataset_s", "s", "lower", "wall_s on oracle_probes and presets_grid"),
    ("patterns.index_s", "s", "lower", "wall_s on many_patterns_d20"),
    ("patterns.distinct", "count", "lower", "a count; moves no end-to-end metric"),
    ("solver.lstsq_s", "s", "lower", "wall_s on many_patterns_d20 (floor of pbp fit time)"),
    ("solver.lstsq_calls", "count", "lower", "a count; moves no end-to-end metric"),
    ("estimators.pbp_tau_d_over_n.fit_s", "s", "lower", "wall_s on many_patterns_d20; small on presets_grid"),
    ("estimators.pbp_tau_d_over_n.predict_s", "s", "lower", "wall_s on many_patterns_d20; small on presets_grid"),
    ("estimators.pbp_tau_one_over_n.fit_s", "s", "lower", "wall_s on many_patterns_d20; small on presets_grid"),
    ("estimators.pbp_tau_one_over_n.predict_s", "s", "lower", "wall_s on many_patterns_d20; small on presets_grid"),
    ("estimators.cst_impute_lr.fit_s", "s", "lower", "wall_s on presets_grid and many_patterns_d20 (small share)"),
    ("estimators.cst_impute_lr.predict_s", "s", "lower", "wall_s on presets_grid and many_patterns_d20 (small share)"),
    ("estimators.iterative_impute_lr_10.fit_s", "s", "lower", "wall_s on presets_grid only"),
    ("estimators.iterative_impute_lr_10.predict_s", "s", "lower", "wall_s on presets_grid only"),
    ("estimators.pbp_kept", "count", "lower", "a count; moves no end-to-end metric"),
    ("estimators.pbp_kept_ratio", "ratio", "higher", "a ratio of kept to seen patterns; moves no end-to-end metric"),
    ("estimators.pbp_default_rows", "count", "lower", "a count of test rows predicted 0; moves no end-to-end metric"),
    ("estimators.iter_rounds", "count", "lower", "executed imputation sweeps; wall_s on presets_grid"),
    ("complexity.bound_report_s", "s", "lower", "wall_s and peak_rss_mb on many_patterns_d20"),
    ("complexity.patterns_enumerated", "count", "lower", "wall_s and peak_rss_mb on many_patterns_d20"),
    ("harness.workers", "count", "lower", "the pool size run_experiment used; moves no end-to-end metric"),
    ("harness.timing_inflation", "ratio", "lower", "CSV timings over single-worker spans; about 1 without the pool"),
    ("trace.overhead_s", "s", "lower", "traced wall minus probe spans minus untraced wall_s"),
    ("trace.coverage", "ratio", "higher", "share of the traced blocking wall inside blocking-path spans"),
    ("error_rate", "ratio", "lower", "failed operations over attempted ones; 0 at the recording commit"),
)
