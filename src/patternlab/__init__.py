"""Per-pattern linear prediction under missing values.

Masked datasets and pattern indexing, distributions over missingness
patterns, the pattern-complexity functional with entropy and closed-form
bounds, per-pattern and imputation-based regressors, scenario simulators
with exact optimum predictors, and a seeded excess-risk benchmark harness.
"""

from .complexity import (
    BernoulliComplexityBound,
    BoundKind,
    BoundReport,
    BoundValue,
    HeterogeneousComplexityBound,
    McEstimate,
    bernoulli_complexity_bound,
    bound_report,
    effective_missing_dimension,
    entropy_bound,
    heterogeneous_complexity_bound,
    merge_complexity_bound,
    pattern_complexity,
    pattern_complexity_mc,
)
from .distributions import (
    BernoulliPatterns,
    ExplicitPatterns,
    HomogeneousBernoulli,
    MergeModel,
    PatternDistribution,
    UniformPatterns,
    distribution_from_json,
    explicit_from_json,
    law_preset,
)
from .estimators import (
    ConstantImputeRegression,
    EstimatorSpec,
    IterativeImputeRegression,
    PbpRegression,
    default_ball_radius,
    fit_constant_impute,
    fit_iterative_impute,
    fit_pbp,
    theory_config,
)
from .harness import (
    BayesPredictor,
    ExperimentConfig,
    RunRecord,
    derive_seed,
    excess_risk,
    run_experiment,
)
from .patterns import (
    AffineModel,
    MaskedDataset,
    MissingPattern,
    PatternBank,
    PatternIndex,
    build_pattern_index,
)
from .simulate import (
    GpmmScenario,
    InsufficientSamplesError,
    LabeledSample,
    MarBlockScenario,
    McarGaussianScenario,
    NoClosedFormError,
    OracleEstimate,
    Scenario,
    SelfMaskingScenario,
    bayes_oracle_mc,
    paired_block_covariance,
    preset,
    scenario_from_json,
)
from .solver import (
    GaussianParams,
    least_squares,
    lstsq_stack,
    optimum_rows,
)

__version__ = "0.1.0"
