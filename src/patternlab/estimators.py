"""Trainable regressors for masked data, and the one description of an
estimator that every fit reads.

Three families: per-pattern least squares with a frequency threshold (plus
optional ball filter and prediction clipping), linear regression on
zero-filled values concatenated with the mask (the jointly optimal
constant-imputation baseline), and chained-equations imputation followed
by linear regression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .patterns import (
    AFFINE_FIELDS,
    AffineModel,
    MaskedDataset,
    MissingPattern,
    PatternBank,
    json_field,
    json_fields,
    key_groups,
    masked_batch,
    unpack_masks,
)
from .patterns import array, count, dimension, is_number, mapping, number, positive, probability, records, vector
from .solver import least_squares, lstsq_stack, solve_design

# the estimator kinds an EstimatorSpec names
KINDS = ("pbp", "cst_impute_lr", "iterative_impute_lr")


def default_ball_radius(gamma: float, n: int) -> float:
    """sqrt(gamma) * (1 + sqrt(gamma * log n)), the recommended filter radius."""
    positive(gamma, "gamma")
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    return math.sqrt(gamma) * (1.0 + math.sqrt(gamma * math.log(n)))


@dataclass(frozen=True)
class EstimatorSpec:
    """One estimator and its knobs, checked field by field at construction.

    kind: one of ``KINDS``.
    tau_rule: for pbp, "d_over_n" (the default), "one_over_n" (every
        pattern seen at least once), or a fixed threshold, a ``probability``
        stored as a float; a pattern gets a model only when its empirical
        frequency strictly exceeds the resolved threshold.
    rounds: for iterative_impute_lr, the number of sweeps (default 10).
    clip_level: for pbp, truncate predictions to [-L, L] when set.
    ball_radius: for pbp, keep only training rows whose observed block has
        sup-norm at most this radius when set.
    A field that the kind's fit does not read must be left None.
    """

    kind: str
    tau_rule: str | float | None = None
    rounds: int | None = None
    clip_level: float | None = None
    ball_radius: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        fields = (("tau", self.tau_rule, "pbp"), ("clip", self.clip_level, "pbp"), ("ball_radius", self.ball_radius, "pbp"))
        for label, value, owner in fields + (("rounds", self.rounds, "iterative_impute_lr"),):
            if value is not None and owner != self.kind:
                raise ValueError(f"field {label!r} applies only to kind {owner!r}, not to {self.kind!r}")
        if self.kind == "pbp":
            rule = "d_over_n" if self.tau_rule is None else self.tau_rule
            if rule not in ("d_over_n", "one_over_n"):
                if not is_number(rule):
                    raise ValueError(f"invalid tau rule {rule!r}")
                rule = probability(rule, "tau rule")
            object.__setattr__(self, "tau_rule", rule)
            for name in ("clip_level", "ball_radius"):
                if getattr(self, name) is not None:
                    object.__setattr__(self, name, positive(getattr(self, name), name))
        if self.kind == "iterative_impute_lr":
            object.__setattr__(self, "rounds", 10 if self.rounds is None else count(self.rounds, "rounds"))

    @property
    def name(self) -> str:
        if self.kind == "pbp":
            rule = self.tau_rule
            tag = rule if isinstance(rule, str) else f"{rule:g}"
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
        return self.tau_rule

    def fit(self, dataset):
        if self.kind == "pbp":
            return fit_pbp(dataset, self)
        if self.kind == "cst_impute_lr":
            return fit_constant_impute(dataset)
        return fit_iterative_impute(dataset, rounds=self.rounds)


def estimator_spec_from_json(obj: dict) -> EstimatorSpec:
    """The spec of an estimator entry; a field other than these five is a ValueError."""
    optional = {"tau": (None, None), "rounds": (None, None), "clip": (positive, None), "ball_radius": (positive, None)}
    return EstimatorSpec(*json_fields(obj, "estimator entry", {"kind": None, **optional}))


def theory_config(data: MaskedDataset, lipschitz_bound: float | None = None) -> EstimatorSpec:
    """The pbp spec with threshold d/n, ball filter on, and clipping when a slope bound is given.

    The covariate scale is estimated as the largest per-column mean square
    over observed entries. Without a slope bound, clipping stays off rather
    than guessing one; a slope bound must be positive.
    """
    if lipschitz_bound is not None:
        positive(lipschitz_bound, "lipschitz_bound")
    observed = ~data.mask
    second_moments = [
        float(np.mean(data.values[observed[:, j], j] ** 2))
        for j in range(data.d)
        if observed[:, j].any()
    ]
    if not second_moments:
        raise ValueError("no observed entries to estimate the covariate scale from")
    gamma = max(second_moments)
    if gamma <= 0.0:
        gamma = 1.0
    radius = default_ball_radius(gamma, data.n)
    level = (radius + 1.0) * (lipschitz_bound + 1.0) if lipschitz_bound is not None else None
    return EstimatorSpec("pbp", min(1.0, data.d / data.n), clip_level=level, ball_radius=radius)


@dataclass(frozen=True)
class PbpRegression:
    """One affine model per sufficiently frequent pattern; 0 elsewhere.

    ``models`` is the bank of kept patterns; read as a Mapping it gives each
    kept pattern's affine model over its observed coordinates. ``config`` is
    the fit's pbp spec with its tau rule resolved to the threshold used. A
    fit also stores the packed key and row count of every training pattern,
    kept or not (a model read from JSON stores none).
    """

    models: PatternBank
    config: EstimatorSpec
    seen_keys: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64), repr=False, compare=False)
    seen_counts: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64), repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return self.models.d

    @property
    def train_frequencies(self) -> dict:
        """{MissingPattern: empirical frequency} of every training pattern,
        built on access from the stored counts."""
        n = int(self.seen_counts.sum())
        return {
            MissingPattern(int(key), self.dimension): int(count) / n
            for key, count in zip(self.seen_keys, self.seen_counts)
        }

    def predict_masked(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Predictions for a batch of rows; masked cells of ``values`` are never read."""
        out = self.models.predict(values, mask)
        return out if self.config.clip_level is None else np.clip(out, -self.config.clip_level, self.config.clip_level)

    def to_json(self) -> dict:
        return {
            "tau": self.config.tau_rule,
            "clip": self.config.clip_level,
            "ball_radius": self.config.ball_radius,
            "d": self.dimension,
            "models": self.models.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PbpRegression":
        fields = {"tau": probability, "clip": (positive, None), "ball_radius": (positive, None), "d": dimension}
        tau, clip, radius, d, models = json_fields(obj, "pbp model", {**fields, "models": records})
        config = EstimatorSpec("pbp", tau, clip_level=clip, ball_radius=radius)
        return cls(models=PatternBank.from_json(d, models), config=config)


def fit_pbp(data: MaskedDataset, spec: EstimatorSpec) -> PbpRegression:
    """Fit one least-squares model per pattern with frequency above the
    threshold that the pbp ``spec``'s tau rule gives at this sample size.

    With a ball radius set, each pattern's rows are first restricted to
    those whose observed block stays inside the sup-norm ball; a pattern
    whose filtered subsample is empty keeps an all-zero model.

    Rows are grouped by pattern with array operations, and the kept
    patterns are bucketed by exact shape (observed count k, row count r),
    without padding. Each bucket is one ``lstsq_stack`` call on its stack
    of [block | 1] systems, so every pattern gets the solution, bit for
    bit, that ``least_squares`` gives its rows (ascending row order).
    """
    if spec.kind != "pbp":
        raise ValueError(f"fit_pbp fits kind 'pbp', not {spec.kind!r}")
    config = replace(spec, tau_rule=spec.resolve_tau(data.d, data.n))
    keys = data.mask_keys()
    order, starts, counts = key_groups(keys)
    seen = keys[order[starts]]
    kept = np.flatnonzero(counts / data.n > config.tau_rule)
    # the kept slot of each row in sorted order; -1 for a dropped pattern
    slot = np.full(seen.size, -1)
    slot[kept] = np.arange(kept.size)
    slot = np.repeat(slot, counts)
    use = slot >= 0
    if config.ball_radius is not None:
        sup = np.where(data.mask, 0.0, np.abs(data.values)).max(axis=1, initial=0.0)
        use &= (sup <= config.ball_radius)[order]
    rows, slot = order[use], slot[use]
    sizes = np.bincount(slot, minlength=kept.size)
    offsets = np.cumsum(sizes) - sizes
    missing = unpack_masks(seen[kept], data.d)
    n_observed = data.d - missing.sum(axis=1)
    coef = np.zeros((kept.size, data.d))
    intercepts = np.zeros(kept.size)
    solved = np.flatnonzero(sizes)
    shape_order, shape_starts, shape_counts = key_groups(n_observed[solved] * (data.n + 1) + sizes[solved])
    for start, count in zip(shape_starts, shape_counts):
        ids = solved[shape_order[start : start + count]]
        k, r = n_observed[ids[0]], sizes[ids[0]]
        obs = np.nonzero(~missing[ids])[1].reshape(ids.size, k)
        take = rows[offsets[ids][:, None] + np.arange(r)]
        systems = np.ones((ids.size, r, k + 1))
        systems[:, :, :k] = data.values[take[:, :, None], obs[:, None, :]]
        solutions = lstsq_stack(systems, data.responses[take])
        coef[ids[:, None], obs] = solutions[:, :k]
        intercepts[ids] = solutions[:, k]
    bank = PatternBank(data.d, seen[kept], coef, intercepts)
    return PbpRegression(models=bank, config=config, seen_keys=seen, seen_counts=counts)


def _impute_features(values: np.ndarray, mask: np.ndarray, intercept: bool = False) -> np.ndarray:
    """The (n, 2d) features of the constant-imputation baseline: zero-filled
    values, then the mask as 0/1. With ``intercept``, the fit's (n, 2d + 1)
    design: a column of ones follows. Built in one buffer."""
    n, d = mask.shape
    features = np.empty((n, 2 * d + intercept))
    np.copyto(features[:, :d], values)
    np.copyto(features[:, :d], 0.0, where=mask)
    features[:, d : 2 * d] = mask
    features[:, 2 * d :] = 1.0
    return features


@dataclass(frozen=True)
class ConstantImputeRegression:
    """Linear regression on the 2d features (zero-filled values, mask).

    Regressing on the mask indicators alongside zero-filled values realizes
    the jointly optimal per-coordinate imputation constants. Construction
    checks that the regression has 2d coefficients.
    """

    dimension: int
    regression: AffineModel

    def __post_init__(self) -> None:
        d = dimension(self.dimension, "d")
        if self.regression.coefficients.shape != (2 * d,):
            raise ValueError(f"coef must hold 2d={2 * d} numbers, got {self.regression.coefficients.size}")

    def predict_masked(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        values, mask = masked_batch(values, mask, self.dimension)
        return self.regression.predict(_impute_features(values, mask))

    def to_json(self) -> dict:
        return {"kind": "constant_impute", "d": self.dimension, **self.regression.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "ConstantImputeRegression":
        fields = {"kind": (None, None), "d": dimension, **AFFINE_FIELDS}
        _, d, intercept, coef = json_fields(obj, "constant_impute model", fields)
        return cls(d, AffineModel(intercept, coef))


def fit_constant_impute(data: MaskedDataset) -> ConstantImputeRegression:
    """Least squares on the design [zero-filled values | mask | 1], built
    once: ``least_squares`` on the (n, 2d) features, bit for bit, without
    its copies of the feature matrix."""
    design = _impute_features(data.values, data.mask, intercept=True)
    return ConstantImputeRegression(data.d, solve_design(design, data.responses))


# the column models' ridge floor, relative to the feature scale
RIDGE_FLOOR = 1e-14


def _damped_column_model(features: np.ndarray, targets: np.ndarray) -> AffineModel:
    """Evidence-tuned ridge with an unpenalized intercept and a ridge floor.

    The ridge weight follows the usual evidence updates with weak 1e-6
    hyperpriors and a loose stopping rule, the conventional defaults for
    chained-equation column models: exact linear relations are recovered
    almost unshrunk while noisy, nearly collinear feature blocks (imputed
    near-duplicate columns) stay damped instead of receiving huge
    compensating coefficients. ``RIDGE_FLOOR`` floors the ridge on the
    normal equations, relative to the feature scale, for exact-collinearity
    safety.

    The function consumes ``features``: it is centred in place, so callers
    pass a fresh array.
    """
    n, k = features.shape
    x_mean = features.mean(axis=0)
    y_mean = float(targets.mean())
    centered = np.subtract(features, x_mean, out=features)
    residual_y = targets - y_mean
    gram = centered.T @ centered
    moment = centered.T @ residual_y
    eigvals, eigvecs = np.linalg.eigh(gram)
    eigvals = np.clip(eigvals, 0.0, None)
    projected = eigvecs.T @ moment
    y_var = float(residual_y @ residual_y) / n
    alpha = 1.0 / (y_var + 1e-12)
    lam = 1.0
    hyper = 1e-6
    coef = np.zeros(k)
    # the fit's residual, refilled in place each iteration
    residual = np.empty(n)
    for _ in range(300):
        shrink = eigvals + lam / alpha
        new_coef = eigvecs @ (projected / np.where(shrink > 0.0, shrink, 1.0))
        dof = float((eigvals / shrink).sum()) if k else 0.0
        np.matmul(centered, new_coef, out=residual)
        np.subtract(residual_y, residual, out=residual)
        np.square(residual, out=residual)
        sse = float(np.sum(residual))
        lam = (dof + 2.0 * hyper) / (float(new_coef @ new_coef) + 2.0 * hyper)
        alpha = (n - dof + 2.0 * hyper) / (sse + 2.0 * hyper)
        done = float(np.abs(new_coef - coef).sum()) < 1e-3
        coef = new_coef
        if done:
            break
    scale = float(np.trace(gram)) / k if k else 1.0
    ridge = max(lam / alpha, RIDGE_FLOOR * scale, 1e-300)
    solution = np.linalg.solve(gram + ridge * np.eye(k), moment)
    return AffineModel(y_mean - float(x_mean @ solution), solution)


@dataclass(frozen=True)
class IterativeImputeRegression:
    """Chained-equations imputation followed by linear regression.

    Missing cells start at the observed column means and are refreshed by
    cycling the stored per-column models in ascending column order for the
    stored number of rounds, both while training and at prediction time.
    Columns never observed in training impute to 0 and carry no model.

    Construction checks d column means (a ``vector``), d column models each
    None or over d - 1 features, d regression coefficients and rounds >= 1.
    """

    dimension: int
    column_means: np.ndarray
    column_models: tuple
    rounds: int
    regression: AffineModel
    round_deltas: tuple = ()

    def __post_init__(self) -> None:
        d = dimension(self.dimension, "d")
        means = vector(self.column_means, "column_means")
        if means.shape != (d,):
            raise ValueError(f"column_means must hold d={d} numbers, got shape {means.shape}")
        if len(self.column_models) != d:
            raise ValueError(f"column_models must hold d={d} entries, got {len(self.column_models)}")
        for j, model in enumerate(self.column_models):
            if model is not None and model.coefficients.shape != (d - 1,):
                raise ValueError(
                    f"column_models[{j}] must have d-1={d - 1} coefficients, got {model.coefficients.size}"
                )
        if self.regression.coefficients.shape != (d,):
            raise ValueError(f"coef must hold d={d} numbers, got {self.regression.coefficients.size}")
        means.setflags(write=False)
        object.__setattr__(self, "column_means", means)
        object.__setattr__(self, "column_models", tuple(self.column_models))
        object.__setattr__(self, "rounds", count(self.rounds, "rounds"))

    def complete(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        values, mask = masked_batch(values, mask, self.dimension)
        completed = np.where(mask, self.column_means, values)
        modelled = [j for j, model in enumerate(self.column_models) if model is not None]
        _replay(completed, _column_plan(mask, modelled), self.column_models, self.rounds)
        return completed

    def predict_masked(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        return self.regression.predict(self.complete(values, mask))

    def to_json(self) -> dict:
        return {
            "kind": "iterative_impute",
            "d": self.dimension,
            "rounds": self.rounds,
            "column_means": [float(c) for c in self.column_means],
            "column_models": [None if model is None else model.to_json() for model in self.column_models],
            **self.regression.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "IterativeImputeRegression":
        fields = {"kind": (None, None), "d": dimension, "rounds": None, "column_means": vector, "column_models": array}
        _, d, rounds, means, entries, intercept, coef = json_fields(
            obj, "iterative_impute model", {**fields, **AFFINE_FIELDS}
        )
        models = []
        for j, entry in enumerate(entries):
            if entry is not None:
                entry = mapping(entry, "an entry of field 'column_models'")
                entry = AffineModel(*json_fields(entry, f"entry {j} of field 'column_models'", AFFINE_FIELDS))
            models.append(entry)
        regression = AffineModel(intercept, coef)
        return cls(dimension=d, column_means=means, column_models=tuple(models), rounds=rounds, regression=regression)


def _column_plan(select: np.ndarray, columns) -> list:
    """(j, rows, others) for each column j of ``columns``: the rows where
    ``select[:, j]`` is set, and the flat positions, in C order, of those
    rows at every column but j of an (n, d) matrix. ``matrix.take(others)``
    is then ``matrix[np.ix_(rows, columns but j)]``, the same fresh C-ordered
    (r, d - 1) array, gathered in one pass (a matrix stored in another order
    is first copied to C order). The positions are int32 when they fit,
    which halves the memory a fit keeps them in."""
    n, d = select.shape
    kind = np.int32 if n * d <= np.iinfo(np.int32).max else np.int64
    plan = []
    for j in columns:
        rows = np.flatnonzero(select[:, j])
        plan.append((j, rows, (rows[:, None] * d + np.delete(np.arange(d), j)).astype(kind, copy=False)))
    return plan


def _replay(completed: np.ndarray, plan: list, column_models, rounds: int) -> None:
    """Run ``rounds`` sweeps of the stored column models over ``plan`` in
    place: each column's planned rows get its model's prediction from the
    row's other, currently completed, columns. Columns with no rows are
    skipped."""
    plan = [entry for entry in plan if entry[1].size]
    for _ in range(rounds):
        for j, rows, others in plan:
            completed[rows, j] = column_models[j].predict(completed.take(others))


@np.errstate(over="raise")
def fit_iterative_impute(data: MaskedDataset, rounds: int = 10, tol: float = 1e-3) -> IterativeImputeRegression:
    """Chained-equations fit: cycle columns ascending, up to ``rounds`` sweeps.

    Each sweep refits column j on the other, currently completed, columns
    using the rows where j is observed, then overwrites j's missing cells
    with predictions. A fully observed column has no missing cell, so no
    sweep reads its model and only the last sweep's model is kept: it is
    fitted once, after the sweeps, on the state the last sweep had at its
    position, the same inputs and so the same model bit for bit. Sweeps
    stop early once the largest imputed-cell change falls below ``tol``
    times the observed-value scale (set tol=0 to always run all sweeps);
    prediction replays the executed number of sweeps. The final regression
    of the response on the completed matrix is solved without damping.
    ``rounds`` is an integer >= 1 and ``tol`` finite and >= 0; the column
    models' ridge floor is the constant ``RIDGE_FLOOR``. An overflow in the
    fit raises numpy's ``FloatingPointError``, not a warning."""
    rounds = count(rounds, "rounds")
    if not number(tol, "tol") >= 0.0:
        raise ValueError(f"tol must be nonnegative, got {tol!r}")
    observed = ~data.mask
    means = np.array(
        [data.values[observed[:, j], j].mean() if observed[:, j].any() else 0.0 for j in range(data.d)]
    )
    # the observed columns' training rows and missing rows, fixed for the whole fit
    columns = np.flatnonzero(observed.any(axis=0))
    fit_plan = _column_plan(observed, columns)
    impute_plan = _column_plan(data.mask, columns)
    completed = np.where(data.mask, means, data.values)
    cells = np.flatnonzero(data.mask)
    value_scale = float(np.abs(completed[observed]).max()) if observed.any() else 0.0
    column_models: list[AffineModel | None] = [None] * data.d
    deltas = []
    # a fully observed column imputes no cell, so no sweep reads its model
    swept = [(fit, imputed) for fit, imputed in zip(fit_plan, impute_plan) if imputed[1].size]
    once = [fit for fit, imputed in zip(fit_plan, impute_plan) if not imputed[1].size]
    for _ in range(rounds):
        before = completed.take(cells)
        for (j, rows, others), imputed in swept:
            column_models[j] = _damped_column_model(completed.take(others), completed[rows, j])
            _replay(completed, [imputed], column_models, 1)
        if not cells.size:
            deltas.append(0.0)
            break
        changes = np.abs(completed.take(cells) - before)
        deltas.append(float(changes.mean()))
        if changes.max() < tol * value_scale:
            break
    # Descending, so that each fully observed column sees the last sweep's
    # state at its position: later columns get back the sweep's starting
    # values, earlier ones keep their final values.
    cell_columns = cells % data.d
    for j, rows, others in reversed(once):
        later = cell_columns > j
        completed.put(cells[later], before[later])
        column_models[j] = _damped_column_model(completed.take(others), completed[rows, j])
    # Fit the response regression on the completion the stored models
    # reproduce, not on the training sweeps' evolving completion: training
    # and prediction then share one imputation map, without which the
    # regression's coefficients on nearly collinear imputed columns do not
    # transfer to fresh data. The replay restarts from the column means, as
    # ``complete`` does, in the sweeps' own buffer.
    np.copyto(completed, means, where=data.mask)
    _replay(completed, impute_plan, column_models, len(deltas))
    return IterativeImputeRegression(
        dimension=data.d,
        column_means=means,
        column_models=tuple(column_models),
        rounds=len(deltas),
        regression=least_squares(completed, data.responses),
        round_deltas=tuple(deltas),
    )


def model_from_json(obj: dict):
    """Detect the estimator family from the payload and rebuild it; a field
    that the family's file does not hold is a ValueError."""
    kind = json_field(obj, "kind", default=None)
    if kind is None and "models" in obj:
        return PbpRegression.from_json(obj)
    if kind == "constant_impute":
        return ConstantImputeRegression.from_json(obj)
    if kind == "iterative_impute":
        return IterativeImputeRegression.from_json(obj)
    if kind is None:
        raise ValueError("unrecognized model payload (kind=None, and no field 'models')")
    raise ValueError(
        f"unknown model kind {kind!r}: a pbp model file carries no 'kind', and the imputation models' kinds are "
        "constant_impute and iterative_impute"
    )
