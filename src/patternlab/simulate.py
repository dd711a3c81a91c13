"""Synthetic regression scenarios with missing covariates.

Every scenario fixes a linear response (intercept, coefficients, Gaussian
noise) on top of a covariate law and a masking mechanism:

* Gaussian covariates with masking independent of the values (any pattern
  law, including the merge family),
* a two-block design where the second block's mask is the sign pattern of
  the always-observed first block and also shifts its mean,
* a per-pattern Gaussian mixture (pattern drawn first, covariates drawn
  from that pattern's own Gaussian),
* self-masking, where each coordinate hides itself with a bell-shaped
  probability in its own value.

The first three expose the exact optimum predictor pattern by pattern as
an affine model; self-masking only admits the sampling oracle. ``preset``
builds the three built-in scenarios (mcar_a, mar_b, gpmm_c) by name; the
built-in pattern laws are ``distributions.law_preset``'s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import HomogeneousBernoulli, PatternDistribution, categorical, distribution_from_json
from .distributions import merge_from_json
from .patterns import (
    AffineModel,
    MaskedDataset,
    MissingPattern,
    PatternBank,
    json_field,
    json_object,
    masked_batch,
    only_fields,
    one_row,
    pack_mask_rows,
    probability_vector,
    unpack_masks,
)
from .patterns import count, dimension, mask, matrix, noise_level, number, numbers, positive, probability, records
from .patterns import vector
from .solver import GaussianParams, _normal_mass, _truncated_normal, optimum_rows


class NoClosedFormError(RuntimeError):
    """The scenario has no exact per-pattern predictor; use bayes_oracle_mc."""


class InsufficientSamplesError(RuntimeError):
    """The sampling oracle accepted too few draws near the probe point."""

    def __init__(self, message: str, accepted: int = 0):
        super().__init__(message)
        self.accepted = accepted


@dataclass(frozen=True)
class LabeledSample:
    """A generated batch: masked dataset, the pre-masking values, and the
    exact optimum predictions when the scenario has them."""

    dataset: MaskedDataset
    full_values: np.ndarray
    bayes_values: np.ndarray | None

    def to_json(self) -> dict:
        """The dataset's JSON, then "full_values" and "bayes_values" (null without the optimum column)."""
        bayes = None if self.bayes_values is None else self.bayes_values.tolist()
        return {**self.dataset.to_json(), "full_values": self.full_values.tolist(), "bayes_values": bayes}


class Scenario:
    """Base class; subclasses implement drawing and per-pattern optima.

    Two draws read the same law. ``_draw`` is the joint draw that
    ``generate`` makes: covariates and mask of every row. ``_draw_pattern``
    is what the sampling oracle reads: only the rows of one pattern among n
    joint draws, drawn pattern-first from P(M = m) and the law of X given
    M = m where the scenario's generative law allows it. Given a box
    (center, half) on the pattern's observed coordinates, it may also keep
    only the rows whose observed block can land within ``half`` of
    ``center`` in sup-norm, drawn box-first: the pattern's count is thinned
    by the mass of one or more of the box's windows and the other
    coordinates in the box are drawn by rejection, so the rows kept are
    Binomial(n, P(M = m) P(box | m)) and follow the law of X given the
    pattern and the box. The draws agree in distribution, not in their
    random-number streams.

    A scenario writes no attribute after construction: the exact-optimum
    column of a batch depends on the batch alone.

    ``beta`` is read through the ``vector`` field kind.
    """

    has_closed_form = True

    def __init__(self, beta0: float, beta, noise_sd: float, name: str):
        beta = vector(beta, "beta")
        if beta.size == 0:
            raise ValueError("beta must be a nonempty vector")
        beta.setflags(write=False)
        self.beta0 = number(beta0, "beta0")
        self.beta = beta
        self.noise_sd = noise_level(noise_sd, "noise_sd")
        self.name = name

    @property
    def d(self) -> int:
        return self.beta.size

    def _draw(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Draw n rows of covariates and masks: (values, mask), both (n, d).
        Both arrays are fresh, owned by no one else: ``generate`` takes
        ``values`` over, freezes it and returns it as ``full_values``."""
        raise NotImplementedError

    def _draw_pattern(
        self, n: int, rng: np.random.Generator, m: MissingPattern, box: tuple | None = None
    ) -> np.ndarray:
        """The full covariates, (c, d), of the draws whose pattern is m among
        n joint draws, with c Binomial(n, P(M = m)). This base version makes
        the joint draw and filters it; subclasses whose law is pattern-first,
        or can be read that way, draw c and then only those c rows.

        ``box`` is None or (center, half): ``center`` holds one number for
        each of m's observed coordinates, in ascending order, and ``half``
        is the box's half-width. A subclass that can draw the box first
        keeps only rows that can land in it (up to rounding, so the caller
        still filters), with c Binomial(n, P(M = m) P(box | m)); this base
        version ignores the box and returns every row of the pattern, for
        the caller's filter. The mask of a self-masking law depends on the
        values, so it keeps this joint filter."""
        values, mask = self._draw(n, rng)
        return values[pack_mask_rows(mask) == m.bits]

    def _optima(self, keys: np.ndarray) -> PatternBank:
        """A bank holding the optimum predictor of each of the distinct
        packed pattern ``keys``. Subclasses group the patterns by the
        Gaussian they condition on and call ``solver.optimum_rows`` once per
        group."""
        raise NotImplementedError

    def generate(self, n: int, rng: np.random.Generator, with_bayes: bool = True) -> LabeledSample:
        """Draw n labeled rows. Order of draws: covariates and mask first,
        response noise last, so samples are reproducible given the seed.
        ``with_bayes=False`` skips the exact-optimum column (the draw itself
        is unchanged)."""
        n = count(n, "sample size")
        values, mask = self._draw(n, rng)
        noise = rng.standard_normal(n)
        responses = self.beta0 + values @ self.beta + self.noise_sd * noise
        dataset = MaskedDataset(values, mask, responses)
        bayes = self._bayes_for(values, mask) if with_bayes and self.has_closed_form else None
        values.setflags(write=False)
        return LabeledSample(dataset=dataset, full_values=values, bayes_values=bayes)

    def pattern_model(self, m: MissingPattern) -> AffineModel:
        """The optimum predictor for pattern m as an affine model over the
        observed coordinates (ascending order), bit for bit the map the
        Bayes column applies to m's rows."""
        if m.dimension != self.d:
            raise ValueError(f"pattern dimension {m.dimension} does not match scenario dimension {self.d}")
        return self._optima(np.array([m.bits]))[m]

    def bayes_predict(self, x_obs, m: MissingPattern) -> float:
        """Exact E[Y | observed values, pattern m]."""
        return float(self._bayes_for(*one_row(x_obs, m))[0])

    def _bayes_for(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """The bank of the batch's distinct patterns, from one ``_optima`` call, applied to its rows."""
        values, mask = masked_batch(values, mask, self.d)
        keys = np.sort(pack_mask_rows(mask))  # one sort: np.unique hashes int64 keys, several times slower
        out = self._optima(keys[np.diff(keys, prepend=-1) != 0]).predict(values, mask)
        out.setflags(write=False)
        return out


class McarGaussianScenario(Scenario):
    """Gaussian covariates, mask drawn independently of the values."""

    def __init__(
        self,
        beta0: float,
        beta,
        noise_sd: float,
        covariates: GaussianParams,
        missingness: PatternDistribution,
        name: str = "mcar_gaussian",
    ):
        super().__init__(beta0, beta, noise_sd, name)
        if covariates.dimension != self.d:
            raise ValueError("covariate dimension does not match beta")
        if missingness.dimension != self.d:
            raise ValueError("missingness dimension does not match beta")
        self.covariates = covariates
        self.missingness = missingness

    def _draw(self, n, rng):
        values = self.covariates.sample(rng, n)
        return values, unpack_masks(self.missingness.sample_masks(rng, n), self.d)

    def _draw_pattern(self, n, rng, m, box=None):
        # the mask is independent of the values: count the pattern's draws,
        # then draw only their covariates, box-first when there is one
        count = rng.binomial(n, self.missingness.probability(m))
        if box is None:
            return self.covariates.sample(rng, count)
        return self.covariates.sample_within(rng, count, m.observed_indices, *box)

    def _optima(self, keys):
        coef, intercepts = optimum_rows(self.covariates, self.beta0, self.beta, unpack_masks(keys, self.d))
        return PatternBank(self.d, keys, coef, intercepts)


class MarBlockScenario(Scenario):
    """Two equal blocks: block 1 is standard normal and always observed;
    block 2's mask is the componentwise sign pattern of block 1 (missing
    where the paired block-1 coordinate is positive) and block 2 is Gaussian
    around that 0/1 mask vector with the given covariance."""

    def __init__(self, beta0, beta, noise_sd: float, block_cov, name: str = "mar_block"):
        super().__init__(beta0, beta, noise_sd, name)
        if self.d % 2 != 0:
            raise ValueError("dimension must split into two equal blocks")
        k = self.d // 2
        cov = matrix(block_cov, "block_cov")
        if cov.shape != (k, k):
            raise ValueError(f"block covariance must be {k}x{k}, got {cov.shape}")
        self.block_size = k
        # block 2 around the zero mean; its mask is added as the mean shift
        self._block2 = GaussianParams(np.zeros(k), cov)
        self.block_cov = self._block2.covariance

    def _draw(self, n, rng):
        k = self.block_size
        block1 = rng.standard_normal((n, k))
        mask2 = block1 > 0.0
        block2 = mask2.astype(float) + rng.standard_normal((n, k)) @ self._block2.factor.T
        return np.hstack([block1, block2]), np.hstack([np.zeros((n, k), dtype=bool), mask2])

    def _draw_pattern(self, n, rng, m, box=None):
        k = self.block_size
        missing = unpack_masks(np.array([m.bits]), self.d)[0]
        if missing[:k].any():
            # block 1 is never missing
            return np.empty((0, self.d))
        # each of block 1's k independent signs is positive with probability
        # 1/2, and the signs fix block 2's mask; block 1 is |N(0, 1)| signed
        # by the mask. Each block-1 coordinate is drawn on the part of its
        # sign's half-line that its window covers (the whole half-line
        # without a box), so the count is thinned by the product of those
        # parts' masses within their half-lines, 0 for a window on the other
        # side. Block 2 is independent of block 1 given the mask: it is drawn
        # around its mask, box-first on its own observed coordinates, and
        # block 1 for the rows it keeps
        mask2 = missing[k:]
        sign = np.where(mask2, 1.0, -1.0)
        lo, hi = np.zeros(k), np.full(k, np.inf)
        if box is not None:
            center, half = box
            lo, hi = np.maximum(sign * center[:k] - half, 0.0), sign * center[:k] + half
        mass = np.prod([2.0 * _normal_mass(a, b) if a < b else 0.0 for a, b in zip(lo, hi)])
        count = rng.binomial(n, 0.5**k * mass)
        if box is None:
            block2 = self._block2.sample(rng, count)
        else:
            block2 = self._block2.sample_within(rng, count, np.flatnonzero(~mask2), center[k:], half)
        block2 += mask2
        block1 = np.column_stack([_truncated_normal(rng, block2.shape[0], a, b) for a, b in zip(lo, hi)])
        return np.hstack([block1 * sign, block2])

    def _optima(self, keys):
        k = self.block_size
        missing = unpack_masks(keys, self.d)
        if missing[:, :k].any():
            raise ValueError("block-1 coordinates are always observed in this scenario")
        # Block 1 carries no information on block 2 beyond the mask, so its
        # coefficients are beta's. Block 2 is Gaussian around its own mask:
        # the observed coordinates have mean 0 and the missing ones mean 1,
        # so conditioning the zero-mean block and adding beta over the
        # missing coordinates to the intercept gives every pattern at once.
        mask2 = missing[:, k:]
        coef = np.empty(missing.shape)
        coef[:, :k] = self.beta[:k]
        coef[:, k:], intercepts = optimum_rows(self._block2, self.beta0, self.beta[k:], mask2)
        return PatternBank(self.d, keys, coef, intercepts + np.where(mask2, self.beta[k:], 0.0).sum(axis=1))


class GpmmScenario(Scenario):
    """Pattern-first mixture: draw the pattern, then Gaussian covariates
    with that pattern's own mean and covariance. The support is the
    components' patterns, so their optima are computed once, at
    construction; any other pattern has probability zero."""

    def __init__(self, beta0, beta, noise_sd: float, components, name: str = "gpmm"):
        super().__init__(beta0, beta, noise_sd, name)
        components = list(components)
        probs = probability_vector([prob for prob, _, _ in components], "component probabilities", tol=1e-9)
        if not probs.all():
            raise ValueError("component probabilities must be positive")
        for _, pattern, params in components:
            if not isinstance(pattern, MissingPattern) or pattern.dimension != self.d:
                raise ValueError("component patterns must match the scenario dimension")
            if params.dimension != self.d:
                raise ValueError("component Gaussians must match the scenario dimension")
        self.components = tuple((float(p), pattern, params) for p, (_, pattern, params) in zip(probs, components))
        self._cumulative = np.cumsum(probs)
        optima = [optimum_rows(p, self.beta0, self.beta, unpack_masks([m.bits], self.d)) for _, m, p in self.components]
        coef, intercepts = (np.concatenate(parts) for parts in zip(*optima))
        self._bank = PatternBank(self.d, [m.bits for _, m, _ in self.components], coef, intercepts)

    def _draw(self, n, rng):
        choice = categorical(rng, self._cumulative, n)
        z = rng.standard_normal((n, self.d))
        values = np.empty((n, self.d))
        keys = np.empty(n, dtype=np.int64)
        for idx, (_, pattern, params) in enumerate(self.components):
            rows = np.flatnonzero(choice == idx)
            values[rows] = params.mean + z[rows] @ params.factor.T
            keys[rows] = pattern.bits
        return values, unpack_masks(keys, self.d)

    def _draw_pattern(self, n, rng, m, box=None):
        # each pattern belongs to one component; one outside the mixture has no rows
        for prob, pattern, params in self.components:
            if pattern == m:
                count = rng.binomial(n, prob)
                if box is None:
                    return params.sample(rng, count)
                return params.sample_within(rng, count, m.observed_indices, *box)
        return np.empty((0, self.d))

    def _optima(self, keys):
        outside = keys[self._bank.find(keys) < 0]
        if outside.size:
            raise ValueError(f"pattern {MissingPattern(int(outside[0]), self.d)} has probability zero in this mixture")
        return self._bank


class SelfMaskingScenario(Scenario):
    """Each coordinate hides itself with probability peaking at its own
    value: P(missing | x) = peak_prob * exp(-(x - center)^2 / (2 scale^2)).

    No exact per-pattern predictor is exposed; validate predictions with
    bayes_oracle_mc. The centre, scale and peak are each a number or a
    vector of 1 or d, read through the ``numbers`` field kind.
    """

    has_closed_form = False

    def __init__(
        self,
        beta0,
        beta,
        noise_sd: float,
        covariates: GaussianParams,
        mask_center,
        mask_scale,
        mask_peak_prob=0.5,
        name: str = "self_masking",
    ):
        super().__init__(beta0, beta, noise_sd, name)
        if covariates.dimension != self.d:
            raise ValueError("covariate dimension does not match beta")
        center = self._per_coordinate(mask_center, "mask_center")
        scale = self._per_coordinate(mask_scale, "mask_scale")
        peak = self._per_coordinate(mask_peak_prob, "mask_peak_prob")
        for j in range(self.d):
            positive(scale[j], f"mask_scale[{j}]")
            if not probability(peak[j], f"mask_peak_prob[{j}]") > 0.0:
                raise ValueError("peak masking probabilities must lie in (0, 1]")
        self.covariates = covariates
        self.mask_center = center
        self.mask_scale = scale
        self.mask_peak_prob = peak

    def _per_coordinate(self, value, name: str) -> np.ndarray:
        """``value``, a number or a vector of 1 or d numbers, as a fresh vector of d."""
        entries = numbers(value, name)
        if entries.shape not in ((), (1,), (self.d,)):
            raise ValueError(f"{name} must hold 1 or d={self.d} numbers, got shape {entries.shape}")
        return np.broadcast_to(entries, (self.d,)).copy()

    def _draw(self, n, rng):
        # the mask depends on the values, so the oracle filters this joint draw
        values = self.covariates.sample(rng, n)
        probs = self.mask_peak_prob * np.exp(
            -0.5 * ((values - self.mask_center) / self.mask_scale) ** 2
        )
        return values, rng.random((n, self.d)) < probs

    def _optima(self, keys):
        raise NoClosedFormError(f"{self.name}: no exact per-pattern predictor; use bayes_oracle_mc")


@dataclass(frozen=True)
class OracleEstimate:
    estimate: float
    std_error: float
    accepted: int


def bayes_oracle_mc(
    scenario: Scenario,
    x_obs,
    m: MissingPattern,
    samples: int,
    bandwidth: float = 0.1,
    rng: np.random.Generator | None = None,
    min_accepted: int = 50,
) -> OracleEstimate:
    """Sampling estimate of E[Y | observed values x_obs, pattern m].

    Out of ``samples`` joint draws of the scenario, keeps the labeled rows
    whose pattern is m and whose observed block lies within ``bandwidth``
    of the probe in sup-norm, and regresses their responses on
    ``[1, x_obs_row - x_obs]`` by minimum-norm least squares (a local-linear
    fit). The estimate is the intercept, and its standard error is the OLS
    one, s^2 [(X^T X)^+]_00 with s^2 on accepted - rank degrees of freedom.
    A regression function affine in the observed values within the pattern
    (every scenario with a closed form) is estimated without bias whatever
    part of the window the draws can reach; curvature, as in self-masking,
    still biases it by O(bandwidth^2). With no observed coordinate the
    estimate is the kept responses' mean, with standard error
    std(ddof=1) / sqrt(accepted). Intended as a test oracle, not a
    production predictor.

    The oracle reads only the generative law (mean, factor and noise, never
    a conditional mean or a precision matrix): each chunk of at most 250,000
    joint draws yields the draws of pattern m through the scenario's
    ``_draw_pattern``, given the box (x_obs, bandwidth) on m's observed
    coordinates, and response noise is drawn for those rows only. Where the
    law given the pattern is Gaussian, or is ``mar_block``'s signed
    half-normal block beside a Gaussian one, the draw is box-first: the
    pattern's Binomial count is thinned by the mass of the first observed
    coordinate's window (for ``mar_block``, of every block-1 window and of
    block 2's first), the coordinates so thinned are drawn truncated to
    their windows, and each later observed coordinate is drawn for the rows
    still kept and kept by rejection. A
    Binomial thinned by a Binomial is Binomial(n, P(M = m) P(box)), so
    ``samples`` still counts joint draws and ``accepted`` keeps its law;
    other laws return every row of the pattern. Each chunk is filtered on
    its whole observed block, because rounding can put a drawn row just
    outside the box. A non-finite observed value of a draw of pattern m, or
    a non-finite kept response, raises ``ValueError`` as a ``MaskedDataset``
    would. ``x_obs`` is read through the ``numbers`` field kind, ``samples``
    and ``min_accepted`` must be integers >= 1, and ``bandwidth`` finite and
    > 0. Too few kept rows, or no more than the local fit's rank, raise
    ``InsufficientSamplesError``.
    """
    if rng is None:
        raise ValueError("pass an explicit generator so oracle runs are reproducible")
    if m.dimension != scenario.d:
        raise ValueError("pattern dimension does not match the scenario")
    x_obs = numbers(x_obs, "x_obs")
    if x_obs.shape != (m.n_observed,):
        raise ValueError("x_obs does not match the pattern's observed coordinates")
    bandwidth = positive(bandwidth, "bandwidth")
    remaining = count(samples, "samples")
    min_accepted = count(min_accepted, "min_accepted")
    obs = np.array(m.observed_indices, dtype=int)
    offsets, responses = [], []
    while remaining > 0:
        chunk = min(250_000, remaining)
        remaining -= chunk
        values = scenario._draw_pattern(chunk, rng, m, (x_obs, bandwidth))
        noise = rng.standard_normal(values.shape[0])
        block = values[:, obs]
        if not np.isfinite(block).all():
            raise ValueError("observed values must be finite (no NaN or infinity)")
        with np.errstate(over="ignore", invalid="ignore"):
            offset = block - x_obs
            near = np.abs(offset).max(axis=1, initial=0.0) <= bandwidth
            kept = scenario.beta0 + values[near] @ scenario.beta + scenario.noise_sd * noise[near]
        if not np.isfinite(kept).all():
            raise ValueError("responses must be finite (no NaN or infinity)")
        offsets.append(offset[near])
        responses.append(kept)
    responses = np.concatenate(responses)
    accepted = responses.size
    if accepted < min_accepted:
        raise InsufficientSamplesError(
            f"only {accepted} of {samples} draws fell in the acceptance window "
            f"(need {min_accepted}); widen the bandwidth or raise the budget",
            accepted=accepted,
        )
    estimate, std_error, rank = _local_linear(np.concatenate(offsets), responses)
    if accepted <= rank:
        raise InsufficientSamplesError(
            f"{accepted} draws fell in the acceptance window, no more than the local "
            f"linear fit's rank {rank}; widen the bandwidth or raise the budget",
            accepted=accepted,
        )
    return OracleEstimate(estimate=estimate, std_error=std_error, accepted=accepted)


def _local_linear(offsets: np.ndarray, responses: np.ndarray) -> tuple[float, float, int]:
    """Minimum-norm least squares of the responses on ``[1, offsets]``: the
    intercept, its OLS standard error and the design's rank, with
    ``np.linalg.lstsq``'s rank cutoff (eps * max(rows, columns) relative to
    the largest singular value). Tied or collinear offset columns are
    resolved by the minimum-norm solution, whose intercept stays the fitted
    value at the probe. The intercept is w @ y with w the first row of the
    design's pseudoinverse, so its variance is s^2 |w|^2 = s^2 [(X^T X)^+]_00.
    The standard error is nan when no residual degree of freedom is left."""
    design = np.column_stack([np.ones(responses.size), offsets])
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    keep = s > np.finfo(float).eps * max(design.shape) * s[0]
    u, s, vt = u[:, keep], s[keep], vt[keep]
    rank = int(s.size)
    projected = u.T @ responses
    weights = vt[:, 0] / s  # the intercept row of the pseudoinverse, in the basis u
    residual = responses - u @ projected
    dof = responses.size - rank
    variance = float(residual @ residual) / dof if dof > 0 else float("nan")
    return float(weights @ projected), float(np.sqrt(variance * (weights @ weights))), rank


def paired_block_covariance(d: int) -> np.ndarray:
    """Block-diagonal covariance made of 2 x 2 all-ones blocks; d must be even."""
    if d % 2 != 0:
        raise ValueError(f"dimension {d} is not a multiple of the block size 2")
    out = np.zeros((d, d))
    for start in range(0, d, 2):
        out[start : start + 2, start : start + 2] = 1.0
    return out


def _gpmm_preset_components() -> list:
    u8 = paired_block_covariance(8)
    ones8 = np.ones((8, 8))
    eye8 = np.eye(8)
    rows = [
        (0.60, "01010000", (0, 5, 4, -1, 0, 0, 0, 0), u8),
        (0.30, "10110000", (1, 3, 0, 2, 0, 0, 0, 0), ones8),
        (0.02, "01110000", (0, 5, 4, -1, 0, 0, 0, 0), eye8),
        (0.02, "11010000", (0, 5, 0, -1, 0, 0, 0, 0), eye8),
        (0.02, "11000000", (0, -10, 7, -1, 0, 0, 0, 0), eye8),
        (0.02, "01000000", (0, 9, 0, -1, 0, 0, 0, 0), eye8),
        (0.02, "00100000", (3, 0, 0, -1, 0, 0, 0, 0), eye8),
    ]
    return [
        (p, MissingPattern.from_string(mask), GaussianParams(np.array(mu, dtype=float), cov))
        for p, mask, mu, cov in rows
    ]


PRESET_NAMES = ("mcar_a", "mar_b", "gpmm_c")


def preset(name: str) -> Scenario:
    """A fresh copy of the built-in scenario ``name``: mcar_a, mar_b or
    gpmm_c. The pattern laws are ``distributions.law_preset``'s."""
    if name == "mcar_a":
        return McarGaussianScenario(
            beta0=0.0,
            beta=np.ones(8),
            noise_sd=0.1,
            covariates=GaussianParams(np.ones(8), paired_block_covariance(8)),
            missingness=HomogeneousBernoulli(8, 0.1),
            name="mcar_a",
        )
    if name == "mar_b":
        return MarBlockScenario(
            beta0=0.0,
            beta=np.ones(8),
            noise_sd=0.5,
            block_cov=paired_block_covariance(4),
            name="mar_b",
        )
    if name == "gpmm_c":
        return GpmmScenario(
            beta0=0.0,
            beta=np.ones(8),
            noise_sd=1.0,
            components=_gpmm_preset_components(),
            name="gpmm_c",
        )
    raise ValueError(f"unknown scenario preset {name!r}; choose one of {', '.join(PRESET_NAMES)}")


def _gaussian_from_json(obj) -> GaussianParams:
    return GaussianParams(json_field(obj, "mu", vector), json_field(obj, "cov", matrix))


# the fields of every scenario kind: the linear response and the name
_RESPONSE = ("kind", "name", "d", "beta0", "beta", "sigma")


def scenario_from_json(obj: dict) -> Scenario:
    """Build a scenario from its JSON description or a {"preset": name}
    reference; a field that the kind does not read is a ValueError."""
    name = json_field(obj, "preset", default=None)
    if name is not None:
        only_fields(obj, ("preset",), "scenario preset reference")
        return preset(name)
    kind = json_field(obj, "kind", default=None)
    d = json_field(obj, "d", dimension)
    beta0 = json_field(obj, "beta0", number)
    beta = json_field(obj, "beta", vector)
    sigma = json_field(obj, "sigma", noise_level)
    if beta.shape != (d,):
        raise ValueError(f"beta must have length {d}")
    name = json_field(obj, "name", default=None)
    if name is None:
        name = kind
    elif not isinstance(name, str) or not name:
        raise ValueError(f"field 'name' must be a nonempty string, got {name!r}")
    if kind == "mcar_gaussian":
        only_fields(obj, _RESPONSE + ("mu", "cov", "missingness"), f"{kind} scenario")
        missingness = json_object(obj, "missingness", distribution_from_json)
        return McarGaussianScenario(beta0, beta, sigma, _gaussian_from_json(obj), missingness, name=name)
    if kind == "mar_block":
        only_fields(obj, _RESPONSE + ("block_cov",), f"{kind} scenario")
        return MarBlockScenario(beta0, beta, sigma, json_field(obj, "block_cov", matrix), name=name)
    if kind == "gpmm":
        only_fields(obj, _RESPONSE + ("components",), f"{kind} scenario")
        components = json_field(obj, "components", records)
        for i, c in enumerate(components):
            only_fields(c, ("p", "mask", "mu", "cov"), f"entry {i} of field 'components'")
        components = [
            (json_field(c, "p", probability), mask(json_field(c, "mask"), "field 'mask'", d), _gaussian_from_json(c))
            for c in components
        ]
        return GpmmScenario(beta0, beta, sigma, components, name=name)
    if kind == "self_masking":
        only_fields(obj, _RESPONSE + ("mu", "cov", "mask_center", "mask_scale", "mask_peak_prob"), f"{kind} scenario")
        return SelfMaskingScenario(
            beta0,
            beta,
            sigma,
            _gaussian_from_json(obj),
            mask_center=json_field(obj, "mask_center", numbers),
            mask_scale=json_field(obj, "mask_scale", numbers),
            mask_peak_prob=json_field(obj, "mask_peak_prob", numbers, 0.5),
            name=name,
        )
    if kind == "merge":
        law = merge_from_json(obj, d, _RESPONSE + ("mu", "cov"), f"{kind} scenario")
        return McarGaussianScenario(beta0, beta, sigma, _gaussian_from_json(obj), law, name=name)
    raise ValueError(f"unknown scenario kind {kind!r}")
