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
an affine model; self-masking only admits the sampling oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import MergeModel, PatternDistribution
from .patterns import (
    MaskedDataset,
    MissingPattern,
    PatternBank,
    json_field,
    json_floats,
    one_row,
    pack_mask_rows,
    unpack_masks,
)
from .solver import AffineModel, GaussianParams, optimum_rows, rows_product


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


class Scenario:
    """Base class; subclasses implement drawing and per-pattern optima.

    Each subclass writes its random-number sequence once, in ``_draw``.
    Given a pattern, the draw makes the same generator calls, with the same
    shapes and in the same order, and transforms only the draws whose
    pattern it is: the sampling oracle reads that form, ``generate`` the
    full one, and the two agree bit for bit on every shared row.
    """

    has_closed_form = True

    def __init__(self, beta0: float, beta, noise_sd: float, name: str):
        beta = np.array(beta, dtype=float)
        if beta.ndim != 1 or beta.size == 0:
            raise ValueError("beta must be a nonempty vector")
        if not np.isfinite(beta).all() or not np.isfinite(beta0):
            raise ValueError("model coefficients must be finite")
        noise_sd = float(noise_sd)
        if not 0.0 <= noise_sd < np.inf:
            raise ValueError(f"noise level must be finite and nonnegative, got {noise_sd!r}")
        beta.setflags(write=False)
        self.beta0 = float(beta0)
        self.beta = beta
        self.noise_sd = noise_sd
        self.name = name
        self._optimum = PatternBank(self.d)

    @property
    def d(self) -> int:
        return self.beta.size

    def _draw(
        self, n: int, rng: np.random.Generator, m: MissingPattern | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw n rows of covariates and masks: (values, mask), both (n, d).

        With a pattern m, the random numbers drawn are the same, and the
        result is (rows, values): the ascending indices of the draws whose
        pattern is m and their full covariates, each row bitwise equal to
        its row of the full draw. Nothing is computed for the other rows
        beyond what deciding their pattern takes.
        """
        raise NotImplementedError

    def _optimum_rows(self, missing: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Optimum predictors of the patterns in the (P, d) boolean matrix
        ``missing``: a (P, d) coefficient table with zeros at the missing
        coordinates and P intercepts. Subclasses group the patterns by the
        Gaussian they condition on and call ``solver.optimum_rows`` once per
        group."""
        raise NotImplementedError

    def generate(self, n: int, rng: np.random.Generator, with_bayes: bool = True) -> LabeledSample:
        """Draw n labeled rows. Order of draws: covariates and mask first,
        response noise last, so samples are reproducible given the seed.
        ``with_bayes=False`` skips the exact-optimum column (the draw itself
        is unchanged)."""
        if n < 1:
            raise ValueError(f"sample size must be >= 1, got {n}")
        values, mask = self._draw(n, rng)
        noise = rng.standard_normal(n)
        responses = self.beta0 + values @ self.beta + self.noise_sd * noise
        dataset = MaskedDataset(values, mask, responses)
        bayes = self._bayes_for(values, mask) if with_bayes and self.has_closed_form else None
        full = np.array(values, dtype=float)
        full.setflags(write=False)
        return LabeledSample(dataset=dataset, full_values=full, bayes_values=bayes)

    def _learn(self, keys: np.ndarray) -> None:
        """Add to the optimum bank, in one batch, every pattern among the
        packed ``keys`` that it lacks."""
        new = np.unique(keys[self._optimum.find(keys) < 0])
        if new.size == 0:
            return
        coef, intercepts = self._optimum_rows(unpack_masks(new, self.d))
        self._optimum.add(new, coef, intercepts)

    def pattern_model(self, m: MissingPattern) -> AffineModel:
        """The optimum predictor for pattern m as an affine model over the
        observed coordinates (ascending order)."""
        if m.dimension != self.d:
            raise ValueError(f"pattern dimension {m.dimension} does not match scenario dimension {self.d}")
        self._learn(np.array([m.bits], dtype=np.int64))
        return self._optimum[m]

    def bayes_predict(self, x_obs, m: MissingPattern) -> float:
        """Exact E[Y | observed values, pattern m]."""
        return float(self._bayes_for(*one_row(x_obs, m))[0])

    def _bayes_for(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        self._learn(pack_mask_rows(mask))
        out = self._optimum.predict(values, mask)
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

    def _draw(self, n, rng, m=None):
        z = rng.standard_normal((n, self.d))
        keys = self.missingness.sample_masks(rng, n)
        rows = slice(None) if m is None else np.flatnonzero(keys == m.bits)
        values = self.covariates.mean + rows_product(z, rows, self.covariates.factor.T)
        return (values, unpack_masks(keys, self.d)) if m is None else (rows, values)

    def _optimum_rows(self, missing):
        return optimum_rows(self.covariates, self.beta0, self.beta, missing)


def merge_scenario(
    beta0: float,
    beta,
    noise_sd: float,
    covariates: GaussianParams,
    protocols,
    weights,
    eta: float,
    name: str = "merge",
) -> McarGaussianScenario:
    """Gaussian covariates masked by the protocol-plus-failure union model."""
    return McarGaussianScenario(
        beta0, beta, noise_sd, covariates, MergeModel(protocols, weights, eta), name=name
    )


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
        cov = np.asarray(block_cov, dtype=float)
        if cov.shape != (k, k):
            raise ValueError(f"block covariance must be {k}x{k}, got {cov.shape}")
        self.block_size = k
        # block 2 around the zero mean; its mask is added as the mean shift
        self._block2 = GaussianParams(np.zeros(k), cov)
        self.block_cov = self._block2.covariance

    def _draw(self, n, rng, m=None):
        k = self.block_size
        block1 = rng.standard_normal((n, k))
        mask2 = block1 > 0.0
        noise2 = rng.standard_normal((n, k))
        # block 1 is never missing, so a row's key is block 2's shifted by k
        # and a pattern with a missing block-1 coordinate matches no row
        rows = slice(None) if m is None else np.flatnonzero(pack_mask_rows(mask2) << k == m.bits)
        block2 = mask2[rows].astype(float) + rows_product(noise2, rows, self._block2.factor.T)
        values = np.hstack([block1[rows], block2])
        if m is not None:
            return rows, values
        return values, np.hstack([np.zeros((n, k), dtype=bool), mask2])

    def _optimum_rows(self, missing):
        k = self.block_size
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
        return coef, intercepts + np.where(mask2, self.beta[k:], 0.0).sum(axis=1)


class GpmmScenario(Scenario):
    """Pattern-first mixture: draw the pattern, then Gaussian covariates
    with that pattern's own mean and covariance."""

    def __init__(self, beta0, beta, noise_sd: float, components, name: str = "gpmm"):
        super().__init__(beta0, beta, noise_sd, name)
        comps = []
        for prob, pattern, params in components:
            prob = float(prob)
            if prob <= 0.0:
                raise ValueError("component probabilities must be positive")
            if not isinstance(pattern, MissingPattern) or pattern.dimension != self.d:
                raise ValueError("component patterns must match the scenario dimension")
            if params.dimension != self.d:
                raise ValueError("component Gaussians must match the scenario dimension")
            comps.append((prob, pattern, params))
        total = sum(p for p, _, _ in comps)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"component probabilities sum to {total!r}, expected 1")
        if len({pattern for _, pattern, _ in comps}) != len(comps):
            raise ValueError("component patterns must be distinct")
        self.components = tuple(comps)
        self._cumulative = np.cumsum([p for p, _, _ in comps])

    def pattern_probabilities(self) -> dict:
        return {pattern: prob for prob, pattern, _ in self.components}

    def _draw(self, n, rng, m=None):
        choice = np.searchsorted(self._cumulative, rng.random(n), side="right")
        choice = np.minimum(choice, len(self.components) - 1)
        z = rng.standard_normal((n, self.d))

        def component(idx):
            params = self.components[idx][2]
            rows = np.flatnonzero(choice == idx)
            return rows, params.mean + z[rows] @ params.factor.T

        if m is not None:
            # each pattern belongs to one component; one outside the mixture has no rows
            for idx, (_, pattern, _) in enumerate(self.components):
                if pattern == m:
                    return component(idx)
            return np.empty(0, dtype=np.intp), np.empty((0, self.d))
        values = np.empty((n, self.d))
        keys = np.empty(n, dtype=np.int64)
        for idx, (_, pattern, _) in enumerate(self.components):
            rows, block = component(idx)
            values[rows] = block
            keys[rows] = pattern.bits
        return values, unpack_masks(keys, self.d)

    def _optimum_rows(self, missing):
        keys = pack_mask_rows(missing)
        known = np.isin(keys, [pattern.bits for _, pattern, _ in self.components])
        if not known.all():
            m = MissingPattern(int(keys[~known][0]), self.d)
            raise ValueError(f"pattern {m} has probability zero in this mixture")
        coef = np.empty(missing.shape)
        intercepts = np.empty(keys.size)
        for _, pattern, params in self.components:
            rows = np.flatnonzero(keys == pattern.bits)
            coef[rows], intercepts[rows] = optimum_rows(params, self.beta0, self.beta, missing[rows])
        return coef, intercepts


class SelfMaskingScenario(Scenario):
    """Each coordinate hides itself with probability peaking at its own
    value: P(missing | x) = peak_prob * exp(-(x - center)^2 / (2 scale^2)).

    No exact per-pattern predictor is exposed; validate predictions with
    bayes_oracle_mc.
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
        center = np.broadcast_to(np.asarray(mask_center, dtype=float), (self.d,)).copy()
        scale = np.broadcast_to(np.asarray(mask_scale, dtype=float), (self.d,)).copy()
        peak = np.broadcast_to(np.asarray(mask_peak_prob, dtype=float), (self.d,)).copy()
        if (scale <= 0.0).any():
            raise ValueError("mask scales must be positive")
        if ((peak <= 0.0) | (peak > 1.0)).any():
            raise ValueError("peak masking probabilities must lie in (0, 1]")
        self.covariates = covariates
        self.mask_center = center
        self.mask_scale = scale
        self.mask_peak_prob = peak

    def _draw(self, n, rng, m=None):
        # the mask depends on the values, so every row is transformed
        values = self.covariates.sample(rng, n)
        probs = self.mask_peak_prob * np.exp(
            -0.5 * ((values - self.mask_center) / self.mask_scale) ** 2
        )
        mask = rng.random((n, self.d)) < probs
        if m is None:
            return values, mask
        rows = np.flatnonzero(pack_mask_rows(mask) == m.bits)
        return rows, values[rows]

    def _optimum_rows(self, missing):
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
    """Sampling estimate of E[Y | observed values near x_obs, pattern m].

    Draws labeled rows from the scenario and keeps those whose pattern is m
    and whose observed block lies within ``bandwidth`` of the probe in
    sup-norm; returns the mean response over the kept rows. The answer
    carries a bias of order the bandwidth on top of the reported standard
    error. Intended as a test oracle, not a production predictor.

    The random stream is the one ``generate`` reads, chunk by chunk: the
    scenario's draw, then the response noise. Only the draws whose pattern
    is m are transformed, and the kept responses are bitwise those of
    ``generate``, so the estimate does not depend on this shortcut. A
    non-finite observed value of such a draw, or a non-finite kept
    response, raises ``ValueError`` as a ``MaskedDataset`` would.
    """
    if rng is None:
        raise ValueError("pass an explicit generator so oracle runs are reproducible")
    if m.dimension != scenario.d:
        raise ValueError("pattern dimension does not match the scenario")
    x_obs = np.asarray(x_obs, dtype=float)
    if x_obs.shape != (m.n_observed,):
        raise ValueError("x_obs does not match the pattern's observed coordinates")
    if bandwidth <= 0.0:
        raise ValueError("bandwidth must be positive")
    obs = np.array(m.observed_indices, dtype=int)
    kept = []
    remaining = int(samples)
    chunk_size = 250_000
    # gemv sums a row in an order that depends on where the row sits in the
    # matrix, so kept rows go back to their places in a zero matrix of the
    # chunk's shape, as in generate's product, and are cleared after use
    placed = np.zeros((chunk_size, scenario.d))
    while remaining > 0:
        chunk = min(chunk_size, remaining)
        remaining -= chunk
        rows, values = scenario._draw(chunk, rng, m)
        noise = rng.standard_normal(chunk)
        block = values[:, obs]
        if not np.isfinite(block).all():
            raise ValueError("observed values must be finite (no NaN or infinity)")
        near = np.abs(block - x_obs).max(axis=1, initial=0.0) <= bandwidth
        rows = rows[near]
        if rows.size == 0:
            continue
        placed[rows] = values[near]
        with np.errstate(over="ignore", invalid="ignore"):
            responses = scenario.beta0 + (placed[:chunk] @ scenario.beta)[rows] + scenario.noise_sd * noise[rows]
        placed[rows] = 0.0
        if not np.isfinite(responses).all():
            raise ValueError("responses must be finite (no NaN or infinity)")
        kept.append(responses)
    accepted = int(sum(len(k) for k in kept))
    if accepted < min_accepted:
        raise InsufficientSamplesError(
            f"only {accepted} of {samples} draws fell in the acceptance window "
            f"(need {min_accepted}); widen the bandwidth or raise the budget",
            accepted=accepted,
        )
    responses = np.concatenate(kept)
    spread = float(responses.std(ddof=1)) if accepted > 1 else 0.0
    return OracleEstimate(
        estimate=float(responses.mean()),
        std_error=spread / float(np.sqrt(accepted)),
        accepted=accepted,
    )


def paired_block_covariance(d: int, block: int = 2) -> np.ndarray:
    """Block-diagonal covariance made of all-ones blocks of the given size."""
    if d % block != 0:
        raise ValueError(f"dimension {d} is not a multiple of the block size {block}")
    out = np.zeros((d, d))
    for start in range(0, d, block):
        out[start : start + block, start : start + block] = 1.0
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


PRESET_NAMES = ("mcar_a", "mar_b", "gpmm_c", "bern_pA", "bern_pB", "bern_pC", "bern_pD")


def preset(name: str):
    """Built-in scenarios (mcar_a, mar_b, gpmm_c) and d=4 Bernoulli pattern
    laws (bern_pA, bern_pB, bern_pC, bern_pD)."""
    from .distributions import BernoulliPatterns, HomogeneousBernoulli

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
    if name == "bern_pA":
        return HomogeneousBernoulli(4, 0.5)
    if name == "bern_pB":
        return HomogeneousBernoulli(4, 0.15)
    if name == "bern_pC":
        return BernoulliPatterns((0.3, 0.2, 0.05, 0.05))
    if name == "bern_pD":
        return HomogeneousBernoulli(4, 0.10)
    raise ValueError(f"unknown preset {name!r}; choose one of {', '.join(PRESET_NAMES)}")


def _gaussian_from_json(obj) -> GaussianParams:
    return GaussianParams(json_field(obj, "mu", json_floats), json_field(obj, "cov", json_floats))


def scenario_from_json(obj: dict) -> Scenario:
    """Build a scenario from its JSON description or a {"preset": name} reference."""
    name = json_field(obj, "preset", default=None)
    if name is not None:
        built = preset(name)
        if not isinstance(built, Scenario):
            raise ValueError(f"preset {name!r} is a pattern law, not a scenario")
        return built
    kind = json_field(obj, "kind", default=None)
    d = json_field(obj, "d", int)
    beta0 = json_field(obj, "beta0", float)
    beta = json_field(obj, "beta", json_floats)
    sigma = json_field(obj, "sigma", float)
    if beta.shape != (d,):
        raise ValueError(f"beta must have length {d}")
    name = json_field(obj, "name", default=kind)
    if kind == "mcar_gaussian":
        from .distributions import distribution_from_json

        missingness = distribution_from_json(json_field(obj, "missingness", dict))
        return McarGaussianScenario(beta0, beta, sigma, _gaussian_from_json(obj), missingness, name=name)
    if kind == "mar_block":
        return MarBlockScenario(beta0, beta, sigma, json_field(obj, "block_cov", json_floats), name=name)
    if kind == "gpmm":
        components = [
            (json_field(c, "p", float), MissingPattern.from_string(json_field(c, "mask")), _gaussian_from_json(c))
            for c in json_field(obj, "components", list)
        ]
        return GpmmScenario(beta0, beta, sigma, components, name=name)
    if kind == "self_masking":
        return SelfMaskingScenario(
            beta0,
            beta,
            sigma,
            _gaussian_from_json(obj),
            mask_center=json_field(obj, "mask_center", json_floats),
            mask_scale=json_field(obj, "mask_scale", json_floats),
            mask_peak_prob=json_field(obj, "mask_peak_prob", json_floats, 0.5),
            name=name,
        )
    if kind == "merge":
        protocols = [MissingPattern.from_string(s) for s in json_field(obj, "protocols", list)]
        weights = json_field(obj, "weights", json_floats)
        eta = json_field(obj, "eta", float)
        return merge_scenario(beta0, beta, sigma, _gaussian_from_json(obj), protocols, weights, eta, name=name)
    raise ValueError(f"unknown scenario kind {kind!r}")
