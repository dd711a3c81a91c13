"""Dense least squares and Gaussian conditioning primitives."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# The gufunc that np.linalg.lstsq calls: LAPACK gelsd over a stack of
# matrices, one call per stack. It is called directly, and nowhere else,
# so that a stack of same-shape systems is solved in one call and each
# system gets the bits lstsq gives it. Its name and "ddd->ddid" signature
# are numpy 2's (pyproject.toml pins numpy>=2.4); the stacked-fit tests
# pin it to np.linalg.lstsq bit for bit.
from numpy.linalg import _umath_linalg


@dataclass(frozen=True)
class AffineModel:
    """x -> intercept + coefficients @ x over a fixed feature index set."""

    intercept: float
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coef = np.array(self.coefficients, dtype=float)
        if coef.ndim != 1:
            raise ValueError("coefficients must be 1-d")
        if not np.isfinite(coef).all() or not np.isfinite(self.intercept):
            raise ValueError("affine model entries must be finite")
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "intercept", float(self.intercept))

    def predict(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        out = self.intercept + x @ self.coefficients
        return float(out) if out.ndim == 0 else out


def _raise_lstsq_error(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def lstsq_stack(systems: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solutions of a (s, r, c) stack of systems
    against (s, r) targets, one LAPACK gelsd call per system in one kernel
    call: the (s, c) solutions that ``np.linalg.lstsq(system, target,
    rcond=None)`` gives, bit for bit, with its rank cutoff eps * max(r, c)
    and its error handling (non-convergence raises ``LinAlgError``)."""
    r, c = systems.shape[-2:]
    with np.errstate(call=_raise_lstsq_error, invalid="call", over="ignore", divide="ignore", under="ignore"):
        solutions, *_ = _umath_linalg.lstsq(
            systems, targets[..., None], np.finfo(float).eps * max(r, c), signature="ddd->ddid"
        )
    return solutions[..., 0]


def least_squares(features, targets) -> AffineModel:
    """Minimum-norm least squares with an internally appended intercept column.

    The solution minimizes the Euclidean norm of the stacked vector
    (coefficients, intercept) among all minimizers of the residual sum of
    squares, so consistent systems are interpolated exactly and
    rank-deficient ones resolve deterministically. The rank cutoff is
    machine epsilon times the larger matrix dimension, relative to the
    largest singular value. The solve is ``lstsq_stack`` on a stack of one,
    the kernel the per-pattern fit calls on its stacks.
    """
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if features.ndim != 2:
        raise ValueError("features must be a 2-d matrix")
    n = features.shape[0]
    if targets.shape != (n,):
        raise ValueError(f"targets shape {targets.shape} does not match {n} rows")
    if n < 1:
        raise ValueError("at least one observation required")
    if not np.isfinite(features).all() or not np.isfinite(targets).all():
        raise ValueError("least squares requires finite inputs")
    augmented = np.column_stack([features, np.ones(n)])
    solution = lstsq_stack(augmented[None], targets[None])[0]
    return AffineModel(float(solution[-1]), solution[:-1])


def clip(value, level: float):
    """Truncate to [-level, level]; level must be positive."""
    if not level > 0.0:
        raise ValueError(f"clip level must be positive, got {level}")
    out = np.minimum(level, np.maximum(-level, value))
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class GaussianParams:
    """Mean and covariance of a d-dimensional Gaussian.

    The covariance must be symmetric within 1e-12 and may be singular;
    eigenvalues below -1e-10 are rejected.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=float)
        cov = np.array(self.covariance, dtype=float)
        if mean.ndim != 1:
            raise ValueError("mean must be 1-d")
        d = mean.size
        if cov.shape != (d, d):
            raise ValueError(f"covariance shape {cov.shape} does not match dimension {d}")
        if not np.isfinite(mean).all() or not np.isfinite(cov).all():
            raise ValueError("Gaussian parameters must be finite")
        if np.abs(cov - cov.T).max(initial=0.0) > 1e-12:
            raise ValueError("covariance must be symmetric within 1e-12")
        if d and np.linalg.eigvalsh(cov).min() < -1e-10:
            raise ValueError("covariance has an eigenvalue below -1e-10")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def dimension(self) -> int:
        return self.mean.size

    @cached_property
    def factor(self) -> np.ndarray:
        """A matrix F with F @ F.T equal to the covariance (spectral square root).

        Valid for singular covariances; samples are mean + F @ z with z
        standard normal.
        """
        eigvals, eigvecs = np.linalg.eigh(self.covariance)
        return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))

    @cached_property
    def condition_number(self) -> float:
        """lambda_max / lambda_min of the covariance; inf when it is singular."""
        eigvals = np.linalg.eigvalsh(self.covariance)
        return float(eigvals[-1] / eigvals[0]) if eigvals[0] > 0.0 else float("inf")

    @cached_property
    def precision(self) -> np.ndarray:
        """The inverse covariance; only for a finite condition number."""
        return np.linalg.inv(self.covariance)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` fresh draws as a (size, d) array: mean + F @ z for rows z
        of one ``standard_normal((size, d))`` call. The mean is added in
        place to the product, whose bits are those of ``mean + z @ F.T``."""
        out = rng.standard_normal((size, self.dimension)) @ self.factor.T
        out += self.mean
        return out


def _validated_observed(observed, dimension: int) -> np.ndarray:
    obs = np.asarray(observed, dtype=int)
    if obs.ndim != 1:
        raise ValueError("observed indices must be 1-d")
    if obs.size:
        if obs.min() < 0 or obs.max() >= dimension:
            raise ValueError("observed indices outside the dimension")
        if np.unique(obs).size != obs.size:
            raise ValueError("observed indices must be distinct")
    return np.sort(obs)


# Patterns conditioned together in one stacked call; bounds the stacks of
# blocks so that memory stays flat in the pattern count.
CONDITIONING_CHUNK = 1024

# Largest condition number of the covariance for which optima are solved
# through the precision matrix. By Cauchy interlacing every principal block
# of the covariance or of its inverse is then conditioned at least as well,
# so the pseudoinverse cutoff (eps * k) never fires and both routes compute
# the same map: within 8e-14 of each other for d in {8, 20, 40, 63} on
# random covariances up to this bound. The gap grows with the condition
# number (4e-13 at 1e3, 1.2e-12 on some draws), and the tests allow 1e-12.
PRECISION_MAX_CONDITION = 100.0


def _pinv_apply(blocks: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """pinv(block) @ rhs for each symmetric (k, k) block of a stack.

    Uses the hermitian cutoff of ``np.linalg.pinv(block, rcond=eps * k,
    hermitian=True)``: eigenvalues of magnitude at most eps * k times the
    block's largest magnitude are dropped, so singular blocks resolve with
    the same rank cutoff as the least-squares solver.
    """
    eigvals, eigvecs = np.linalg.eigh(blocks)
    magnitude = np.abs(eigvals)
    cutoff = np.finfo(float).eps * blocks.shape[-1] * magnitude.max(axis=-1, keepdims=True)
    inverse = np.divide(1.0, eigvals, out=np.zeros_like(eigvals), where=magnitude > cutoff)
    return eigvecs @ (inverse[..., None] * (eigvecs.swapaxes(-1, -2) @ rhs))


def conditional_mean_map(params: GaussianParams, observed) -> tuple[np.ndarray, np.ndarray]:
    """Affine map (offset, gain) with E[X_mis | X_obs = x] = offset + gain @ x.

    Singular observed blocks are inverted by pseudoinverse with the same
    rank cutoff as the least-squares solver; missing coordinates are
    reported in ascending order.
    """
    d = params.dimension
    obs = _validated_observed(observed, d)
    mis = np.setdiff1d(np.arange(d), obs)
    if mis.size == 0:
        return np.empty(0), np.empty((0, obs.size))
    if obs.size == 0:
        return params.mean[mis].copy(), np.empty((mis.size, 0))
    cov = params.covariance
    gain = _pinv_apply(cov[np.ix_(obs, obs)], cov[np.ix_(obs, mis)]).T
    offset = params.mean[mis] - gain @ params.mean[obs]
    return offset, gain


def optimum_rows(params: GaussianParams, beta0: float, beta, missing) -> tuple[np.ndarray, np.ndarray]:
    """Per-pattern optimum of a linear response on Gaussian covariates.

    For each row of the (P, d) boolean ``missing`` matrix, the affine map
    x_obs -> beta0 + beta . E[X | X_obs = x_obs], returned as a (P, d)
    coefficient table with zeros at the missing coordinates and P
    intercepts. With w the weight that conditioning moves from the missing
    coordinates onto the observed ones, the observed coefficients are
    beta_obs + w and the intercept is beta0 + beta_mis . mu_mis - w . mu_obs.

    Patterns are grouped by their missing count and conditioned in stacks
    of at most ``CONDITIONING_CHUNK``, without forming a k x (d - k) gain.
    Two routes compute w, one stacked call per stack:

    * when the covariance's condition number is at most
      ``PRECISION_MAX_CONDITION``, through the precision Q = S^-1:
      w = -Q_om Q_mm^-1 beta_mis, a solve with the small missing block
      (E[X_m | x_o] = mu_m - Q_mm^-1 Q_mo (x_o - mu_o));
    * otherwise, singular covariances among them, w = pinv(S_oo) S_om
      beta_mis, an eigendecomposition of the observed block with the
      cutoff of ``conditional_mean_map``.
    """
    d = params.dimension
    beta = np.asarray(beta, dtype=float)
    missing = np.asarray(missing, dtype=bool)
    if beta.shape != (d,) or missing.ndim != 2 or missing.shape[1] != d:
        raise ValueError(f"beta must have {d} entries and missing must be a (P, {d}) matrix")
    beta_mis = np.where(missing, beta, 0.0)
    coef = np.where(missing, 0.0, beta)
    intercepts = float(beta0) + beta_mis @ params.mean
    precision = params.precision if params.condition_number <= PRECISION_MAX_CONDITION else None
    # row p holds S[:, mis_p] @ beta[mis_p]; the covariance is symmetric
    pull = beta_mis @ params.covariance if precision is None else None
    n_missing = missing.sum(axis=1)
    partial = np.flatnonzero((n_missing > 0) & (n_missing < d))
    for j in np.unique(n_missing[partial]):
        group = partial[n_missing[partial] == j]
        for start in range(0, group.size, CONDITIONING_CHUNK):
            rows = group[start : start + CONDITIONING_CHUNK]
            obs = np.nonzero(~missing[rows])[1].reshape(rows.size, d - j)
            if precision is not None:
                mis = np.nonzero(missing[rows])[1].reshape(rows.size, j)
                v = np.linalg.solve(precision[mis[:, :, None], mis[:, None, :]], beta[mis][..., None])
                w = -(precision[obs[:, :, None], mis[:, None, :]] @ v)[..., 0]
            else:
                blocks = params.covariance[obs[:, :, None], obs[:, None, :]]
                rhs = np.take_along_axis(pull[rows], obs, axis=1)
                w = _pinv_apply(blocks, rhs[..., None])[..., 0]
            coef[rows[:, None], obs] += w
            intercepts[rows] -= np.einsum("ij,ij->i", w, params.mean[obs])
    return coef, intercepts
