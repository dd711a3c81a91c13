"""Dense least squares and Gaussian conditioning primitives."""

from __future__ import annotations

import math
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

from .patterns import AffineModel, matrix, vector


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
    return solve_design(np.column_stack([features, np.ones(n)]), targets)


def solve_design(design: np.ndarray, targets: np.ndarray) -> AffineModel:
    """The affine model of ``least_squares`` from a finite (n, c + 1) design
    whose last column already holds the intercept's ones: one
    ``lstsq_stack`` call on a stack of one, with no checks and no copy
    before the kernel's own."""
    solution = lstsq_stack(design[None], targets[None])[0]
    return AffineModel(float(solution[-1]), solution[:-1])


@dataclass(frozen=True)
class GaussianParams:
    """Mean and covariance of a d-dimensional Gaussian.

    Both are read through the ``vector`` and ``matrix`` field kinds, so they
    hold finite numbers, never booleans or strings. The mean must hold at
    least one number. The covariance must be symmetric within 1e-12 and may
    be singular; eigenvalues below -1e-10 are rejected.

    Construction makes one eigendecomposition of the covariance, which gives
    that check and two attributes:

    * ``factor``, a read-only matrix F with F @ F.T equal to the covariance
      (its spectral square root, valid for singular covariances); samples
      are mean + F @ z with z standard normal;
    * ``condition_number``, lambda_max / lambda_min of the covariance; inf
      when it is singular.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        mean = vector(self.mean, "mean")
        cov = matrix(self.covariance, "covariance")
        d = mean.size
        if d == 0:
            raise ValueError("mean must hold at least one number")
        if cov.shape != (d, d):
            raise ValueError(f"covariance shape {cov.shape} does not match dimension {d}")
        if np.abs(cov - cov.T).max() > 1e-12:
            raise ValueError("covariance must be symmetric within 1e-12")
        eigvals, eigvecs = np.linalg.eigh(cov)
        if eigvals[0] < -1e-10:
            raise ValueError("covariance has an eigenvalue below -1e-10")
        factor = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
        for array in (mean, cov, factor):
            array.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "factor", factor)
        condition = float(eigvals[-1] / eigvals[0]) if eigvals[0] > 0.0 else float("inf")
        object.__setattr__(self, "condition_number", condition)

    @property
    def dimension(self) -> int:
        return self.mean.size

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

    def sample_within(self, rng: np.random.Generator, n: int, observed, center, half: float) -> np.ndarray:
        """The draws among ``n`` fresh ones of this Gaussian whose observed
        coordinates lie in the box of half-width ``half`` around ``center``
        in sup-norm, drawn box first: a (c, d) array with c Binomial(n,
        P(box)). ``observed`` holds the box's coordinates in ascending
        order and ``center`` one number for each; with none, this is
        ``sample``.

        The QR of the factor's rows, observed coordinates first and then the
        others, gives a lower-triangular factor L of the covariance in that
        order, so observed coordinate i is mu_i + (L z)_i with z standard
        normal and (L z)_i reading z_0..z_i only. The count n is thinned by
        the first coordinate's window mass and z_0 is drawn truncated to the
        window. Each later observed coordinate then draws its z_i for the
        rows still kept and keeps those that land in its window: plain
        rejection, which needs no normal CDF. The other coordinates' normals
        are drawn last, for the rows kept. The bounds take the offset
        center - mu first, so a window at mu = 1e308 keeps its width.
        Rounding of mu + L z can put a row just outside the box, so callers
        filter the rows as before. When L_00 is 0, the first coordinate is
        constant: the count is kept whole or emptied by whether the constant
        lies in its window, and z_0 is drawn plainly.
        """
        obs = np.asarray(observed, dtype=int)
        k, d = obs.size, self.dimension
        if k == 0:
            return self.sample(rng, n)
        others = np.ones(d, dtype=bool)
        others[obs] = False
        order = np.concatenate([obs, np.flatnonzero(others)])
        r = np.linalg.qr(self.factor[order].T, mode="r")
        # F[order] F[order].T = R.T R; rows of R signed so that L's diagonal is >= 0
        lower = (r * np.where(np.diagonal(r) < 0.0, -1.0, 1.0)[:, None]).T
        offset = np.asarray(center, dtype=float) - self.mean[obs]
        lo, hi = offset - half, offset + half
        sigma = lower[0, 0]
        if sigma > 0.0:
            a, b = lo[0] / sigma, hi[0] / sigma
            size = rng.binomial(n, _normal_mass(a, b))
            first = _truncated_normal(rng, size, a, b)
        else:
            size = n if lo[0] <= 0.0 <= hi[0] else 0
            first = rng.standard_normal(size)
        z = np.empty((size, k))
        z[:, 0] = first
        for i in range(1, k):
            z[:, i] = rng.standard_normal(z.shape[0])
            t = z[:, : i + 1] @ lower[i, : i + 1]
            # compress, not a boolean index: several times faster on rows
            z = np.compress((lo[i] <= t) & (t <= hi[i]), z, axis=0)
        z = np.hstack([z, rng.standard_normal((z.shape[0], d - k))])
        out = z @ lower[np.argsort(order)].T
        out += self.mean
        return out


_SQRT2 = math.sqrt(2.0)


def _normal_mass(a: float, b: float) -> float:
    """P(a <= Z <= b) for a standard normal Z and a <= b. On one side of 0
    the difference is taken between upper-tail ``erfc`` values, so a window
    8 or more standard deviations out keeps its relative precision instead
    of rounding to 0."""
    if a >= 0.0:
        return 0.5 * (math.erfc(a / _SQRT2) - math.erfc(b / _SQRT2))
    if b <= 0.0:
        return 0.5 * (math.erfc(-b / _SQRT2) - math.erfc(-a / _SQRT2))
    return 0.5 * (math.erf(b / _SQRT2) - math.erf(a / _SQRT2))


def _truncated_normal(rng: np.random.Generator, size: int, a: float, b: float) -> np.ndarray:
    """``size`` draws of a standard normal truncated to [a, b], a < b, by
    rejection from one of the three proposals of Robert (1995), *Simulation
    of truncated normal variables*, chosen from (a, b):

    * uniform on [a, b], accepted with probability exp((m^2 - z^2) / 2)
      where m is the point of [a, b] nearest 0, for narrow windows: around
      0 narrower than sqrt(2 pi), and in a tail narrower than Robert's bound
      2 sqrt(e) / (a + r) exp((a^2 - a r) / 4), r = sqrt(a^2 + 4);
    * an exponential of rate alpha = (a + r) / 2 translated to a, accepted
      with probability exp(-(z - alpha)^2 / 2) and z <= b, for wider windows
      in a tail;
    * a plain standard normal, accepted inside [a, b], for wide windows
      around 0.

    A window below 0 (a < 0 and b <= 0) is drawn mirrored. Each round
    proposes twice the draws still wanted, and accepted draws are kept in
    order until ``size`` are. No draw is wanted from an empty window, so a
    size of 0 returns at once, whatever the bounds.
    """
    if size == 0:
        return np.empty(0)
    if a < 0.0 and b <= 0.0:
        return -_truncated_normal(rng, size, -b, -a)
    if a < 0.0:
        uniform = b - a < math.sqrt(2.0 * math.pi)
    else:
        root = math.sqrt(a * a + 4.0)
        uniform = b - a < 2.0 * math.sqrt(math.e) / (a + root) * math.exp((a * a - a * root) / 4.0)
        rate = (a + root) / 2.0
    nearest = max(a, 0.0)
    out = np.empty(size)
    filled = 0
    while filled < size:
        want = size - filled
        proposals = 2 * want + 16
        if uniform:
            z = rng.uniform(a, b, proposals)
            kept = z[rng.random(proposals) <= np.exp(0.5 * (nearest - z) * (nearest + z))]
        elif a < 0.0:
            z = rng.standard_normal(proposals)
            kept = z[(a <= z) & (z <= b)]
        else:
            z = a + rng.exponential(1.0 / rate, proposals)
            kept = z[(z <= b) & (rng.random(proposals) <= np.exp(-0.5 * (z - rate) ** 2))]
        kept = kept[:want]
        out[filled : filled + kept.size] = kept
        filled += kept.size
    return out


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
      cutoff of ``_pinv_apply``.
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
