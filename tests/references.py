"""Reference implementations and lemma checks that the tests compare the
library against. None of them is called by the library itself.

* ``predict_one``: one row predicted as a batch of one;
* ``conditional_mean_map``: E[X_mis | X_obs] of a Gaussian, one pattern at
  a time through ``np.linalg.pinv``, against which ``optimum_rows`` (a
  stacked eigendecomposition kernel) is checked;
* ``pattern_complexity_subset_form``: C_p(tau) through its best subset;
* ``binomial_inverse_bounds_check``: the binomial inverse-moment lemma,
  verified in exact rational arithmetic;
* ``one_window_sample_within``: ``GaussianParams.sample_within`` as it
  was before boxes were split into independent blocks, with the count
  thinned by the first observed coordinate's window only, against which
  the draws of one-block boxes are checked bit for bit.
"""

import math
from fractions import Fraction

import numpy as np

from patternlab.patterns import MissingPattern, count, one_row, rate, threshold
from patternlab.solver import _normal_mass, _truncated_normal


def predict_one(model, x_obs, m: MissingPattern) -> float:
    """``model``'s prediction for one row holding ``x_obs`` at m's observed
    coordinates: the batch prediction of ``one_row``."""
    return float(model.predict_masked(*one_row(x_obs, m))[0])


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


def conditional_mean_map(params, observed) -> tuple[np.ndarray, np.ndarray]:
    """Affine map (offset, gain) with E[X_mis | X_obs = x] = offset + gain @ x.

    The observed block is inverted by ``np.linalg.pinv(block, rcond=eps * k,
    hermitian=True)``, the cutoff that ``solver._pinv_apply`` documents, so
    singular blocks resolve with the least-squares solver's rank cutoff;
    missing coordinates are reported in ascending order.
    """
    d = params.dimension
    obs = _validated_observed(observed, d)
    mis = np.setdiff1d(np.arange(d), obs)
    if mis.size == 0:
        return np.empty(0), np.empty((0, obs.size))
    if obs.size == 0:
        return params.mean[mis].copy(), np.empty((mis.size, 0))
    cov = params.covariance
    inverse = np.linalg.pinv(cov[np.ix_(obs, obs)], rcond=np.finfo(float).eps * obs.size, hermitian=True)
    gain = cov[np.ix_(mis, obs)] @ inverse
    offset = params.mean[mis] - gain @ params.mean[obs]
    return offset, gain


def pattern_complexity_subset_form(dist, tau: float) -> float:
    """C_p(tau) through its best subset: keep the patterns with p_m > tau,
    pay tau for each kept pattern plus the probability outside."""
    tau = threshold(tau, "tau")
    probs, counts = dist.atoms()
    kept = probs > tau
    return float(counts[kept].sum() * tau + (counts * probs)[~kept].sum())


def binomial_inverse_bounds_check(n: int, p: float) -> bool:
    """Exactly verify the inverse-moment bounds for B ~ Binomial(n, p):

        1/(1 + n p) <= E[1/(1+B)] <= 1/(p (n+1))
        E[1{B>0}/B] <= 2/(p (n+1))

    Sums run in exact rational arithmetic because the upper gap can shrink
    below float resolution.
    """
    if count(n, "n") > 30:
        raise ValueError(f"exact enumeration capped at n <= 30, got {n}")
    rate(p, "p")
    pf = Fraction(p)
    qf = 1 - pf
    pmf = [Fraction(math.comb(n, k)) * pf**k * qf ** (n - k) for k in range(n + 1)]
    inv_one_plus = sum(w / (1 + k) for k, w in enumerate(pmf))
    inv_positive = sum(w / k for k, w in enumerate(pmf) if k > 0)
    lower = 1 / (1 + n * pf)
    upper = 1 / (pf * (n + 1))
    return lower <= inv_one_plus <= upper and inv_positive <= 2 * upper


def one_window_sample_within(params, rng, n: int, observed, center, half: float) -> np.ndarray:
    """The box-first draw with one window: the QR of the factor's rows,
    observed coordinates first, gives a lower-triangular factor; the count
    is thinned by the first observed coordinate's window mass and that
    coordinate's normal drawn truncated to it (kept whole or emptied when
    it is constant), each later observed coordinate is kept by rejection,
    and the other coordinates are drawn last."""
    obs = np.asarray(observed, dtype=int)
    k, d = obs.size, params.dimension
    if k == 0:
        return params.sample(rng, n)
    others = np.ones(d, dtype=bool)
    others[obs] = False
    order = np.concatenate([obs, np.flatnonzero(others)])
    r = np.linalg.qr(params.factor[order].T, mode="r")
    lower = (r * np.where(np.diagonal(r) < 0.0, -1.0, 1.0)[:, None]).T
    offset = np.asarray(center, dtype=float) - params.mean[obs]
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
        z = np.compress((lo[i] <= t) & (t <= hi[i]), z, axis=0)
    z = np.hstack([z, rng.standard_normal((z.shape[0], d - k))])
    out = z @ lower[np.argsort(order)].T
    out += params.mean
    return out
