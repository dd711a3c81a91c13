"""Complexity of a missing-pattern distribution, with bounds.

The central quantity is

    C_p(tau) = sum over patterns m of min(p_m, tau),    tau in (0, 1].

Every law answers ``atoms()``: its positive pattern probabilities with
their multiplicities. The exact value, its best-subset form and the entropy
bounds are all sums over those atoms, so they agree wherever the law can
list its atoms (any d for explicit, homogeneous Bernoulli and uniform laws,
d <= 20 for the others). The complexity is also estimated by Monte Carlo as
the mean of min(1, tau / p_M), and bounded in closed form for the
Bernoulli and merge families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .distributions import PatternDistribution
from .patterns import count, rate, threshold


def _complexity(probs: np.ndarray, counts: np.ndarray, tau: float) -> float:
    return float((counts * np.minimum(probs, tau)).sum())


def pattern_complexity(dist: PatternDistribution, tau: float) -> float:
    """Exact sum of min(p_m, tau) over all patterns, from the law's atoms."""
    tau = threshold(tau, "tau")
    return _complexity(*dist.atoms(), tau)


def pattern_complexity_subset_form(dist: PatternDistribution, tau: float) -> float:
    """The same quantity through its best subset: keep the patterns with
    p_m > tau, pay tau for each kept pattern plus the probability outside.
    """
    tau = threshold(tau, "tau")
    probs, counts = dist.atoms()
    kept = probs > tau
    return float(counts[kept].sum() * tau + (counts * probs)[~kept].sum())


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    std_error: float
    samples: int


def pattern_complexity_mc(
    dist: PatternDistribution, tau: float, samples: int, rng: np.random.Generator
) -> McEstimate:
    """Monte Carlo estimate: mean of min(1, tau / p_M) over draws M ~ dist."""
    tau = threshold(tau, "tau")
    if count(samples, "samples") < 2:
        raise ValueError(f"at least 2 samples required, got {samples}")
    keys = dist.sample_masks(rng, samples)
    probs = dist.mask_probabilities(keys)
    if (probs <= 0.0).any():
        raise RuntimeError("sampled a pattern of zero probability; sampler and law disagree")
    values = np.minimum(1.0, tau / probs)
    # correctly rounded mean, so constant integrands come back exact
    estimate = math.fsum(values) / samples
    spread = math.fsum((values - estimate) ** 2)
    return McEstimate(
        estimate=estimate,
        std_error=math.sqrt(spread / (samples - 1)) / math.sqrt(samples),
        samples=samples,
    )


@dataclass(frozen=True)
class BoundKind:
    """One of the entropy-style upper bounds: hartley, shannon, renyi, bertrand."""

    name: str
    alpha: float | None = None

    _NAMES = ("hartley", "shannon", "renyi", "bertrand")

    def __post_init__(self) -> None:
        if self.name not in self._NAMES:
            raise ValueError(f"unknown bound kind {self.name!r}")
        needs_alpha = self.name in ("renyi", "bertrand")
        if needs_alpha:
            if self.alpha is None or not 0.0 < self.alpha < 1.0:
                raise ValueError(f"{self.name} needs alpha strictly inside (0, 1)")
        elif self.alpha is not None:
            raise ValueError(f"{self.name} takes no alpha")

    @classmethod
    def hartley(cls) -> "BoundKind":
        return cls("hartley")

    @classmethod
    def shannon(cls) -> "BoundKind":
        return cls("shannon")

    @classmethod
    def renyi(cls, alpha: float) -> "BoundKind":
        return cls("renyi", float(alpha))

    @classmethod
    def bertrand(cls, alpha: float) -> "BoundKind":
        return cls("bertrand", float(alpha))


@dataclass(frozen=True)
class BoundValue:
    value: float
    valid: bool


@dataclass(frozen=True)
class BoundReport:
    """All bound values for one law at one threshold, plus the exact value."""

    tau: float
    cp_exact: float
    bounds: dict


def entropy_bound(dist: PatternDistribution, tau: float, kind: BoundKind) -> BoundValue:
    """Upper bound on the complexity from an entropy functional of the law.

    hartley:  card(support) * tau
    shannon:  sum p log(1/p) / log(1/tau)
    renyi:    tau**(1-alpha) * sum p**alpha
    bertrand: tau**(1-alpha) / log(1/tau)**alpha * sum (p log(1/p))**alpha

    The hartley and renyi bounds always hold; shannon and bertrand are only
    guaranteed when every atom is at most 1/e and tau < 1/e, which the
    ``valid`` flag records.
    """
    tau = threshold(tau, "tau")
    return _entropy_bound(*dist.atoms(), tau, kind)


def _entropy_bound(probs: np.ndarray, counts: np.ndarray, tau: float, kind: BoundKind) -> BoundValue:
    """entropy_bound over the law's atoms, each sum weighted by multiplicity."""
    if kind.name == "hartley":
        return BoundValue(value=float(counts.sum()) * tau, valid=True)
    if kind.name == "renyi":
        power_sum = float((counts * probs**kind.alpha).sum())
        return BoundValue(value=tau ** (1.0 - kind.alpha) * power_sum, valid=True)
    small_atoms = bool(probs.max(initial=0.0) <= 1.0 / math.e) and tau < 1.0 / math.e
    if tau >= 1.0:
        return BoundValue(value=math.inf, valid=False)
    log_inv_tau = math.log(1.0 / tau)
    if kind.name == "shannon":
        ent = float((counts * probs * np.log(1.0 / probs)).sum())
        return BoundValue(value=ent / log_inv_tau, valid=small_atoms)
    terms = counts * (probs * np.log(1.0 / probs)) ** kind.alpha
    value = tau ** (1.0 - kind.alpha) / log_inv_tau**kind.alpha * float(terms.sum())
    return BoundValue(value=value, valid=small_atoms)


def bound_report(dist: PatternDistribution, tau: float, alpha: float = 0.5) -> BoundReport:
    """The exact complexity and the four entropy bounds, from one pass over
    the law's atoms."""
    tau = threshold(tau, "tau")
    kinds = (
        BoundKind.hartley(),
        BoundKind.shannon(),
        BoundKind.renyi(alpha),
        BoundKind.bertrand(alpha),
    )
    probs, counts = dist.atoms()
    return BoundReport(
        tau=tau,
        cp_exact=_complexity(probs, counts, tau),
        bounds={kind: _entropy_bound(probs, counts, tau, kind) for kind in kinds},
    )


def effective_missing_dimension(d: int, n: int, epsilon: float) -> int:
    """floor(log(n/d) / log(1/epsilon)) clamped to [1, d].

    The number of missing coordinates that n samples can resolve under
    Bernoulli masking at rate epsilon. Degenerate rates 0 and 1 are
    rejected since the ratio is undefined there.
    """
    if not count(d, "d") <= count(n, "n"):
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    epsilon = rate(epsilon, "epsilon")
    raw = math.floor(math.log(n / d) / math.log(1.0 / epsilon))
    return min(max(1, raw), d)


@dataclass(frozen=True)
class BernoulliComplexityBound:
    """Closed-form complexity bounds at threshold d/n for homogeneous masking.

    infimum: min over s' in [d] of (d/n + eps**s') * (e d / s')**s'.
    plug_in: (e d / s)**s * d/n at the effective dimension s.
    """

    s: int
    infimum: float
    plug_in: float


def bernoulli_complexity_bound(d: int, n: int, epsilon: float) -> BernoulliComplexityBound:
    s = effective_missing_dimension(d, n, epsilon)
    tau = d / n
    infimum = min(
        (tau + epsilon**sp) * (math.e * d / sp) ** sp for sp in range(1, d + 1)
    )
    plug_in = (math.e * d / s) ** s * tau
    return BernoulliComplexityBound(s=s, infimum=float(infimum), plug_in=float(plug_in))


@dataclass(frozen=True)
class HeterogeneousComplexityBound:
    """Plug-in bound using the mean rate; only guaranteed when s >= mean_rate * d."""

    s: int
    plug_in: float
    condition_ok: bool


def heterogeneous_complexity_bound(d: int, n: int, epsilons) -> HeterogeneousComplexityBound:
    eps = np.asarray(epsilons, dtype=float)
    if eps.shape != (d,):
        raise ValueError(f"expected {d} rates, got shape {eps.shape}")
    mean_rate = float(eps.mean())
    s = effective_missing_dimension(d, n, mean_rate)
    plug_in = (math.e * d / s) ** s * (d / n)
    return HeterogeneousComplexityBound(s=s, plug_in=float(plug_in), condition_ok=s >= mean_rate * d)


def merge_complexity_bound(d: int, n: int, h: int, eta: float) -> float:
    """(e d / s)**s * h * d/n with s the effective dimension at the failure rate.

    The protocol count h enters linearly; the protocol patterns themselves
    do not matter.
    """
    count(h, "protocol count")
    s = effective_missing_dimension(d, n, eta)
    return (math.e * d / s) ** s * h * (d / n)


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
