"""Complexity of a missing-pattern distribution, with bounds.

The central quantity is

    C_p(tau) = sum over patterns m of min(p_m, tau),    tau in (0, 1].

Every law answers ``atoms()``: its positive pattern probabilities with
their multiplicities. The exact value and the entropy bounds are sums over
those atoms, so both are computed wherever the law can list its atoms (any
d for explicit, homogeneous Bernoulli and uniform laws, d <= 20 for the
others). The complexity is also estimated by Monte Carlo as
the mean of min(1, tau / p_M), and bounded in closed form for the
Bernoulli and merge families. ``bound_report_csv`` writes the exact value
and the entropy bounds of named laws on a threshold grid as CSV.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .distributions import BernoulliPatterns, PatternDistribution
from .patterns import count, rate, threshold


def _complexity(probs: np.ndarray, counts: np.ndarray, tau: float) -> float:
    return float((counts * np.minimum(probs, tau)).sum())


def pattern_complexity(dist: PatternDistribution, tau: float) -> float:
    """Exact sum of min(p_m, tau) over all patterns, from the law's atoms."""
    tau = threshold(tau, "tau")
    return _complexity(*dist.atoms(), tau)


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
    """One of the entropy-style upper bounds: ``BoundKind("hartley")``,
    ``BoundKind("shannon")``, ``BoundKind("renyi", alpha)`` or
    ``BoundKind("bertrand", alpha)``, with alpha a ``rate``, stored as a float."""

    name: str
    alpha: float | None = None

    _NAMES = ("hartley", "shannon", "renyi", "bertrand")

    def __post_init__(self) -> None:
        if self.name not in self._NAMES:
            raise ValueError(f"unknown bound kind {self.name!r}")
        if self.name in ("renyi", "bertrand"):
            object.__setattr__(self, "alpha", rate(self.alpha, "alpha"))
        elif self.alpha is not None:
            raise ValueError(f"{self.name} takes no alpha")


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
    kinds = (BoundKind("hartley"), BoundKind("shannon"), BoundKind("renyi", alpha), BoundKind("bertrand", alpha))
    probs, counts = dist.atoms()
    return BoundReport(
        tau=tau,
        cp_exact=_complexity(probs, counts, tau),
        bounds={kind: _entropy_bound(probs, counts, tau, kind) for kind in kinds},
    )


def bound_report_csv(named_distributions: dict, taus, alpha: float = 0.5) -> str:
    """Per-law, per-threshold CSV of the exact complexity and its bounds."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow("dist tau cp_exact hartley shannon shannon_valid renyi_alpha renyi bertrand bertrand_valid".split())
    for name, dist in named_distributions.items():
        for tau in taus:
            report = bound_report(dist, tau, alpha=alpha)
            bounds = report.bounds
            shannon = bounds[BoundKind("shannon")]
            bertrand = bounds[BoundKind("bertrand", alpha)]
            writer.writerow(
                [
                    name,
                    repr(float(tau)),
                    repr(report.cp_exact),
                    repr(bounds[BoundKind("hartley")].value),
                    repr(shannon.value),
                    str(shannon.valid).lower(),
                    repr(float(alpha)),
                    repr(bounds[BoundKind("renyi", alpha)].value),
                    repr(bertrand.value),
                    str(bertrand.valid).lower(),
                ]
            )
    return buffer.getvalue()


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
    eps = BernoulliPatterns(epsilons).epsilons
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
