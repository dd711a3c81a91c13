"""Complexity of a missing-pattern law and its closed-form bounds.

Walks the four built-in d=4 Bernoulli masking laws across a log grid of
thresholds, prints the complexity table that drives estimator error rates,
and compares closed-form bounds against exact values.

Run:  python demos/complexity_curves.py
"""

import numpy as np

from patternlab import (
    BoundKind,
    HomogeneousBernoulli,
    MergeModel,
    MissingPattern,
    bernoulli_complexity_bound,
    entropy_bound,
    law_preset,
    merge_complexity_bound,
    pattern_complexity,
)
from patternlab.complexity import bound_report_csv

names = ("bern_pA", "bern_pB", "bern_pC", "bern_pD")
laws = {name: law_preset(name) for name in names}
taus = np.geomspace(1e-3, 1.0, 40)

print("complexity sum(min(p_m, tau)) on a 40-point log grid (selected rows)")
print(f"{'tau':>10}  " + "  ".join(f"{n:>8}" for n in names))
for tau in taus[::8]:
    row = "  ".join(f"{pattern_complexity(laws[n], tau):8.4f}" for n in names)
    print(f"{tau:10.4f}  {row}")

# the uniform law (pA, rate 0.5 at d=4) is the most complex masking law;
# raising the shared rate raises the complexity (pD below pB); the
# heterogeneous law pC trades regimes with its homogeneous twin pB
gap = np.array([pattern_complexity(laws["bern_pB"], t) - pattern_complexity(laws["bern_pC"], t) for t in taus])
flip = int(np.flatnonzero(np.sign(gap[:-1]) != np.sign(gap[1:]))[0])
print(f"\npB and pC swap order near tau = {taus[flip]:.4f}")

print("\nentropy-style upper bounds at tau = 0.01 for pB")
for kind in (BoundKind("hartley"), BoundKind("shannon"), BoundKind("renyi", 0.5), BoundKind("bertrand", 0.5)):
    out = entropy_bound(laws["bern_pB"], 0.01, kind)
    print(f"  {kind.name:>8}: {out.value:8.4f}  valid={out.valid}")
print(f"  exact    : {pattern_complexity(laws['bern_pB'], 0.01):8.4f}")

print("\nclosed-form bounds at threshold d/n for homogeneous masking, d=8")
for eps in (0.05, 0.1, 0.3):
    for n in (80, 800):
        out = bernoulli_complexity_bound(8, n, eps)
        exact = pattern_complexity(HomogeneousBernoulli(8, eps), 8 / n)
        print(
            f"  eps={eps:4.2f} n={n:4d}: s={out.s}  infimum={out.infimum:9.4f}  "
            f"plug_in={out.plug_in:9.4f}  exact={exact:7.4f}"
        )

print("\nmerged-sources masking: two half-measuring protocols, 1% failures")
protocols = [MissingPattern.from_string("11110000"), MissingPattern.from_string("00001111")]
merged = MergeModel(protocols, [0.5, 0.5], 0.01)
n = 10_000
exact = pattern_complexity(merged, 8 / n)
bound = merge_complexity_bound(8, n, 2, 0.01)
overall_rate = 1.0 - 0.99 / 2
naive = bernoulli_complexity_bound(8, n, overall_rate)
print(f"  overall missing rate {overall_rate:.3f} would suggest s={naive.s}, bound {naive.plug_in:10.1f}")
print(f"  protocol-aware bound uses the failure rate only: {bound:8.4f}  (exact {exact:.4f})")

with open("cp_curves.csv", "w", newline="") as handle:
    handle.write(bound_report_csv(laws, taus, alpha=0.5))
print("\nwrote cp_curves.csv")
