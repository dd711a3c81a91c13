import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patternlab import (
    BernoulliPatterns,
    BoundKind,
    ExplicitPatterns,
    HomogeneousBernoulli,
    MergeModel,
    MissingPattern,
    UniformPatterns,
    bernoulli_complexity_bound,
    bound_report,
    effective_missing_dimension,
    entropy_bound,
    heterogeneous_complexity_bound,
    merge_complexity_bound,
    pattern_complexity,
    pattern_complexity_mc,
)
from references import binomial_inverse_bounds_check, pattern_complexity_subset_form


def brute_force_complexity(dist, tau: float) -> float:
    """Independent oracle: sum min(p_m, tau) over every d-bit pattern."""
    total = 0.0
    for bits in range(1 << dist.dimension):
        total += min(dist.probability(MissingPattern(bits, dist.dimension)), tau)
    return total


def random_explicit(rng, d, support_size=None):
    size = support_size or int(rng.integers(1, min(2**d, 40) + 1))
    keys = rng.choice(2**d, size=size, replace=False)
    weights = rng.dirichlet(np.ones(size))
    return ExplicitPatterns(d, {MissingPattern(int(k), d): float(w) for k, w in zip(keys, weights)})


def point_mass(d=3, bits=5):
    return ExplicitPatterns(d, {MissingPattern(bits, d): 1.0})


class TestPatternComplexity:
    def test_uniform_identity(self):
        # exact for thresholds 1/n at or below the uniform atom, i.e. n >= 2**d
        for d, n in [(4, 16), (4, 100), (8, 256), (8, 10_000), (12, 4096), (12, 1_000_000)]:
            assert pattern_complexity(UniformPatterns(d), 1.0 / n) == 2.0**d / n

    def test_uniform_saturates_at_one_below_capacity(self):
        assert pattern_complexity(UniformPatterns(4), 1.0 / 10) == 1.0

    def test_point_mass(self):
        for tau in (0.01, 0.3, 1.0):
            assert pattern_complexity(point_mass(), tau) == tau

    def test_homogeneous_matches_brute_force(self):
        dist = HomogeneousBernoulli(4, 0.15)
        assert pattern_complexity(dist, 0.1) == pytest.approx(
            brute_force_complexity(dist, 0.1), abs=1e-12
        )

    def test_heterogeneous_matches_brute_force(self):
        dist = BernoulliPatterns([0.3, 0.1, 0.05, 0.6])
        for tau in (0.001, 0.05, 0.4):
            assert pattern_complexity(dist, tau) == pytest.approx(
                brute_force_complexity(dist, tau), abs=1e-12
            )

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            pattern_complexity(UniformPatterns(2), 0.0)
        with pytest.raises(ValueError):
            pattern_complexity(UniformPatterns(2), 1.5)

    def test_large_dimension_needs_monte_carlo(self):
        with pytest.raises(ValueError, match="Monte Carlo"):
            pattern_complexity(BernoulliPatterns(np.full(25, 0.3)), 0.1)

    def test_explicit_large_dimension_still_exact(self):
        dist = ExplicitPatterns(40, {MissingPattern(0, 40): 0.5, MissingPattern(1, 40): 0.5})
        assert pattern_complexity(dist, 0.25) == pytest.approx(0.5, abs=1e-15)


class TestSubsetForm:
    def test_point_mass(self):
        assert pattern_complexity_subset_form(point_mass(), 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_uniform_all_mass_below_threshold(self):
        dist = UniformPatterns(3)
        assert pattern_complexity_subset_form(dist, 0.2) == pytest.approx(1.0, abs=1e-12)

    def test_equals_min_sum_on_random_laws(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            dist = random_explicit(rng, 8)
            for tau in rng.uniform(1e-4, 1.0, size=20):
                assert pattern_complexity_subset_form(dist, tau) == pytest.approx(
                    pattern_complexity(dist, tau), abs=1e-12
                )


def explicit_d30():
    return ExplicitPatterns(
        30, {MissingPattern(0, 30): 0.5, MissingPattern(2**29 + 1, 30): 0.3, MissingPattern(2**30 - 1, 30): 0.2}
    )


class TestAtoms:
    """Every family lists its positive atoms; the exact value, the subset
    form and the bounds read nothing else."""

    @pytest.mark.parametrize(
        "dist",
        [
            ExplicitPatterns(6, {MissingPattern(3, 6): 0.25, MissingPattern(40, 6): 0.75}),
            BernoulliPatterns([0.3, 0.0, 0.05, 0.6, 1.0, 0.2, 0.45]),
            HomogeneousBernoulli(12, 0.2),
            HomogeneousBernoulli(7, 1.0),
            MergeModel(
                [MissingPattern.from_string("1100000000"), MissingPattern.from_string("0000000011")],
                [0.4, 0.6],
                0.05,
            ),
            UniformPatterns(9),
        ],
        ids=["explicit", "bernoulli", "homogeneous", "homogeneous_degenerate", "merge", "uniform"],
    )
    def test_atoms_cover_the_positive_patterns(self, dist):
        probs, counts = dist.atoms()
        _, enumerated = dist.enumerate_probabilities()
        assert (probs > 0.0).all()
        assert counts.sum() == np.count_nonzero(enumerated > 0.0)
        assert abs(float((counts * probs).sum()) - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "dist", [HomogeneousBernoulli(30, 0.1), UniformPatterns(30), explicit_d30()], ids=["homogeneous", "uniform", "explicit"]
    )
    def test_subset_form_at_dimension_30(self, dist):
        for tau in (1e-10, 1e-9, 1e-4, 0.01, 0.25, 1.0):
            assert pattern_complexity_subset_form(dist, tau) == pytest.approx(
                pattern_complexity(dist, tau), rel=1e-12, abs=0.0
            )

    def test_explicit_at_dimension_30(self):
        dist = explicit_d30()
        probs, counts = dist.atoms()
        assert probs.tolist() == [0.5, 0.3, 0.2] and counts.tolist() == [1.0, 1.0, 1.0]
        report = bound_report(dist, 0.25)
        assert report.cp_exact == pytest.approx(0.7, abs=1e-15)
        assert report.bounds[BoundKind("hartley")].value == 0.75


class TestMonteCarlo:
    def test_point_mass_is_exact(self):
        out = pattern_complexity_mc(point_mass(), 0.3, 500, np.random.default_rng(0))
        assert out.estimate == 0.3
        assert out.std_error == 0.0

    def test_uniform_saturated_integrand(self):
        out = pattern_complexity_mc(UniformPatterns(3), 1.0, 500, np.random.default_rng(1))
        assert out.estimate == 1.0
        assert out.std_error == 0.0

    def test_matches_exact_enumeration_at_d16(self):
        rng = np.random.default_rng(123)
        eps = np.linspace(0.02, 0.6, 16)
        dist = BernoulliPatterns(eps)
        tau = 1e-3
        exact = pattern_complexity(dist, tau)
        out = pattern_complexity_mc(dist, tau, 300_000, rng)
        assert abs(out.estimate - exact) <= 4.0 * out.std_error


class TestEntropyBounds:
    def test_uniform_hartley_exact(self):
        for d in (3, 6, 10):
            for tau in (1e-4, 0.01, 0.2):
                out = entropy_bound(UniformPatterns(d), tau, BoundKind("hartley"))
                assert out.value == (1 << d) * tau
                assert out.valid

    def test_uniform_shannon_value(self):
        out = entropy_bound(UniformPatterns(4), 0.01, BoundKind("shannon"))
        assert out.value == pytest.approx(math.log(16) / math.log(100), abs=1e-12)
        assert out.valid

    def test_validity_flags(self):
        spiky = ExplicitPatterns(2, {MissingPattern(0, 2): 0.9, MissingPattern(1, 2): 0.1})
        assert not entropy_bound(spiky, 0.01, BoundKind("shannon")).valid
        assert not entropy_bound(spiky, 0.01, BoundKind("bertrand", 0.5)).valid
        assert entropy_bound(spiky, 0.01, BoundKind("hartley")).valid
        flat = UniformPatterns(4)
        assert not entropy_bound(flat, 0.5, BoundKind("shannon")).valid

    def test_alpha_validation(self):
        for name, alpha in (("renyi", 1.0), ("bertrand", 0.0), ("renyi", math.nan), ("bertrand", True), ("renyi", None)):
            with pytest.raises(ValueError, match="alpha must be"):
                BoundKind(name, alpha)
        with pytest.raises(ValueError, match="takes no alpha"):
            BoundKind("hartley", 0.5)
        assert BoundKind("renyi", np.float64(0.5)) == BoundKind("renyi", 1 / 2)

    def test_valid_bounds_dominate_exact_value(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            d = int(rng.integers(3, 9))
            size = int(rng.integers(6, min(2**d, 30) + 1))
            keys = rng.choice(2**d, size=size, replace=False)
            raw = rng.uniform(0.5, 1.0, size=size)
            weights = raw / raw.sum()  # max atom <= 2/size <= 1/3 < 1/e
            dist = ExplicitPatterns(d, {MissingPattern(int(k), d): float(w) for k, w in zip(keys, weights)})
            for tau in (1e-4, 1e-3, 0.01, 0.1, 0.3):
                exact = pattern_complexity(dist, tau)
                report = bound_report(dist, tau, alpha=float(rng.uniform(0.1, 0.9)))
                for kind, bound in report.bounds.items():
                    if bound.valid:
                        assert bound.value >= exact - 1e-12, (kind, tau)


class TestGroupedBounds:
    """Homogeneous Bernoulli bounds come from d + 1 grouped atoms; the same
    rates as a BernoulliPatterns law are enumerated pattern by pattern."""

    @pytest.mark.parametrize("d", [1, 2, 5, 9, 12])
    @pytest.mark.parametrize("eps", [0.0, 0.03, 0.2, 0.5, 0.8, 1.0])
    def test_grouped_equals_enumerated(self, d, eps):
        grouped, enumerated = HomogeneousBernoulli(d, eps), BernoulliPatterns(np.full(d, eps))
        for tau in (1e-4, 0.01, 0.3, 1.0):
            for alpha in (0.1, 0.5, 0.9):
                report, reference = bound_report(grouped, tau, alpha), bound_report(enumerated, tau, alpha)
                assert report.cp_exact == pytest.approx(reference.cp_exact, rel=1e-12, abs=0.0)
                for kind, bound in report.bounds.items():
                    expected = reference.bounds[kind]
                    assert bound.valid == expected.valid, (kind, tau)
                    assert bound.value == pytest.approx(expected.value, rel=1e-12, abs=0.0), (kind, tau)
                    assert bound == entropy_bound(grouped, tau, kind)

    def test_dimension_30(self):
        report = bound_report(HomogeneousBernoulli(30, 0.1), 0.01)
        assert report.cp_exact == pytest.approx(pattern_complexity(HomogeneousBernoulli(30, 0.1), 0.01))
        assert report.bounds[BoundKind("hartley")].value == pytest.approx(2.0**30 * 0.01)
        for bound in report.bounds.values():
            assert math.isfinite(bound.value)
            if bound.valid:
                assert bound.value >= report.cp_exact


class TestEffectiveDimension:
    def test_worked_value(self):
        assert effective_missing_dimension(8, 800, 0.1) == 2

    def test_clamping(self):
        assert effective_missing_dimension(4, 4, 0.5) == 1
        assert effective_missing_dimension(2, 10_000_000, 0.5) == 2

    def test_degenerate_rates_rejected(self):
        for eps in (0.0, 1.0):
            with pytest.raises(ValueError):
                effective_missing_dimension(4, 100, eps)
        with pytest.raises(ValueError):
            effective_missing_dimension(10, 5, 0.3)


class TestBernoulliBound:
    def test_rate_matching_threshold_gives_linear_in_d_squared(self):
        d, n = 4, 400
        out = bernoulli_complexity_bound(d, n, d / n)
        assert out.s == 1
        assert out.plug_in == pytest.approx(math.e * d * d / n, abs=1e-12)

    def test_bounds_dominate_exact_complexity(self):
        d, n, eps = 10, 1000, 0.3
        exact = pattern_complexity(HomogeneousBernoulli(d, eps), d / n)
        out = bernoulli_complexity_bound(d, n, eps)
        assert out.infimum >= exact
        assert out.plug_in >= exact

    def test_infimum_no_larger_than_plug_in_term(self):
        out = bernoulli_complexity_bound(8, 800, 0.1)
        s = out.s
        assert out.infimum <= (8 / 800 + 0.1**s) * (math.e * 8 / s) ** s + 1e-15


class TestMergeBound:
    def test_single_trivial_protocol_matches_bernoulli_plug_in(self):
        d, n, eta = 6, 600, 0.05
        merged = merge_complexity_bound(d, n, 1, eta)
        assert merged == pytest.approx(bernoulli_complexity_bound(d, n, eta).plug_in, abs=1e-12)

    def test_dominates_exact_merge_complexity(self):
        d, n, h, eta = 8, 10_000, 2, 0.01
        protocols = [MissingPattern.from_string("11110000"), MissingPattern.from_string("00001111")]
        dist = MergeModel(protocols, [0.5, 0.5], eta)
        exact = pattern_complexity(dist, d / n)
        assert merge_complexity_bound(d, n, h, eta) >= exact

    def test_overall_missing_rate_vs_failure_rate_comparison(self):
        # two half-masking protocols, failure rate 1%: the overall missing
        # rate is 1 - 0.99/2 per coordinate, 25x the protocol-failure mass
        h, eta = 2, 0.01
        eps = 1.0 - (1.0 - eta) / h
        assert eps == pytest.approx(0.505, abs=1e-15)
        assert eps / (h * eta) == pytest.approx(25.0, rel=0.011)
        d, n = 8, 10_000
        s_overall = effective_missing_dimension(d, n, eps)
        s_failures = effective_missing_dimension(d, n, eta)
        assert s_overall == 8 and s_failures == 1
        assert merge_complexity_bound(d, n, h, eta) < bernoulli_complexity_bound(d, n, eps).plug_in


class TestHeterogeneousBound:
    def test_condition_flag(self):
        ok = heterogeneous_complexity_bound(4, 4000, [0.05, 0.05, 0.1, 0.2])
        assert ok.condition_ok
        bad = heterogeneous_complexity_bound(8, 16, np.full(8, 0.45))
        assert not bad.condition_ok

    def test_dominates_exact_complexity_when_condition_holds(self):
        eps = np.array([0.3, 0.2, 0.05, 0.05])
        d, n = 4, 4000
        out = heterogeneous_complexity_bound(d, n, eps)
        assert out.condition_ok
        assert out.plug_in >= pattern_complexity(BernoulliPatterns(eps), d / n)


class TestBinomialInverseBounds:
    def test_two_outcome_sum(self):
        # n=1, p=0.5: E[1/(1+B)] = 0.75 against bounds 2/3 and 1
        assert binomial_inverse_bounds_check(1, 0.5)

    def test_exact_sums_hold(self):
        assert binomial_inverse_bounds_check(10, 0.3)
        assert binomial_inverse_bounds_check(30, 0.9)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            binomial_inverse_bounds_check(31, 0.5)
        with pytest.raises(ValueError):
            binomial_inverse_bounds_check(10, 0.0)


class TestComplexityProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_monotone_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        dist = random_explicit(rng, 6)
        taus = np.sort(rng.uniform(1e-4, 1.0, size=8))
        values = [pattern_complexity(dist, t) for t in taus]
        for t, v in zip(taus, values):
            assert t - 1e-12 <= v <= 1.0 + 1e-12
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_midpoint_concavity_and_scaling(self, seed):
        rng = np.random.default_rng(seed)
        dist = random_explicit(rng, 6)
        t1, t2 = np.sort(rng.uniform(1e-4, 1.0, size=2))
        mid = pattern_complexity(dist, (t1 + t2) / 2.0)
        assert mid >= (pattern_complexity(dist, t1) + pattern_complexity(dist, t2)) / 2.0 - 1e-12
        lam = float(rng.uniform(1.0, 1.0 / t1))
        assert pattern_complexity(dist, min(1.0, lam * t1)) <= lam * pattern_complexity(dist, t1) + 1e-12
