import itertools

import numpy as np
import pytest

from patternlab import (
    BernoulliPatterns,
    ExplicitPatterns,
    HomogeneousBernoulli,
    MergeModel,
    MissingPattern,
    UniformPatterns,
    distribution_from_json,
    explicit_from_json,
)


def merge_probability_oracle(model: MergeModel, m: MissingPattern) -> float:
    """Brute force over (protocol, failure pattern) outcomes."""
    d = model.dimension
    total = 0.0
    for protocol, w in zip(model.protocols, model.weights):
        for failure_bits in itertools.product((0, 1), repeat=d):
            final = protocol.bits
            p_failure = 1.0
            for j, f in enumerate(failure_bits):
                final |= f << j
                p_failure *= model.eta if f else 1.0 - model.eta
            if final == m.bits:
                total += w * p_failure
    return total


def law_families(d: int, rng) -> dict:
    """One law of each family at dimension d, with random parameters."""
    support = np.unique(rng.integers(0, 1 << d, size=min(40, 1 << d), dtype=np.int64))
    weights = rng.random(support.size)
    protocols = [MissingPattern(int(k), d) for k in rng.integers(0, 1 << d, size=3, dtype=np.int64)]
    return {
        "explicit": ExplicitPatterns(d, {MissingPattern(int(k), d): w for k, w in zip(support, weights / weights.sum())}),
        "bernoulli": BernoulliPatterns(np.concatenate([[0.0, 1.0], rng.random(d)])[:d]),
        "homogeneous_bernoulli": HomogeneousBernoulli(d, 0.23),
        "merge": MergeModel(protocols, [0.5, 0.3, 0.2], 0.17),
        "uniform": UniformPatterns(d),
    }


class TestProbabilityIsTheBatchPath:
    """P(M = m) of one pattern is, bit for bit, the batch probability of its
    key, for every family."""

    @staticmethod
    def assert_batch_path(d, keys, seed):
        for name, law in law_families(d, np.random.default_rng(seed)).items():
            batch = law.mask_probabilities(keys)
            for key, p in zip(keys, batch):
                m = MissingPattern(int(key), d)
                assert law.probability(m) == law.mask_probabilities(np.array([m.bits]))[0] == p, (name, m)

    @pytest.mark.parametrize("d", range(1, 11))
    def test_every_pattern(self, d):
        self.assert_batch_path(d, np.arange(1 << d, dtype=np.int64), seed=d)

    def test_random_keys_at_d30(self):
        rng = np.random.default_rng(30)
        keys = rng.integers(0, 1 << 30, size=500, dtype=np.int64)
        support = [m.bits for m, _ in law_families(30, np.random.default_rng(31))["explicit"].items()]
        keys = np.concatenate([keys, support, [0, (1 << 30) - 1]])
        self.assert_batch_path(30, keys, seed=31)

    def test_dimension_checked(self):
        for law in law_families(4, np.random.default_rng(0)).values():
            with pytest.raises(ValueError, match="does not match distribution dimension 4"):
                law.probability(MissingPattern(0, 5))


class TestBernoulli:
    def test_zero_rate_is_fully_observed(self):
        dist = HomogeneousBernoulli(4, 0.0)
        assert dist.probability(MissingPattern(0, 4)) == 1.0
        rng = np.random.default_rng(0)
        assert (dist.sample_masks(rng, 20) == 0).all()

    def test_unit_rate_is_fully_missing(self):
        dist = HomogeneousBernoulli(3, 1.0)
        rng = np.random.default_rng(0)
        assert (dist.sample_masks(rng, 20) == 0b111).all()

    def test_probability_formula(self):
        dist = BernoulliPatterns([0.3, 0.1, 0.05, 0.05])
        m = MissingPattern.from_string("1010")
        assert dist.probability(m) == pytest.approx(0.3 * 0.9 * 0.05 * 0.95, abs=1e-15)

    @pytest.mark.parametrize(
        "dist",
        [
            HomogeneousBernoulli(9, 0.23),
            BernoulliPatterns(np.linspace(0.05, 0.9, 12)),
            UniformPatterns(11),
        ],
    )
    def test_total_mass_one(self, dist):
        _, probs = dist.enumerate_probabilities()
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            HomogeneousBernoulli(3, 1.5)
        with pytest.raises(ValueError):
            BernoulliPatterns([0.1, -0.2])


class TestMergeModel:
    def test_single_empty_protocol_reduces_to_bernoulli(self):
        eta = 0.17
        merge = MergeModel([MissingPattern(0, 4)], [1.0], eta)
        bern = HomogeneousBernoulli(4, eta)
        for bits in range(16):
            m = MissingPattern(bits, 4)
            assert merge.probability(m) == pytest.approx(bern.probability(m), abs=1e-15)

    def test_two_protocol_example(self):
        eta = 0.1
        merge = MergeModel(
            [MissingPattern.from_string("10"), MissingPattern.from_string("00")],
            [0.5, 0.5],
            eta,
        )
        m = MissingPattern.from_string("10")
        expected = 0.5 * (1 - eta) + 0.5 * eta * (1 - eta)
        assert merge.probability(m) == pytest.approx(expected, abs=1e-15)
        assert merge_probability_oracle(merge, m) == pytest.approx(expected, abs=1e-15)

    def test_matches_brute_force_oracle(self):
        merge = MergeModel(
            [MissingPattern.from_string("1100"), MissingPattern.from_string("0010")],
            [0.7, 0.3],
            0.2,
        )
        for bits in range(16):
            m = MissingPattern(bits, 4)
            assert merge.probability(m) == pytest.approx(merge_probability_oracle(merge, m), abs=1e-13)

    def test_total_mass_one(self):
        merge = MergeModel(
            [MissingPattern.from_string("110000000000"), MissingPattern.from_string("000000000011")],
            [0.4, 0.6],
            0.05,
        )
        _, probs = merge.enumerate_probabilities()
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_protocol_superset_required(self):
        merge = MergeModel([MissingPattern.from_string("11")], [1.0], 0.5)
        assert merge.probability(MissingPattern.from_string("01")) == 0.0

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            MergeModel([MissingPattern(0, 2)], [0.5], 0.1)


class TestExplicit:
    def _uniform4(self):
        quarter = {MissingPattern(b, 2): 0.25 for b in range(4)}
        return ExplicitPatterns(2, quarter)

    def test_lookup_and_absent(self):
        dist = ExplicitPatterns(3, {MissingPattern(0, 3): 0.4, MissingPattern(5, 3): 0.6})
        assert dist.probability(MissingPattern(0, 3)) == 0.4
        assert dist.probability(MissingPattern(1, 3)) == 0.0

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        weights = rng.dirichlet(np.ones(9))
        dist = ExplicitPatterns(5, {MissingPattern(int(b), 5): w for b, w in enumerate(weights)})
        total = sum(dist.probability(MissingPattern(b, 5)) for b in range(32))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExplicitPatterns(2, {MissingPattern(0, 2): 0.5})
        with pytest.raises(ValueError):
            ExplicitPatterns(2, {MissingPattern(0, 2): -0.2, MissingPattern(1, 2): 1.2})

    def test_dimension_mismatch(self):
        dist = self._uniform4()
        with pytest.raises(ValueError):
            dist.probability(MissingPattern(0, 3))

    def test_law_of_large_numbers(self):
        dist = self._uniform4()
        rng = np.random.default_rng(7)
        keys = dist.sample_masks(rng, 100_000)
        for bits in range(4):
            assert abs(np.mean(keys == bits) - 0.25) <= 0.01

    def test_sampling_frequencies_match_probabilities(self):
        rng = np.random.default_rng(11)
        for dist in (
            HomogeneousBernoulli(5, 0.3),
            BernoulliPatterns([0.5, 0.1, 0.9, 0.2, 0.4, 0.05]),
            MergeModel([MissingPattern.from_string("1000"), MissingPattern.from_string("0011")], [0.5, 0.5], 0.1),
            UniformPatterns(6),
        ):
            keys = dist.sample_masks(rng, 100_000)
            all_keys, probs = dist.enumerate_probabilities()
            freq = np.bincount(keys, minlength=all_keys.size) / keys.size
            assert np.abs(freq - probs).max() <= 5.0 * np.sqrt(1.0 / 100_000)


class TestJson:
    def test_explicit_round_trip(self):
        obj = {
            "d": 4,
            "patterns": [{"mask": "0110", "p": 0.25}, {"mask": "0000", "p": 0.75}],
        }
        dist = explicit_from_json(obj)
        assert dist.probability(MissingPattern.from_string("0110")) == 0.25
        again = ExplicitPatterns(4, dict(dist.items()))
        assert again.probability(MissingPattern.from_string("0000")) == 0.75

    def test_explicit_rejects_bad_mask_length(self):
        with pytest.raises(ValueError):
            explicit_from_json({"d": 3, "patterns": [{"mask": "0110", "p": 1.0}]})

    def test_kind_dispatch(self):
        assert isinstance(
            distribution_from_json({"kind": "homogeneous_bernoulli", "d": 4, "epsilon": 0.2}),
            HomogeneousBernoulli,
        )
        assert isinstance(
            distribution_from_json({"kind": "merge", "protocols": ["10", "01"], "weights": [0.5, 0.5], "eta": 0.1}),
            MergeModel,
        )
        assert isinstance(distribution_from_json({"kind": "uniform", "d": 3}), UniformPatterns)
        with pytest.raises(ValueError):
            distribution_from_json({"kind": "nope"})

    def test_bare_explicit_object(self):
        dist = distribution_from_json({"d": 1, "patterns": [{"mask": "0", "p": 1.0}]})
        assert isinstance(dist, ExplicitPatterns)
