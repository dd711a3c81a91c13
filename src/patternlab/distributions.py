"""Probability laws over missingness patterns.

Families: explicit laws stored sparsely on their support, independent
per-coordinate Bernoulli masking (homogeneous or per-coordinate rates), the
merge model (a categorical protocol mask OR-ed with independent
per-coordinate failures), and the uniform law over all 2**d patterns.
``law_preset`` builds the four d = 4 Bernoulli laws of the complexity
curves by name.
"""

from __future__ import annotations

import abc
import math
from functools import partial

import numpy as np

from .patterns import MissingPattern, json_field, json_fields, pack_mask_rows, sorted_lookup, unpack_masks
from .patterns import array, dimension, mask, probability, probability_vector, records, vector

ENUMERATION_LIMIT = 20


def categorical(rng: np.random.Generator, cumulative: np.ndarray, size: int) -> np.ndarray:
    """``size`` indices drawn by one ``rng.random(size)`` call from the law
    with cumulative weights ``cumulative``; the last where they total below 1."""
    return np.minimum(np.searchsorted(cumulative, rng.random(size), side="right"), cumulative.size - 1)


class PatternDistribution(abc.ABC):
    """A distribution over d-bit missingness patterns."""

    dimension: int

    def probability(self, m: MissingPattern) -> float:
        """P(M = m): the batch probability of m's packed key."""
        self._check_dimension(m)
        return float(self.mask_probabilities(np.array([m.bits], dtype=np.int64))[0])

    @abc.abstractmethod
    def mask_probabilities(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized P(M = m) over an array of packed pattern keys."""

    @abc.abstractmethod
    def sample_masks(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` packed pattern keys."""

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """(probabilities, multiplicities) of the law's positive atoms.

        Every functional of the law that only sees the multiset of pattern
        probabilities (the complexity, its entropy bounds) reads this. The
        default lists each pattern once by enumerating all 2**d patterns, so
        it requires d <= 20; families with a sparse support or shared atoms
        override it and answer at any d.
        """
        _, probs = self.enumerate_probabilities()
        probs = probs[probs > 0.0]
        return probs, np.ones(probs.size)

    def enumerate_probabilities(self) -> tuple[np.ndarray, np.ndarray]:
        if self.dimension > ENUMERATION_LIMIT:
            raise ValueError(
                f"enumeration over 2**{self.dimension} patterns refused "
                f"(limit d <= {ENUMERATION_LIMIT}); use Monte Carlo instead"
            )
        keys = np.arange(1 << self.dimension, dtype=np.int64)
        return keys, self.mask_probabilities(keys)

    def _check_dimension(self, m: MissingPattern) -> None:
        if m.dimension != self.dimension:
            raise ValueError(
                f"pattern dimension {m.dimension} does not match distribution dimension {self.dimension}"
            )


class ExplicitPatterns(PatternDistribution):
    """A law given by an explicit pattern -> probability map.

    Only the support is stored, so the dimension may exceed the enumeration
    limit. Probabilities must be nonnegative and sum to 1 within 1e-12.
    """

    def __init__(self, d: int, probabilities: dict):
        self.dimension = dimension(d, "dimension")
        for pattern in probabilities:
            if not isinstance(pattern, MissingPattern):
                raise TypeError("keys must be MissingPattern instances")
            self._check_dimension(pattern)
        probs = probability_vector(list(probabilities.values()), "probabilities")
        items = sorted((pattern.bits, p) for pattern, p in zip(probabilities, probs) if p > 0.0)
        self._keys = np.array([k for k, _ in items], dtype=np.int64)
        self._probs = np.array([p for _, p in items], dtype=float)
        self._cumulative = np.cumsum(self._probs)

    def mask_probabilities(self, keys: np.ndarray) -> np.ndarray:
        return sorted_lookup(self._keys, keys, self._probs, 0.0)

    def sample_masks(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._keys[categorical(rng, self._cumulative, size)]

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """The stored support, one atom per pattern in ascending key order."""
        return self._probs.copy(), np.ones(self._probs.size)

    def items(self):
        for k, p in zip(self._keys, self._probs):
            yield MissingPattern(int(k), self.dimension), float(p)


class BernoulliPatterns(PatternDistribution):
    """Independent per-coordinate masking: coordinate j is missing w.p. eps_j."""

    def __init__(self, epsilons):
        eps = np.asarray(epsilons)
        if eps.ndim != 1 or eps.size == 0:
            raise ValueError("epsilons must be a nonempty 1-d sequence")
        eps = np.array([probability(e, f"epsilons[{j}]") for j, e in enumerate(eps)])
        self.dimension = dimension(eps.size, "the number of rates")
        eps.setflags(write=False)
        self.epsilons = eps

    def mask_probabilities(self, keys: np.ndarray) -> np.ndarray:
        bits = unpack_masks(keys, self.dimension)
        return np.where(bits, self.epsilons, 1.0 - self.epsilons).prod(axis=1)

    def sample_masks(self, rng: np.random.Generator, size: int) -> np.ndarray:
        bits = rng.random((size, self.dimension)) < self.epsilons
        return pack_mask_rows(bits)


class HomogeneousBernoulli(BernoulliPatterns):
    """Bernoulli masking with one shared rate for every coordinate."""

    def __init__(self, d: int, epsilon: float):
        epsilon = probability(epsilon, "epsilon")
        super().__init__(np.full(dimension(d, "dimension"), epsilon))
        self.epsilon = epsilon

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """d + 1 atoms eps**k (1 - eps)**(d - k), each shared by C(d, k)
        patterns: O(d) at any dimension."""
        d, eps = self.dimension, self.epsilon
        probs = np.array([eps**k * (1.0 - eps) ** (d - k) for k in range(d + 1)])
        counts = np.array([float(math.comb(d, k)) for k in range(d + 1)])
        positive = probs > 0.0
        return probs[positive], counts[positive]


class MergeModel(PatternDistribution):
    """Protocol masking OR-ed with independent per-coordinate failures.

    A protocol pattern P_k is drawn with weight w_k, each coordinate it
    leaves observed then fails independently with rate eta, and the final
    pattern is the union of the protocol mask and the failure mask. Hence

        P(M = m) = sum_k w_k 1[m >= P_k] eta^a_k (1 - eta)^(f_k - a_k)

    with f_k the coordinates P_k leaves observed and a_k the number of those
    that m marks missing.
    """

    def __init__(self, protocols, weights, eta: float):
        protocols = list(protocols)
        if not protocols:
            raise ValueError("at least one protocol pattern required")
        if not all(isinstance(p, MissingPattern) for p in protocols):
            raise TypeError("protocols must be MissingPattern instances")
        self.dimension = protocols[0].dimension
        if any(p.dimension != self.dimension for p in protocols):
            raise ValueError("protocols must share one dimension")
        w = np.asarray(weights)
        if w.shape != (len(protocols),):
            raise ValueError("one weight per protocol required")
        self.protocols = tuple(protocols)
        self.weights = w = probability_vector(w, "weights")
        self.eta = probability(eta, "eta")
        self._protocol_keys = np.array([p.bits for p in protocols], dtype=np.int64)
        self._cumulative = np.cumsum(w)

    def mask_probabilities(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        bits = unpack_masks(keys, self.dimension)
        total = np.zeros(keys.shape, dtype=float)
        for pk, w in zip(self._protocol_keys, self.weights):
            free = ~unpack_masks(np.array([pk]), self.dimension)[0]
            covers = (keys & pk) == pk
            failed = bits[:, free].sum(axis=1)
            n_free = int(free.sum())
            term = self.eta**failed * (1.0 - self.eta) ** (n_free - failed)
            total += w * np.where(covers, term, 0.0)
        return total

    def sample_masks(self, rng: np.random.Generator, size: int) -> np.ndarray:
        choice = categorical(rng, self._cumulative, size)
        failures = rng.random((size, self.dimension)) < self.eta
        return self._protocol_keys[choice] | pack_mask_rows(failures)


class UniformPatterns(PatternDistribution):
    """The uniform law over all 2**d patterns."""

    def __init__(self, d: int):
        self.dimension = dimension(d, "dimension")

    def mask_probabilities(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        return np.full(keys.shape, 0.5**self.dimension)

    def sample_masks(self, rng: np.random.Generator, size: int) -> np.ndarray:
        high = np.uint64(1) << np.uint64(self.dimension)
        return rng.integers(0, high, size=size, dtype=np.uint64).astype(np.int64)

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """One atom 2**-d shared by all 2**d patterns."""
        return np.array([0.5**self.dimension]), np.array([2.0**self.dimension])


def explicit_from_json(obj: dict) -> ExplicitPatterns:
    """Load an explicit law from {"d": int, "patterns": [{"mask": "0110", "p": float}, ...]}
    and an optional "kind"; any other field is a ValueError."""
    _, d, entries = json_fields(obj, "explicit law", {"kind": (None, None), "d": dimension, "patterns": records})
    fields = {"mask": partial(mask, d=d), "p": probability}
    probs = {}
    for i, entry in enumerate(entries):
        pattern, p = json_fields(entry, f"entry {i} of field 'patterns'", fields)
        if pattern in probs:
            raise ValueError(f"duplicate mask {pattern.to_string()!r}")
        probs[pattern] = p
    return ExplicitPatterns(d, probs)


# the fields of a merge law, which a merge scenario reads too
MERGE_FIELDS = {"protocols": array, "weights": vector, "eta": probability}


def merge_law(protocols, weights, eta, d: int | None = None) -> MergeModel:
    """The merge law of the values of ``MERGE_FIELDS``; each protocol mask
    has ``d`` characters when ``d`` is given."""
    protocols = [mask(s, f"entry {i} of field 'protocols'", d) for i, s in enumerate(protocols)]
    return MergeModel(protocols, weights, eta)


def merge_from_json(obj: dict) -> MergeModel:
    """Load a merge law from {"protocols": ["0110", ...], "weights": [...],
    "eta": float} and an optional "kind"; any other field is a ValueError."""
    _, *law = json_fields(obj, "merge law", {"kind": (None, None), **MERGE_FIELDS})
    return merge_law(*law)


def distribution_from_json(obj: dict) -> PatternDistribution:
    """Load any supported family; a bare {"d", "patterns"} object is explicit.
    A field that the family does not read is a ValueError."""
    kind = json_field(obj, "kind", default=None)
    if kind == "explicit" or (kind is None and "patterns" in obj):
        return explicit_from_json(obj)
    if kind == "homogeneous_bernoulli":
        _, d, epsilon = json_fields(obj, f"{kind} law", {"kind": None, "d": dimension, "epsilon": probability})
        return HomogeneousBernoulli(d, epsilon)
    if kind == "heterogeneous_bernoulli":
        _, epsilons = json_fields(obj, f"{kind} law", {"kind": None, "epsilons": vector})
        return BernoulliPatterns(epsilons)
    if kind == "merge":
        return merge_from_json(obj)
    if kind == "uniform":
        _, d = json_fields(obj, f"{kind} law", {"kind": None, "d": dimension})
        return UniformPatterns(d)
    raise ValueError(f"unknown distribution kind {kind!r} (an explicit law has the field 'patterns')")


LAW_PRESETS = {
    "bern_pA": lambda: HomogeneousBernoulli(4, 0.5),
    "bern_pB": lambda: HomogeneousBernoulli(4, 0.15),
    "bern_pC": lambda: BernoulliPatterns((0.3, 0.2, 0.05, 0.05)),
    "bern_pD": lambda: HomogeneousBernoulli(4, 0.10),
}


def law_preset(name: str) -> PatternDistribution:
    """A fresh copy of the built-in d = 4 Bernoulli pattern law ``name``."""
    if name not in LAW_PRESETS:
        raise ValueError(f"unknown law preset {name!r}; choose one of {', '.join(LAW_PRESETS)}")
    return LAW_PRESETS[name]()
