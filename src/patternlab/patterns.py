"""Missingness patterns, masked datasets, per-pattern row indexing, the
bank of per-pattern affine predictors, and the field kinds that check every
outside number."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial

import numpy as np

from .solver import AffineModel

MAX_DIMENSION = 63

_REQUIRED = object()
_FLOAT_MAX = float(np.finfo(float).max)

# Field kinds: one answer each to "what counts as a valid X" for an outside
# number or JSON value. ``kind(value, name)`` returns the checked value or
# raises ValueError("<name> must be ..., got ..."); constructors call kinds
# directly and JSON readers through ``json_field``, so both meet one rule.


def _reject(name: str, wanted: str, value):
    raise ValueError(f"{name} must be {wanted}, got {value!r}")


def is_number(value) -> bool:
    """An int or a float, numpy's included; a bool is not a number."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _whole(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _kind(wanted: str, accepts, convert=None, numeric: bool = False):
    """The kind of the values that ``accepts`` takes, numpy scalars read as
    Python ones, returned through ``convert`` if given. A numeric kind reports
    a non-number as such, and any other rejected value as not ``wanted``."""

    def check(value, name: str):
        value = value.item() if isinstance(value, np.generic) else value
        if numeric and not is_number(value):
            _reject(name, "a number", value)
        if not accepts(value):
            _reject(name, wanted, value)
        return value if convert is None else convert(value)

    return check


number = _kind("finite", lambda v: abs(v) <= _FLOAT_MAX, float, numeric=True)
integer = _kind("an integer", lambda v: isinstance(v, (int, np.integer)), int, numeric=True)
probability = _kind("a probability in [0, 1]", lambda v: 0.0 <= v <= 1.0, float, numeric=True)
threshold = _kind("in (0, 1]", lambda v: 0.0 < v <= 1.0, float, numeric=True)
rate = _kind("strictly inside (0, 1)", lambda v: 0.0 < v < 1.0, float, numeric=True)
positive = _kind("positive and finite", lambda v: 0.0 < v <= _FLOAT_MAX, float, numeric=True)
noise_level = _kind("a finite, nonnegative noise level", lambda v: 0.0 <= v <= _FLOAT_MAX, float, numeric=True)
count = _kind("an integer >= 1", lambda v: _whole(v) and v >= 1, int)
dimension = _kind(f"an integer in [1, {MAX_DIMENSION}]", lambda v: _whole(v) and 1 <= v <= MAX_DIMENSION, int)
boolean = _kind("a JSON boolean", lambda v: isinstance(v, bool))
array = _kind("an array", lambda v: isinstance(v, list))
records = _kind("an array of objects", lambda v: isinstance(v, list) and all(isinstance(e, dict) for e in v))
mapping = _kind("an object", lambda v: isinstance(v, dict))


def probability_vector(values, name: str, tol: float = 1e-12) -> np.ndarray:
    """A law's atom probabilities as a float array: each a ``probability``, summing to 1 within ``tol``."""
    probs = np.array([probability(p, f"{name}[{i}]") for i, p in enumerate(values)], dtype=float)
    if not abs(probs.sum() - 1.0) <= tol:
        raise ValueError(f"{name} sum to {float(probs.sum())!r}, expected 1 within {tol:g}")
    return probs


def numbers(value, name: str, ndim: int | None = None) -> np.ndarray:
    """A JSON number or nested array of finite JSON numbers as a new float
    array, of ``ndim`` dimensions if given; numpy arrays and scalars are read
    as the Python numbers they hold, so a boolean array is rejected as JSON
    ``true`` is. A numpy integer or float array (long double aside) is cast
    and checked in one pass, and only a non-finite entry is read alone."""
    numeric = isinstance(value, (np.ndarray, np.generic)) and value.dtype.kind in "iuf"
    numeric = numeric and np.can_cast(value.dtype, float)
    entries = np.array(value, dtype=float if numeric else object)
    if ndim not in (None, entries.ndim):
        _reject(name, "an array of numbers" if ndim == 1 else "a matrix of numbers", value)
    checked = np.asarray(value).flat[np.flatnonzero(~np.isfinite(entries))[:1]] if numeric else entries.flat
    for entry in checked:
        entry = entry.item() if isinstance(entry, np.generic) else entry
        if type(entry) not in (int, float) or not abs(entry) <= _FLOAT_MAX:
            _reject(name, "finite numbers", entry)
    return entries.astype(float, copy=False)


vector = partial(numbers, ndim=1)
matrix = partial(numbers, ndim=2)


def mask(value, name: str, d: int | None = None) -> "MissingPattern":
    """A mask string such as "0110", whose leftmost character is coordinate
    1, of ``d`` characters when ``d`` is given, as a MissingPattern."""
    if not isinstance(value, str) or not value or set(value) - {"0", "1"} or d not in (None, len(value)):
        _reject(name, "a nonempty string of 0/1" if d is None else f"a string of {d} characters 0/1", value)
    return MissingPattern(int(value[::-1], 2), len(value))


def json_field(obj, name: str, kind=None, default=_REQUIRED):
    """Field ``name`` of the JSON object ``obj``, checked by the field kind
    ``kind`` (the raw value when no kind is given).

    A field that is absent or null takes ``default`` when one is given. An
    ``obj`` that is not an object, a missing field without a default, and a
    value that ``kind`` rejects are each a ValueError naming the field; the
    readers of every JSON input go through here, so a malformed file is
    never reported as a KeyError or TypeError.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object holding the field {name!r}, got {type(obj).__name__}")
    value = obj.get(name)
    if value is None and default is not _REQUIRED:
        return default
    if name not in obj:
        raise ValueError(f"missing field {name!r}")
    return value if kind is None else kind(value, f"field {name!r}")


def json_object(obj, name: str, read):
    """``read`` of the JSON object in field ``name``; its ValueErrors name the field."""
    value = json_field(obj, name, mapping)
    try:
        return read(value)
    except ValueError as exc:
        raise ValueError(f"in field {name!r}: {exc}") from exc


@dataclass(frozen=True)
class MissingPattern:
    """A d-bit missingness mask. Bit j set means coordinate j is missing.

    Bits are packed into one integer (bit j = coordinate j, zero based), so
    patterns hash and compare in O(1). Dimensions above 63 are rejected.
    """

    bits: int
    dimension: int

    def __post_init__(self) -> None:
        dimension(self.dimension, "dimension")
        if not 0 <= integer(self.bits, "bits") < (1 << self.dimension):
            raise ValueError(f"bits {self.bits} outside a {self.dimension}-bit pattern")

    @classmethod
    def from_string(cls, text: str) -> "MissingPattern":
        """Parse a mask string such as "0110"; the leftmost character is coordinate 1."""
        return mask(text, "mask string")

    def to_string(self) -> str:
        return "".join("1" if self.is_missing(j) else "0" for j in range(self.dimension))

    def is_missing(self, j: int) -> bool:
        if not 0 <= j < self.dimension:
            raise IndexError(f"coordinate {j} outside dimension {self.dimension}")
        return bool((self.bits >> j) & 1)

    @property
    def missing_indices(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.dimension) if (self.bits >> j) & 1)

    @property
    def observed_indices(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.dimension) if not (self.bits >> j) & 1)

    @property
    def n_missing(self) -> int:
        return int(self.bits).bit_count()

    @property
    def n_observed(self) -> int:
        return self.dimension - self.n_missing

    def __repr__(self) -> str:
        return f"MissingPattern('{self.to_string()}')"


def pack_mask_rows(mask: np.ndarray) -> np.ndarray:
    """Pack an (n, d) boolean mask matrix into n int64 pattern keys."""
    mask = np.asarray(mask, dtype=bool)
    d = mask.shape[1]
    weights = np.int64(1) << np.arange(d, dtype=np.int64)
    return mask.astype(np.int64) @ weights


def unpack_masks(keys: np.ndarray, dimension: int) -> np.ndarray:
    """Expand int64 pattern keys back into an (n, d) boolean mask matrix.

    Each key's eight little-endian bytes are unpacked least significant bit
    first, so column j is bit j; only the first d bits are written."""
    octets = np.ascontiguousarray(keys, dtype="<i8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, count=dimension, bitorder="little").view(bool)


def one_row(x_obs, m: MissingPattern) -> tuple[np.ndarray, np.ndarray]:
    """(values, mask) of a single row holding ``x_obs`` at m's observed
    coordinates (ascending order) and 0 at its missing ones."""
    x_obs = numbers(x_obs, "x_obs")
    if x_obs.shape != (m.n_observed,):
        raise ValueError(f"x_obs shape {x_obs.shape} does not match {m.n_observed} observed coordinates")
    mask = unpack_masks(np.array([m.bits]), m.dimension)
    values = np.zeros(mask.shape)
    values[~mask] = x_obs
    return values, mask


def masked_batch(values, mask, d: int) -> tuple[np.ndarray, np.ndarray]:
    """``values`` as floats and ``mask`` as booleans, both (n, d) matrices;
    any other shape is a ValueError."""
    values = np.asarray(values, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2 or mask.shape[1] != d or values.shape != mask.shape:
        raise ValueError(f"values and mask must both be (n, {d}) matrices")
    return values, mask


class RowPredictor:
    """A predictor of batches of masked rows. One row is a batch of one:
    ``predict_one`` reads the batch prediction of ``one_row``."""

    def predict_masked(self, values, mask) -> np.ndarray:
        raise NotImplementedError

    def predict_one(self, x_obs, m: MissingPattern) -> float:
        return float(self.predict_masked(*one_row(x_obs, m))[0])


def key_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, starts, counts) of a key array: its stable argsort, and for
    each distinct key, ascending, the offset of its run in ``order`` and the
    run's length. Each run lists the key's rows in ascending order."""
    keys = np.asarray(keys)
    order = np.argsort(keys, kind="stable")
    boundaries = np.flatnonzero(np.diff(keys[order])) + 1
    starts = np.concatenate([[0], boundaries]) if keys.size else boundaries
    return order, starts, np.diff(np.append(starts, keys.size))


def group_rows_by_key(keys: np.ndarray) -> list:
    """(key, ascending row indices) pairs, keys ascending; one sort, no scans."""
    keys = np.asarray(keys)
    order, starts, _ = key_groups(keys)
    return [(int(keys[chunk[0]]), chunk) for chunk in np.split(order, starts[1:])]


class MaskedDataset:
    """n rows of covariates with a missingness mask and a response.

    Observed cells and responses must be finite. Masked cells of ``values``
    hold NaN as a sentinel, and per-row access goes through
    ``observed_values``. All arrays are frozen after construction.
    """

    def __init__(self, values, mask, responses):
        values = np.asarray(values, dtype=float)
        mask = np.asarray(mask)
        responses = np.array(responses, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must be a 2-d matrix")
        n, d = values.shape
        dimension(d, "the number of covariates")
        if mask.shape != (n, d):
            raise ValueError(f"mask shape {mask.shape} does not match values shape {(n, d)}")
        if responses.shape != (n,):
            raise ValueError(f"responses shape {responses.shape} does not match row count {n}")
        if mask.dtype != np.bool_ and not ((mask == 0) | (mask == 1)).all():
            raise ValueError("mask entries must be 0/1")
        mask = mask.astype(bool)
        if not (np.isfinite(values) | mask).all():
            raise ValueError("observed values must be finite (no NaN or infinity)")
        if not np.isfinite(responses).all():
            raise ValueError("responses must be finite (no NaN or infinity)")
        values = np.where(mask, np.nan, values)
        for arr in (values, mask, responses):
            arr.setflags(write=False)
        self._values = values
        self._mask = mask
        self._responses = responses

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def mask(self) -> np.ndarray:
        return self._mask

    @property
    def responses(self) -> np.ndarray:
        return self._responses

    @property
    def n(self) -> int:
        return self._values.shape[0]

    @property
    def d(self) -> int:
        return self._values.shape[1]

    def pattern(self, i: int) -> MissingPattern:
        return MissingPattern(int(pack_mask_rows(self._mask[i : i + 1])[0]), self.d)

    def mask_keys(self) -> np.ndarray:
        return pack_mask_rows(self._mask)

    def observed_values(self, i: int) -> np.ndarray:
        """Values of row i at its observed coordinates, ascending coordinate order."""
        return self._values[i][~self._mask[i]]

    def __repr__(self) -> str:
        return f"MaskedDataset(n={self.n}, d={self.d})"


@dataclass(frozen=True)
class PatternIndex:
    """Rows of a dataset grouped by their missingness pattern.

    groups maps each observed pattern to the ascending row indices carrying
    it; frequencies holds the matching empirical probabilities.
    """

    groups: dict
    frequencies: dict
    n: int


def build_pattern_index(data: MaskedDataset) -> PatternIndex:
    """Partition the rows of ``data`` by pattern and record group frequencies."""
    if data.n < 1:
        raise ValueError("dataset is empty")
    groups = {}
    frequencies = {}
    for key, rows in group_rows_by_key(data.mask_keys()):
        pattern = MissingPattern(key, data.d)
        rows.setflags(write=False)
        groups[pattern] = rows
        frequencies[pattern] = rows.size / data.n
    return PatternIndex(groups=groups, frequencies=frequencies, n=data.n)


def sorted_lookup(table: np.ndarray, keys, values: np.ndarray, default) -> np.ndarray:
    """The entry of ``values`` at each packed key's position in the ascending
    int64 array ``table``; ``default`` where the table lacks the key."""
    keys = np.asarray(keys, dtype=np.int64)
    if table.size == 0:
        return np.full(keys.shape, default, dtype=values.dtype)
    positions = np.minimum(np.searchsorted(table, keys), table.size - 1)
    return np.where(table[positions] == keys, values[positions], default)


def affine_rows(values, mask, rows, coef, intercepts) -> np.ndarray:
    """Per-pattern affine maps on a batch: row i predicts ``intercepts[r] +
    values[i] @ coef[r]``, r = ``rows[i]``, masked cells read as 0; 0 if r is -1."""
    filled = np.where(mask, 0.0, values)
    hit = np.flatnonzero(rows >= 0)
    rows = rows[hit]
    out = np.zeros(mask.shape[0])
    out[hit] = intercepts[rows] + np.einsum("ij,ij->i", filled[hit], coef[rows])
    return out


class PatternBank(Mapping):
    """One affine predictor per missing pattern: the "expanded" linear model.

    Built once from a batch, as one table in ascending key order: P packed
    ``keys``, their (P, d) ``coef`` rows, zero at the missing coordinates,
    and P ``intercepts``. A non-finite entry or a pattern given twice is a
    ValueError, naming the first duplicated mask in key order.

    Read as a Mapping, the bank sends each stored MissingPattern to an
    AffineModel over its observed coordinates (ascending order). A pattern
    not in the bank predicts 0.
    """

    def __init__(self, d: int, keys, coef: np.ndarray, intercepts: np.ndarray):
        self.d = dimension(d, "d")
        if not (np.isfinite(coef).all() and np.isfinite(intercepts).all()):
            raise ValueError("affine model entries must be finite")
        order = np.argsort(keys, kind="stable")
        self._keys, self._coef, self._intercepts = np.asarray(keys, np.int64)[order], coef[order], intercepts[order]
        twins = self._keys[1:][self._keys[1:] == self._keys[:-1]]
        if twins.size:
            raise ValueError(f"duplicate mask {MissingPattern(int(twins[0]), self.d).to_string()!r}")

    def find(self, keys) -> np.ndarray:
        """Table position of each packed key; -1 where the bank lacks the pattern."""
        return sorted_lookup(self._keys, keys, np.arange(self._keys.size), -1)

    def predict(self, values, mask) -> np.ndarray:
        """Predictions for a batch of rows; masked cells of ``values`` are never read."""
        values, mask = masked_batch(values, mask, self.d)
        return affine_rows(values, mask, self.find(pack_mask_rows(mask)), self._coef, self._intercepts)

    def __getitem__(self, m: MissingPattern) -> AffineModel:
        row = self.find(m.bits) if isinstance(m, MissingPattern) and m.dimension == self.d else -1
        if row < 0:
            raise KeyError(m)
        return AffineModel(self._intercepts[row], self._coef[row, list(m.observed_indices)])

    def __iter__(self):
        return (MissingPattern(int(key), self.d) for key in self._keys)

    def __len__(self) -> int:
        return self._keys.size

    def to_json(self) -> list:
        """[{"mask", "intercept", "coef"}] by ascending key, coefficients over
        the observed coordinates in ascending order."""
        return [
            {"mask": m.to_string(), "intercept": model.intercept, "coef": [float(c) for c in model.coefficients]}
            for m, model in self.items()
        ]

    @classmethod
    def from_json(cls, d: int, entries) -> "PatternBank":
        d = dimension(d, "d")
        keys = []
        coef = np.zeros((len(entries), d))
        intercepts = np.zeros(len(entries))
        for i, entry in enumerate(entries):
            m = mask(json_field(entry, "mask"), "field 'mask'", d)
            row = json_field(entry, "coef", vector)
            if row.shape != (m.n_observed,):
                raise ValueError(f"mask {m.to_string()!r} needs {m.n_observed} coefficients, got {row.size}")
            keys.append(m.bits)
            coef[i, list(m.observed_indices)] = row
            intercepts[i] = json_field(entry, "intercept", number)
        return cls(d, keys, coef, intercepts)
