"""Missingness patterns, masked datasets, per-pattern row indexing, the
affine map and the bank that stores and applies one per pattern, and the
field kinds that check every outside number."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial

import numpy as np

MAX_DIMENSION = 63

_REQUIRED = object()
_FLOAT_MAX = float(np.finfo(float).max)

# Field kinds: one answer each to "what counts as a valid X" for an outside
# number or JSON value. ``kind(value, name)`` returns the checked value or
# raises ValueError("<name> must be ..., got ..."); constructors call kinds
# directly and JSON readers through ``json_fields``, so both meet one rule.


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
    ``true`` is."""
    entries = np.asarray(value, dtype=object)
    if ndim not in (None, entries.ndim):
        _reject(name, "an array of numbers" if ndim == 1 else "a matrix of numbers", value)
    for entry in entries.flat:
        entry = entry.item() if isinstance(entry, np.generic) else entry
        if type(entry) not in (int, float) or not abs(entry) <= _FLOAT_MAX:
            _reject(name, "finite numbers", entry)
    return entries.astype(float)


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


def json_fields(obj, what: str, table: dict) -> list:
    """The values of the fields of the JSON object ``obj`` that ``table``
    names, in table order. The table is a reader's one list of its fields:
    each name maps to its kind, or to a (kind, default) pair, read by
    ``json_field``. Any other field of ``obj`` is a ValueError naming it and
    ``what``, raised before any field is read: a misspelt field would
    otherwise be ignored, and its default used."""
    extra = [name for name in obj if name not in table] if isinstance(obj, dict) else []
    if extra:
        raise ValueError(f"{what} has unknown field {extra[0]!r}; its fields are {', '.join(table)}")
    return [json_field(obj, name, *(spec if isinstance(spec, tuple) else (spec,))) for name, spec in table.items()]


def nested(read):
    """The kind of a JSON object that ``read`` reads; its ValueErrors name the field."""

    def check(value, name: str):
        value = mapping(value, name)
        try:
            return read(value)
        except ValueError as exc:
            raise ValueError(f"in {name}: {exc}") from exc

    return check


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
        return mask_strings(unpack_masks(np.array([self.bits]), self.dimension))[0]

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


def mask_strings(mask: np.ndarray) -> list:
    """One mask string per row of an (n, d) boolean matrix, "1" where missing: the
    format ``mask`` reads. The (n, d) characters are viewed as n strings of d."""
    return np.where(mask, "1", "0").view(f"U{mask.shape[1]}").ravel().tolist()


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
    any other shape, or a mask entry other than 0/1, is a ValueError. A
    boolean mask is returned as it is, not copied."""
    values = np.asarray(values, dtype=float)
    mask = np.asarray(mask)
    if mask.ndim != 2 or mask.shape[1] != d or values.shape != mask.shape:
        raise ValueError(f"values and mask must both be (n, {d}) matrices")
    if mask.dtype != np.bool_ and not ((mask == 0) | (mask == 1)).all():
        raise ValueError("mask entries must be 0/1")
    return values, mask.astype(bool, copy=False)


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
    """n >= 1 rows of covariates with a missingness mask and a response.

    The mask is read by ``masked_batch``. Observed cells and responses must
    be finite. Masked cells of ``values`` hold NaN as a sentinel, and
    per-row access goes through ``observed_values``. All arrays are copies,
    frozen after construction.
    """

    def __init__(self, values, mask, responses):
        values = np.asarray(values, dtype=float)
        responses = np.array(responses, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must be a 2-d matrix")
        n, d = values.shape
        dimension(d, "the number of covariates")
        if n < 1:
            raise ValueError("dataset is empty")
        values, mask = masked_batch(values, np.array(mask), d)
        if responses.shape != (n,):
            raise ValueError(f"responses shape {responses.shape} does not match row count {n}")
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

    def to_json(self) -> dict:
        """{"d", "n", "values", "mask", "responses"}, null at each masked cell of values."""
        return {
            "d": self.d,
            "n": self.n,
            "values": np.where(self._mask, None, self._values).tolist(),
            "mask": mask_strings(self._mask),
            "responses": self._responses.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MaskedDataset":
        """Rebuild a dataset; each mask is d characters of 0/1, each values row
        holds d entries, and ``null`` is allowed only at masked cells. The
        ``gen`` file's ``full_values`` and ``bayes_values`` are allowed and
        not read; any other field is a ValueError."""
        read = {"d": dimension, "n": count, "values": array, "mask": array, "responses": vector}
        unread = {"full_values": (None, None), "bayes_values": (None, None)}
        d, n, cells, masks, responses, _, _ = json_fields(obj, "dataset", {**read, **unread})
        if len(masks) != n or len(cells) != n:
            raise ValueError(f"fields 'mask' and 'values' must hold n={n} rows, got {len(masks)} and {len(cells)}")
        keys = [mask(row, f"mask of row {i} (counting from 0)", d).bits for i, row in enumerate(masks)]
        missing = unpack_masks(np.array(keys, dtype=np.int64), d)
        for i, row in enumerate(cells):
            if not isinstance(row, list) or len(row) != d:
                raise ValueError(f"values row {i} (counting from 0) is {row!r}, expected a list of {d} numbers or nulls")
        values = numbers([[0.0 if cell is None else cell for cell in row] for row in cells], "field 'values'")
        for i, j in np.argwhere(~missing):
            if cells[i][j] is None:
                raise ValueError(f"value at row {i}, column {j} (counting from 0) is null but its mask marks it observed")
        return cls(values, missing, responses)

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


@dataclass(frozen=True)
class AffineModel:
    """x -> intercept + coefficients @ x over a fixed feature index set; the
    intercept is read as a ``number`` and the coefficients as a ``vector``."""

    intercept: float
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coef = vector(self.coefficients, "coefficients")
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "intercept", number(self.intercept, "intercept"))

    def predict(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        out = self.intercept + x @ self.coefficients
        return float(out) if out.ndim == 0 else out

    def to_json(self) -> dict:
        """{"intercept", "coef"}, the JSON of every stored affine map, whose
        readers read ``AFFINE_FIELDS``."""
        return {"intercept": self.intercept, "coef": [float(c) for c in self.coefficients]}


# the fields of an affine map's JSON, in every reader that holds one
AFFINE_FIELDS = {"intercept": number, "coef": vector}


class PatternBank(Mapping):
    """One affine predictor per missing pattern: the "expanded" linear model.

    Built once from a batch, as one table in ascending key order: P packed
    ``keys``, their (P, d) ``coef`` rows, zero at the missing coordinates,
    and P ``intercepts``. Keys that are not integers in [0, 2**d), tables
    of another shape or of booleans or strings, a non-finite entry or a
    pattern given twice are each a ValueError, naming the first duplicated
    mask in key order.

    Read as a Mapping, the bank sends each stored MissingPattern to an
    AffineModel over its observed coordinates (ascending order). A pattern
    not in the bank predicts 0.
    """

    def __init__(self, d: int, keys, coef: np.ndarray, intercepts: np.ndarray):
        self.d = dimension(d, "d")
        keys, coef, intercepts = np.asarray(keys), np.asarray(coef), np.asarray(intercepts)
        if keys.ndim != 1 or keys.size and keys.dtype.kind not in "iu":
            raise ValueError(f"keys must be a 1-d array of integers, got {keys.dtype} of shape {keys.shape}")
        if coef.shape != (keys.size, self.d) or intercepts.shape != (keys.size,):
            raise ValueError(
                f"{keys.size} keys need a ({keys.size}, {self.d}) coef and ({keys.size},) intercepts,"
                f" got {coef.shape} and {intercepts.shape}"
            )
        if coef.dtype.kind not in "iuf" or intercepts.dtype.kind not in "iuf":
            raise ValueError(f"coef and intercepts must be numeric arrays, got {coef.dtype} and {intercepts.dtype}")
        if not (np.isfinite(coef).all() and np.isfinite(intercepts).all()):
            raise ValueError("affine model entries must be finite")
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if keys.size and not 0 <= keys[0] <= keys[-1] < 1 << self.d:
            raise ValueError(f"key {keys[0] if keys[0] < 0 else keys[-1]} outside a {self.d}-bit pattern")
        self._keys, self._coef, self._intercepts = keys.astype(np.int64, copy=False), coef[order], intercepts[order]
        twins = self._keys[1:][self._keys[1:] == self._keys[:-1]]
        if twins.size:
            raise ValueError(f"duplicate mask {MissingPattern(int(twins[0]), self.d).to_string()!r}")

    def find(self, keys) -> np.ndarray:
        """Table position of each packed key; -1 where the bank lacks the pattern."""
        return sorted_lookup(self._keys, keys, np.arange(self._keys.size), -1)

    def predict(self, values, mask) -> np.ndarray:
        """Predictions for a batch: intercept + values @ coefficient row of each
        row's pattern, masked cells read as 0, never from ``values``; 0 off the bank."""
        values, mask = masked_batch(values, mask, self.d)
        rows = self.find(pack_mask_rows(mask))
        hit = np.flatnonzero(rows >= 0)
        rows = rows[hit]
        filled = np.where(mask, 0.0, values)
        out = np.zeros(mask.shape[0])
        out[hit] = self._intercepts[rows] + np.einsum("ij,ij->i", filled[hit], self._coef[rows])
        return out

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
        return [{"mask": m.to_string(), **model.to_json()} for m, model in self.items()]

    @classmethod
    def from_json(cls, d: int, entries) -> "PatternBank":
        d = dimension(d, "d")
        fields = {"mask": partial(mask, d=d), **AFFINE_FIELDS}
        keys = []
        coef = np.zeros((len(entries), d))
        intercepts = np.zeros(len(entries))
        for i, entry in enumerate(entries):
            m, intercept, row = json_fields(entry, f"entry {i} of field 'models'", fields)
            if row.shape != (m.n_observed,):
                raise ValueError(f"mask {m.to_string()!r} needs {m.n_observed} coefficients, got {row.size}")
            keys.append(m.bits)
            coef[i, list(m.observed_indices)] = row
            intercepts[i] = intercept
        return cls(d, keys, coef, intercepts)
