import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patternlab import MaskedDataset, MissingPattern, PatternBank, build_pattern_index, preset
from patternlab.patterns import pack_mask_rows, unpack_masks


def shifted_unpack(keys: np.ndarray, dimension: int) -> np.ndarray:
    """The (n, d) int64 shift-and-mask expansion of packed keys."""
    keys = np.asarray(keys, dtype=np.int64)
    shifts = np.arange(dimension, dtype=np.int64)
    return ((keys[:, None] >> shifts) & 1).astype(bool)


class TestMissingPattern:
    def test_string_round_trip(self):
        m = MissingPattern.from_string("0110")
        assert m.to_string() == "0110"
        assert m.dimension == 4
        assert m.missing_indices == (1, 2)
        assert m.observed_indices == (0, 3)
        assert m.n_missing == 2

    def test_leftmost_character_is_first_coordinate(self):
        m = MissingPattern.from_string("100")
        assert m.is_missing(0)
        assert not m.is_missing(1)
        assert m.bits == 1

    def test_equality_is_bitwise(self):
        assert MissingPattern(5, 4) == MissingPattern.from_string("1010")
        assert MissingPattern(5, 4) != MissingPattern(5, 5)
        assert hash(MissingPattern(5, 4)) == hash(MissingPattern.from_string("1010"))

    def test_obs_mis_partition(self):
        m = MissingPattern(0b1011, 5)
        assert sorted(m.observed_indices + m.missing_indices) == list(range(5))

    @pytest.mark.parametrize("bits,d", [(0, 0), (0, 64), (16, 4), (-1, 4)])
    def test_invalid_construction(self, bits, d):
        with pytest.raises(ValueError):
            MissingPattern(bits, d)

    def test_from_string_rejects_junk(self):
        with pytest.raises(ValueError):
            MissingPattern.from_string("01x0")
        with pytest.raises(ValueError):
            MissingPattern.from_string("")

    @given(st.lists(st.booleans(), min_size=1, max_size=63))
    @settings(max_examples=50, deadline=None)
    def test_bool_round_trip(self, flags):
        m = MissingPattern(sum(1 << j for j, flag in enumerate(flags) if flag), len(flags))
        assert [m.is_missing(j) for j in range(len(flags))] == flags
        assert MissingPattern.from_string(m.to_string()) == m


class TestUnpackMasks:
    @given(st.integers(1, 63).flatmap(lambda d: st.tuples(st.just(d), st.lists(st.integers(0, 2**d - 1), max_size=40))))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_shift_expansion(self, case):
        d, bits = case
        keys = np.array(bits, dtype=np.int64)
        got = unpack_masks(keys, d)
        assert got.dtype == np.bool_ and got.shape == (keys.size, d)
        assert np.array_equal(got, shifted_unpack(keys, d))
        assert np.array_equal(pack_mask_rows(got), keys)

    def test_every_dimension_at_its_extreme_keys(self):
        for d in range(1, 64):
            keys = np.array([0, 1, 2**d - 1, 2 ** (d - 1), (2**d - 1) // 3], dtype=np.int64)
            assert np.array_equal(unpack_masks(keys, d), shifted_unpack(keys, d)), d

    def test_strided_keys(self):
        keys = np.arange(40, dtype=np.int64)[::3]
        assert np.array_equal(unpack_masks(keys, 6), shifted_unpack(keys, 6))


class TestMaskedDataset:
    def _tiny(self):
        values = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        mask = [[0, 1], [0, 0], [1, 0]]
        return MaskedDataset(values, mask, [1.0, 2.0, 3.0])

    def test_masked_cells_hold_sentinel(self):
        data = self._tiny()
        assert np.isnan(data.values[0, 1])
        assert np.isnan(data.values[2, 0])

    def test_observed_values(self):
        data = self._tiny()
        assert data.observed_values(0).tolist() == [1.0]
        assert data.observed_values(1).tolist() == [3.0, 4.0]
        assert data.observed_values(2).tolist() == [6.0]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MaskedDataset([[1.0]], [[0, 0]], [1.0])
        with pytest.raises(ValueError):
            MaskedDataset([[1.0]], [[0]], [1.0, 2.0])
        with pytest.raises(ValueError):
            MaskedDataset([[1.0]], [[2]], [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_observed_values_and_responses(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MaskedDataset([[1.0, bad]], [[0, 0]], [1.0])
        with pytest.raises(ValueError, match="finite"):
            MaskedDataset([[1.0, 2.0]], [[0, 1]], [bad])

    def test_nonfinite_masked_cells_are_allowed(self):
        data = MaskedDataset([[1.0, np.nan], [np.inf, 2.0]], [[0, 1], [1, 0]], [0.0, 1.0])
        assert data.observed_values(0).tolist() == [1.0]
        assert data.observed_values(1).tolist() == [2.0]

    def test_arrays_frozen(self):
        data = self._tiny()
        with pytest.raises(ValueError):
            data.values[0, 0] = 9.0


class TestBuildPatternIndex:
    def test_single_pattern(self):
        data = MaskedDataset(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(3))
        index = build_pattern_index(data)
        assert len(index.groups) == 1
        (pattern, rows), = index.groups.items()
        assert pattern == MissingPattern(0, 2)
        assert rows.tolist() == [0, 1, 2]
        assert index.frequencies[pattern] == 1.0

    def test_two_patterns_counted(self):
        mask = [[0, 0], [0, 1], [0, 1]]
        data = MaskedDataset(np.zeros((3, 2)), mask, np.zeros(3))
        index = build_pattern_index(data)
        obs = MissingPattern.from_string("00")
        part = MissingPattern.from_string("01")
        assert index.groups[obs].tolist() == [0]
        assert index.groups[part].tolist() == [1, 2]
        assert index.frequencies[obs] == pytest.approx(1 / 3)
        assert index.frequencies[part] == pytest.approx(2 / 3)

    def test_partition_property(self):
        rng = np.random.default_rng(42)
        mask = rng.random((200, 5)) < 0.4
        data = MaskedDataset(rng.normal(size=(200, 5)), mask, rng.normal(size=200))
        index = build_pattern_index(data)
        all_rows = np.concatenate([rows for rows in index.groups.values()])
        assert sorted(all_rows.tolist()) == list(range(200))
        assert sum(index.frequencies.values()) == pytest.approx(1.0, abs=1e-12)

    def test_mixture_preset_group_frequencies(self):
        scenario = preset("gpmm_c")
        sample = scenario.generate(10_000, np.random.default_rng(2024))
        index = build_pattern_index(sample.dataset)
        expected = {
            pattern: p for p, pattern, _ in scenario.components
        }
        assert len(index.groups) == 7
        for pattern, p in expected.items():
            slack = 3.0 * np.sqrt(p * (1.0 - p) / 10_000)
            assert abs(index.frequencies[pattern] - p) <= slack


@st.composite
def bank_batches(draw):
    """(d, keys, coefficient rows, intercepts, permutation): distinct keys in
    drawn order, each row zero at its key's missing coordinates, and a
    drawn reordering of the batch."""
    d = draw(st.integers(1, 5))
    keys = draw(st.lists(st.integers(0, 2**d - 1), unique=True, max_size=2**d))
    permutation = np.array(draw(st.permutations(range(len(keys)))), dtype=int)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys = np.array(keys, dtype=np.int64)
    coef = rng.standard_normal((keys.size, d)) * ~unpack_masks(keys, d)
    return d, keys, coef, rng.standard_normal(keys.size), permutation


def bank_state(bank, d):
    """Everything a bank answers: its length, its JSON, which of the 2^d
    keys it finds, and its predictions on fixed rows of every pattern."""
    keys = np.arange(2**d, dtype=np.int64)
    mask = unpack_masks(keys, d)
    values = np.random.default_rng(0).standard_normal(mask.shape)
    found = bank.find(keys)
    return len(bank), bank.to_json(), (found >= 0).tolist(), bank.predict(values, mask).tobytes()


class TestPatternBank:
    """A bank is built once from a batch: any order of the batch builds the
    same bank, and a bad batch builds none."""

    @given(bank_batches())
    @settings(max_examples=60, deadline=None)
    def test_any_order_builds_one_bank(self, case):
        d, keys, coef, intercepts, permutation = case
        bank = PatternBank(d, keys, coef, intercepts)
        shuffled = PatternBank(d, keys[permutation], coef[permutation], intercepts[permutation])
        assert bank_state(shuffled, d) == bank_state(bank, d)
        for key, row, intercept in zip(keys, coef, intercepts):
            m = MissingPattern(int(key), d)
            assert bank[m].intercept == intercept
            assert bank[m].coefficients.tolist() == row[list(m.observed_indices)].tolist()

    @given(bank_batches(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_bad_batch_names_the_mask(self, case, data):
        d, keys, coef, intercepts, permutation = case
        if keys.size:
            # a key given twice, the first such in key order named
            twins = data.draw(st.lists(st.sampled_from(keys.tolist()), min_size=1, unique=True))
            doubled = np.append(keys[permutation], twins)
            named = MissingPattern(min(twins), d).to_string()
            with pytest.raises(ValueError, match=f"^duplicate mask '{named}'$"):
                PatternBank(d, doubled, np.zeros((doubled.size, d)), np.zeros(doubled.size))
            # a non-finite entry in an otherwise valid batch
            bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
            where = data.draw(st.integers(0, d))
            coef, intercepts = coef.copy(), intercepts.copy()
            if where < d:
                coef[0, where] = bad
            else:
                intercepts[0] = bad
            with pytest.raises(ValueError, match="affine model entries must be finite"):
                PatternBank(d, keys, coef, intercepts)

    @pytest.mark.parametrize("d", [1, 4])
    def test_empty_bank(self, d):
        bank = PatternBank(d, [], np.zeros((0, d)), np.zeros(0))
        keys = np.arange(2**d, dtype=np.int64)
        assert bank.find(keys).tolist() == [-1] * keys.size
        mask = unpack_masks(keys, d)
        assert bank.predict(np.ones(mask.shape), mask).tolist() == [0.0] * keys.size
        assert len(bank) == 0 and bank.to_json() == [] and MissingPattern(0, d) not in bank
