import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patternlab import MaskedDataset, MissingPattern, build_pattern_index, preset


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
        m = MissingPattern.from_bools(flags)
        assert [m.is_missing(j) for j in range(len(flags))] == flags
        assert MissingPattern.from_string(m.to_string()) == m


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
            pattern: p for pattern, p in scenario.pattern_probabilities().items()
        }
        assert len(index.groups) == 7
        for pattern, p in expected.items():
            slack = 3.0 * np.sqrt(p * (1.0 - p) / 10_000)
            assert abs(index.frequencies[pattern] - p) <= slack
