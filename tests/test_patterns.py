"""Pattern model: validation, RNA encoding, clamps, file loaders."""
import itertools

import numpy as np
import pytest

from hopfieldkit.patterns import (
    BASE_TO_BITS,
    ClampSet,
    TrainingSet,
    as_pattern,
    encode_rna,
    load_fasta,
    load_pattern_lines,
    load_patterns,
)


class TestAsPattern:
    def test_accepts_bipolar_and_unknown(self):
        x = as_pattern([1, -1, 0])
        np.testing.assert_array_equal(x, [1.0, -1.0, 0.0])
        assert x.dtype == np.float64

    def test_rejects_zero_when_fully_specified_required(self):
        with pytest.raises(ValueError, match="positions \\[3\\]"):
            as_pattern([1, -1, 0], allow_unknown=False)

    @pytest.mark.parametrize("bad", [[2, 1], [0.5, 1], [1, np.nan]])
    def test_rejects_out_of_alphabet_entries(self, bad):
        with pytest.raises(ValueError, match="positions"):
            as_pattern(bad)

    def test_message_lists_the_first_eight_bad_positions(self):
        mixed = [1, 2, np.nan, -0.0, 0.5, -1, np.inf, -np.inf, 3, 0, 0.25, 7, -2, 1]
        with pytest.raises(ValueError) as exc:
            as_pattern(mixed)
        assert str(exc.value) == ("pattern entries outside [-1.0, 0.0, 1.0] "
                                  "at positions [2, 3, 5, 7, 8, 9, 11, 12]")
        with pytest.raises(ValueError) as exc:
            as_pattern(mixed, allow_unknown=False)
        assert str(exc.value) == ("pattern entries outside [-1.0, 1.0] "
                                  "at positions [2, 3, 4, 5, 7, 8, 9, 10]")

    def test_negative_zero_is_an_unknown_entry(self):
        np.testing.assert_array_equal(as_pattern([-0.0, 1.0, -1.0]), [0.0, 1.0, -1.0])

    def test_rejects_empty_and_matrix_inputs(self):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            as_pattern([])
        with pytest.raises(ValueError, match="non-empty 1-d"):
            as_pattern([[1.0, -1.0]])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length 2, expected 3"):
            as_pattern([1, -1], d=3)


class TestEncodeRna:
    def test_single_base(self):
        np.testing.assert_array_equal(encode_rna("A"), [-1.0, -1.0])

    def test_two_bases(self):
        np.testing.assert_array_equal(encode_rna("AU"), [-1.0, -1.0, 1.0, 1.0])

    def test_full_alphabet_norm(self):
        x = encode_rna("ACGU")
        assert x.size == 8
        assert float(x @ x) == 8.0

    def test_binary_squared_norm_equals_length(self):
        x = encode_rna("GAUCACG")
        assert float(x @ x) == float(x.size) == 14.0

    def test_t_is_accepted_as_u(self):
        np.testing.assert_array_equal(encode_rna("ACGT"), encode_rna("ACGU"))

    def test_lowercase_accepted(self):
        np.testing.assert_array_equal(encode_rna("acgu"), encode_rna("ACGU"))

    def test_injective_on_short_sequences(self):
        seen = {}
        for seq in itertools.product("ACGU", repeat=3):
            key = tuple(encode_rna("".join(seq)))
            assert key not in seen
            seen[key] = seq
        assert len(seen) == 64

    def test_bad_base_names_position(self):
        with pytest.raises(ValueError, match="'N' at position 3"):
            encode_rna("ACNU")

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            encode_rna("")

    def test_base_map_is_injective(self):
        assert len(set(BASE_TO_BITS.values())) == 4


class TestTrainingSet:
    def test_shape_accessors(self):
        ts = TrainingSet([[1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])
        assert (ts.m, ts.d) == (2, 3)
        np.testing.assert_array_equal(ts.patterns[1], [1.0, 1.0, -1.0])

    def test_rejects_incomplete_patterns(self):
        with pytest.raises(ValueError, match="fully specified"):
            TrainingSet([[1.0, 0.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            TrainingSet(np.empty((0, 3)))

    def test_patterns_are_immutable(self):
        ts = TrainingSet([[1.0, -1.0]])
        with pytest.raises(ValueError):
            ts.patterns[0, 0] = -1.0


class TestClampSet:
    def test_accessors_mask_projector(self):
        clamp = ClampSet(np.array([1.0, 0.0, -1.0]))
        assert clamp.l == 2
        assert clamp.d == 3
        np.testing.assert_array_equal(clamp.mask(), [True, False, True])
        # the saddle matrix's projector P is diag(mask), of trace l
        assert int(clamp.mask().sum()) == clamp.l

    def test_full_clamp_is_allowed(self):
        clamp = ClampSet(np.array([1.0, -1.0]))
        assert clamp.l == clamp.d == 2

    def test_from_pattern(self):
        clamp = ClampSet.from_pattern([1.0, -1.0, 1.0], [3, 1])
        assert clamp.l == 2
        np.testing.assert_array_equal(clamp.values, [1.0, 0.0, 1.0])

    def test_from_pattern_rejects_out_of_range_index(self):
        with pytest.raises(ValueError, match="outside 1..2"):
            ClampSet.from_pattern([1.0, -1.0], [3])

    def test_rejects_empty_index_set(self):
        with pytest.raises(ValueError, match="probe clamps nothing"):
            ClampSet(np.zeros(2))

    def test_random_probes_define_their_clamp(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            d = int(rng.integers(1, 30))
            x = rng.choice([-1.0, 1.0], size=d)
            mask = rng.random(d) < rng.random()
            mask[rng.integers(d)] = True
            probe = np.where(mask, x, 0.0)
            clamp = ClampSet(probe)
            np.testing.assert_array_equal(clamp.mask(), mask)
            assert clamp.l == int(mask.sum())
            assert clamp.d == d
            idx = rng.permutation(np.flatnonzero(mask) + 1)
            np.testing.assert_array_equal(ClampSet.from_pattern(x, idx).values, probe)
            with pytest.raises(ValueError, match=f"outside 1..{d}"):
                ClampSet.from_pattern(x, [*idx, (0, d + 1)[d % 2]])
            with pytest.raises(ValueError, match="repeated"):
                ClampSet.from_pattern(x, [*idx, idx[0]])
            probe[:] = 0.0
            assert clamp.l == int(mask.sum())  # the clamp holds its own copy


class TestLoaders:
    def test_pattern_lines_parse_and_skip_comments(self):
        arr = load_pattern_lines(["# header", "", "+1 -1 0", "1 1 -1"])
        np.testing.assert_array_equal(arr, [[1.0, -1.0, 0.0], [1.0, 1.0, -1.0]])

    def test_pattern_lines_reject_non_numeric_with_line_number(self):
        with pytest.raises(ValueError, match="probe.txt:2: non-numeric"):
            load_pattern_lines(["1 1", "1 x"], source="probe.txt")

    def test_pattern_lines_reject_out_of_alphabet_with_line_number(self):
        with pytest.raises(ValueError, match=":1: entries must be"):
            load_pattern_lines(["2 1"])

    def test_pattern_lines_reject_ragged_rows(self):
        with pytest.raises(ValueError, match="inconsistent pattern lengths"):
            load_pattern_lines(["1 1", "1 1 1"])

    def test_pattern_lines_reject_empty_input(self):
        with pytest.raises(ValueError, match="no patterns"):
            load_pattern_lines(["# nothing", ""])

    def test_load_patterns_round_trip(self, tmp_path):
        path = tmp_path / "pats.txt"
        path.write_text("1 -1 0\n-1 -1 1\n")
        arr = load_patterns(path)
        np.testing.assert_array_equal(arr, [[1.0, -1.0, 0.0], [-1.0, -1.0, 1.0]])

    def test_load_fasta_concatenates_sequence_lines(self, tmp_path):
        path = tmp_path / "seqs.fasta"
        path.write_text(">first record\nACG\nU\n>second\nGGCC\n")
        records = load_fasta(path)
        assert records == [("first record", "ACGU"), ("second", "GGCC")]

    def test_load_fasta_rejects_data_before_header(self, tmp_path):
        path = tmp_path / "bad.fasta"
        path.write_text("ACGU\n>late\nAC\n")
        with pytest.raises(ValueError, match=":1: sequence data before"):
            load_fasta(path)

    def test_load_fasta_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.fasta"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="no FASTA records"):
            load_fasta(path)
