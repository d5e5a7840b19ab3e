"""Pattern model: validation, RNA encoding, clamps, file loaders, and the shared parameter rules."""
import itertools
import re

import numpy as np
import pytest

from hopfieldkit.experiments import ExperimentConfig, run_gamma_sweep, run_quantum_crosscheck
from hopfieldkit.hebbian import train
from hopfieldkit.inversion import (assemble, certify_minimum, solve, solve_perturbed,
                                   truncated_pseudoinverse_apply)
from hopfieldkit.patterns import (
    BASE_TO_BITS,
    ClampSet,
    TrainingSet,
    _real,
    as_pattern,
    encode_rna,
    load_fasta,
    load_pattern_lines,
    load_patterns,
)
from hopfieldkit.quantum.evolution import pattern_product_unitary
from hopfieldkit.quantum.register import embed, swap_test
from hopfieldkit.quantum.solver import qhop_recall, qhop_solve


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

    def test_random_sequences_match_the_per_base_map(self, per_base_encoding):
        rng = np.random.default_rng(5)
        for n in (1, 2, 7, 60, 1000):
            seq = "".join(rng.choice(list("ACGUTacgut"), size=n))
            np.testing.assert_array_equal(encode_rna(seq), per_base_encoding(seq))

    def test_output_is_float64_of_two_entries_per_base(self):
        for n in (1, 3, 50):
            x = encode_rna("GuT" * n)
            assert x.dtype == np.float64
            assert x.shape == (6 * n,)

    def test_every_other_ascii_byte_is_rejected_at_its_position(self):
        bases = set("ACGUTacgut")
        for code in range(128):
            symbol = chr(code)
            if symbol in bases:
                continue
            with pytest.raises(ValueError) as exc:
                encode_rna("ACG" + symbol + "N")
            assert str(exc.value) == f"unknown base {symbol!r} at position 4"

    @pytest.mark.parametrize("seq,message", [
        ("A\u00dfC", "unknown base '\u00df' at position 2"),
        ("\u00e9\u00e9", "unknown base '\u00e9' at position 1"),
        ("ACN\u00dfC", "unknown base 'N' at position 3"),
        ("AC\u00dfNC", "unknown base '\u00df' at position 3"),
        ("GG\U0001f9ecU", "unknown base '\U0001f9ec' at position 3"),
        ("AC\udcffG", "unknown base '\\udcff' at position 3"),  # a lone surrogate
    ])
    def test_non_ascii_symbol_is_rejected_as_written_at_its_position(self, seq, message):
        with pytest.raises(ValueError) as exc:
            encode_rna(seq)
        assert str(exc.value) == message


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

    def test_from_pattern_rejects_non_integer_indices(self):
        pattern = [1.0, -1.0, 1.0]
        for bad in (1.7, True, np.float64(2.0), np.bool_(True)):
            with pytest.raises(ValueError, match="clamp index must be an integer"):
                ClampSet.from_pattern(pattern, [3, bad])
        clamp = ClampSet.from_pattern(pattern, [np.int64(3), np.int8(1)])
        np.testing.assert_array_equal(clamp.values, [1.0, 0.0, 1.0])

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


# The shared parameter rules: every entry point that reads a gamma, mu, beta
# or count refuses the same inputs with the same message.
STORE = TrainingSet(np.array([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]]))
STORE_WM = train(STORE)
STORE_CLAMP = ClampSet(np.array([1.0, -1.0, 0.0, 0.0]))
POSITIVE, NON_NEGATIVE = "positive and finite", ">= 0 and finite"

REAL_PARAMETERS = {
    "config-gamma": (lambda v: ExperimentConfig(l_grid=(1,), gamma=v), "gamma", POSITIVE),
    "config-mu": (lambda v: ExperimentConfig(l_grid=(1,), mu=v), "mu", NON_NEGATIVE),
    "assemble-gamma": (lambda v: assemble(STORE_WM, STORE_CLAMP, gamma=v), "gamma", POSITIVE),
    "solve-mu": (lambda v: solve(assemble(STORE_WM, STORE_CLAMP), mu=v), "mu", NON_NEGATIVE),
    "perturbed-gamma": (lambda v: solve_perturbed(STORE_WM, STORE.patterns[0], gamma=v),
                        "gamma", POSITIVE),
    "perturbed-beta": (lambda v: solve_perturbed(STORE_WM, STORE.patterns[0], beta=v),
                       "beta", POSITIVE),
    "certify-gamma": (lambda v: certify_minimum(STORE_WM, STORE_CLAMP, v), "gamma", NON_NEGATIVE),
    "pseudoinverse-mu": (lambda v: truncated_pseudoinverse_apply(np.eye(2), np.ones(2), v),
                         "mu", NON_NEGATIVE),
    "qhop-solve-gamma": (lambda v: qhop_solve(STORE, STORE_CLAMP, gamma=v), "gamma", POSITIVE),
    "qhop-solve-mu": (lambda v: qhop_solve(STORE, STORE_CLAMP, mu=v), "mu", POSITIVE),
    "qhop-recall-mu": (lambda v: qhop_recall(STORE, STORE_CLAMP, mu=v), "mu", NON_NEGATIVE),
    "sweep-grid": (lambda v: run_gamma_sweep(ExperimentConfig(l_grid=(1,)), [1.0, v]),
                   "gamma", POSITIVE),
    "crosscheck-gamma": (lambda v: run_quantum_crosscheck(d=2, n_seeds=1, gamma=v),
                         "gamma", POSITIVE),
}
BAD_REALS = [True, False, "1", None, np.array(1.0), np.nan, np.inf, -np.inf]

COUNT_PARAMETERS = {
    "swap-test-shots": (lambda v: swap_test(embed([1.0, 0.0])[0], embed([0.0, 1.0])[0], shots=v),
                        "shots"),
    "product-formula-n": (lambda v: pattern_product_unitary(STORE, 1.0, v), "step count n"),
}
BAD_COUNTS = [True, "1", None, np.nan, np.inf, 2.5, 0]


class TestParameterRules:
    @pytest.mark.parametrize("entry", REAL_PARAMETERS)
    def test_real_parameters_share_one_rule(self, entry):
        call, name, rule = REAL_PARAMETERS[entry]
        below = 0.0 if rule == POSITIVE else -0.5
        for value in BAD_REALS + [below]:
            with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {rule}')}$"):
                call(value)

    @pytest.mark.parametrize("entry", COUNT_PARAMETERS)
    def test_count_parameters_share_one_rule(self, entry):
        call, name = COUNT_PARAMETERS[entry]
        for value in BAD_COUNTS:
            with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be an integer >= 1')}"):
                call(value)

    def test_a_real_comes_back_as_a_float(self):
        for value, zero in ((np.float32(0.5), False), (np.int64(3), False), (0, True)):
            got = _real(value, "x", zero)
            assert type(got) is float and got == value
        assert type(assemble(STORE_WM, STORE_CLAMP, gamma=2).gamma) is float

    @pytest.mark.parametrize("bad", [[1.0, np.nan, 0.0, 0.0], [1.0, 0.0, np.inf, 0.0], [1.0, 0.0]])
    def test_vectors_must_be_finite_and_of_length_d(self, bad):
        shape = re.escape(" must be a finite vector of shape (4,)")
        with pytest.raises(ValueError, match=f"^thresholds{shape}$"):
            assemble(STORE_WM, STORE_CLAMP, theta=bad)
        with pytest.raises(ValueError, match=f"^x_pert{shape}$"):
            solve_perturbed(STORE_WM, bad)
