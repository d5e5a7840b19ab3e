"""Amplitude encoding, registers, and the swap-test estimator."""
import numpy as np
import pytest

from hopfieldkit.patterns import ClampSet
from hopfieldkit.quantum.register import (
    QuantumRegister,
    embed,
    embed_w,
    qubits_for,
    swap_test,
)


class TestQubitsFor:
    @pytest.mark.parametrize("dim,n", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3),
                                       (8, 3), (9, 4), (1024, 10)])
    def test_counts(self, dim, n):
        assert qubits_for(dim) == n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match=">= 1"):
            qubits_for(0)


class TestQuantumRegister:
    def test_total_qubits_from_length(self):
        reg = QuantumRegister(np.ones(8) / np.sqrt(8.0))
        assert reg.total_qubits == 3
        assert QuantumRegister(np.array([1.0, 0.0])).total_qubits == 1

    def test_amplitudes_are_immutable_and_complex(self):
        reg = QuantumRegister(np.array([1.0, 0.0]))
        assert reg.amplitudes.dtype == complex
        with pytest.raises(ValueError):
            reg.amplitudes[0] = 0.0

    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="norm deviates"):
            QuantumRegister(np.array([1.0, 1.0]))

    def test_length_must_match_layout(self):
        # the layout is implied by the length, which must be 2**k
        for amps in ([1.0, 0.0, 0.0], np.eye(2) / np.sqrt(2.0)):
            with pytest.raises(ValueError, match="length 2\\*\\*k, k >= 1"):
                QuantumRegister(np.asarray(amps))

    def test_layout_must_be_nonempty_with_positive_widths(self):
        # fewer than two amplitudes would be a register of zero qubits
        for amps in ([], [1.0], np.eye(2)[0:1]):
            with pytest.raises(ValueError, match="length 2\\*\\*k, k >= 1"):
                QuantumRegister(np.asarray(amps))


class TestEmbed:
    def test_uniform_two_vector(self):
        reg, norm = embed([1.0, 1.0])
        np.testing.assert_allclose(reg.amplitudes,
                                   [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)],
                                   atol=1e-15)
        assert norm == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert reg.total_qubits == 1

    def test_basis_vector_maps_to_basis_state(self):
        reg, norm = embed([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(reg.amplitudes, [1.0, 0.0, 0.0, 0.0])
        assert norm == 1.0
        assert reg.total_qubits == 2

    def test_binary_vector_norm_is_sqrt_d(self):
        rng = np.random.default_rng(3)
        for d in (2, 5, 16):
            _, norm = embed(rng.choice([-1.0, 1.0], size=d))
            assert norm == pytest.approx(np.sqrt(d), rel=1e-12)

    def test_odd_length_pads_with_zeros(self):
        reg, norm = embed([3.0, 0.0, 4.0])
        assert reg.total_qubits == 2
        np.testing.assert_allclose(reg.amplitudes, [0.6, 0.0, 0.8, 0.0],
                                   atol=1e-15)
        assert norm == pytest.approx(5.0)

    def test_rejects_zero_and_non_vector_inputs(self):
        with pytest.raises(ValueError, match="zero vector"):
            embed([0.0, 0.0])
        with pytest.raises(ValueError, match="1-d vector"):
            embed(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="1-d vector"):
            embed([])


class TestEmbedW:
    def test_clamped_block_only(self):
        reg, norm = embed_w(None, ClampSet((1,), np.array([1.0, 0.0])))
        np.testing.assert_array_equal(reg.amplitudes, [0.0, 0.0, 1.0, 0.0])
        assert norm == 1.0
        assert reg.total_qubits == 2

    def test_both_blocks_superpose(self):
        reg, norm = embed_w([1.0, 0.0], ClampSet((2,), np.array([0.0, 1.0])))
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(reg.amplitudes, [s, 0.0, 0.0, s], atol=1e-15)
        assert norm == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_blocks_pad_to_common_power_of_two(self):
        reg, norm = embed_w(None, ClampSet((1, 3), np.array([1.0, 0.0, -1.0])))
        assert reg.total_qubits == 3  # 2 system qubits + 1 block flag
        expected = np.zeros(8)
        expected[4], expected[6] = 1.0, -1.0
        np.testing.assert_allclose(reg.amplitudes, expected / np.sqrt(2.0),
                                   atol=1e-15)
        assert norm == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_rejects_mismatched_theta(self):
        with pytest.raises(ValueError, match="shape \\(2,\\)"):
            embed_w([1.0, 0.0, 0.0], ClampSet((1,), np.array([1.0, 0.0])))


class TestSwapTest:
    def test_identical_states_never_fire(self):
        reg, _ = embed([1.0, 1.0])
        report = swap_test(reg, reg, shots=100, rng_seed=0)
        assert report.p_swap_exact == pytest.approx(0.0, abs=1e-12)
        assert report.ones == 0
        assert report.overlap_sq_exact == pytest.approx(1.0, abs=1e-12)
        assert report.overlap_sq_estimate == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states_fire_half_the_time(self):
        a, _ = embed([1.0, 0.0])
        b, _ = embed([0.0, 1.0])
        report = swap_test(a, b, shots=10, rng_seed=1)
        assert report.p_swap_exact == pytest.approx(0.5, abs=1e-12)
        assert report.overlap_sq_exact == pytest.approx(0.0, abs=1e-12)

    def test_half_overlap_construction(self):
        a, _ = embed([1.0, 0.0])
        b, _ = embed([1.0, 1.0])
        report = swap_test(a, b, shots=10_000, rng_seed=7)
        assert report.p_swap_exact == pytest.approx(0.25, abs=1e-12)
        assert report.overlap_sq_exact == pytest.approx(0.5, abs=1e-12)
        # the estimator is a rescaled binomial rate: 3-sigma agreement
        sigma = 2.0 * np.sqrt(0.25 * 0.75 / 10_000)
        assert abs(report.overlap_sq_estimate - 0.5) <= 3.0 * sigma
        assert report.stderr == pytest.approx(
            2.0 * np.sqrt((report.ones / 10_000)
                          * (1.0 - report.ones / 10_000) / 10_000))

    def test_exact_probability_matches_amplitude_overlap(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            av = rng.normal(size=2 ** n)
            bv = rng.normal(size=2 ** n)
            a, _ = embed(av)
            b, _ = embed(bv)
            ov2 = float(np.abs(a.amplitudes.conj() @ b.amplitudes) ** 2)
            report = swap_test(a, b, shots=1, rng_seed=0)
            assert report.p_swap_exact == pytest.approx(0.5 * (1.0 - ov2),
                                                        abs=1e-10)

    def test_seed_reproducibility(self):
        a, _ = embed([1.0, 0.0])
        b, _ = embed([1.0, 1.0])
        r1 = swap_test(a, b, shots=500, rng_seed=42)
        r2 = swap_test(a, b, shots=500, rng_seed=42)
        assert r1.ones == r2.ones

    def test_rejects_bad_inputs(self):
        a, _ = embed([1.0, 0.0])
        c, _ = embed([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="equal qubit count"):
            swap_test(a, c, shots=10)
        with pytest.raises(ValueError, match="shots must be >= 1"):
            swap_test(a, a, shots=0)
