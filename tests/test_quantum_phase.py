"""Phase estimation: transforms, signed bins, and eigenvalue readouts."""
import numpy as np
import pytest
from scipy.linalg import expm

from hopfieldkit.hebbian import density, train
from hopfieldkit.patterns import TrainingSet
from hopfieldkit.quantum.phase import (
    bin_eigenvalues,
    controlled_powers,
    fwht_axis0,
    qpe_backward,
    qpe_forward,
)

PLUS_DENSITY = density(train(TrainingSet([[1.0, 1.0]])))
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
MINUS = np.array([1.0, -1.0]) / np.sqrt(2.0)


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestControlledPowers:
    def test_repeated_squaring_matches_matrix_power(self):
        u = random_unitary(np.random.default_rng(1), 4)
        powers = controlled_powers(u, 5)
        assert len(powers) == 5
        for k, p in enumerate(powers):
            np.testing.assert_allclose(p, np.linalg.matrix_power(u, 2 ** k),
                                       atol=1e-10)


class TestWalshHadamard:
    def test_involution_and_isometry(self):
        rng = np.random.default_rng(2)
        s = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
        out = fwht_axis0(s)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(s), rel=1e-12)
        np.testing.assert_allclose(fwht_axis0(out), s, atol=1e-12)

    def test_maps_basis_to_uniform(self):
        e0 = np.zeros((4, 1))
        e0[0, 0] = 1.0
        np.testing.assert_allclose(fwht_axis0(e0), np.full((4, 1), 0.5),
                                   atol=1e-15)


class TestQpeRoundTrip:
    def test_backward_inverts_forward(self):
        rng = np.random.default_rng(3)
        u = random_unitary(rng, 4)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        powers = controlled_powers(u, 4)
        s = qpe_forward(powers, psi)
        back = qpe_backward(s, powers)
        np.testing.assert_allclose(back[0], psi, atol=1e-10)
        assert np.linalg.norm(back[1:]) <= 1e-10

    def test_forward_preserves_norm(self):
        rng = np.random.default_rng(4)
        u = random_unitary(rng, 2)
        psi = np.array([0.6, 0.8], dtype=complex)
        s = qpe_forward(controlled_powers(u, 3), psi)
        assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)


class TestBinEigenvalues:
    def test_signed_window_at_t0_pi(self):
        np.testing.assert_array_equal(
            bin_eigenvalues(3, np.pi),
            [0.0, 0.25, 0.5, 0.75, 1.0, -0.75, -0.5, -0.25])

    def test_window_scales_inversely_with_t0(self):
        np.testing.assert_allclose(bin_eigenvalues(3, np.pi / 2.0),
                                   2.0 * bin_eigenvalues(3, np.pi), atol=1e-14)


def readout(h, psi, t_qubits, t0):
    """Bin eigenvalues and probabilities of phase estimation on U = e^{i h t0}."""
    powers = controlled_powers(expm(1j * h * t0), t_qubits)
    s = qpe_forward(powers, psi)
    return bin_eigenvalues(t_qubits, t0), np.sum(np.abs(s) ** 2, axis=1)


def peak(eigenvalues, probabilities):
    """(eigenvalue estimate, probability) of the most likely bin."""
    i = int(np.argmax(probabilities))
    return float(eigenvalues[i]), float(probabilities[i])


def resolution(t_qubits, t0):
    """Eigenvalue width of one bin."""
    return float(np.diff(bin_eigenvalues(t_qubits, t0)[:2])[0])


class TestPhaseEstimate:
    def test_rank_one_density_peaks_at_unit_eigenvalue(self):
        value, weight = peak(*readout(PLUS_DENSITY.rho, PLUS, 6, np.pi))
        assert value == pytest.approx(1.0, abs=1e-12)
        assert weight >= 0.99

    def test_kernel_state_peaks_at_zero(self):
        value, weight = peak(*readout(PLUS_DENSITY.rho, MINUS, 6, np.pi))
        assert value == pytest.approx(0.0, abs=1e-12)
        assert weight >= 0.99

    def test_probabilities_sum_to_one(self):
        for t_qubits in (1, 4, 7):
            _, probabilities = readout(PLUS_DENSITY.rho, PLUS, t_qubits, np.pi)
            assert np.sum(probabilities) == pytest.approx(1.0, abs=1e-9)

    def test_extra_qubit_halves_resolution(self):
        assert resolution(6, np.pi) == pytest.approx(2.0 * resolution(7, np.pi))
        assert resolution(7, np.pi) == pytest.approx(2.0 * np.pi / (np.pi * 2 ** 7))

    def test_off_grid_eigenvalue_lands_within_resolution(self):
        h = np.diag([0.37, 0.37])
        state = np.array([1.0, 0.0], dtype=complex)
        for t_qubits in (5, 6, 8):
            value, weight = peak(*readout(h, state, t_qubits, np.pi))
            assert abs(value - 0.37) <= resolution(t_qubits, np.pi)
            assert weight >= 4.0 / np.pi ** 2
