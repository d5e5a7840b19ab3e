"""Phase estimation: transforms, signed bins, and eigenvalue readouts."""
import numpy as np
import pytest
from scipy.linalg import expm, hadamard

from hopfieldkit.experiments import synthetic_patterns
from hopfieldkit.hebbian import density, train
from hopfieldkit.patterns import ClampSet, TrainingSet
from hopfieldkit.quantum.evolution import BlockSplitEvolution
from hopfieldkit.quantum.phase import (
    bin_eigenvalues,
    controlled_powers,
    qpe_backward,
    qpe_forward,
)
from hopfieldkit.quantum.register import embed_w

PLUS_DENSITY = density(train(TrainingSet([[1.0, 1.0]])))
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
MINUS = np.array([1.0, -1.0]) / np.sqrt(2.0)


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_phases(rng, dim):
    """A diagonal unitary, given as its 1-D vector of phases."""
    return np.exp(1j * rng.uniform(-np.pi, np.pi, size=dim))


def as_matrices(powers):
    """The powers as dense matrices: a 1-D power is a diagonal."""
    return [np.diag(p) if p.ndim == 1 else p for p in powers]


class TestControlledPowers:
    def test_repeated_squaring_matches_matrix_power(self):
        u = random_unitary(np.random.default_rng(1), 4)
        powers = controlled_powers(u, 5)
        assert len(powers) == 5
        for k, p in enumerate(powers):
            np.testing.assert_allclose(p, np.linalg.matrix_power(u, 2 ** k),
                                       atol=1e-10)

    def test_diagonal_powers_stay_diagonal(self):
        u = random_phases(np.random.default_rng(2), 6)
        powers = controlled_powers(u, 5)
        assert len(powers) == 5
        for k, p in enumerate(powers):
            assert p.shape == (6,)
            np.testing.assert_allclose(np.diag(p),
                                       np.linalg.matrix_power(np.diag(u), 2 ** k), atol=1e-10)


def masked_forward(powers, psi):
    """Oracle: tile psi over every bin, then U^(2^k) on the rows with bit k set."""
    n_bins = 2 ** len(powers)
    s = np.tile(psi.astype(complex) / np.sqrt(n_bins), (n_bins, 1))
    bins = np.arange(n_bins)
    for k, u in enumerate(powers):
        rows = (bins >> k) & 1 == 1
        s[rows] = s[rows] @ u.T
    return np.fft.fft(s, axis=0) / np.sqrt(n_bins)


def full_inverse_phase_zero(s, powers):
    """Oracle: QFT, inverted powers on the masked rows, Hadamards; row |0...0>."""
    n_bins = 2 ** len(powers)
    out = np.fft.ifft(s, axis=0) * np.sqrt(n_bins)
    bins = np.arange(n_bins)
    for k, u in enumerate(powers):
        rows = (bins >> k) & 1 == 1
        out[rows] = out[rows] @ u.conj()
    return (hadamard(n_bins) @ out / np.sqrt(n_bins))[0]


def oracle_instances():
    """(powers, psi): random unitaries, a scaled unitary, a contraction and a diagonal unitary.

    The diagonal unitary is passed as its 1-D vector of phases; the oracles
    run on as_matrices(powers).
    """
    rng = np.random.default_rng(5)
    for t_qubits in range(1, 10):
        for dim in (2, 3, 8, 32):
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi)
            u = random_unitary(rng, dim)
            z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            for m in (u, 0.99 * u, z / np.linalg.norm(z, 2), random_phases(rng, dim)):
                yield controlled_powers(m, t_qubits), psi


class TestQpeOracles:
    def test_forward_matches_the_masked_loop(self):
        for powers, psi in oracle_instances():
            np.testing.assert_allclose(qpe_forward(powers, psi),
                                       masked_forward(as_matrices(powers), psi),
                                       rtol=0, atol=1e-12)

    def test_backward_matches_row_zero_of_the_full_inverse(self):
        rng = np.random.default_rng(6)
        for powers, psi in oracle_instances():
            n_bins, dim = 2 ** len(powers), psi.size
            s = rng.normal(size=(n_bins, dim)) + 1j * rng.normal(size=(n_bins, dim))
            s /= np.linalg.norm(s)
            back = qpe_backward(s, powers)
            assert back.shape == (dim,)
            np.testing.assert_allclose(back, full_inverse_phase_zero(s, as_matrices(powers)),
                                       rtol=0, atol=1e-12)


class TestQpeRoundTrip:
    def test_backward_inverts_forward(self):
        rng = np.random.default_rng(3)
        u = random_unitary(rng, 4)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        powers = controlled_powers(u, 4)
        back = qpe_backward(qpe_forward(powers, psi), powers)
        assert back.shape == (4,)
        np.testing.assert_allclose(back, psi, atol=1e-10)

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


class TestClosedFormFilter:
    def test_estimate_rotate_uncompute_is_a_spectral_filter(self):
        # With eigh(A) = (lam, V) and U = e^{i A t0}, estimating the phase,
        # scaling bin c by r_c and uncomputing leaves V f(lam) V^T psi on the
        # phase-zero branch, f(lam) = sum_c r_c |alpha_c(lam t0)|^2 with the
        # phase-estimation amplitude alpha_c(th) = sum_b e^{ib(th - 2 pi c/N)}/N.
        t_qubits, mu = 9, 0.05
        n_bins = 2 ** t_qubits
        b = np.arange(n_bins)
        to_bins = np.exp(-2j * np.pi * np.outer(b, b) / n_bins) / n_bins
        ts = synthetic_patterns(16, 4, 0)
        for l in range(2, 15):
            known = np.sort(np.random.default_rng(l).permutation(16)[:l]) + 1
            clamp = ClampSet.from_pattern(ts.patterns[0], tuple(int(i) for i in known))
            evo = BlockSplitEvolution(ts, clamp, 1.0)
            t0 = np.pi / evo.spectral_bound
            psi = embed_w(None, clamp)[0].amplitudes
            mu_tilde = bin_eigenvalues(t_qubits, t0)
            keep = np.abs(mu_tilde) >= mu
            r = np.zeros(n_bins)
            r[keep] = mu / mu_tilde[keep]

            powers = controlled_powers(evo(t0), t_qubits)
            simulated = qpe_backward(qpe_forward(powers, psi) * r[:, None], powers)

            lam, vecs = np.linalg.eigh(evo.a)
            alpha = np.exp(1j * np.outer(lam * t0, b)) @ to_bins
            f = np.abs(alpha) ** 2 @ r
            oracle = vecs @ (f * (vecs.T @ psi))
            gap = np.linalg.norm(simulated - oracle) / np.linalg.norm(oracle)
            assert gap <= 1e-10, (l, gap)
