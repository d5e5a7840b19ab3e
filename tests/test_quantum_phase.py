"""Phase estimation: transforms, signed bins, and eigenvalue readouts."""
import numpy as np
import pytest
from scipy.linalg import expm, hadamard

from dense_saddle import exact_evolution, padded_a
from hopfieldkit.experiments import synthetic_patterns
from hopfieldkit.hebbian import density, train
from hopfieldkit.patterns import ClampSet, TrainingSet
from hopfieldkit.quantum.evolution import BlockSplitEvolution
from hopfieldkit.quantum.phase import (
    _bin_weights,
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


class TestControlledPowers:
    def test_repeated_squaring_matches_matrix_power(self):
        u = random_unitary(np.random.default_rng(1), 4)
        powers = controlled_powers(u, 5)
        assert len(powers) == 5
        for k, p in enumerate(powers):
            np.testing.assert_allclose(p, np.linalg.matrix_power(u, 2 ** k),
                                       atol=1e-10)


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
    """(powers, psi): random unitaries, a scaled unitary and a contraction."""
    rng = np.random.default_rng(5)
    for t_qubits in range(1, 10):
        for dim in (2, 3, 8, 32):
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi)
            u = random_unitary(rng, dim)
            z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            for m in (u, 0.99 * u, z / np.linalg.norm(z, 2)):
                yield controlled_powers(m, t_qubits), psi


class TestQpeOracles:
    def test_forward_matches_the_masked_loop(self):
        for powers, psi in oracle_instances():
            np.testing.assert_allclose(qpe_forward(powers, psi), masked_forward(powers, psi),
                                       rtol=0, atol=1e-12)

    def test_backward_matches_row_zero_of_the_full_inverse(self):
        rng = np.random.default_rng(6)
        for powers, psi in oracle_instances():
            n_bins, dim = 2 ** len(powers), psi.size
            s = rng.normal(size=(n_bins, dim)) + 1j * rng.normal(size=(n_bins, dim))
            s /= np.linalg.norm(s)
            back = qpe_backward(s, powers)
            assert back.shape == (dim,)
            np.testing.assert_allclose(back, full_inverse_phase_zero(s, powers),
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


def fejer_oracle(phases, t_qubits):
    """The direct m + f Fejer formula, each entry's offset m wrapped by an integer modulo."""
    n_bins = 2 ** t_qubits
    x = np.asarray(phases, dtype=float) / (2.0 * np.pi) * n_bins
    nearest = np.rint(x)
    f = x - nearest
    half = n_bins // 2
    m = half - (half - nearest.astype(np.int64) + np.arange(n_bins)[:, None]) % n_bins
    den = (n_bins * np.sin(np.pi / n_bins * (m + f))) ** 2
    return np.divide(np.sin(np.pi * f) ** 2, den, out=np.ones_like(den), where=den != 0.0)


@pytest.mark.filterwarnings("error")
class TestBinWeights:
    def test_matches_the_direct_fejer_formula_entry_by_entry(self):
        # rtol alone: the tail entries, many decades below the peak, must
        # keep their relative precision, and the oracle's zeros stay zeros
        rng = np.random.default_rng(9)
        for t_qubits in range(1, 11):
            n_bins = 2 ** t_qubits
            on_bin = 2.0 * np.pi * np.r_[0, rng.integers(-n_bins // 2, n_bins // 2 + 1, 10)]
            on_bin /= n_bins
            half_bin = 2.0 * np.pi * (rng.integers(-n_bins // 2, n_bins // 2, 10) + 0.5) / n_bins
            phases = np.r_[rng.uniform(-np.pi, np.pi, 50), on_bin, on_bin + 1e-17,
                           on_bin - 1e-17, np.nextafter(on_bin, np.inf),
                           np.nextafter(on_bin, -np.inf), half_bin, np.pi, -np.pi]
            np.testing.assert_allclose(_bin_weights(phases, t_qubits),
                                       fejer_oracle(phases, t_qubits), rtol=1e-13, atol=0)

    def test_every_column_is_a_distribution(self):
        rng = np.random.default_rng(7)
        for t_qubits in (1, 3, 9):
            n_bins = 2 ** t_qubits
            phases = np.r_[rng.uniform(-np.pi, np.pi, size=50), 0.0, np.pi, -np.pi,
                           2.0 * np.pi * 3 / n_bins, 1e-17, -1e-17]
            weights = _bin_weights(phases, t_qubits)
            assert weights.shape == (n_bins, phases.size)
            np.testing.assert_allclose(weights.sum(axis=0), 1.0, rtol=0, atol=1e-12)

    def test_a_phase_on_a_bin_is_read_there_alone(self):
        # delta = 0 on the hit bin, where the kernel's denominator vanishes;
        # -pi is bin N/2 once delta is wrapped, and 3 wraps onto bin 1 at T = 1
        for t_qubits in (1, 3, 9):
            n_bins = 2 ** t_qubits
            weights = _bin_weights(np.array([0.0, 2.0 * np.pi * 3 / n_bins, -np.pi]), t_qubits)
            expected = np.zeros((n_bins, 3))
            expected[[0, 3 % n_bins, n_bins // 2], [0, 1, 2]] = 1.0
            np.testing.assert_array_equal(weights, expected)

    def test_matches_the_phase_estimation_amplitudes(self):
        # |alpha_c(phi)|^2 with alpha_c(phi) = sum_b e^{i b (phi - 2 pi c/N)} / N
        rng = np.random.default_rng(8)
        for t_qubits in (1, 4, 9):
            n_bins = 2 ** t_qubits
            b = np.arange(n_bins)
            to_bins = np.exp(-2j * np.pi * (np.outer(b, b) % n_bins) / n_bins) / n_bins
            phases = rng.uniform(-np.pi, np.pi, size=40)
            alpha = to_bins @ np.exp(1j * np.outer(b, phases))
            np.testing.assert_allclose(_bin_weights(phases, t_qubits), np.abs(alpha) ** 2,
                                       rtol=0, atol=1e-13)


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
        value, weight = peak(*readout(PLUS_DENSITY, PLUS, 6, np.pi))
        assert value == pytest.approx(1.0, abs=1e-12)
        assert weight >= 0.99

    def test_kernel_state_peaks_at_zero(self):
        value, weight = peak(*readout(PLUS_DENSITY, MINUS, 6, np.pi))
        assert value == pytest.approx(0.0, abs=1e-12)
        assert weight >= 0.99

    def test_probabilities_sum_to_one(self):
        for t_qubits in (1, 4, 7):
            _, probabilities = readout(PLUS_DENSITY, PLUS, t_qubits, np.pi)
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
            a = padded_a(ts, clamp, 1.0)
            t0 = np.pi / BlockSplitEvolution(ts, clamp, 1.0).spectral_bound
            psi = embed_w(None, clamp)[0].amplitudes
            mu_tilde = bin_eigenvalues(t_qubits, t0)
            keep = np.abs(mu_tilde) >= mu
            r = np.zeros(n_bins)
            r[keep] = mu / mu_tilde[keep]

            powers = controlled_powers(exact_evolution(a, t0), t_qubits)
            simulated = qpe_backward(qpe_forward(powers, psi) * r[:, None], powers)

            lam, vecs = np.linalg.eigh(a)
            alpha = np.exp(1j * np.outer(lam * t0, b)) @ to_bins
            f = np.abs(alpha) ** 2 @ r
            oracle = vecs @ (f * (vecs.T @ psi))
            gap = np.linalg.norm(simulated - oracle) / np.linalg.norm(oracle)
            assert gap <= 1e-10, (l, gap)
