"""Phase estimation on the controlled powers of U(t0), with signed eigenvalue bins.

The phase register holds T qubits (most significant first). Controlled
powers U^(2^k) come from repeated squaring of a dense U(t0), and the
inverse Fourier transform runs along the phase axis. Bin b of 2^T
encodes the phase b/2^T; bins above 2^(T-1) wrap to negative phases
(two's complement), so eigenvalues are read in the window
(-pi/t0, +pi/t0].

Neither Hadamard layer is simulated as a transform. The forward pass
builds the 2^T controlled-power rows U^b psi by doubling (row h + j is
U^(2^k) times row j, h = 2^k), and the backward pass folds them back the
same way and returns only the branch where the phase register is back at
|0...0>, the one the solver keeps. Each pass costs 2^T - 1 row products
on contiguous slices, O(2^T dim^2). U is dense; the solver's reference
mode needs no pass, only the bin weights of _bin_weights.
"""
from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def controlled_powers(u1: np.ndarray, t_qubits: int) -> list[np.ndarray]:
    """[U, U^2, U^4, ...] by repeated squaring, one entry per phase qubit."""
    powers = [np.asarray(u1, dtype=complex)]
    for _ in range(t_qubits - 1):
        powers.append(powers[-1] @ powers[-1])
    return powers


def qpe_forward(powers: list[np.ndarray], psi: np.ndarray) -> np.ndarray:
    """Hadamards, controlled powers, inverse QFT; returns a (2^T, dim) array.

    Row b before the transform is U^b psi / sqrt(2^T), built by doubling:
    the rows whose top set bit is k are U^(2^k) times the 2^k rows below.
    """
    n_bins = 2 ** len(powers)
    s = np.empty((n_bins, psi.size), dtype=complex)
    s[0] = psi / np.sqrt(n_bins)
    h = 1
    for u in powers:
        s[h:2 * h] = s[:h] @ u.T
        h *= 2
    # inverse QFT along the phase axis: QFT^dag = fft / sqrt(N)
    return np.fft.fft(s, axis=0, norm="ortho")


def qpe_backward(s: np.ndarray, powers: list[np.ndarray]) -> np.ndarray:
    """Uncompute qpe_forward and return the phase-zero branch, a (dim,) vector.

    After the QFT, the inverted powers and the Hadamards, the |0...0>
    phase row is sum_b U^(-b) y_b / sqrt(2^T) over the QFT rows y_b. It is
    folded from the top qubit down: the upper half of the rows, times
    U^(-2^k), is added onto the lower half.
    """
    n_bins = 2 ** len(powers)
    # QFT = sqrt(N) ifft; the unscaled ifft and one exact division by N
    # carry both factors of sqrt(N)
    y = np.fft.ifft(s, axis=0, norm="forward")
    h = n_bins
    for u in reversed(powers):
        h //= 2
        # row-vector form of U^dag: (U^dag)^T = conj(U)
        y[:h] += y[h:2 * h] @ u.conj()
    return y[0] / n_bins


def bin_eigenvalues(t_qubits: int, t0: float) -> np.ndarray:
    """Eigenvalue estimate of each phase bin under the signed convention."""
    n_bins = 2 ** t_qubits
    b = np.arange(n_bins)
    phi = b / n_bins
    phi = np.where(b > n_bins // 2, phi - 1.0, phi)
    return 2.0 * np.pi * phi / t0


@functools.lru_cache(maxsize=16)
def _offset_tables(t_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """N sin(pi m/N) and N cos(pi m/N) as read-only (N + 1, N) windows of a doubled table.

    Entry j of the doubled table holds the offset m = N/2 - (N/2 + j) mod N,
    wrapped into (-N/2, N/2], so window s, entry c, is the offset m
    congruent to c - n (mod N) for any nearest bin n with s = -n mod N.
    """
    n_bins = 2 ** t_qubits
    half = n_bins // 2
    angle = np.pi / n_bins * (half - (half + np.arange(2 * n_bins)) % n_bins)
    return (sliding_window_view(n_bins * np.sin(angle), n_bins),
            sliding_window_view(n_bins * np.cos(angle), n_bins))


def _bin_weights(phases: np.ndarray, t_qubits: int) -> np.ndarray:
    """(2^T, k) table: the probability that eigenphase phases[k] is read in bin c.

    The Fejer kernel |alpha_c|^2 = sin^2(N delta/2) / (N sin(delta/2))^2,
    N = 2^T, of the amplitude alpha_c = sum_b e^{i b delta} / N at
    delta = phi - 2 pi c / N (Harrow, Hassidim and Lloyd, PRL 103, 150502,
    2009). In bins N delta / (2 pi) = m + f, with f phi's exact offset from
    its nearest bin and m wrapped into (-N/2, N/2]: the numerator is
    sin^2(pi f), and a phase with sin(pi f) = 0 is read in its nearest bin
    alone, with weight exactly 1. The denominator's root, N sin(pi (m + f)/N),
    is N sin(pi m/N) cos(pi f/N) + N cos(pi m/N) sin(pi f/N), with the
    N sin(pi m/N) and N cos(pi m/N) read from cached offset tables, so a
    column costs one sin and cos of f and O(N) multiply-adds.
    """
    n_bins = 2 ** t_qubits
    x = np.asarray(phases, dtype=float) / (2.0 * np.pi) * n_bins
    nearest = np.rint(x)
    f = x - nearest
    n = nearest.astype(np.int64)
    start = -n % n_bins
    sin_m, cos_m = _offset_tables(t_qubits)
    g = np.pi / n_bins * f
    # rows are the k phases until the final transpose
    den = sin_m[start]
    den *= np.cos(g)[:, None]
    den += cos_m[start] * np.sin(g)[:, None]
    den *= den
    num = np.sin(np.pi * f) ** 2
    hit = num == 0.0
    den[hit] = 1.0
    weights = np.divide(num[:, None], den, out=den)
    weights[hit, n[hit] % n_bins] = 1.0
    return weights.T
