"""Phase estimation on the controlled powers of U(t0), with signed eigenvalue bins.

The phase register holds T qubits (most significant first). Controlled
powers U^(2^k) come from repeated squaring of U(t0), and the inverse
Fourier transform runs along the phase axis. Bin b of 2^T encodes the
phase b/2^T; bins above 2^(T-1) wrap to negative phases (two's
complement), so eigenvalues are read in the window (-pi/t0, +pi/t0].

Neither Hadamard layer is simulated as a transform. The forward pass
builds the 2^T controlled-power rows U^b psi by doubling (row h + j is
U^(2^k) times row j, h = 2^k), and the backward pass folds them back the
same way and returns only the branch where the phase register is back at
|0...0>, the one the solver keeps. Each pass costs 2^T - 1 row products
on contiguous slices. U is either a dense (dim, dim) matrix, O(2^T dim^2)
a pass, or a 1-D vector: the diagonal of U written in its own eigenbasis,
whose powers stay diagonal and apply elementwise, O(2^T dim) a pass.
"""
from __future__ import annotations

import numpy as np


def controlled_powers(u1: np.ndarray, t_qubits: int) -> list[np.ndarray]:
    """[U, U^2, U^4, ...] by repeated squaring, one entry per phase qubit.

    A 1-D u1 is a diagonal U; its powers are squared elementwise.
    """
    powers = [np.asarray(u1, dtype=complex)]
    square = np.multiply if powers[0].ndim == 1 else np.matmul
    for _ in range(t_qubits - 1):
        powers.append(square(powers[-1], powers[-1]))
    return powers


def qpe_forward(powers: list[np.ndarray], psi: np.ndarray) -> np.ndarray:
    """Hadamards, controlled powers, inverse QFT; returns a (2^T, dim) array.

    Row b before the transform is U^b psi / sqrt(2^T), built by doubling:
    the rows whose top set bit is k are U^(2^k) times the 2^k rows below.
    A 1-D power is a diagonal and scales each row elementwise.
    """
    n_bins = 2 ** len(powers)
    s = np.empty((n_bins, psi.size), dtype=complex)
    s[0] = psi / np.sqrt(n_bins)
    h = 1
    for u in powers:
        if u.ndim == 1:
            np.multiply(s[:h], u, out=s[h:2 * h])
        else:
            s[h:2 * h] = s[:h] @ u.T
        h *= 2
    # inverse QFT along the phase axis: QFT^dag = fft / sqrt(N)
    return np.fft.fft(s, axis=0, norm="ortho")


def qpe_backward(s: np.ndarray, powers: list[np.ndarray]) -> np.ndarray:
    """Uncompute qpe_forward and return the phase-zero branch, a (dim,) vector.

    After the QFT, the inverted powers and the Hadamards, the |0...0>
    phase row is sum_b U^(-b) y_b / sqrt(2^T) over the QFT rows y_b. It is
    folded from the top qubit down: the upper half of the rows, times
    U^(-2^k), is added onto the lower half. 1-D powers are diagonals, as
    in qpe_forward.
    """
    n_bins = 2 ** len(powers)
    # QFT = sqrt(N) ifft; the unscaled ifft and one exact division by N
    # carry both factors of sqrt(N)
    y = np.fft.ifft(s, axis=0, norm="forward")
    h = n_bins
    for u in reversed(powers):
        h //= 2
        # row-vector form of U^dag: (U^dag)^T = conj(U), or conj(u) on a diagonal
        y[:h] += y[h:2 * h] * u.conj() if u.ndim == 1 else y[h:2 * h] @ u.conj()
    return y[0] / n_bins


def bin_eigenvalues(t_qubits: int, t0: float) -> np.ndarray:
    """Eigenvalue estimate of each phase bin under the signed convention."""
    n_bins = 2 ** t_qubits
    b = np.arange(n_bins)
    phi = b / n_bins
    phi = np.where(b > n_bins // 2, phi - 1.0, phi)
    return 2.0 * np.pi * phi / t0
