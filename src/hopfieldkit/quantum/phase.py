"""Phase estimation on the controlled powers of U(t0), with signed eigenvalue bins.

The phase register holds T qubits (most significant first). Controlled
powers U^(2^k) come from repeated squaring of U(t0), and the inverse
Fourier transform runs along the phase axis. Bin b of 2^T encodes the
phase b/2^T; bins above 2^(T-1) wrap to negative phases (two's
complement), so eigenvalues are read in the window (-pi/t0, +pi/t0].
"""
from __future__ import annotations

import numpy as np


def controlled_powers(u1: np.ndarray, t_qubits: int) -> list[np.ndarray]:
    """[U, U^2, U^4, ...] by repeated squaring, one entry per phase qubit."""
    powers = [np.asarray(u1, dtype=complex)]
    for _ in range(t_qubits - 1):
        powers.append(powers[-1] @ powers[-1])
    return powers


def fwht_axis0(s: np.ndarray) -> np.ndarray:
    """Unitary Walsh-Hadamard transform (H on every phase qubit) along axis 0."""
    out = s.astype(complex).copy()
    n = out.shape[0]
    h = 1
    while h < n:
        v = out.reshape(n // (2 * h), 2, h, -1)
        a = v[:, 0].copy()
        b = v[:, 1].copy()
        v[:, 0] = a + b
        v[:, 1] = a - b
        h *= 2
    return out.reshape(s.shape) / np.sqrt(n)


def qpe_forward(powers: list[np.ndarray], psi: np.ndarray) -> np.ndarray:
    """Hadamards, controlled powers, inverse QFT; returns a (2^T, dim) array."""
    t_qubits = len(powers)
    n_bins = 2 ** t_qubits
    s = np.tile(psi.astype(complex) / np.sqrt(n_bins), (n_bins, 1))
    bins = np.arange(n_bins)
    for k, u in enumerate(powers):
        rows = (bins >> k) & 1 == 1
        s[rows] = s[rows] @ u.T
    # inverse QFT along the phase axis: QFT^dag = fft / sqrt(N)
    return np.fft.fft(s, axis=0) / np.sqrt(n_bins)


def qpe_backward(s: np.ndarray, powers: list[np.ndarray]) -> np.ndarray:
    """Exact inverse of qpe_forward: QFT, inverted powers, Hadamards."""
    t_qubits = len(powers)
    n_bins = 2 ** t_qubits
    out = np.fft.ifft(s, axis=0) * np.sqrt(n_bins)
    bins = np.arange(n_bins)
    for k, u in enumerate(powers):
        rows = (bins >> k) & 1 == 1
        out[rows] = out[rows] @ u.conj()  # (U^dag)^T = conj(U)
    return fwht_axis0(out)


def bin_eigenvalues(t_qubits: int, t0: float) -> np.ndarray:
    """Eigenvalue estimate of each phase bin under the signed convention."""
    n_bins = 2 ** t_qubits
    b = np.arange(n_bins)
    phi = b / n_bins
    phi = np.where(b > n_bins // 2, phi - 1.0, phi)
    return 2.0 * np.pi * phi / t0
