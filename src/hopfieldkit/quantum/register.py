"""Amplitude-encoded registers and the swap-test overlap estimator.

A register is a unit-norm complex amplitude vector whose length is a
power of two; its qubit count is read from that length. Vectors of
length d are amplitude-encoded on ceil(log2 d) qubits, zero-padded up to
the next power of two.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..patterns import ClampSet, _count, as_thresholds

NORM_ATOL = 1e-10


def qubits_for(dim: int) -> int:
    """Qubits needed to hold dim amplitudes: ceil(log2 dim), at least 1."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    return max(1, int(dim - 1).bit_length())


@dataclass(frozen=True)
class QuantumRegister:
    """Unit-norm amplitudes over a power-of-two number of basis states, at least 2."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        n = amps.size
        if amps.ndim != 1 or n < 2 or n & (n - 1):
            raise ValueError("amplitudes must be a vector of length 2**k, k >= 1")
        if abs(np.linalg.norm(amps) - 1.0) > NORM_ATOL:
            raise ValueError("register norm deviates from 1 beyond 1e-10")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def total_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1


def embed(x) -> tuple[QuantumRegister, float]:
    """Amplitude-encode a real vector; returns (register, euclidean norm).

    The norm is returned alongside because the encoding discards it. This
    is the one writer of a pattern state |x^> = x/|x|, zero-padded to the
    next power of two; the Hebbian evolution steps read theirs from it.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("embed expects a non-empty 1-d vector")
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("cannot embed a zero vector")
    amps = np.zeros(2 ** qubits_for(v.size), dtype=complex)
    amps[: v.size] = v / norm
    return QuantumRegister(amps), norm


def embed_w(theta, clamp: ClampSet) -> tuple[QuantumRegister, float]:
    """Encode the stacked right-hand side (theta; x_inc) on one extra qubit.

    The leading qubit distinguishes the threshold block (0) from the
    clamped-pattern block (1); each block is padded to the same power of
    two before stacking. The clamp holds at least one +/-1 value, so the
    encoded vector is never zero.
    """
    d = clamp.d
    d_pad = 2 ** qubits_for(d)
    w = np.zeros(2 * d_pad)
    w[:d] = as_thresholds(theta, d)
    w[d_pad:d_pad + d] = clamp.values
    return embed(w)


@dataclass(frozen=True)
class SwapTestReport:
    """Shot statistics of one swap test.

    p_swap is the probability of the designated outcome (ancilla reads 1),
    p_swap = (1 - |<a|b>|^2) / 2, so overlap_sq is estimated as
    1 - 2 * ones/shots. The estimate is unclipped and may fall slightly
    outside [0, 1] at finite shots.
    """

    shots: int
    ones: int
    p_swap_exact: float
    overlap_sq_exact: float
    overlap_sq_estimate: float
    stderr: float


def swap_test(a: QuantumRegister, b: QuantumRegister, shots: int,
              rng_seed=None) -> SwapTestReport:
    """Hadamard, register-controlled swap, Hadamard, measure the ancilla."""
    if a.total_qubits != b.total_qubits:
        raise ValueError("swap test requires registers of equal qubit count")
    shots = _count(shots, "shots")
    n = a.total_qubits
    dim = 2 ** n
    joint = np.kron(a.amplitudes, b.amplitudes)  # register order (a, b)
    # ancilla |0>, then H: (|0> + |1>)/sqrt(2) tensor joint
    branch0 = joint / np.sqrt(2.0)
    branch1 = joint / np.sqrt(2.0)
    # controlled swap of the two registers on the ancilla-1 branch
    branch1 = branch1.reshape(dim, dim).T.reshape(-1)
    # final H on the ancilla
    out1 = (branch0 - branch1) / np.sqrt(2.0)
    p1 = float(np.linalg.norm(out1) ** 2)
    p1 = min(max(p1, 0.0), 1.0)

    rng = np.random.default_rng(rng_seed)
    ones = int(rng.binomial(shots, p1))
    p_hat = ones / shots
    overlap_exact = 1.0 - 2.0 * p1
    return SwapTestReport(
        shots=shots,
        ones=ones,
        p_swap_exact=p1,
        overlap_sq_exact=overlap_exact,
        overlap_sq_estimate=1.0 - 2.0 * p_hat,
        stderr=2.0 * float(np.sqrt(p_hat * (1.0 - p_hat) / shots)),
    )
