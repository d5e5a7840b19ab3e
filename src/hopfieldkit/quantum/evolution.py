"""Hamiltonian simulation pieces for the recall pipeline.

The Hebbian steps are the conditional pattern step, its swap-trick
realization and the pattern product formula. Pattern projectors are
exponentiated exactly, e^{-i P dt} = I + (e^{-i dt} - 1) P for a rank-1
projector P, so the only approximation in the product formula is the
splitting itself.

BlockSplitEvolution evolves one recall's padded saddle-point matrix A as
the circuit does, through the hardware-oriented split A = B + C + D: B
holds the off-diagonal projector blocks (1-sparse), C = -gamma' I on the
top block with gamma' = gamma + 1/d, and D places the pattern density
matrix rho on the top block, conditioned on the leading qubit. B and C
exponentiate in closed form; D uses the conditional pattern-product
formula. No dense A is built: rho - gamma' I is W - gamma I, so the
solver's closed form reads the eigenpairs of inversion._ridge_block's
unpadded (d + l)-square block, and the padding rows, decoupled -gamma'
rows that |w> leaves empty, drop out of it.
"""
from __future__ import annotations

import math

import numpy as np

from ..patterns import ClampSet, TrainingSet
from .register import _pad, qubits_for

# Split error the product formula's step count aims for.
TROTTER_EPS = 1e-6


def _normalized_padded(pattern) -> np.ndarray:
    x = np.asarray(pattern, dtype=float)
    norm = np.linalg.norm(x)
    if norm == 0.0:
        raise ValueError("cannot project onto a zero pattern")
    return _pad(x / norm)


def conditional_pattern_step(state, pattern, delta_t: float) -> np.ndarray:
    """Apply |0><0| x I + |1><1| x e^{-i |x><x| dt} to a (control, system) state."""
    amps = np.asarray(state, dtype=complex)
    xhat = _normalized_padded(pattern)
    d_pad = xhat.size
    if amps.shape != (2 * d_pad,):
        raise ValueError(f"state must have length {2 * d_pad} (control qubit + system)")
    out = amps.copy()
    overlap = np.vdot(xhat, amps[d_pad:])
    out[d_pad:] += (np.exp(-1j * delta_t) - 1.0) * overlap * xhat
    return out


def conditional_pattern_step_swap(state, pattern, delta_t: float) -> np.ndarray:
    """Swap-trick realization of conditional_pattern_step, exact in the swap.

    Adjoins an ancilla register prepared in the pattern state, applies
    e^{-i |1><1| x S dt} with S the register swap (closed form
    cos(dt) I - i sin(dt) S), and traces the ancilla out again. The input
    may be a pure (control, system) state or a density matrix; the output
    is a density matrix, since tracing generally leaves a mixed state.
    It matches the direct conditional step to O(dt^2).
    """
    xhat = _normalized_padded(pattern)
    d_pad = xhat.size
    st = np.asarray(state, dtype=complex)
    if st.ndim == 1:
        if st.shape != (2 * d_pad,):
            raise ValueError(f"state must have length {2 * d_pad}")
        rho = np.outer(st, st.conj())
    elif st.shape == (2 * d_pad, 2 * d_pad):
        rho = st
    else:
        raise ValueError("state must be a vector or square density matrix over (control, system)")

    # index order (control, pattern, system); the pattern register sits in the middle
    r4 = rho.reshape(2, d_pad, 2, d_pad)
    full = np.einsum("qsrt,p,o->qpsrot", r4, xhat, xhat.conj())
    dd = d_pad * d_pad
    blocks = full.reshape(2, dd, 2, dd)

    cos_t, sin_t = np.cos(delta_t), np.sin(delta_t)

    def swap_rows(m):
        return m.reshape(d_pad, d_pad, dd).transpose(1, 0, 2).reshape(dd, dd)

    def swap_cols(m):
        return m.reshape(dd, d_pad, d_pad).transpose(0, 2, 1).reshape(dd, dd)

    def e_left(m):  # E m with E = cos I - i sin S
        return cos_t * m - 1j * sin_t * swap_rows(m)

    def e_right(m):  # m E^dag
        return cos_t * m + 1j * sin_t * swap_cols(m)

    out = np.empty_like(blocks)
    out[0, :, 0, :] = blocks[0, :, 0, :]
    out[0, :, 1, :] = e_right(blocks[0, :, 1, :])
    out[1, :, 0, :] = e_left(blocks[1, :, 0, :])
    out[1, :, 1, :] = e_left(e_right(blocks[1, :, 1, :]))

    # trace out the pattern register
    out6 = out.reshape(2, d_pad, d_pad, 2, d_pad, d_pad)
    reduced = np.einsum("qpsrpt->qsrt", out6)
    return reduced.reshape(2 * d_pad, 2 * d_pad)


def pattern_product_unitary(ts: TrainingSet, t: float, n: int) -> np.ndarray:
    """(U_1 ... U_M)^n with U_k = e^{-i |x_k><x_k| t/(nM)}, on the padded space.

    Converges to e^{-i rho t} as n grows, with first-order error O(t^2/n).
    Exact for M = 1 at any n.
    """
    if n < 1:
        raise ValueError("step count n must be >= 1")
    d_pad = 2 ** qubits_for(ts.d)
    delta = t / (n * ts.m)
    coeff = np.exp(-1j * delta) - 1.0
    step = np.eye(d_pad, dtype=complex)
    for k in range(ts.m):
        xhat = _normalized_padded(ts.patterns[k])
        factor = np.eye(d_pad, dtype=complex) + coeff * np.outer(xhat, xhat.conj())
        step = step @ factor
    return np.linalg.matrix_power(step, n)


class BlockSplitEvolution:
    """e^{i A t} by the B + C + D split, for the padded saddle-point matrix A of one recall.

    A = [[rho - gamma' I, P], [P, 0]] on 2 d_pad amplitudes; its padding
    rows are never clamped. The split is its only representation.

    Calling it with t gives the plain first-order product U_B(h) U_C(h)
    U_D(h), h = t / n, with U_D realized by one pass of the conditional
    pattern-product formula, per-step error O(h^2), matching the
    hardware-oriented pipeline. It takes n = max(1, ceil(t^2 / TROTTER_EPS))
    steps for the O(t^2 / n) split error. Classical simulation cost is
    O(n (2 d_pad)^2) amortized by binary powering; the hardware-oriented
    construction it models is polylogarithmic in d.
    """

    def __init__(self, source, clamp: ClampSet, gamma: float):
        if not 0 < gamma < np.inf:
            raise ValueError("gamma must be positive and finite")
        if not isinstance(source, TrainingSet):
            raise TypeError("source must be a TrainingSet")
        d = source.d
        if clamp.d != d:
            raise ValueError(f"clamp dimension {clamp.d} does not match patterns {d}")
        self._ts = source
        self.gamma = float(gamma)
        self.d = d
        self.gamma_prime = float(gamma) + 1.0 / d
        self.d_pad = 2 ** qubits_for(d)
        self.dim = 2 * self.d_pad
        self.spectral_bound = float(gamma) + 2.0
        self._known = clamp.mask()  # over the first d rows; the padding is never clamped

    def _u_b(self, t: float) -> np.ndarray:
        u = np.eye(self.dim, dtype=complex)
        c, s = np.cos(t), 1j * np.sin(t)
        for i in np.flatnonzero(self._known):
            j = self.d_pad + i
            u[i, i] = u[j, j] = c
            u[i, j] = u[j, i] = s
        return u

    def _u_c_diag(self, t: float) -> np.ndarray:
        diag = np.ones(self.dim, dtype=complex)
        diag[: self.d_pad] = np.exp(-1j * self.gamma_prime * t)
        return diag

    def __call__(self, t: float) -> np.ndarray:
        n = max(1, math.ceil(t * t / TROTTER_EPS))
        h = t / n
        # U_D: conditional on the leading qubit reading 0, top block only
        u_d = np.eye(self.dim, dtype=complex)
        u_d[: self.d_pad, : self.d_pad] = pattern_product_unitary(self._ts, -h, 1)
        step = self._u_b(h) @ (self._u_c_diag(h)[:, None] * u_d)
        return np.linalg.matrix_power(step, n)


def assemble_quantum_a(source, clamp: ClampSet, gamma: float) -> BlockSplitEvolution:
    """Build the padded saddle-point matrix of one recall and its evolution e^{i A t}."""
    return BlockSplitEvolution(source, clamp, gamma)
