"""Hamiltonian simulation pieces for the recall pipeline.

Pattern projectors are exponentiated exactly, e^{-i P dt} =
I + (e^{-i dt} - 1) P for a rank-1 projector P, so the only approximation
in the product formula is the splitting itself. The saddle-point matrix is
simulated through the split A = B + C + D: B holds the off-diagonal
projector blocks (1-sparse), C = -gamma' I on the top block with
gamma' = gamma + 1/d, and D places the pattern density matrix rho on the
top block, conditioned on the leading qubit. B and C exponentiate in
closed form; D uses either the exact rho exponential (reference mode) or
the conditional pattern-product formula (trotter mode).
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..hebbian import DensityMatrix, density, train
from ..inversion import _saddle
from ..patterns import ClampSet, TrainingSet
from .register import QuantumRegister, qubits_for

DELTA_T_WARN = 0.1
# Split error each mode's default step count aims for.
REFERENCE_EPS = 1e-8
TROTTER_EPS = 1e-6


@dataclass(frozen=True)
class TrotterPlan:
    """Product-formula schedule: n repetitions of M pattern factors.

    Per-factor step is delta_t = t / (n * m). The first-order error is
    O(t^2 / n); for_error picks n accordingly.
    """

    t: float
    n: int
    m: int
    target_eps: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("step count n must be >= 1")
        if self.m < 1:
            raise ValueError("pattern count m must be >= 1")
        if abs(self.delta_t) > DELTA_T_WARN:
            warnings.warn(f"per-factor step {self.delta_t:.3g} exceeds {DELTA_T_WARN}; "
                          "product-formula accuracy degrades", RuntimeWarning, stacklevel=2)

    @property
    def delta_t(self) -> float:
        return self.t / (self.n * self.m)

    @classmethod
    def for_error(cls, t: float, m: int, target_eps: float) -> "TrotterPlan":
        if target_eps <= 0:
            raise ValueError("target_eps must be positive")
        n = max(1, math.ceil(t * t / target_eps))
        return cls(t=t, n=n, m=m, target_eps=target_eps)


def _normalized_padded(pattern) -> np.ndarray:
    x = np.asarray(pattern, dtype=float)
    norm = np.linalg.norm(x)
    if norm == 0.0:
        raise ValueError("cannot project onto a zero pattern")
    d_pad = 2 ** qubits_for(x.size)
    out = np.zeros(d_pad, dtype=complex)
    out[: x.size] = x / norm
    return out


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


def qheb_step(register: QuantumRegister, ts: TrainingSet, k: int, delta_t: float,
              method: str = "exact"):
    """One conditional pattern unitary U_k on a (control, system) register.

    method="exact" returns the new register; method="swap" routes through
    the swap-trick and returns a density matrix over (control, system).
    """
    if not 1 <= k <= ts.m:
        raise ValueError(f"pattern index {k} outside 1..{ts.m}")
    if abs(delta_t) > DELTA_T_WARN:
        warnings.warn(f"delta_t {delta_t:.3g} exceeds {DELTA_T_WARN}; swap-trick and "
                      "product-formula errors grow quadratically", RuntimeWarning, stacklevel=2)
    n_sys = qubits_for(ts.d)
    if register.total_qubits != 1 + n_sys:
        raise ValueError(f"register must hold 1 control + {n_sys} system qubits")
    pattern = ts.patterns[k - 1]
    if method == "exact":
        amps = conditional_pattern_step(register.amplitudes, pattern, delta_t)
        return QuantumRegister(amps, register.layout)
    if method == "swap":
        return conditional_pattern_step_swap(register.amplitudes, pattern, delta_t)
    raise ValueError(f"unknown method {method!r}")


def qheb_evolve(register: QuantumRegister, ts: TrainingSet, plan: TrotterPlan) -> QuantumRegister:
    """Apply the full conditional product (U_1 ... U_M)^n for time plan.t."""
    if plan.m != ts.m:
        raise ValueError(f"plan was sized for m={plan.m}, training set has m={ts.m}")
    n_sys = qubits_for(ts.d)
    if register.total_qubits != 1 + n_sys:
        raise ValueError(f"register must hold 1 control + {n_sys} system qubits")
    d_pad = 2 ** n_sys
    g = pattern_product_unitary(ts, plan.t, plan.n)
    amps = register.amplitudes.copy()
    amps[d_pad:] = g @ amps[d_pad:]
    return QuantumRegister(amps, register.layout)


class _ExactEvolution:
    """e^{i H t} for a fixed symmetric H, via one eigendecomposition."""

    def __init__(self, h: np.ndarray):
        self._eigs, self._vecs = np.linalg.eigh(h)

    def __call__(self, t: float) -> np.ndarray:
        phase = np.exp(1j * self._eigs * t)
        return (self._vecs * phase) @ self._vecs.conj().T


class BlockSplitEvolution:
    """Evolution callback e^{i A t} for the padded saddle-point matrix.

    mode="reference" composes exact factors with the symmetric
    (Strang) arrangement U_B(h/2) U_C(h/2) U_D(h) U_C(h/2) U_B(h/2),
    per-step error O(h^3). mode="trotter" uses the plain first-order
    product U_B(h) U_C(h) U_D(h) with U_D realized by one pass of the
    conditional pattern-product formula, per-step error O(h^2), matching
    the hardware-oriented pipeline. Classical simulation cost is
    O(n (2 d_pad)^2) amortized by binary powering; the hardware-oriented
    construction this models is polylogarithmic in d.
    """

    def __init__(self, source, clamp: ClampSet, gamma: float, mode: str = "reference",
                 steps: int | None = None):
        if mode not in ("reference", "trotter"):
            raise ValueError(f"unknown mode {mode!r}")
        if not 0 < gamma < np.inf:
            raise ValueError("gamma must be positive and finite")
        if isinstance(source, TrainingSet):
            self._ts = source
            rho = density(train(source)).rho
        elif isinstance(source, DensityMatrix):
            if mode == "trotter":
                raise ValueError("trotter mode needs the training patterns, not just rho")
            self._ts = None
            rho = source.rho
        else:
            raise TypeError("source must be a TrainingSet or DensityMatrix")
        d = rho.shape[0]
        if clamp.d != d:
            raise ValueError(f"clamp dimension {clamp.d} does not match patterns {d}")
        self.mode = mode
        self.gamma = float(gamma)
        self.d = d
        self.gamma_prime = float(gamma) + 1.0 / d
        self.d_pad = 2 ** qubits_for(d)
        self.dim = 2 * self.d_pad
        self.spectral_bound = float(gamma) + 2.0
        self.steps = steps
        self.clamp = clamp

        dp = self.d_pad
        self._rho_pad = np.zeros((dp, dp))
        self._rho_pad[:d, :d] = rho
        self._clamped0 = np.array([i - 1 for i in clamp.indices], dtype=int)
        if mode == "reference":
            self._rho_evolution = _ExactEvolution(self._rho_pad)

    @functools.cached_property
    def a(self) -> np.ndarray:
        """Dense padded A, for diagnostics, built on first read.

        On the first d coordinates of each block it equals the A of
        inversion.assemble up to rounding.
        """
        dp = self.d_pad
        return _saddle(self._rho_pad - self.gamma_prime * np.eye(dp),
                       np.pad(self.clamp.mask(), (0, dp - self.d)))

    def _u_b(self, t: float) -> np.ndarray:
        u = np.eye(self.dim, dtype=complex)
        c, s = np.cos(t), 1j * np.sin(t)
        for i in self._clamped0:
            j = self.d_pad + i
            u[i, i] = u[j, j] = c
            u[i, j] = u[j, i] = s
        return u

    def _u_c_diag(self, t: float) -> np.ndarray:
        diag = np.ones(self.dim, dtype=complex)
        diag[: self.d_pad] = np.exp(-1j * self.gamma_prime * t)
        return diag

    def _u_d(self, t: float) -> np.ndarray:
        u = np.eye(self.dim, dtype=complex)
        if self.mode == "reference":
            u[: self.d_pad, : self.d_pad] = self._rho_evolution(t)
        else:
            # conditional on the leading qubit reading 0: top block only
            u[: self.d_pad, : self.d_pad] = pattern_product_unitary(self._ts, -t, 1)
        return u

    def _step_count(self, t: float) -> int:
        if self.steps is not None:
            return self.steps
        at = abs(t)
        if self.mode == "reference":
            # second-order split: total error ~ t^3 / n^2
            return max(1, math.ceil(math.sqrt(at ** 3 / REFERENCE_EPS)))
        return max(1, math.ceil(at * at / TROTTER_EPS))

    def __call__(self, t: float) -> np.ndarray:
        if t == 0.0:
            return np.eye(self.dim, dtype=complex)
        n = self._step_count(t)
        h = t / n
        if self.mode == "reference":
            ub = self._u_b(h / 2.0)
            uc = self._u_c_diag(h / 2.0)
            step = ub @ (uc[:, None] * self._u_d(h) * uc[None, :]) @ ub
        else:
            step = self._u_b(h) @ (self._u_c_diag(h)[:, None] * self._u_d(h))
        return np.linalg.matrix_power(step, n)


def assemble_quantum_a(source, clamp: ClampSet, gamma: float, mode: str = "reference",
                       steps: int | None = None) -> BlockSplitEvolution:
    """Build the B + C + D evolution callback for the saddle-point matrix."""
    return BlockSplitEvolution(source, clamp, gamma, mode=mode, steps=steps)
