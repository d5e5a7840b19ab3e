"""End-to-end simulated quantum recall: embed, estimate, rotate, uncompute.

The linear solve happens in the eigenbasis of the saddle-point matrix A:
phase estimation tags each eigencomponent of |w> = (theta; x_inc) with an
eigenvalue estimate mu~, a rotation writes amplitude C/mu~ (C = mu) onto a
flag ancilla for every bin with |mu~| >= mu, the phase register is
uncomputed, and post-selecting the flag leaves a state proportional to
the truncated-pseudoinverse solution (x; lambda). A second post-selection
on the leading system qubit isolates |x>.

In reference mode the same circuit is simulated with the system register
written in the eigenbasis of A's active block (the evolution's
eigenbasis): A and |w> vanish off that block, so those coordinates stay
exactly zero, and every controlled power is a diagonal. |w> is rotated
into the eigenbasis once before phase estimation and the phase-zero
branch rotated back once after it. Trotter mode runs the dense powers of
U(t0) on the full register.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..inversion import discretize
from ..patterns import ClampSet
from .evolution import assemble_quantum_a
from .phase import bin_eigenvalues, controlled_powers, qpe_backward, qpe_forward
from .register import QuantumRegister, embed_w, qubits_for

QUBIT_BUDGET = 16
ANCILLA_QUBITS = 2  # rotation flag plus the conditioning ancilla of the D block


@dataclass(frozen=True)
class QhopReport:
    """Diagnostics and final registers of one pipeline run.

    success_probability is the flag post-selection weight,
    post_selection_probability the |0>-branch weight |x|^2/(|x|^2+|lambda|^2)
    of the leading system qubit, and phase_residual the amplitude weight
    that failed to return to the all-zeros phase register.
    """

    ok: bool
    message: str
    success_probability: float
    post_selection_probability: float
    phase_residual: float
    resolution_ok: bool
    kept_bins: int
    mu: float
    t0: float
    t_qubits: int
    mode: str
    w_norm: float
    x_register: QuantumRegister | None
    v_register: QuantumRegister | None


def _top_amplitudes(vec: np.ndarray, count: int = 8) -> str:
    """The count largest entries by modulus, printed by their real parts.

    The real part is what qhop_recall reads. In reference mode the
    imaginary parts are rounding noise, whose digits would tie the trace
    bytes to the order of the arithmetic. So would the order of moduli
    that agree to rounding, and the digits of rounding-level entries:
    moduli are compared in steps of 1e-12 times the largest, equal steps
    list by index, and an entry below one step prints as 0.
    """
    mod = np.abs(vec)
    step = 1e-12 * (mod.max(initial=0.0) or 1.0)
    order = np.argsort(-np.rint(mod / step), kind="stable")[:count]
    return " ".join(f"{int(i)}:{vec[i].real:.4g}" if mod[i] >= step else f"{int(i)}:0"
                    for i in order)


class _Trace:
    """CSV trace of the pipeline's intermediate states; inert without a path.

    A (bins, dim) state is summarized by its per-bin probabilities. Rows
    are formatted only when a path was given.
    """

    def __init__(self, path):
        self.path = path
        self.rows = []

    def add(self, step: str, subregister: str, state: np.ndarray, norm: float | None = None):
        if self.path is None:
            return
        if norm is None:
            norm = float(np.linalg.norm(state))
        amps = np.sum(np.abs(state) ** 2, axis=1) if state.ndim == 2 else state
        self.rows.append((step, subregister, norm, _top_amplitudes(amps)))

    def write(self) -> None:
        if self.path is None:
            return
        with open(self.path, "w") as fh:
            fh.write("step,subregister,norm,top_amplitudes\n")
            for step, reg, norm, amps in self.rows:
                fh.write(f'{step},{reg},{norm:.10g},"{amps}"\n')


def qhop_solve(source, clamp: ClampSet, theta=None, gamma: float = 1.0, mu: float = 0.05,
               t_qubits: int = 9, mode: str = "reference", trace_path=None) -> QhopReport:
    """Simulate the full recall pipeline on the saddle-point system.

    mu is both the eigenvalue cutoff and the rotation constant C. The
    phase grid must resolve mu (bin width <= mu) or the run is marked
    not resolution_ok. Total qubits (system + phase + 2 ancillas) must
    fit the 16-qubit desk-scale budget.
    """
    if not 0 < mu < np.inf:
        raise ValueError("mu must be positive and finite; it doubles as the rotation constant")
    if not isinstance(t_qubits, (int, np.integer)) or t_qubits < 1:
        raise ValueError(f"t_qubits must be an integer >= 1, got {t_qubits!r}")
    n_sys = qubits_for(clamp.d) + 1
    total = n_sys + t_qubits + ANCILLA_QUBITS
    if total > QUBIT_BUDGET:
        raise ValueError(f"needs {total} qubits (system {n_sys}, phase {t_qubits}, "
                         f"ancillas {ANCILLA_QUBITS}), budget is {QUBIT_BUDGET}")
    evolve = assemble_quantum_a(source, clamp, gamma, mode=mode)

    t0 = np.pi / evolve.spectral_bound
    resolution = 2.0 * np.pi / (t0 * 2 ** t_qubits)
    resolution_ok = resolution <= mu
    if not resolution_ok:
        warnings.warn(f"phase resolution {resolution:.3g} is coarser than the cutoff "
                      f"mu={mu:.3g}; filtering is unreliable at T={t_qubits}",
                      RuntimeWarning, stacklevel=2)

    reg_w, w_norm = embed_w(theta, clamp)
    psi = reg_w.amplitudes
    trace = _Trace(trace_path)
    trace.add("embed_w", "system", psi)

    basis = evolve.eigenbasis
    if basis is None:
        powers = controlled_powers(evolve(t0), t_qubits)
        s = qpe_forward(powers, psi)
    else:
        powers = controlled_powers(basis.phases(t0), t_qubits)
        s = qpe_forward(powers, basis.vecs.T @ psi[basis.active])
    trace.add("phase_estimate", "phase+system", s)

    mu_tilde = bin_eigenvalues(t_qubits, t0)
    keep = np.abs(mu_tilde) >= mu
    rot = np.zeros_like(mu_tilde)
    rot[keep] = mu / mu_tilde[keep]
    kept_bins = int(keep.sum())

    s_flag = s * rot[:, None]
    trace.add("rotation", "flag=1", s_flag)

    success_probability = float(np.linalg.norm(s_flag) ** 2)

    def _fail(message: str) -> QhopReport:
        trace.write()
        warnings.warn(message, RuntimeWarning, stacklevel=3)
        return QhopReport(ok=False, message=message,
                          success_probability=success_probability,
                          post_selection_probability=0.0, phase_residual=1.0,
                          resolution_ok=resolution_ok, kept_bins=kept_bins, mu=mu,
                          t0=float(t0), t_qubits=t_qubits, mode=mode, w_norm=w_norm,
                          x_register=None, v_register=None)

    if success_probability < 1e-14:
        return _fail("every eigencomponent fell below the cutoff; nothing to invert")

    back = qpe_backward(s_flag, powers)
    if basis is None:
        back0 = back
    else:
        back0 = np.zeros(psi.size, dtype=complex)
        back0[basis.active] = basis.vecs @ back
    trace.add("uncompute", "phase=0", back0)

    phase_zero = float(np.linalg.norm(back0) ** 2) / success_probability
    phase_residual = 1.0 - phase_zero
    if phase_zero < 1e-14:
        return _fail("phase register failed to uncompute; no usable solution branch")

    v_sys = back0 / np.linalg.norm(back0)
    d_pad = evolve.d_pad
    post_selection_probability = float(np.linalg.norm(v_sys[:d_pad]) ** 2)
    trace.add("postselect_flag", "system", v_sys, norm=1.0)

    if post_selection_probability < 1e-14:
        return _fail("solution has no weight on the x block")

    x_amps = v_sys[:d_pad] / np.sqrt(post_selection_probability)
    trace.add("postselect_block", "x", x_amps, norm=1.0)
    trace.write()

    return QhopReport(ok=True, message="",
                      success_probability=success_probability,
                      post_selection_probability=post_selection_probability,
                      phase_residual=phase_residual, resolution_ok=resolution_ok,
                      kept_bins=kept_bins, mu=mu, t0=float(t0),
                      t_qubits=t_qubits, mode=mode, w_norm=w_norm,
                      x_register=QuantumRegister(x_amps), v_register=QuantumRegister(v_sys))


def qhop_recall(source, clamp: ClampSet, gamma: float = 1.0, mu: float = 0.0,
                t_qubits: int = 9, trace_path=None) -> tuple[np.ndarray, QhopReport]:
    """Recall a +/-1 pattern with qhop_solve; returns it with the report.

    mu = 0 runs at the cutoff 0.05, since the filter needs a positive one.
    The amplitudes carry an arbitrary global sign, which is fixed against
    the clamped values before discretizing. A failed run raises
    RuntimeError.
    """
    if not 0 <= mu < np.inf:
        raise ValueError("mu must be >= 0 and finite")
    report = qhop_solve(source, clamp, gamma=gamma, mu=mu if mu > 0 else 0.05,
                        t_qubits=t_qubits, trace_path=trace_path)
    if not report.ok:
        raise RuntimeError(f"quantum recall failed: {report.message}")
    amps = report.x_register.amplitudes[: clamp.d].real
    known = clamp.mask()
    sign = np.sign(np.sum(clamp.values[known] * amps[known])) or 1.0
    return discretize(sign * amps), report

