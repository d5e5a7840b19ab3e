"""End-to-end simulated quantum recall: embed, estimate, rotate, uncompute.

The linear solve acts on the eigencomponents of the saddle-point matrix A:
phase estimation tags each eigencomponent of |w> = (theta; x_inc) with an
eigenvalue estimate mu~, a rotation writes amplitude C/mu~ (C = mu) onto a
flag ancilla for every bin with |mu~| >= mu, the phase register is
uncomputed, and post-selecting the flag leaves a state proportional to
the truncated-pseudoinverse solution (x; lambda). A second post-selection
on the leading system qubit isolates |x>.

Both modes build the instance with assemble_quantum_a. Trotter mode
simulates that circuit with dense powers of U(t0), the evolution's
B + C + D product formula. Reference mode evaluates it in closed form, as
a spectral filter on the eigenpairs (lambda_k, v_k) of A's unpadded
(d + l)-square active block, written from the store's patterns by
inversion._ridge_block, the builder of the classical truncated solve
(Harrow, Hassidim and Lloyd, PRL 103, 150502, 2009): with w_k = v_k^T |w>
and F[c, k] the Fejer-kernel weight of eigenphase lambda_k t0 in bin c,
bin c holds sum_k F[c, k] w_k^2, and the phase-zero branch is
sum_k f_k w_k v_k with f_k = sum_c r_c F[c, k]. The register's padding
rows are decoupled -gamma' rows on which |w> is zero, so the filter gives
them no weight and the unpadded block is the same computation.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from ..inversion import _ridge_block, discretize
from ..patterns import ClampSet, HopfieldWarning, _count, _real
from .evolution import assemble_quantum_a
from .phase import _bin_weights, bin_eigenvalues, controlled_powers, qpe_backward, qpe_forward
from .register import QuantumRegister, embed_w, qubits_for

# Qubits of the paper's circuit; in reference mode its size, not the simulator's memory.
QUBIT_BUDGET = 16
ANCILLA_QUBITS = 2  # rotation flag plus the conditioning ancilla of the D block
MODES = ("reference", "trotter")
CUTOFF = 0.05  # default eigenvalue cutoff mu, and the one a mu = 0 recall runs at
PHASE_QUBITS = 9  # default phase-register size T


@dataclass(frozen=True)
class QhopReport:
    """Diagnostics and the final x register of one pipeline run.

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
    x_register: QuantumRegister | None = None


def _top_amplitudes(vec: np.ndarray, count: int = 8) -> str:
    """The count largest entries by modulus, printed by their real parts.

    The real part is what qhop_recall reads. Moduli are compared in steps
    of 1e-12 times the largest, equal steps list by index, and an entry
    below one step prints as 0, so reordered arithmetic keeps the bytes.
    """
    mod = np.abs(vec)
    step = 1e-12 * (mod.max(initial=0.0) or 1.0)
    order = np.argsort(-np.rint(mod / step), kind="stable")[:count]
    return " ".join(f"{int(i)}:{vec[i].real:.4g}" if mod[i] >= step else f"{int(i)}:0"
                    for i in order)


class _Trace:
    """CSV trace of the pipeline's intermediate states; rows are formatted only with a path.

    A state with a phase register is given by its per-bin probabilities.
    """

    def __init__(self, path):
        self.path = path
        self.rows = []

    def add(self, step: str, subregister: str, state: np.ndarray, norm: float | None = None):
        if self.path is not None:
            norm = float(np.linalg.norm(state)) if norm is None else norm
            self.rows.append((step, subregister, norm, _top_amplitudes(state)))

    def write(self) -> None:
        if self.path is None:
            return
        with open(self.path, "w") as fh:
            fh.write("step,subregister,norm,top_amplitudes\n")
            for step, reg, norm, amps in self.rows:
                fh.write(f'{step},{reg},{norm:.10g},"{amps}"\n')


@functools.lru_cache(maxsize=64)
def _rotation(t_qubits: int, t0: float, mu: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Read-only kept-bin mask, flag amplitudes C/mu~ (C = mu; 0 off the mask), kept count."""
    mu_tilde = bin_eigenvalues(t_qubits, t0)
    keep = np.abs(mu_tilde) >= mu
    rot = np.divide(mu, mu_tilde, out=np.zeros_like(mu_tilde), where=keep)
    keep.setflags(write=False)
    rot.setflags(write=False)
    return keep, rot, int(keep.sum())


def qhop_solve(source, clamp: ClampSet, theta=None, gamma: float = 1.0, mu: float = CUTOFF,
               t_qubits: int = PHASE_QUBITS, mode: str = "reference",
               trace_path=None) -> QhopReport:
    """Simulate the full recall pipeline on the saddle-point system.

    mu is both the eigenvalue cutoff and the rotation constant C. The
    phase grid must resolve mu (bin width <= mu) or the run is marked
    not resolution_ok. Total qubits (system + phase + 2 ancillas) must
    fit the 16-qubit desk-scale budget. mode is one of MODES: "reference"
    evaluates the circuit in closed form, "trotter" simulates it.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    mu = _real(mu, "mu")
    t_qubits = _count(t_qubits, "t_qubits")
    n_sys = qubits_for(clamp.d) + 1
    total = n_sys + t_qubits + ANCILLA_QUBITS
    if total > QUBIT_BUDGET:
        raise ValueError(f"needs {total} qubits (system {n_sys}, phase {t_qubits}, "
                         f"ancillas {ANCILLA_QUBITS}), budget is {QUBIT_BUDGET}")
    evolve = assemble_quantum_a(source, clamp, gamma)

    t0 = np.pi / evolve.spectral_bound
    resolution = 2.0 * np.pi / (t0 * 2 ** t_qubits)
    resolution_ok = resolution <= mu
    if not resolution_ok:
        warnings.warn(f"phase resolution {resolution:.3g} is coarser than the cutoff "
                      f"mu={mu:.3g}; filtering is unreliable at T={t_qubits}",
                      HopfieldWarning, stacklevel=2)

    reg_w, w_norm = embed_w(theta, clamp)
    psi = reg_w.amplitudes
    trace = _Trace(trace_path)
    trace.add("embed_w", "system", psi)

    if mode == "trotter":
        powers = controlled_powers(evolve(t0), t_qubits)
        s = qpe_forward(powers, psi)
        bin_probs = np.sum(np.abs(s) ** 2, axis=1)
    else:
        block, active = _ridge_block(source, clamp.mask(), evolve.gamma)
        active[clamp.d:] += evolve.d_pad - clamp.d  # multiplier d + k sits at d_pad + k
        eigs, vecs = np.linalg.eigh(block)
        w = vecs.T @ psi[active].real
        weights = _bin_weights(eigs * t0, t_qubits)
        bin_probs = weights @ w ** 2
    trace.add("phase_estimate", "phase+system", bin_probs, norm=np.sqrt(bin_probs.sum()))

    keep, rot, kept_bins = _rotation(t_qubits, t0, mu)
    flag_probs = rot ** 2 * bin_probs
    success_probability = float(flag_probs.sum())
    trace.add("rotation", "flag=1", flag_probs, norm=np.sqrt(success_probability))

    def _fail(message: str) -> QhopReport:
        trace.write()
        warnings.warn(message, HopfieldWarning, stacklevel=3)
        return QhopReport(ok=False, message=message,
                          success_probability=success_probability,
                          post_selection_probability=0.0, phase_residual=1.0,
                          resolution_ok=resolution_ok, kept_bins=kept_bins, mu=mu,
                          t0=float(t0), t_qubits=t_qubits, mode=mode, w_norm=w_norm)

    if success_probability < 1e-14:
        if bin_probs[keep].sum() < 1e-14:
            return _fail("every eigencomponent fell below the cutoff; nothing to invert")
        return _fail(f"flag probability {success_probability:.3g} is too small to "
                     f"post-select; the rotation constant C = mu = {mu:.3g}")

    if mode == "trotter":
        back0 = qpe_backward(s * rot[:, None], powers)
    else:
        back0 = np.zeros(psi.size)
        back0[active] = vecs @ ((rot @ weights) * w)
    trace.add("uncompute", "phase=0", back0)

    back_norm = np.linalg.norm(back0)
    phase_zero = float(back_norm ** 2) / success_probability
    phase_residual = 1.0 - phase_zero
    if phase_zero < 1e-14:
        return _fail("phase register failed to uncompute; no usable solution branch")

    v_sys = back0 / back_norm
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
                      x_register=QuantumRegister(x_amps))


def qhop_recall(source, clamp: ClampSet, gamma: float = 1.0, mu: float = 0.0,
                t_qubits: int = PHASE_QUBITS, trace_path=None) -> tuple[np.ndarray, QhopReport]:
    """Recall a +/-1 pattern with qhop_solve; returns it with the report.

    mu = 0 runs at the default cutoff CUTOFF, since the filter needs a
    positive one. The amplitudes carry an arbitrary global sign, which is
    fixed against the clamped values before discretizing. A failed run
    raises RuntimeError.
    """
    mu = _real(mu, "mu", zero=True)
    report = qhop_solve(source, clamp, gamma=gamma, mu=mu if mu > 0 else CUTOFF,
                        t_qubits=t_qubits, trace_path=trace_path)
    if not report.ok:
        raise RuntimeError(f"quantum recall failed: {report.message}")
    amps = report.x_register.amplitudes[: clamp.d].real
    known = clamp.mask()
    sign = np.sign(np.sum(clamp.values[known] * amps[known])) or 1.0
    return discretize(sign * amps), report

