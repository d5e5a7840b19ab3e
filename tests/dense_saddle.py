"""Dense oracles of the saddle-point matrix, written from its definition.

The library never lays out the whole A = [[W - gamma I, P], [P, 0]]; it
writes A's active block with inversion._ridge_block. These helpers build
the dense A with np.block, straight from the definition, so the tests
check that block against it instead of repeating it.
"""
import numpy as np

from hopfieldkit.hebbian import density
from hopfieldkit.quantum.register import qubits_for


def _saddle(top, known):
    """[[top, P], [P, 0]] with P the diagonal projector onto the boolean mask known."""
    p = np.diag(known.astype(float))
    return np.block([[top, p], [p, np.zeros_like(top)]])


def dense_a(sys):
    """The 2d-square A = [[W - gamma I, P], [P, 0]] of a LinearSystem."""
    return _saddle(sys.wm.w - sys.gamma * np.eye(sys.d), sys.clamp.mask())


def padded_a(ts, clamp, gamma):
    """The 2 d_pad-square A that the circuit evolves under: [[rho - gamma' I, P], [P, 0]].

    rho is the patterns' density matrix and gamma' = gamma + 1/d. On the
    d_pad - d padding rows the top block is -gamma' and P is zero: they
    are never clamped.
    """
    d = ts.d
    d_pad = 2 ** qubits_for(d)
    top = -(gamma + 1.0 / d) * np.eye(d_pad)
    top[:d, :d] += density(ts)
    known = np.zeros(d_pad, dtype=bool)
    known[:d] = clamp.mask()
    return _saddle(top, known)


def exact_evolution(h, t):
    """e^{iHt} for a real symmetric H, as V e^{i lam t} V^T from H = V diag(lam) V^T."""
    eigs, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * eigs * t)) @ vecs.T
