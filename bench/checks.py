"""Correctness checks computed apart from the library.

Every oracle here rebuilds what it needs from the stored patterns with
plain numpy: the Hebbian couplings, the harness's documented
(seed, repetition) clamp streams, the saddle system and its solutions.
Each check returns True when the library's output passes.
"""
from __future__ import annotations

import math

import numpy as np

KKT_TOL = 1e-8
AGREE_TOL = 1e-8
FIDELITY_MIN = 0.98
POST_SELECTION_TOL = 0.02
# Solution components this close to zero are exact zeros in exact
# arithmetic; their sign, and so the discretized neuron, is decided by
# rounding and may differ between two correct solvers.
TIE_TOL = 1e-10


def hebbian_weights(patterns) -> np.ndarray:
    """W = X^T X / (M d) with a zero diagonal."""
    x = np.asarray(patterns, dtype=float)
    m, d = x.shape
    w = x.T @ x / (m * d)
    np.fill_diagonal(w, 0.0)
    return w


def harness_base_mask(d: int, l: int, rng: np.random.Generator) -> np.ndarray:
    """The recovery-curve harness's clamp draw in base units: l bases, two neurons each."""
    bases = rng.choice(d // 2, size=l, replace=False)
    mask = np.zeros(d, dtype=bool)
    mask[2 * bases] = True
    mask[2 * bases + 1] = True
    return mask


def saddle_solve(w, gamma: float, known: np.ndarray, values) -> np.ndarray:
    """x from one dense solve of [[W - gamma I, E], [E^T, 0]] (x; lam) = (0; values_K).

    E holds the unit columns of the clamped neurons, so the system is square
    and nonsingular whenever (gamma I - W) restricted to the free neurons is.
    """
    d = w.shape[0]
    k = np.flatnonzero(known)
    n = d + k.size
    kkt = np.zeros((n, n))
    kkt[:d, :d] = w - gamma * np.eye(d)
    kkt[k, d + np.arange(k.size)] = 1.0
    kkt[d + np.arange(k.size), k] = 1.0
    rhs = np.zeros(n)
    rhs[d:] = np.asarray(values, dtype=float)[k]
    return np.linalg.solve(kkt, rhs)[:d]


def hamming_bounds(x, target, tie_tol: float = TIE_TOL) -> tuple[int, int]:
    """(errors counting ties as right, errors counting ties as wrong) of sign(x) vs target."""
    x = np.asarray(x, dtype=float)
    tie = np.abs(x) <= tie_tol
    wrong = (np.where(x >= 0.0, 1.0, -1.0) != target) & ~tie
    n_wrong = int(wrong.sum())
    return n_wrong, n_wrong + int(tie.sum())


def inversion_cell_ok(mean_hamming: float, w, target, l: int, seed: int, reps: int,
                      gamma: float = 1.0) -> bool:
    """A recovery-curve cell's mean equals a dense saddle solve on the same streams.

    Components that are exact zeros may go either way, so the mean must lie
    between the tie-free count and the count with every tie wrong; with no
    ties the two bounds coincide and the match is exact.
    """
    d = w.shape[0]
    lo = hi = 0
    for rep in range(reps):
        mask = harness_base_mask(d, l, np.random.default_rng([seed, rep]))
        a, b = hamming_bounds(saddle_solve(w, gamma, mask, target), target)
        lo += a
        hi += b
    return lo / reps - 1e-12 <= mean_hamming <= hi / reps + 1e-12


def curve_closes(points) -> bool:
    """Everything clamped: the last cell recovers the target exactly."""
    return points[-1].mean_hamming == 0.0


def curve_monotone_violations(points, sigmas: float = 3.0) -> list[int]:
    """Indices of cells that rise above their predecessor by more than sigmas pooled errors."""
    bad = []
    for i in range(1, len(points)):
        a, b = points[i - 1], points[i]
        pooled = math.sqrt(a.stderr ** 2 + b.stderr ** 2)
        if b.mean_hamming > a.mean_hamming + sigmas * pooled:
            bad.append(i)
    return bad


def hebbian_counts(patterns) -> np.ndarray:
    """M d W as exact integers: X^T X with a zero diagonal, for +/-1 patterns."""
    x = np.asarray(patterns).astype(np.int64)
    c = x.T @ x
    np.fill_diagonal(c, 0)
    return c


def iterative_state_ok(counts, m_d: int, start, final, energies) -> bool:
    """final is a fixed point of the threshold rule and the energy never rose.

    counts is M d W in integers (hebbian_counts), so local fields, their
    ties (which resolve to +1) and the energies at both ends are exact. The
    sampled energy trace must be non-increasing and end at the energy of final.
    """
    final = np.asarray(final, dtype=float).astype(np.int64)
    start = np.where(np.asarray(start, dtype=float) == 0.0, 1.0, start).astype(np.int64)
    if not np.array_equal(np.where(counts @ final >= 0, 1, -1), final):
        return False
    # -x^T C x is 2 M d times the energy -1/2 x^T W x
    e_start = -int(start @ counts @ start)
    e_final = -int(final @ counts @ final)
    e = np.asarray(energies, dtype=float) * (2 * m_d)
    return bool(e_final <= e_start and np.all(np.diff(e) <= 1e-9)
                and abs(e[-1] - e_final) <= 1e-9 * max(1, abs(e_final)))


def inversion_report_ok(w, gamma: float, known: np.ndarray, values, x, lam,
                        certified: bool) -> bool:
    """KKT residuals, agreement with a reduced solve, and the certificate flag.

    The flag must equal whether (gamma I - W) on the free neurons admits a
    Cholesky factorization, i.e. whether the clamped problem is strictly convex.
    """
    d = w.shape[0]
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    values = np.asarray(values, dtype=float)
    constraint = np.max(np.abs(x[known] - values[known]))
    stationarity = np.max(np.abs((w - gamma * np.eye(d)) @ x + np.where(known, lam, 0.0)))
    if constraint > KKT_TOL or stationarity > KKT_TOL:
        return False
    free = ~known
    q = gamma * np.eye(d) - w
    q_ff = q[np.ix_(free, free)]
    x_ref = values.copy()
    x_ref[free] = np.linalg.solve(q_ff, -(q[np.ix_(free, known)] @ values[known]))
    if np.max(np.abs(x - x_ref)) > AGREE_TOL:
        return False
    try:
        np.linalg.cholesky(q_ff)
        convex = True
    except np.linalg.LinAlgError:
        convex = False
    return bool(certified) == convex


def truncated_saddle_solution(w, gamma: float, known: np.ndarray, values,
                              mu: float) -> tuple[np.ndarray, np.ndarray]:
    """(x, lam) from the mu-truncated pseudoinverse of [[W - gamma I, P], [P, 0]]."""
    d = w.shape[0]
    k = np.flatnonzero(known)
    a = np.zeros((2 * d, 2 * d))
    a[:d, :d] = w - gamma * np.eye(d)
    a[k, d + k] = 1.0
    a[d + k, k] = 1.0
    rhs = np.zeros(2 * d)
    rhs[d + k] = np.asarray(values, dtype=float)[k]
    eigs, vecs = np.linalg.eigh(a)
    keep = np.abs(eigs) >= mu
    inv = np.zeros_like(eigs)
    inv[keep] = 1.0 / eigs[keep]
    v = vecs @ (inv * (vecs.T @ rhs))
    return v[:d], v[d:]


def quantum_report_ok(w, gamma: float, known: np.ndarray, values, mu: float,
                      ok: bool, resolution_ok: bool, x_amplitudes,
                      post_selection_probability: float) -> bool:
    """Fidelity >= 0.98 with the truncated classical solution, post-selection within 0.02."""
    if not (ok and resolution_ok):
        return False
    x, lam = truncated_saddle_solution(w, gamma, known, values, mu)
    amps = np.asarray(x_amplitudes)
    x_pad = np.zeros(amps.size)
    x_pad[: x.size] = x
    norm = np.linalg.norm(x_pad)
    if norm == 0.0:
        return False
    fidelity = float(abs(np.vdot(x_pad / norm, amps)) ** 2)
    expected_post = float(x @ x / (x @ x + lam @ lam))
    return (fidelity >= FIDELITY_MIN
            and abs(post_selection_probability - expected_post) <= POST_SELECTION_TOL)
