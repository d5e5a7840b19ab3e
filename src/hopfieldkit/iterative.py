"""Iterative Hopfield recall by asynchronous single-neuron updates.

Energy function: E(x) = -1/2 x^T W x + theta^T x. A neuron update sets
x_i = +1 when its local field (W x)_i meets or exceeds theta_i and -1
otherwise; ties resolve to +1. Each update never increases the energy
because self-couplings are zero.

A trained store's fields are exact and are read from its factor alone.
Its W is C/(M d) with C = X^T X - M I for the (M, d) patterns X, so
M d (W x)_i = (X^T y)_i - M x_i with y = X x, M integers, and the rule
compares that integer with M d theta_i: ties resolve to +1 exactly, and
no d x d array is formed. A hand-built W runs the plain algorithm
(Hopfield, PNAS 79, 2554, 1982): each update is decided by its row
product (W x)_i, whose rounding can put an exact tie on either side.

recall is event-driven for a trained store but reproduces the plain
one-neuron-at-a-time loop exactly. It draws neuron indices in blocks that
end where the loop could first stop, so the caller's Generator ends in the
same state. It keeps y = X x current with one row add per flip, and with
it the exact mask of the neurons that an update would flip, and jumps over
the updates the mask rules out. A hand-built W's mask holds every neuron,
so no update is skipped.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .hebbian import WeightMatrix
from .patterns import as_pattern, as_thresholds

FILLS = ("plus", "random")


def energy(wm: WeightMatrix, x, theta=None) -> float:
    """E = -1/2 x^T W x + theta^T x.

    For a trained store x^T W x is read exactly from the factor, as the
    integer x^T C x = |X x|^2 - M sum x_i^2 over M d, so a recall's last
    sampled energy equals energy(final) bit for bit. Zero (unknown) entries
    are permitted; they simply contribute nothing, so the all-zero state
    has energy 0 regardless of W and theta.
    """
    s = as_pattern(x, d=wm.d)
    t = as_thresholds(theta, wm.d)
    p = wm.factor
    if p is None:
        return _energy(wm.w, t, s)
    return _factor_energy(p.shape[0], wm.d, p @ s, t, s, s @ s)


def _energy(w: np.ndarray, t: np.ndarray, x: np.ndarray) -> float:
    return float(-0.5 * x @ w @ x + t @ x)


def _factor_energy(m: int, d: int, y: np.ndarray, t: np.ndarray, x: np.ndarray, xx) -> float:
    """E from y = X x for the (M, d) patterns X: x^T C x = |y|^2 - M xx, xx = sum x_i^2."""
    return float(-(y @ y - m * xx) / (2 * m * d) + t @ x)


@dataclass(frozen=True)
class RecallTrace:
    """Outcome of an iterative recall run.

    energies holds one sample per sweep (plus the starting energy) and is
    non-increasing. converged means a full window of d consecutive updates
    left the state unchanged before the sweep budget ran out.
    """

    final: np.ndarray
    sweeps: int
    energies: np.ndarray
    converged: bool

    def __post_init__(self):
        f = np.asarray(self.final, dtype=float)
        f.setflags(write=False)
        e = np.asarray(self.energies, dtype=float)
        e.setflags(write=False)
        object.__setattr__(self, "final", f)
        object.__setattr__(self, "energies", e)


def recall(
    wm: WeightMatrix,
    start,
    theta=None,
    rng_seed=None,
    max_sweeps: int = 100,
    fill: str = "plus",
) -> RecallTrace:
    """Run asynchronous updates until stable or the sweep budget is spent.

    Unknown (zero) entries of start are filled with +1, or with random
    +/-1 when fill="random". Neurons are drawn i.i.d. uniform. Convergence
    requires d consecutive updates without a state change. Deterministic
    for a fixed rng_seed.

    The result, including the energy trace and the state a passed-in
    Generator is left in, is that of drawing one index per update and
    deciding it by the threshold rule. Indices are drawn in blocks of
    min(d - quiet run, updates left), since no run stops inside one. For a
    trained store a flip adds one row to the maintained y = X x and
    refreshes the exact mask of neurons an update would flip; the next
    update the mask holds in the rest of the block is found by one gather
    and an argmax, it flips, and an empty mask is convergence. A hand-built
    W decides every update by its row product w[i] @ x and checks
    convergence by W x, as the plain loop does.
    """
    if fill not in FILLS:
        raise ValueError(f"unknown fill mode {fill!r}")
    # a fractional budget of at least one sweep, or inf, is allowed
    if (isinstance(max_sweeps, bool) or not isinstance(max_sweeps, numbers.Real)
            or not max_sweeps >= 1):
        raise ValueError("max_sweeps must be >= 1")

    x = as_pattern(start, d=wm.d).copy()
    rng = np.random.default_rng(rng_seed)
    unknown = x == 0.0
    if np.any(unknown):
        if fill == "plus":
            x[unknown] = 1.0
        else:
            x[unknown] = rng.choice([-1.0, 1.0], size=int(unknown.sum()))

    t = as_thresholds(theta, wm.d)
    d = wm.d
    g = wm.factor
    exact = g is not None
    if exact:
        m = g.shape[0]
        # the integer field (X^T y)_i - M x_i meets M d theta_i exactly when
        # it exceeds ceil(M d theta_i) - 1/2, a threshold no field equals;
        # as x_i^2 = 1, x_i flips just where the integer (X^T y)_i x_i lies
        # below the half-integer M + thr_i x_i, so the mask below is exact
        thr = np.ceil(m * d * t) - 0.5
        s = g @ x  # y = X x
        rows = 2 * g.T  # what a flip of x_i up adds to y
        rhs = m + thr * x
        flips = np.dot(s, g) * x <= rhs  # the neurons an update would flip
    else:
        w = wm.w
        flips = np.ones(d, dtype=bool)  # every update is decided by its row product
    energies = []

    def sample():
        # y gives x^T C x exactly (x is +/-1, so xx = d)
        energies.append(_factor_energy(m, d, s, t, x, d) if exact else _energy(w, t, x))

    sample()
    stable_run = 0
    updates = 0
    budget = max_sweeps * d
    converged = False
    while updates < budget:
        # A run can stop only after d quiet updates or at the budget, so it
        # never stops inside a block of this length: the Generator ends in
        # the state that one draw per update leaves. A fractional budget
        # ends at the next whole update, as in a plain loop.
        n = math.ceil(min(d - stable_run, budget - updates))
        block = rng.integers(d, size=n)
        first, end = updates, updates + n
        while updates < end:
            rest = block[updates - first:]
            hits = flips[rest]
            k = int(hits.argmax())
            if not hits[k]:
                k = end - updates
            # the k updates before the hit leave x unchanged; such a stretch
            # is at most d long, so it crosses at most one multiple of d
            stable_run += k
            if (updates + k) // d > updates // d:
                sample()
            updates += k
            if updates == end:
                break
            i = int(rest[k])
            up = x[i] < 0.0
            if exact or (w[i] @ x >= t[i]) == up:
                x[i] = 1.0 if up else -1.0
                if exact:
                    if up:
                        s += rows[i]
                    else:
                        s -= rows[i]
                    rhs[i] = m + thr[i] * x[i]
                    flips = np.dot(s, g) * x <= rhs
                stable_run = 0
            else:
                stable_run += 1
            updates += 1
            if updates % d == 0:
                sample()
        if stable_run >= d:
            # Under random selection a quiet window of d updates can still
            # have missed some neuron, so confirm every neuron is stable
            # before reporting convergence; if not, keep iterating. A trained
            # store's mask is exact, so it is stable when the mask is empty.
            if exact:
                stable = not flips.any()
            else:
                stable = np.array_equal(np.where(w @ x >= t, 1.0, -1.0), x)
            if stable:
                converged = True
                break
            stable_run = 0
    if updates % d != 0:
        sample()
    sweeps = -(-updates // d)
    return RecallTrace(final=x, sweeps=sweeps, energies=np.array(energies),
                       converged=converged)
