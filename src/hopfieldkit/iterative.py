"""Iterative Hopfield recall by asynchronous single-neuron updates.

Energy function: E(x) = -1/2 x^T W x + theta^T x. A neuron update sets
x_i = +1 when its local field (W x)_i meets or exceeds theta_i and -1
otherwise; ties resolve to +1. Each update never increases the energy
because self-couplings are zero.

recall is event-driven but reproduces the plain one-neuron-at-a-time loop
exactly. It draws neuron indices in blocks that end where the loop could
first stop, so the caller's Generator ends in the same state. It keeps the
local fields h = W x current with one column update per flip, and jumps
over the updates that h shows cannot flip a neuron. An update that h shows
could flip, or whose field lies within a rounding band of its threshold,
is decided by the exact row product (W x)_i, as the plain loop decides it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hebbian import WeightMatrix
from .patterns import as_pattern, as_thresholds


def energy(wm: WeightMatrix, x, theta=None) -> float:
    """E = -1/2 x^T W x + theta^T x.

    Zero (unknown) entries are permitted; they simply contribute nothing,
    so the all-zero state has energy 0 regardless of W and theta.
    """
    s = as_pattern(x, d=wm.d)
    return _energy(wm.w, as_thresholds(theta, wm.d), s)


def _energy(w: np.ndarray, t: np.ndarray, x: np.ndarray) -> float:
    return float(-0.5 * x @ w @ x + t @ x)


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
    order: str = "random",
    fill: str = "plus",
) -> RecallTrace:
    """Run asynchronous updates until stable or the sweep budget is spent.

    Unknown (zero) entries of start are filled with +1, or with random
    +/-1 when fill="random". order="random" draws neurons i.i.d. uniform;
    order="sweep" cycles through 1..d. Convergence requires d consecutive
    updates without a state change. Deterministic for a fixed rng_seed.

    The result, including the energy trace and the state a passed-in
    Generator is left in, is that of drawing one index per update and
    deciding it by (W x)_i >= theta_i. Indices are drawn in blocks of
    min(d - quiet run, updates left), since no run stops inside one. The
    maintained fields h = W x pick out the updates that can flip a neuron
    or that lie within 1e-9 sqrt(d) of a tie; only those are decided, by
    the exact row product. h is reset to W x at every full stability check.
    """
    if order not in ("random", "sweep"):
        raise ValueError(f"unknown update order {order!r}")
    if fill not in ("plus", "random"):
        raise ValueError(f"unknown fill mode {fill!r}")
    if max_sweeps < 1:
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
    w = wm.w
    d = wm.d
    # |(W x)_i| <= sqrt(d) because |W| <= 1; rounding in h stays far inside
    # this band, so a neuron whose margin clears it cannot flip.
    band = 1e-9 * np.sqrt(d)
    h = w @ x
    energies = [_energy(w, t, x)]
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
        if order == "random":
            block = rng.integers(d, size=n)
        else:
            block = (updates + np.arange(n)) % d
        first, end = updates, updates + n
        while updates < end:
            rest = block[updates - first:]
            margin = (h[rest] - t[rest]) * x[rest]
            candidates = ((margin <= band).nonzero()[0] + updates).tolist()
            for at in (*candidates, end):
                # updates before `at` leave x unchanged; such a stretch is at
                # most d long, so it crosses at most one multiple of d
                stable_run += at - updates
                if at // d > updates // d:
                    energies.append(_energy(w, t, x))
                updates = at
                if at == end:
                    break
                i = int(block[at - first])
                new = 1.0 if w[i] @ x >= t[i] else -1.0
                flipped = new != x[i]
                if flipped:
                    h += (new - x[i]) * w[:, i]
                    x[i] = new
                    stable_run = 0
                else:
                    stable_run += 1
                updates += 1
                if updates % d == 0:
                    energies.append(_energy(w, t, x))
                if flipped:
                    break  # the fields moved: scan the rest of the block again
        if stable_run >= d:
            # Under random selection a quiet window of d updates can still
            # have missed some neuron, so confirm every neuron is stable
            # before reporting convergence; if not, keep iterating. The
            # check's exact product also clears the drift of h.
            h = w @ x
            if np.array_equal(np.where(h >= t, 1.0, -1.0), x):
                converged = True
                break
            stable_run = 0
    if updates % d != 0:
        energies.append(_energy(w, t, x))
    sweeps = -(-updates // d)
    return RecallTrace(final=x, sweeps=sweeps, energies=np.array(energies),
                       converged=converged)
