"""Iterative Hopfield recall by asynchronous single-neuron updates.

Energy function: E(x) = -1/2 x^T W x + theta^T x. A neuron update sets
x_i = +1 when its local field (W x)_i meets or exceeds theta_i and -1
otherwise; ties resolve to +1. Each update never increases the energy
because self-couplings are zero.
"""
from __future__ import annotations

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
    t = as_thresholds(theta, wm.d)
    return float(-0.5 * s @ wm.w @ s + t @ s)


def update_neuron(wm: WeightMatrix, x, i: int, theta=None) -> np.ndarray:
    """Asynchronous update of neuron i (1-based); returns the new state."""
    s = as_pattern(x, d=wm.d, allow_unknown=False).copy()
    if not 1 <= i <= wm.d:
        raise ValueError(f"neuron index {i} outside 1..{wm.d}")
    t = as_thresholds(theta, wm.d)
    field = wm.w[i - 1] @ s
    s[i - 1] = 1.0 if field >= t[i - 1] else -1.0
    return s


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
    energies = [float(-0.5 * x @ w @ x + t @ x)]
    stable_run = 0
    updates = 0
    budget = max_sweeps * d
    converged = False
    while updates < budget:
        if order == "random":
            i = int(rng.integers(d))
        else:
            i = updates % d
        new = 1.0 if w[i] @ x >= t[i] else -1.0
        if new != x[i]:
            x[i] = new
            stable_run = 0
        else:
            stable_run += 1
        updates += 1
        if updates % d == 0:
            energies.append(float(-0.5 * x @ w @ x + t @ x))
        if stable_run >= d:
            # Under random selection a quiet window of d updates can still
            # have missed some neuron, so confirm every neuron is stable
            # before reporting convergence; if not, keep iterating.
            if np.array_equal(np.where(w @ x >= t, 1.0, -1.0), x):
                converged = True
                break
            stable_run = 0
    if updates % d != 0:
        energies.append(float(-0.5 * x @ w @ x + t @ x))
    sweeps = -(-updates // d)
    return RecallTrace(final=x, sweeps=sweeps, energies=np.array(energies),
                       converged=converged)
