"""Drift correction: scale each timed block by a fixed reference computation.

On a small shared machine the speed of the processor drifts by a quarter
or more from one minute to the next, so a raw wall-clock time says as
much about the neighbours as about the code. Every measured block is
therefore followed, while the program is idle, by the same reference
computation: pure-Python integer and float arithmetic plus small dense
solves and eigensolves, never library code. The block's time is scaled
by REFERENCE_NOMINAL_S over the reference's measured time, so a machine
running at the speed the nominal was taken at leaves the time unchanged
and the unit stays seconds.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

# Median duration of reference() on the machine the README figures come
# from (2 shared cores, OpenBLAS, one BLAS thread). It is a constant of the
# benchmark: changing it rescales every corrected figure.
REFERENCE_NOMINAL_S = 0.029

# A long block is followed by repetitions of the reference adding up to
# about this share of its own time.
REFERENCE_SHARE = 0.05

_REF_PY_STEPS = 30_000
_REF_LINALG_ROUNDS = 50
_REF_N = 48
_REF_EIG_ROUNDS = 3
_REF_EIG_N = 256  # one eigvalsh working set spills the caches the way d = 400 recalls do

# Bound before any tracer wraps numpy.linalg, so the reference never
# records spans and never pays for the wrappers.
_solve = np.linalg.solve
_eigvalsh = np.linalg.eigvalsh


def _reference_inputs():
    rng = np.random.default_rng(20171010)
    a = rng.standard_normal((_REF_N, _REF_N))
    big = rng.standard_normal((_REF_EIG_N, _REF_EIG_N))
    return a + _REF_N * np.eye(_REF_N), a + a.T, rng.standard_normal(_REF_N), big + big.T


_REF_A, _REF_S, _REF_B, _REF_BIG = _reference_inputs()


def reference() -> float:
    """The fixed reference computation; returns a checksum so it is not idle work."""
    acc = 0.0
    x = 1
    for _ in range(_REF_PY_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc += x * 1e-9
    for _ in range(_REF_LINALG_ROUNDS):
        acc += float(_solve(_REF_A, _REF_B)[0])
        acc += float(_eigvalsh(_REF_S)[0])
    for _ in range(_REF_EIG_ROUNDS):
        acc += float(_eigvalsh(_REF_BIG)[0])
    return acc


def corrected(raw_s: float, reference_s: float,
              nominal_s: float = REFERENCE_NOMINAL_S) -> float:
    """Scale a raw block time by the reference's nominal over measured time."""
    if raw_s < 0 or reference_s <= 0 or nominal_s <= 0:
        raise ValueError("times must be positive")
    return raw_s * (nominal_s / reference_s)


@dataclass(frozen=True)
class Block:
    """One timed block: its raw wall time and the mean reference time after it."""

    raw_s: float
    reference_s: float
    work: int

    @property
    def corrected_s(self) -> float:
        return corrected(self.raw_s, self.reference_s)

    @property
    def scale(self) -> float:
        return REFERENCE_NOMINAL_S / self.reference_s


@dataclass(frozen=True)
class Round:
    """One round of recalls, timed step by step as consecutive blocks."""

    blocks: tuple[Block, ...]
    work: int

    @property
    def corrected_s(self) -> float:
        return sum(b.corrected_s for b in self.blocks)


def timed_block(fn, work: int = 1):
    """Run fn(), then the reference; return (fn's result, Block).

    The reference repeats until it has run for at least REFERENCE_SHARE of
    the block's time, so a long block is compared with a long stretch of
    reference; Block.reference_s is the mean time of one repetition.
    """
    start = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - start
    repeats = max(1, round(REFERENCE_SHARE * raw / REFERENCE_NOMINAL_S))
    start = time.perf_counter()
    for _ in range(repeats):
        reference()
    ref = (time.perf_counter() - start) / repeats
    return result, Block(raw_s=raw, reference_s=ref, work=work)


def round_rate(rounds) -> tuple[float, float]:
    """(drift-corrected, raw) recalls per second of repeated identical rounds.

    Each step of a round is its own block; the median time of each step
    over the rounds, summed, is the time of a typical round.
    """
    work = rounds[0].work
    steps = list(zip(*(r.blocks for r in rounds)))
    fixed = sum(statistics.median(b.corrected_s for b in step) for step in steps)
    raw = sum(statistics.median(b.raw_s for b in step) for step in steps)
    return work / fixed, work / raw
