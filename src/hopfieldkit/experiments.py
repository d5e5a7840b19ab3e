"""Recovery-curve and regularization-sweep experiments on stored patterns.

Repetition rep draws from the stream np.random.default_rng([seed, rep])
in every cell, so a sweep cell reproduces the matching recovery-curve
cell exactly. A run hashes each of those seeds once: it keeps each
stream's start state, shared by every cell of a curve and every gamma of
a sweep, and resets one Generator to it before each trial. The inversion
engine draws every clamp of a cell from its stream, then solves the
cell's repetitions together as one stack, in chunks of bounded size; only
a repetition whose reduced block is singular is solved on its own. The
first stored pattern is the recall target throughout. CSV output uses
fixed formatting and is byte-identical across runs.
"""
from __future__ import annotations

import functools
import io
import itertools
import numbers
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .hebbian import WeightMatrix, train
from .inversion import (_reduced_solve, _ridge_block, assemble, discretize, solve,
                        truncated_pseudoinverse_apply)
from .iterative import FILLS, recall
from .patterns import (ClampSet, TrainingSet, _count, _UnknownBase, encode_rna, load_fasta,
                       load_patterns)
from .quantum.solver import qhop_recall, qhop_solve

METHODS = ("iterative", "inversion", "quantum")
FORMATS = ("fasta", "patterns", "synthetic")
UNITS = ("bases", "neurons")
_STACK_ELEMENTS = 1 << 22  # float elements of a stacked solve's largest temporary, per chunk


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs of the experiment harness.

    l_grid counts known RNA bases when units="bases" (each base clamps a
    neuron pair) and known neurons when units="neurons". The full-
    information endpoint (all bases or all neurons known) is allowed so
    recovery curves can close at distance zero. FASTA data holds two
    neurons per base, so it needs an even d; other stores take any d >= 2.
    The command line takes its defaults from these fields.
    """

    l_grid: tuple[int, ...]
    d: int = 100
    m: int = 8
    reps: int = 1000
    gamma: float = 1.0
    mu: float = 0.0
    method: str = "inversion"
    seed: int = 0
    data: str | None = None
    data_format: str = "fasta"
    units: str = "bases"
    fill: str = "plus"
    max_sweeps: int = 50
    t_qubits: int = 9

    def __post_init__(self):
        for name, low in (("d", 2), ("m", 1), ("reps", 1), ("t_qubits", 1), ("max_sweeps", 1)):
            _count(getattr(self, name), name, low)
        if not isinstance(self.gamma, numbers.Real) or not 0 < self.gamma < np.inf:
            raise ValueError("gamma must be positive and finite")
        if not isinstance(self.mu, numbers.Real) or not 0 <= self.mu < np.inf:
            raise ValueError("mu must be >= 0 and finite")
        if self.fill not in FILLS:
            raise ValueError(f"fill must be one of {FILLS}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.data_format not in FORMATS:
            raise ValueError(f"data format must be one of {FORMATS}")
        if self.units not in UNITS:
            raise ValueError(f"units must be one of {UNITS}")
        if self.data_format == "fasta" and self.d % 2:
            raise ValueError("fasta data needs an even d (two neurons per base)")
        grid = tuple(self.l_grid)
        top = self.d // 2 if self.units == "bases" else self.d
        # only integers are range-checked; _count names any other value
        if not grid or any(isinstance(l, (int, np.integer)) and not 1 <= l <= top for l in grid):
            raise ValueError(f"l grid values must lie in 1..{top}")
        grid = tuple(_count(l, "l grid value") for l in grid)
        object.__setattr__(self, "l_grid", grid)


@dataclass(frozen=True)
class CurvePoint:
    l: int
    mean_hamming: float
    stderr: float
    reps: int


@dataclass(frozen=True)
class GammaPoint:
    gamma: float
    mean_hamming: float
    stderr: float
    reps: int


@functools.cache
def fixture_path() -> str:
    """Filesystem path of the bundled synthetic FASTA fixture, resolved on first call."""
    return str(resources.files("hopfieldkit") / "data" / "fixture.fasta")


def synthetic_patterns(d: int, m: int, seed: int) -> TrainingSet:
    """Seeded uniform +/-1 patterns, the default experiment fixture family."""
    rng = np.random.default_rng([seed, 0x5EED])
    return TrainingSet(rng.choice([-1.0, 1.0], size=(m, d)))


def ingest(cfg: ExperimentConfig) -> TrainingSet:
    """Load the configured training set (bundled fixture when data is None).

    FASTA records keep their first d/2 bases, and the M of them are
    encoded as one string and split into rows.
    """
    if cfg.data_format == "synthetic":
        return synthetic_patterns(cfg.d, cfg.m, cfg.seed)
    path = cfg.data if cfg.data is not None else fixture_path()
    if cfg.data_format == "patterns":
        arr = load_patterns(path)
        if arr.shape[0] < cfg.m:
            raise ValueError(f"{path}: found {arr.shape[0]} patterns, need m={cfg.m}")
        if arr.shape[1] != cfg.d:
            raise ValueError(f"{path}: patterns have d={arr.shape[1]}, expected {cfg.d}")
        return TrainingSet(arr[: cfg.m])
    records = load_fasta(path)[: cfg.m]
    if len(records) < cfg.m:
        raise ValueError(f"{path}: found {len(records)} sequences, need m={cfg.m}")
    bases = cfg.d // 2
    for name, seq in records:
        if len(seq) < bases:
            raise ValueError(f"{path}: sequence {name!r} has {len(seq)} bases, "
                             f"need at least {bases}")
    try:
        bits = encode_rna("".join(seq[:bases] for _, seq in records))
    except _UnknownBase as exc:
        record, pos = divmod(exc.index, bases)
        raise ValueError(f"{path}: sequence {record + 1} ({records[record][0]!r}): unknown base "
                         f"{exc.symbol!r} at position {pos + 1}") from None
    return TrainingSet(bits.reshape(cfg.m, cfg.d))


class _TrialContext:
    """Per-experiment precomputation shared by every repetition; wm is train(ts)."""

    def __init__(self, cfg: ExperimentConfig, ts: TrainingSet, wm: WeightMatrix | None = None):
        self.cfg = cfg
        self.ts = ts
        self.wm = train(ts) if wm is None else wm
        self.target = ts.patterns[0]


def _known_mask(ctx: _TrialContext, l: int, rng: np.random.Generator) -> np.ndarray:
    d = ctx.ts.d
    mask = np.zeros(d, dtype=bool)
    if ctx.cfg.units == "bases":
        bases = rng.choice(d // 2, size=l, replace=False)
        mask[2 * bases] = True
        mask[2 * bases + 1] = True
    else:
        mask[rng.choice(d, size=l, replace=False)] = True
    return mask


def _inversion_recover(ctx: _TrialContext, masks: np.ndarray) -> np.ndarray:
    """Constrained solves of a stack of one cell's clamps, x row by row.

    At mu = 0 the kernel solves the whole stack at once. Only a row whose
    reduced block the spectral rule calls singular, or every row at mu > 0,
    takes the eigen fallback of solve: the truncated pseudoinverse of A's
    active block, one row at a time.
    """
    cfg = ctx.cfg
    if cfg.mu == 0.0:
        x, block = _reduced_solve(ctx.wm, masks, np.where(masks, ctx.target, 0.0), cfg.gamma)
        fallback = np.flatnonzero(block.singular)
    else:
        x, fallback = np.empty(masks.shape), range(len(masks))
    d = ctx.ts.d
    for i in fallback:
        block, _ = _ridge_block(ctx.wm, masks[i], cfg.gamma)
        rhs = np.concatenate([np.zeros(d), ctx.target[masks[i]]])  # (theta = 0; x_inc on K)
        x[i] = truncated_pseudoinverse_apply(block, rhs, cfg.mu)[0][:d]
    return x


def _recover_one(ctx: _TrialContext, mask: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The iterative or the quantum engine's recall of one trial's clamp."""
    cfg = ctx.cfg
    if cfg.method == "iterative":
        start = np.where(mask, ctx.target, 0.0)
        return recall(ctx.wm, start, rng_seed=rng, max_sweeps=cfg.max_sweeps,
                      fill=cfg.fill).final
    clamp = ClampSet(np.where(mask, ctx.target, 0.0))
    return qhop_recall(ctx.ts, clamp, gamma=cfg.gamma, mu=cfg.mu, t_qubits=cfg.t_qubits)[0]


def run_trial(ctx: _TrialContext, l: int, rngs) -> np.ndarray:
    """The trials of one cell: per generator, clamp l units of the target, recall, count errors.

    Each trial draws its clamp from its generator, which must hold its
    stream's state when the iteration yields it. The inversion engine
    solves the cell's clamps from the trained store's factor, as stacks
    of at most _STACK_ELEMENTS // (d M) rows, and discretizes them row by
    row; the other engines recall trial by trial, each drawing from its
    generator after the clamp. The name is kept for the benchmark's
    tracer, whose experiments.run_trial span now covers a cell.
    """
    cfg = ctx.cfg
    if cfg.method != "inversion":
        return np.array([np.count_nonzero(_recover_one(ctx, _known_mask(ctx, l, rng), rng)
                                          != ctx.target) for rng in rngs], dtype=int)
    rows = max(1, _STACK_ELEMENTS // (ctx.ts.d * ctx.ts.m))
    masks = (_known_mask(ctx, l, rng) for rng in rngs)
    distances = []
    while stack := list(itertools.islice(masks, rows)):
        recovered = discretize(_inversion_recover(ctx, np.array(stack)))
        distances.append(np.count_nonzero(recovered != ctx.target, axis=1))
    return np.concatenate(distances)


class _Streams:
    """The repetitions' streams default_rng([seed, rep]) of one run, each seed hashed once.

    It keeps each stream's start state and, iterated, yields one Generator
    reset to each start in turn: the draws of a fresh default_rng([seed,
    rep]), whatever the previous trial consumed, at a state copy's cost.
    """

    def __init__(self, seed: int, reps: int):
        self._starts = [np.random.default_rng([seed, rep]).bit_generator.state
                        for rep in range(reps)]
        self._rng = np.random.default_rng([seed, 0])

    def __iter__(self):
        for start in self._starts:
            self._rng.bit_generator.state = start
            yield self._rng


def _cell(ctx: _TrialContext, l: int, streams: _Streams) -> tuple[float, float]:
    """Mean and standard error of the distances of one cell's repetitions."""
    distances = run_trial(ctx, l, streams).astype(float)
    mean = float(distances.mean())
    if distances.size < 2:
        return mean, 0.0
    return mean, float(distances.std(ddof=1) / np.sqrt(distances.size))


def run_recovery_curve(cfg: ExperimentConfig, ts: TrainingSet | None = None) -> list[CurvePoint]:
    """Mean recall error against the amount of clamped information."""
    ts = ingest(cfg) if ts is None else ts
    ctx = _TrialContext(cfg, ts)
    streams = _Streams(cfg.seed, cfg.reps)
    return [CurvePoint(l, *_cell(ctx, l, streams), cfg.reps) for l in cfg.l_grid]


def run_gamma_sweep(cfg: ExperimentConfig, gamma_grid,
                    ts: TrainingSet | None = None) -> list[GammaPoint]:
    """Recovery trials at fixed l for each regularization strength.

    The sweep runs the inversion method only, and rejects the others; the
    quantum engine depends on gamma too (through rho - gamma' I and its
    evolution time t0 = pi/(gamma + 2)) but is not swept yet. A
    single-point grid reproduces the matching recovery-curve cell exactly:
    repetitions share the (seed, repetition) streams.
    """
    if cfg.method != "inversion":
        raise ValueError("gamma sweep applies to the inversion method only")
    if len(cfg.l_grid) != 1:
        raise ValueError("gamma sweep needs exactly one l value in the grid")
    grid = [float(g) for g in gamma_grid]
    if not grid or any(not 0 < g < np.inf for g in grid):
        raise ValueError("gamma grid must be non-empty and positive, with finite values")
    ts = ingest(cfg) if ts is None else ts
    l = cfg.l_grid[0]
    wm = train(ts)  # W and the streams do not depend on gamma
    streams = _Streams(cfg.seed, cfg.reps)
    points = []
    for gamma in grid:
        ctx = _TrialContext(replace(cfg, gamma=gamma), ts, wm)
        points.append(GammaPoint(gamma, *_cell(ctx, l, streams), cfg.reps))
    return points


def write_points_csv(points, out, label: str) -> None:
    """Write curve or sweep points with stable formatting.

    out is a path or a text handle; label names the first column.
    """
    def emit(fh):
        fh.write(f"{label},mean_hamming,stderr,reps\n")
        for p in points:
            value = getattr(p, label)
            head = str(value) if isinstance(value, int) else f"{value:.10g}"
            fh.write(f"{head},{p.mean_hamming:.10g},{p.stderr:.10g},{p.reps}\n")

    if isinstance(out, io.TextIOBase):
        emit(out)
    else:
        with open(out, "w") as fh:
            emit(fh)


def run_quantum_crosscheck(d: int = 2, n_seeds: int = 10, gamma: float = 1.0,
                           mu: float = 0.05, t_qubits: int = 9, seed: int = 0,
                           mode: str = "reference") -> list[dict]:
    """Compare the simulated pipeline against the classical truncated solve.

    Each seeded instance draws two stored patterns, a random clamp, and
    small random thresholds. A row passes when the post-selected state
    reaches fidelity >= 0.98 with the classical solution, the reported
    block post-selection probability lands within 0.02 of
    |x|^2 / (|x|^2 + |lambda|^2), and the phase grid resolves mu.
    """
    d, n_seeds = _count(d, "d"), _count(n_seeds, "n_seeds")
    if d > 4:
        raise ValueError(f"cross-check is desk-scale only (1 <= d <= 4), got d={d}")
    rows = []
    for s in range(n_seeds):
        rng = np.random.default_rng([seed, s, 0xC4EC])
        ts = TrainingSet(rng.choice([-1.0, 1.0], size=(2, d)))
        wm = train(ts)
        target = rng.choice([-1.0, 1.0], size=d)
        l = int(rng.integers(1, d)) if d > 1 else 1
        clamp = ClampSet.from_pattern(target, rng.choice(d, size=l, replace=False) + 1)
        theta = rng.uniform(-0.25, 0.25, size=d)

        report = solve(assemble(wm, clamp, theta, gamma), mu=mu)
        x_cl, lam_cl = report.x, report.lam
        x_sq, lam_sq = x_cl @ x_cl, lam_cl @ lam_cl
        # a cutoff above the whole spectrum keeps nothing: (x; lambda) = 0
        expected_post = float(x_sq / (x_sq + lam_sq)) if x_sq + lam_sq > 0 else 0.0

        qrep = qhop_solve(ts, clamp, theta=theta, gamma=gamma, mu=mu,
                          t_qubits=t_qubits, mode=mode)
        if qrep.ok:
            amps = qrep.x_register.amplitudes
            x_pad = np.zeros(amps.size)
            x_pad[:d] = x_cl
            denom = np.linalg.norm(x_pad)
            fidelity = float(abs(np.vdot(x_pad / denom, amps)) ** 2) if denom > 0 else 0.0
            post_err = abs(qrep.post_selection_probability - expected_post)
        else:
            fidelity, post_err = 0.0, 1.0
        passed = bool(qrep.ok and qrep.resolution_ok and fidelity >= 0.98
                      and post_err <= 0.02)
        rows.append({
            "seed": s, "d": d, "fidelity": fidelity,
            "success_probability": qrep.success_probability,
            "post_selection_probability": qrep.post_selection_probability,
            "expected_post_selection": expected_post,
            "post_error": post_err,
            "phase_residual": qrep.phase_residual,
            "resolution_ok": qrep.resolution_ok,
            "message": qrep.message,
            "passed": passed,
        })
    return rows
