"""Recovery-curve and regularization-sweep experiments on stored patterns.

Every repetition derives its generator from (seed, repetition index), so
a sweep cell reproduces the matching recovery-curve cell exactly. The
first stored pattern is the recall target throughout. CSV output uses
fixed formatting and is byte-identical across runs.
"""
from __future__ import annotations

import io
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .hebbian import WeightMatrix, train
from .inversion import (LinearSystem, _reduced_solve, assemble, discretize, solve,
                        truncated_pseudoinverse_apply)
from .iterative import FILLS, recall
from .patterns import ClampSet, TrainingSet, encode_rna, load_fasta, load_patterns
from .quantum.solver import qhop_recall, qhop_solve

METHODS = ("iterative", "inversion", "quantum")
FORMATS = ("fasta", "patterns", "synthetic")
UNITS = ("bases", "neurons")


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
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if self.m < 1 or self.reps < 1:
            raise ValueError("m and reps must be >= 1")
        if not 0 < self.gamma < np.inf:
            raise ValueError("gamma must be positive and finite")
        if not 0 <= self.mu < np.inf:
            raise ValueError("mu must be >= 0 and finite")
        if not isinstance(self.t_qubits, (int, np.integer)) or self.t_qubits < 1:
            raise ValueError(f"t_qubits must be an integer >= 1, got {self.t_qubits!r}")
        if not isinstance(self.max_sweeps, (int, np.integer)) or self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be an integer >= 1, got {self.max_sweeps!r}")
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
        grid = tuple(int(l) for l in self.l_grid)
        top = self.d // 2 if self.units == "bases" else self.d
        if not grid or any(not 1 <= l <= top for l in grid):
            raise ValueError(f"l grid values must lie in 1..{top}")
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


def fixture_path() -> str:
    """Filesystem path of the bundled synthetic FASTA fixture."""
    return str(resources.files("hopfieldkit") / "data" / "fixture.fasta")


def synthetic_patterns(d: int, m: int, seed: int) -> TrainingSet:
    """Seeded uniform +/-1 patterns, the default experiment fixture family."""
    rng = np.random.default_rng([seed, 0x5EED])
    return TrainingSet(rng.choice([-1.0, 1.0], size=(m, d)))


def ingest(cfg: ExperimentConfig) -> TrainingSet:
    """Load the configured training set (bundled fixture when data is None)."""
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
    records = load_fasta(path)
    if len(records) < cfg.m:
        raise ValueError(f"{path}: found {len(records)} sequences, need m={cfg.m}")
    bases = cfg.d // 2
    rows = []
    for name, seq in records[: cfg.m]:
        if len(seq) < bases:
            raise ValueError(f"{path}: sequence {name!r} has {len(seq)} bases, "
                             f"need at least {bases}")
        rows.append(encode_rna(seq[:bases]))
    return TrainingSet(np.array(rows))


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


def _inversion_recover(ctx: _TrialContext, mask: np.ndarray) -> np.ndarray:
    """Constrained solve for one trial: the mu = 0 kernel, with the eigen fallback of solve."""
    cfg = ctx.cfg
    if cfg.mu == 0.0:
        x, _ = _reduced_solve(ctx.wm, mask, ctx.target, cfg.gamma)
        if x is not None:
            return x
    # truncated-pseudoinverse path (mu > 0, or a singular reduced block)
    sys = LinearSystem(ctx.wm, ClampSet(np.where(mask, ctx.target, 0.0)), cfg.gamma, None)
    v, _, _, _ = truncated_pseudoinverse_apply(sys.a, sys.rhs, cfg.mu)
    return v[:ctx.ts.d]


def run_trial(ctx: _TrialContext, l: int, rng: np.random.Generator) -> int:
    """One repetition: clamp l units of the target, recall the rest, count errors."""
    mask = _known_mask(ctx, l, rng)
    cfg = ctx.cfg
    if cfg.method == "inversion":
        recovered = discretize(_inversion_recover(ctx, mask))
    elif cfg.method == "iterative":
        start = np.where(mask, ctx.target, 0.0)
        trace = recall(ctx.wm, start, rng_seed=rng, max_sweeps=cfg.max_sweeps,
                       fill=cfg.fill)
        recovered = trace.final
    else:
        clamp = ClampSet(np.where(mask, ctx.target, 0.0))
        recovered, _ = qhop_recall(ctx.ts, clamp, gamma=cfg.gamma, mu=cfg.mu,
                                   t_qubits=cfg.t_qubits)
    return int(np.sum(recovered != ctx.target))


def _cell(ctx: _TrialContext, l: int) -> tuple[float, float]:
    """Mean and standard error of the distances of one cell's repetitions."""
    cfg = ctx.cfg
    distances = np.empty(cfg.reps)
    for rep in range(cfg.reps):
        distances[rep] = run_trial(ctx, l, np.random.default_rng([cfg.seed, rep]))
    mean = float(distances.mean())
    if distances.size < 2:
        return mean, 0.0
    return mean, float(distances.std(ddof=1) / np.sqrt(distances.size))


def run_recovery_curve(cfg: ExperimentConfig, ts: TrainingSet | None = None) -> list[CurvePoint]:
    """Mean recall error against the amount of clamped information."""
    ts = ingest(cfg) if ts is None else ts
    ctx = _TrialContext(cfg, ts)
    return [CurvePoint(l, *_cell(ctx, l), cfg.reps) for l in cfg.l_grid]


def run_gamma_sweep(cfg: ExperimentConfig, gamma_grid,
                    ts: TrainingSet | None = None) -> list[GammaPoint]:
    """Recovery trials at fixed l for each regularization strength.

    Only the inversion method responds to gamma, so other methods are
    rejected. A single-point grid reproduces the matching recovery-curve
    cell exactly: repetitions share the (seed, repetition) streams.
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
    wm = train(ts)  # W does not depend on gamma
    points = []
    for gamma in grid:
        ctx = _TrialContext(replace(cfg, gamma=gamma), ts, wm)
        points.append(GammaPoint(gamma, *_cell(ctx, l), cfg.reps))
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
    if not 1 <= d <= 4:
        raise ValueError(f"cross-check is desk-scale only (1 <= d <= 4), got d={d}")
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
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
        expected_post = float(x_cl @ x_cl / (x_cl @ x_cl + lam_cl @ lam_cl))

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
