"""Recovery-curve and regularization-sweep experiments on stored patterns.

Repetition rep draws from the stream np.random.default_rng([seed, rep])
in every cell, so a sweep cell reproduces the matching recovery-curve
cell exactly. A run hashes each of those seeds once: it keeps each
stream's start state, shared by every cell of a curve and every gamma of
a sweep. The iterative engine resets one Generator to it before each
trial, draws the clamp with Generator.choice and then its fill and
update order. The inversion and quantum engines draw nothing after the
clamp, so they take the sets choice would draw, derived from each
stream's leading uint32 values (Floyd's algorithm over Lemire's bounded
draws). A run's (cell, repetition) rows, in grid order, fall into passes,
fixed slices of bounded size, and a pass reads those values once for
every cell it covers; choice itself still draws a clamp from a pool
above 10 000 units, or one that meets a rejected draw. The inversion
engine then solves a pass's rows together, in chunks of bounded size
that may span cells; only a row whose reduced block is singular is
solved on its own. The quantum engine recalls them one by one. The
first stored pattern is the recall target throughout. CSV output uses
fixed formatting and is byte-identical across runs.
"""
from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .hebbian import WeightMatrix, train
from .inversion import (_positive, _reduced_solve, _ridge_block, assemble, solve,
                        truncated_pseudoinverse_apply)
from .iterative import FILLS, recall
from .patterns import (ClampSet, TrainingSet, _count, _integer, _real, _UnknownBase,
                       encode_rna, load_fasta, load_patterns)
from .quantum.solver import CUTOFF, PHASE_QUBITS, qhop_recall, qhop_solve

METHODS = ("iterative", "inversion", "quantum")
FORMATS = ("fasta", "patterns", "synthetic")
UNITS = ("bases", "neurons")
_STACK_ELEMENTS = 1 << 22  # clamp entries of a pass: _STACK_ELEMENTS // d (cell, repetition) rows
# a solved chunk holds _SOLVE_ELEMENTS // (d M) rows, so each of its (rows, d) float
# arrays stays within 1/M MiB; the 163 rows this gives the fixture measured fastest
_SOLVE_ELEMENTS = 1 << 17
_FLOYD_POOL = 10_000  # Generator.choice(n, l, replace=False) runs Floyd's algorithm up to this n


def _pool(units: str, d: int) -> int:
    """The units a clamp draws from: d // 2 bases, each clamping a neuron pair, or d neurons."""
    return d // 2 if units == "bases" else d


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
    t_qubits: int = PHASE_QUBITS

    def __post_init__(self):
        for name, low in (("d", 2), ("m", 1), ("reps", 1), ("t_qubits", 1), ("max_sweeps", 1)):
            _count(getattr(self, name), name, low)
        object.__setattr__(self, "gamma", _real(self.gamma, "gamma"))
        object.__setattr__(self, "mu", _real(self.mu, "mu", zero=True))
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
        top = _pool(self.units, self.d)
        # only integers are range-checked; _count names any other value
        if not grid or any(_integer(l) and not 1 <= l <= top for l in grid):
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
        try:
            return TrainingSet(arr[: cfg.m])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
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


def _neuron_masks(ctx: _TrialContext, sets: np.ndarray) -> np.ndarray:
    """The (R, d) neuron masks of (R, pool) unit sets: base b clamps neurons 2b and 2b + 1."""
    if ctx.cfg.units == "neurons":
        return sets
    masks = np.zeros((len(sets), ctx.ts.d), dtype=bool)
    masks[:, 0:2 * sets.shape[1]:2] = masks[:, 1:2 * sets.shape[1]:2] = sets
    return masks


def _known_mask(ctx: _TrialContext, l: int, rng: np.random.Generator) -> np.ndarray:
    """The neuron mask of l units drawn by rng.choice from the pool, without replacement."""
    n = _pool(ctx.cfg.units, ctx.ts.d)
    sets = np.zeros((1, n), dtype=bool)
    sets[0, rng.choice(n, size=l, replace=False)] = True
    return _neuron_masks(ctx, sets)[0]


def _inversion_recover(ctx: _TrialContext, masks: np.ndarray) -> np.ndarray:
    """Constrained solves of a stack of clamps, x row by row; the rows may clamp different counts.

    At mu = 0 the kernel certifies and solves the whole stack at once, by
    the norm route or the eigen route. Only a row whose reduced block the
    spectral rule calls singular, or every row at mu > 0, takes the eigen
    fallback of solve: the truncated pseudoinverse of A's active block, one
    row at a time.
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


def _quantum_recover(ctx: _TrialContext, masks: np.ndarray) -> np.ndarray:
    """qhop_recall of a stack of clamps, row by row: the +/-1 states."""
    cfg = ctx.cfg
    return np.array([qhop_recall(ctx.ts, ClampSet(np.where(mask, ctx.target, 0.0)),
                                 gamma=cfg.gamma, mu=cfg.mu, t_qubits=cfg.t_qubits)[0]
                     for mask in masks])


def _distances(ctx: _TrialContext, masks: np.ndarray) -> np.ndarray:
    """Hamming distances to the target of the recalls from a stack of clamps.

    The stack is recalled in chunks of _SOLVE_ELEMENTS // (d M) rows, which
    may span cells: each row is solved as it would be alone. An inversion
    recall's errors are the neurons where discretize's +1 mask disagrees
    with the target's, so no +/-1 array is built.
    """
    rows = max(1, _SOLVE_ELEMENTS // (ctx.ts.d * ctx.ts.m))
    chunks = (masks[i:i + rows] for i in range(0, len(masks), rows))
    if ctx.cfg.method == "quantum":
        wrong = (_quantum_recover(ctx, chunk) != ctx.target for chunk in chunks)
    else:
        up = ctx.target > 0
        wrong = (_positive(_inversion_recover(ctx, chunk)) != up for chunk in chunks)
    return np.concatenate([np.count_nonzero(w, axis=1) for w in wrong])


def run_trial(ctx: _TrialContext, l: int, rngs) -> np.ndarray:
    """The trials of one cell: per generator, clamp l units of the target, recall, count errors.

    rngs is a run's _Streams or any iterable of generators, each holding
    its stream's state when the iteration yields it. The iterative engine
    draws each clamp with _known_mask and recalls trial by trial, drawing
    its fill and update order from the generator after the clamp. The
    inversion and quantum engines draw nothing after the clamp. Given the
    run's streams, they return the cell's share of _Streams.distances,
    which recalls a pass's (cell, repetition) rows together. Otherwise, as
    the oracle of the seeding contract, they draw each of the cell's
    clamps from its generator with _known_mask into one stack. _distances
    recalls either in chunks: the inversion engine solves a chunk from
    the trained store's factor and reads its signs row by row, and the
    quantum engine recalls its rows one by one. The name is kept for the
    benchmark's tracer: an experiments.run_trial span covers a cell, and
    the first cell of a pass also holds the recalls of the pass's later
    cells.
    """
    cfg = ctx.cfg
    if cfg.method == "iterative":
        finals = (recall(ctx.wm, np.where(_known_mask(ctx, l, rng), ctx.target, 0.0),
                         rng_seed=rng, max_sweeps=cfg.max_sweeps, fill=cfg.fill).final
                  for rng in rngs)
        return np.array([np.count_nonzero(x != ctx.target) for x in finals], dtype=int)
    if isinstance(rngs, _Streams):
        return rngs.distances(ctx, l)
    return _distances(ctx, np.array([_known_mask(ctx, l, rng) for rng in rngs]))


def _choice_sets(n: int, counts: np.ndarray, leading: np.ndarray,
                 streams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sets Generator.choice(n, l, replace=False) draws, one row per stream.

    counts holds each row's l in 1..n, and leading[streams] each row's
    stream's leading next_uint32 values, at least l of them where l < n. For
    n <= _FLOYD_POOL numpy runs Floyd's algorithm: for j = n - l ... n - 1
    it draws v in 0..j by Lemire's multiply-shift, v = u (j + 1) >> 32
    for the stream's next uint32 u, and takes j in place of a v already
    chosen; a j of 0 draws nothing, so l = n takes every unit. The loop
    runs over draw positions, each step over the rows still drawing.
    Returns the (rows, n) membership and the rows at which Lemire's rule
    rejects some u, whose streams read more than the table holds.
    """
    rows = len(counts)
    steps = np.where(counts < n, counts, 0)
    order = np.argsort(-steps, kind="stable")  # the rows still drawing come first
    lead, start = streams[order], order * n
    first = (n - counts[order] + 1).astype(np.uint64)  # j + 1 at each row's first draw
    chosen = np.zeros(rows * n, dtype=bool)
    rejected = np.zeros(rows, dtype=bool)
    drawing = rows - np.cumsum(np.bincount(steps))[:-1]  # rows still drawing at each step
    for step, alive in enumerate(drawing):
        bound = first[:alive] + step  # j + 1
        scaled = leading[lead[:alive], step] * bound
        # Lemire rejects a u whose low word lies below 2**32 mod (j + 1)
        rejected[order[:alive][(scaled & 0xFFFFFFFF) < (1 << 32) % bound]] = True
        v = (scaled >> 32).astype(np.intp) + start[:alive]
        chosen[np.where(chosen[v], bound.astype(np.intp) + (start[:alive] - 1), v)] = True
    chosen = chosen.reshape(rows, n)
    chosen[counts >= n] = True
    return chosen, np.flatnonzero(rejected)


class _Streams:
    """The repetitions' streams default_rng([seed, rep]) of one run, each seed hashed once.

    It keeps each stream's start state and, iterated, yields one Generator
    reset to each start in turn: the draws of a fresh default_rng([seed,
    rep]), whatever the previous trial consumed, at a state copy's cost.
    counts lists the run's clamp counts in the order its cells run.

    The inversion and quantum engines take a cell's clamps, and their
    distances, from passes without a choice call per trial. The run's rows
    are its (cell, repetition) pairs in the order its cells run: row =
    (index of l in counts) * reps + rep, and a cell outside counts is its
    own one-cell run. Pass k is the fixed slice of rows [k room, (k + 1)
    room), room = _STACK_ELEMENTS // d, so it may start and end inside a
    cell. It draws each of its streams' leading uint32 values once, as
    many as its largest count, and _choice_sets derives every row's clamps
    from them. _known_mask still draws a clamp from a pool larger than
    _FLOYD_POOL, where numpy may shuffle instead, and a row whose draws
    Lemire's rule rejects. The current pass keeps its clamps, and the
    distances of one context: a gamma sweep derives its one cell's clamps
    once and solves them again for each gamma.
    """

    def __init__(self, seed: int, reps: int, counts=()):
        self._starts = [np.random.default_rng([seed, rep]).bit_generator.state
                        for rep in range(reps)]
        self._rng = np.random.default_rng([seed, 0])
        self._counts = tuple(dict.fromkeys(counts))
        self._key = self._masks = self._solved = self._solved_for = None

    def __iter__(self):
        for rep in range(len(self._starts)):
            yield self._reset(rep)

    def _reset(self, rep: int) -> np.random.Generator:
        self._rng.bit_generator.state = self._starts[rep]
        return self._rng

    def _draws(self, reps, width: int) -> np.ndarray:
        """The listed streams' first width next_uint32 values, (len(reps), width)."""
        return np.array([self._reset(rep).integers(0, 2**32, size=width, dtype=np.uint32)
                         for rep in reps])

    def _cell_spans(self, ctx: _TrialContext, l: int):
        """Cell l's rows of each pass it meets, as (start, stop) into that pass's self._masks."""
        grid, reps = self._counts if l in self._counts else (l,), len(self._starts)
        room = max(1, _STACK_ELEMENTS // ctx.ts.d)
        first = grid.index(l) * reps
        for k in range(first // room, (first + reps - 1) // room + 1):
            if self._key != (grid, k, room):
                self._pass(ctx, grid, np.arange(k * room, min((k + 1) * room, len(grid) * reps)))
                self._key = (grid, k, room)
            yield max(first - k * room, 0), min(first + reps - k * room, room)

    def masks(self, ctx: _TrialContext, l: int) -> np.ndarray:
        """Cell l's clamp masks, the ones _known_mask draws, in repetition order."""
        return np.concatenate([self._masks[a:b] for a, b in self._cell_spans(ctx, l)])

    def distances(self, ctx: _TrialContext, l: int) -> np.ndarray:
        """Cell l's distances: each pass's rows are recalled together, once per context."""
        shares = []
        for start, stop in self._cell_spans(ctx, l):
            if self._solved_for is not ctx:
                self._solved, self._solved_for = _distances(ctx, self._masks), ctx
            shares.append(self._solved[start:stop])
        return np.concatenate(shares)

    def _pass(self, ctx: _TrialContext, grid: tuple, rows: np.ndarray) -> None:
        """Derive the clamps of the listed rows; row = (index of l in grid) * reps + rep."""
        cells, streams = np.divmod(rows, len(self._starts))
        counts = np.array(grid)[cells]
        n = _pool(ctx.cfg.units, ctx.ts.d)
        if n > _FLOYD_POOL:
            masks = np.array([_known_mask(ctx, count, self._reset(stream))
                              for count, stream in zip(counts, streams)])
        else:
            drawn, rows_of = np.unique(streams, return_inverse=True)
            width = counts[counts < n].max(initial=0)
            sets, rejected = _choice_sets(n, counts, self._draws(drawn, width), rows_of)
            masks = _neuron_masks(ctx, sets)
            for row in rejected:
                masks[row] = _known_mask(ctx, counts[row], self._reset(streams[row]))
        self._masks, self._solved, self._solved_for = masks, None, None


def _cell(ctx: _TrialContext, l: int, streams: _Streams) -> tuple[float, float]:
    """Mean and standard error of the distances of one cell's repetitions.

    Both come from the integer sums s and q of the n distances and of their
    squares: the squared standard error is (n q - s^2) / (n^2 (n - 1)),
    taken in Python ints, so nothing overflows and only the final divisions
    and the square root round.
    """
    distances = run_trial(ctx, l, streams)
    n = distances.size
    s = int(distances.sum())
    if n < 2:
        return s / n, 0.0
    q = int(distances @ distances)  # each distance is at most d, so q <= n d^2 fits int64
    return s / n, math.sqrt((n * q - s * s) / (n * n * (n - 1)))


def run_recovery_curve(cfg: ExperimentConfig, ts: TrainingSet | None = None) -> list[CurvePoint]:
    """Mean recall error against the amount of clamped information."""
    ts = ingest(cfg) if ts is None else ts
    ctx = _TrialContext(cfg, ts)
    streams = _Streams(cfg.seed, cfg.reps, cfg.l_grid)
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
    grid = [_real(g, "gamma") for g in gamma_grid]
    if not grid:
        raise ValueError("gamma grid must be non-empty")
    ts = ingest(cfg) if ts is None else ts
    l = cfg.l_grid[0]
    wm = train(ts)  # W and the streams do not depend on gamma
    streams = _Streams(cfg.seed, cfg.reps, cfg.l_grid)
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
                           mu: float = CUTOFF, t_qubits: int = PHASE_QUBITS, seed: int = 0,
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
