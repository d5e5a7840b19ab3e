"""The four benchmark workloads.

Each workload turns the seed into fixed inputs, then repeats one round of
recalls: every round of a run performs the identical seeded sequence.
Clamp sizes and grids are constants and the seed picks which neurons and
which patterns, so a round's work does not depend on the seed, apart from
the iterative engine's sweeps. The library is always reached through
module attributes, so the tracer's wrappers see every call.

- curve-inversion: the paper's recovery-curve figure, thousands of small
  reduced solves; harness overhead and small LAPACK calls dominate.
- curve-iterative: the same grid with the iterative engine, the only
  workload where its pure-Python update loop runs.
- recall-d400: solve(assemble(...)) at d = 400, the certified path of
  `hopfieldkit recall --method inversion`: one large eigen path plus the
  certificate per recall, and the one sizeable set-up.
- quantum-d16: qhop_solve at the largest size the 16-qubit budget takes.
"""
from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np

import checks
from hopfieldkit import experiments, hebbian, inversion, iterative
from hopfieldkit.patterns import ClampSet
from hopfieldkit.quantum import solver

GAMMA = 1.0
CURVE_GRID = tuple(range(1, 51))
CHECK_CELLS = 5  # seeded subsample of curve cells recomputed apart from the library


class Workload:
    """Set-up, one warm-up recall, and a repeatable round of recalls."""

    name = ""
    recalls_per_round = 0
    setups_per_block = 1  # set-ups timed together, so a block outlasts timer noise

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        raise NotImplementedError

    def warmup(self, state) -> None:
        raise NotImplementedError

    def steps(self, state) -> list:
        """One round as zero-argument calls; each is timed as its own block."""
        raise NotImplementedError

    def failed(self, state, outs: list) -> int:
        """Recalls of one round (the outputs of its steps) whose output fails its check."""
        raise NotImplementedError

    def same(self, a, b) -> bool:
        """Two rounds' outputs are identical."""
        raise NotImplementedError

    def quality(self, outs) -> dict:
        """Quality figures over rounds, for the traced run."""
        return {}


class CurveWorkload(Workload):
    """run_recovery_curve on the bundled fixture (d = 100, M = 8), l = 1..50 bases."""

    setups_per_block = 200
    monotone = False  # only the inversion curve is non-increasing by the method

    def __init__(self, seed: int, method: str, reps: int):
        super().__init__(seed)
        self.cfg = experiments.ExperimentConfig(l_grid=CURVE_GRID, reps=reps, seed=seed,
                                                method=method, gamma=GAMMA)
        self.recalls_per_round = len(CURVE_GRID) * reps
        rng = np.random.default_rng([seed, 0xCE11])
        self.check_cells = sorted(int(i) for i in rng.choice(len(CURVE_GRID) - 1,
                                                             size=CHECK_CELLS, replace=False))

    def setup(self):
        ts = experiments.ingest(self.cfg)
        experiments._TrialContext(self.cfg, ts)  # what every harness call builds first
        return ts

    def warmup(self, ts) -> None:
        experiments.run_recovery_curve(replace(self.cfg, l_grid=(1,), reps=1), ts)

    def steps(self, ts) -> list:
        return [functools.partial(experiments.run_recovery_curve, self.cfg, ts)]

    def same(self, a, b) -> bool:
        return a == b

    def failed(self, ts, outs: list) -> int:
        points, = outs
        bad = {i for i in self.check_cells if not self.cell_ok(ts, points[i])}
        if self.monotone:
            bad.update(checks.curve_monotone_violations(points))
        if not checks.curve_closes(points):
            bad.add(len(points) - 1)
        return self.cfg.reps * len(bad)


class CurveInversion(CurveWorkload):
    name = "curve-inversion"
    monotone = True

    def __init__(self, seed: int):
        super().__init__(seed, "inversion", reps=20)

    def cell_ok(self, ts, point) -> bool:
        return checks.inversion_cell_ok(point.mean_hamming, checks.hebbian_weights(ts.patterns),
                                        ts.patterns[0], point.l, self.seed, self.cfg.reps, GAMMA)


class CurveIterative(CurveWorkload):
    name = "curve-iterative"

    def __init__(self, seed: int):
        # 16 repetitions: the mean number of sweeps per recall, and so the
        # work of a round, then varies little from seed to seed
        super().__init__(seed, "iterative", reps=16)

    def cell_ok(self, ts, point) -> bool:
        """Replay the harness streams: every final state is a fixed point, energy fell,
        and the Hamming distances average to the curve's value."""
        wm = hebbian.train(ts)  # the library's couplings, to replay the harness exactly
        counts = checks.hebbian_counts(ts.patterns)
        m_d = ts.m * ts.d
        target = ts.patterns[0]
        total = 0
        for rep in range(self.cfg.reps):
            rng = np.random.default_rng([self.seed, rep])
            mask = checks.harness_base_mask(ts.d, point.l, rng)
            start = np.where(mask, target, 0.0)
            trace = iterative.recall(wm, start, rng_seed=rng,
                                     max_sweeps=self.cfg.max_sweeps, fill=self.cfg.fill)
            if not checks.iterative_state_ok(counts, m_d, start, trace.final, trace.energies):
                return False
            total += int(np.sum(trace.final != target))
        return total == point.mean_hamming * self.cfg.reps


class _ClampedStore(Workload):
    """A synthetic store with a fixed schedule of clamp sizes and seeded positions."""

    d = m = 0
    clamp_sizes: tuple[int, ...] = ()

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cfg = experiments.ExperimentConfig(l_grid=(1,), d=self.d, m=self.m, seed=seed,
                                                data_format="synthetic", units="neurons")
        self.recalls_per_round = len(self.clamp_sizes)
        self.clamps = None

    def setup(self):
        ts = experiments.ingest(self.cfg)
        wm = hebbian.train(ts)
        if self.clamps is None:
            rng = np.random.default_rng([self.seed, self.d])
            target = ts.patterns[0]
            self.clamps = [
                ClampSet.from_pattern(target, tuple(int(i) + 1 for i in np.sort(
                    rng.choice(self.d, size=l, replace=False))))
                for l in self.clamp_sizes]
        return ts, wm

    def warmup(self, state) -> None:
        self.recall(state, self.clamps[0])

    def steps(self, state) -> list:
        return [functools.partial(self.recall, state, clamp) for clamp in self.clamps]


class RecallD400(_ClampedStore):
    """d = 400, M = 20 (capacity d / (2 ln d) is about 33); clamps of 50 and 300 neurons."""

    name = "recall-d400"
    d, m = 400, 20
    clamp_sizes = (50, 300)
    setups_per_block = 16

    def recall(self, state, clamp):
        _, wm = state
        return inversion.solve(inversion.assemble(wm, clamp, gamma=GAMMA))

    def same(self, a, b) -> bool:
        return all(np.array_equal(p.x, q.x) and p.minimum_certified == q.minimum_certified
                   for p, q in zip(a, b))

    def failed(self, state, reports) -> int:
        ts, _ = state
        w = checks.hebbian_weights(ts.patterns)
        return sum(not checks.inversion_report_ok(w, GAMMA, clamp.mask(), clamp.values,
                                                  r.x, r.lam, r.minimum_certified)
                   for clamp, r in zip(self.clamps, reports))


class QuantumD16(_ClampedStore):
    """d = 16, M = 4, reference mode, T = 9, mu = 0.05: 5 system + 9 phase + 2 ancilla qubits.

    Three seeded clamps of each size 2..14.
    """

    name = "quantum-d16"
    d, m = 16, 4
    clamp_sizes = tuple(l for l in range(2, 15) for _ in range(3))
    setups_per_block = 1500
    mu = 0.05
    t_qubits = 9

    def recall(self, state, clamp):
        ts, _ = state
        return solver.qhop_solve(ts, clamp, gamma=GAMMA, mu=self.mu, t_qubits=self.t_qubits,
                                 mode="reference")

    def same(self, a, b) -> bool:
        return all(p.ok and q.ok and np.array_equal(p.x_register.amplitudes,
                                                    q.x_register.amplitudes)
                   for p, q in zip(a, b))

    def failed(self, state, reports) -> int:
        ts, _ = state
        w = checks.hebbian_weights(ts.patterns)
        return sum(not checks.quantum_report_ok(
            w, GAMMA, clamp.mask(), clamp.values, self.mu, r.ok, r.resolution_ok,
            r.x_register.amplitudes if r.ok else [], r.post_selection_probability)
            for clamp, r in zip(self.clamps, reports))

    def quality(self, outs) -> dict:
        reports = [r for out in outs for r in out]
        return {"quantum.success_probability_min": min(r.success_probability for r in reports),
                "quantum.phase_residual_max": max(r.phase_residual for r in reports)}


WORKLOADS = {cls.name: cls for cls in (CurveInversion, CurveIterative, RecallD400, QuantumD16)}
