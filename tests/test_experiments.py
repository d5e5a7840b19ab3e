"""Experiment harness: ingestion, trials, curves, sweeps, cross-checks."""
import io
import math
import os
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from hopfieldkit import experiments
from hopfieldkit.experiments import (
    CurvePoint,
    ExperimentConfig,
    GammaPoint,
    fixture_path,
    ingest,
    run_gamma_sweep,
    run_quantum_crosscheck,
    run_recovery_curve,
    synthetic_patterns,
    write_points_csv,
)
from hopfieldkit.hebbian import train
from hopfieldkit.inversion import (
    RANK_TOL_FACTOR,
    _reduced_solve,
    assemble,
    solve,
    truncated_pseudoinverse_apply,
)
from hopfieldkit.patterns import ClampSet, TrainingSet, encode_rna, load_fasta


def small_cfg(**kwargs):
    defaults = dict(l_grid=(3,), d=12, m=2, reps=10, units="neurons",
                    data_format="synthetic", seed=2)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestExperimentConfig:
    @pytest.mark.parametrize("field,value,message", [
        ("d", 1, "d must be an integer >= 2"),
        ("m", 0, "m must be an integer >= 1"),
        ("reps", 0, "reps must be an integer >= 1"),
        ("gamma", 0.0, "gamma must be positive"),
        ("gamma", float("nan"), "gamma must be positive"),
        ("gamma", float("inf"), "gamma must be positive"),
        ("mu", -0.5, "mu must be >= 0"),
        ("mu", float("nan"), "mu must be >= 0"),
        ("mu", float("inf"), "mu must be >= 0"),
        ("method", "analog", "method must be one of"),
        ("data_format", "json", "data format must be one of"),
        ("units", "bits", "units must be one of"),
        ("t_qubits", 0, "t_qubits must be an integer >= 1"),
        ("t_qubits", -1, "t_qubits must be an integer >= 1"),
        ("t_qubits", 2.5, "t_qubits must be an integer >= 1"),
        ("max_sweeps", 0, "max_sweeps must be an integer >= 1"),
        ("max_sweeps", 2.5, "max_sweeps must be an integer >= 1"),
        ("fill", "zeros", "fill must be one of"),
        ("d", 16.5, "d must be an integer >= 2"),
        ("m", True, "m must be an integer >= 1"),
        ("reps", 2.0, "reps must be an integer >= 1"),
        ("t_qubits", True, "t_qubits must be an integer >= 1"),
        ("max_sweeps", True, "max_sweeps must be an integer >= 1"),
        ("l_grid", (2.7,), "l grid value must be an integer >= 1"),
        ("l_grid", (3, True), "l grid value must be an integer >= 1"),
        ("d", "5", "d must be an integer >= 2"),
        ("d", None, "d must be an integer >= 2"),
        ("m", "2", "m must be an integer >= 1"),
        ("l_grid", ("3",), "l grid value must be an integer >= 1"),
        ("l_grid", (None,), "l grid value must be an integer >= 1"),
        ("gamma", "1", "gamma must be positive"),
        ("mu", None, "mu must be >= 0"),
        ("gamma", True, "gamma must be positive"),
        ("mu", False, "mu must be >= 0"),
    ])
    def test_field_validation(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            small_cfg(**{field: value})

    def test_numpy_integers_pass(self):
        cfg = small_cfg(d=np.int64(12), m=np.int32(2), reps=np.uint8(10),
                        l_grid=np.arange(1, 4), t_qubits=np.int64(9), max_sweeps=np.int16(5))
        assert cfg.l_grid == (1, 2, 3)
        assert all(type(l) is int for l in cfg.l_grid)

    def test_base_units_require_even_d(self):
        with pytest.raises(ValueError, match="even d"):
            ExperimentConfig(l_grid=(1,), d=7, units="bases")

    def test_fasta_data_requires_even_d_in_either_unit(self):
        with pytest.raises(ValueError, match="fasta data needs an even d"):
            ExperimentConfig(l_grid=(1,), d=5, units="neurons")

    @pytest.mark.parametrize("data_format", ["patterns", "synthetic"])
    def test_pattern_and_synthetic_stores_take_odd_d(self, data_format):
        assert ExperimentConfig(l_grid=(5,), d=5, units="neurons",
                                data_format=data_format).d == 5
        with pytest.raises(ValueError, match="1..2"):
            ExperimentConfig(l_grid=(3,), d=5, data_format=data_format)

    def test_grid_bounded_by_base_count(self):
        with pytest.raises(ValueError, match="1..50"):
            ExperimentConfig(l_grid=(51,), d=100, units="bases")
        with pytest.raises(ValueError, match="1..100"):
            ExperimentConfig(l_grid=(0,), d=100, units="neurons")
        with pytest.raises(ValueError, match="1..50"):
            ExperimentConfig(l_grid=())

    def test_full_information_endpoint_is_legal(self):
        assert ExperimentConfig(l_grid=(50,), d=100).l_grid == (50,)


class TestIngest:
    def test_bundled_fixture_loads_eight_patterns(self):
        assert os.path.isfile(fixture_path())
        ts = ingest(ExperimentConfig(l_grid=(1,)))
        assert (ts.m, ts.d) == (8, 100)
        assert set(np.unique(ts.patterns)) == {-1.0, 1.0}

    def test_synthetic_patterns_are_seed_stable(self):
        a = synthetic_patterns(8, 2, seed=3)
        b = synthetic_patterns(8, 2, seed=3)
        np.testing.assert_array_equal(a.patterns, b.patterns)
        c = synthetic_patterns(8, 2, seed=4)
        assert not np.array_equal(a.patterns, c.patterns)

    def test_fasta_sequences_truncate_to_base_budget(self, tmp_path):
        path = tmp_path / "toy.fasta"
        path.write_text(">one\nACGU\n")
        cfg = ExperimentConfig(l_grid=(1,), d=4, m=1, data=str(path))
        ts = ingest(cfg)
        np.testing.assert_array_equal(ts.patterns[0], encode_rna("AC"))
        assert load_fasta(str(path)) == [("one", "ACGU")]

    def test_fasta_errors(self, tmp_path):
        path = tmp_path / "toy.fasta"
        path.write_text(">one\nAC\n")
        with pytest.raises(ValueError, match="found 1 sequences, need m=2"):
            ingest(ExperimentConfig(l_grid=(1,), d=4, m=2, data=str(path)))
        with pytest.raises(ValueError, match="has 2 bases, need at least 3"):
            ingest(ExperimentConfig(l_grid=(1,), d=6, m=1, data=str(path)))

    def test_unknown_base_names_file_record_and_position(self, tmp_path):
        path = tmp_path / "toy.fasta"
        path.write_text(">one\nACGUAC\n>two x\nACG\nU\u00dfCG\n>three\nnnnnnn\n")
        with pytest.raises(ValueError) as exc:
            ingest(ExperimentConfig(l_grid=(1,), d=12, m=2, data=str(path)))
        assert str(exc.value) == f"{path}: sequence 2 ('two x'): unknown base '\u00df' at position 5"
        path.write_text(">one\nACGUAC\n>two\nACGUAC\n>three\nACGuan\n")
        with pytest.raises(ValueError) as exc:
            ingest(ExperimentConfig(l_grid=(1,), d=12, m=3, data=str(path)))
        assert str(exc.value) == f"{path}: sequence 3 ('three'): unknown base 'n' at position 6"
        # a symbol past the d/2 bases each record keeps is not read
        assert ingest(ExperimentConfig(l_grid=(1,), d=10, m=3, data=str(path))).m == 3

    def test_genome_scale_fasta_matches_the_per_base_encoding(self, tmp_path, per_base_encoding):
        # H1N1-genome size: 8 records of 13 500 bases, d = 27 000
        rng = np.random.default_rng(11)
        records = ["".join(rng.choice(list("ACGUTacgut"), size=13500)) for _ in range(8)]
        path = tmp_path / "genome.fasta"
        with open(path, "w") as fh:
            for k, seq in enumerate(records):
                fh.write(f">segment {k + 1}\n")
                fh.writelines(seq[i:i + 60] + "\n" for i in range(0, len(seq), 60))
        ts = ingest(ExperimentConfig(l_grid=(1,), d=27000, m=8, data=str(path)))
        np.testing.assert_array_equal(ts.patterns, [per_base_encoding(seq) for seq in records])

    def test_pattern_file_round_trip(self, tmp_path):
        path = tmp_path / "toy.txt"
        path.write_text("+1 -1\n-1 -1\n")
        cfg = ExperimentConfig(l_grid=(1,), d=2, m=1, units="neurons",
                               data_format="patterns", data=str(path))
        ts = ingest(cfg)
        assert ts.m == 1  # extra records beyond m are ignored
        np.testing.assert_array_equal(ts.patterns[0], [1.0, -1.0])

    def test_pattern_file_errors(self, tmp_path):
        path = tmp_path / "toy.txt"
        path.write_text("+1 -1\n")
        with pytest.raises(ValueError, match="found 1 patterns, need m=2"):
            ingest(ExperimentConfig(l_grid=(1,), d=2, m=2, units="neurons",
                                    data_format="patterns", data=str(path)))
        with pytest.raises(ValueError, match="patterns have d=2, expected 4"):
            ingest(ExperimentConfig(l_grid=(1,), d=4, m=1, units="neurons",
                                    data_format="patterns", data=str(path)))


class TestRecoveryCurve:
    def test_everything_clamped_recovers_exactly(self):
        cfg = ExperimentConfig(l_grid=(4,), d=8, m=2, reps=5,
                               data_format="synthetic", seed=0)
        point = run_recovery_curve(cfg)[0]
        assert point == CurvePoint(l=4, mean_hamming=0.0, stderr=0.0, reps=5)

    @pytest.mark.parametrize("method", ["inversion", "iterative"])
    def test_generous_information_recovers_exactly(self, method):
        cfg = ExperimentConfig(l_grid=(10,), d=12, m=2, reps=50, method=method,
                               units="neurons", data_format="synthetic", seed=1)
        point = run_recovery_curve(cfg)[0]
        assert point.mean_hamming == 0.0
        assert point.stderr == 0.0

    def test_runs_are_deterministic(self):
        cfg = small_cfg(gamma=0.7)
        assert run_recovery_curve(cfg) == run_recovery_curve(cfg)

    def test_quantum_method_recovers_the_stored_pattern(self):
        cfg = ExperimentConfig(l_grid=(1,), d=2, m=1, reps=2, method="quantum",
                               units="neurons", data_format="synthetic",
                               t_qubits=8)
        point = run_recovery_curve(cfg, ts=TrainingSet([[1.0, 1.0]]))[0]
        assert point.mean_hamming == 0.0

    def test_positive_mu_fallback_matches_the_library_solve(self):
        cfg = ExperimentConfig(l_grid=(1,), mu=0.1, units="neurons")
        ctx = experiments._TrialContext(cfg, ingest(cfg))
        rng = np.random.default_rng(5)
        for l in (1, 7, 40, 99):
            mask = np.zeros(ctx.ts.d, dtype=bool)
            mask[rng.choice(ctx.ts.d, size=l, replace=False)] = True
            clamp = ClampSet.from_pattern(ctx.target, tuple(np.flatnonzero(mask) + 1))
            expected = solve(assemble(ctx.wm, clamp, gamma=cfg.gamma), mu=cfg.mu).x
            np.testing.assert_array_equal(experiments._inversion_recover(ctx, mask[None])[0],
                                          expected)

    @pytest.mark.parametrize("method", ["inversion", "iterative", "quantum"])
    def test_curves_never_derive_the_dense_weights(self, monkeypatch, method):
        # the mu = 0 elimination and the iterative engine read the factor,
        # and qhop_recall only the patterns
        stores = []

        def recording_train(ts):
            stores.append(train(ts))
            return stores[-1]

        monkeypatch.setattr(experiments, "train", recording_train)
        run_recovery_curve(small_cfg(method=method, l_grid=(1, 6, 11), reps=3))
        assert len(stores) == 1 and "w" not in vars(stores[0])

    def test_supplied_training_set_overrides_ingest(self):
        cfg = ExperimentConfig(l_grid=(2,), d=4, m=1, reps=3,
                               units="neurons", data_format="synthetic")
        ts = TrainingSet([[1.0, -1.0, 1.0, -1.0]])
        point = run_recovery_curve(cfg, ts=ts)[0]
        assert point.reps == 3


def replayed_cell(ctx, l):
    """A cell as the seeding contract states it: a fresh default_rng([seed, rep]) per trial."""
    cfg = ctx.cfg
    rngs = [np.random.default_rng([cfg.seed, rep]) for rep in range(cfg.reps)]
    distances = experiments.run_trial(ctx, l, rngs).tolist()
    n, s, q = len(distances), sum(distances), sum(x * x for x in distances)
    if n < 2:
        return s / n, 0.0
    # the sample variance over n, exact in integers and rounded once
    return s / n, math.sqrt((n * q - s * s) / (n * n * (n - 1)))


class TestSeedingContract:
    """Repetition rep of every cell draws the stream default_rng([seed, rep]).

    Each grid holds l = 5 twice: trials consume their streams, so equal
    cells show that no cell starts where the previous one stopped.
    """

    @pytest.mark.parametrize("cfg", [
        ExperimentConfig(l_grid=(1, 5, 5, 20, 50), reps=12, seed=3),
        ExperimentConfig(l_grid=(1, 5, 5, 20, 50), reps=6, seed=3, method="iterative",
                         fill="plus"),
        ExperimentConfig(l_grid=(1, 5, 5, 20, 50), reps=6, seed=3, method="iterative",
                         fill="random"),
        ExperimentConfig(l_grid=(2, 5, 5, 14), d=16, m=4, reps=4, seed=3, method="quantum",
                         data_format="synthetic", units="neurons"),
    ], ids=["inversion", "iterative-plus", "iterative-random", "quantum-d16"])
    def test_every_cell_replays_fresh_streams(self, cfg):
        ts = ingest(cfg)
        ctx = experiments._TrialContext(cfg, ts)
        points = run_recovery_curve(cfg, ts)
        assert points == [CurvePoint(l, *replayed_cell(ctx, l), cfg.reps) for l in cfg.l_grid]
        assert points[1] == points[2]

    @pytest.mark.parametrize("cfg", [
        ExperimentConfig(l_grid=(1, 5, 5, 20, 50), reps=200, units="neurons", gamma=0.05),
        ExperimentConfig(l_grid=(1, 5, 5, 9, 12), d=12, m=2, reps=25, units="neurons",
                         data_format="synthetic", seed=2, mu=0.1),
    ], ids=["singular-rows", "positive-mu"])
    def test_solve_chunks_that_span_cells_do_not_show(self, monkeypatch, cfg):
        # a run solves its pass's (cell, repetition) rows in 7-row chunks here;
        # neither 200 nor 25 is a multiple of 7, so chunk edges fall inside
        # cells and chunks hold two cells' rows. At gamma = 0.05 some clamps
        # of 50 fixture neurons leave the reduced block singular, and at
        # mu > 0 every row takes the eigen fallback
        ts = ingest(cfg)
        ctx = experiments._TrialContext(cfg, ts)
        monkeypatch.setattr(experiments, "_SOLVE_ELEMENTS", 7 * ts.d * ts.m)
        recover, fallback = experiments._inversion_recover, truncated_pseudoinverse_apply
        sizes, fallbacks = [], []

        def recording(ctx, masks):
            sizes.append(len(masks))
            return recover(ctx, masks)

        def counting(*args):
            fallbacks.append(args)
            return fallback(*args)

        monkeypatch.setattr(experiments, "_inversion_recover", recording)
        monkeypatch.setattr(experiments, "truncated_pseudoinverse_apply", counting)
        points = run_recovery_curve(cfg, ts)
        rows = len(set(cfg.l_grid)) * cfg.reps  # the repeated cell reuses the pass
        assert sizes == [7] * (rows // 7) + [rows % 7]
        assert 0 < len(fallbacks) <= rows
        assert points == [CurvePoint(l, *replayed_cell(ctx, l), cfg.reps) for l in cfg.l_grid]
        assert points[1] == points[2]

    def test_every_gamma_replays_fresh_streams(self):
        cfg = ExperimentConfig(l_grid=(25,), reps=12, seed=3)
        ts = ingest(cfg)
        wm = train(ts)
        grid = [0.05, 0.3, 0.05]
        points = run_gamma_sweep(cfg, grid, ts)
        assert points == [
            GammaPoint(g, *replayed_cell(experiments._TrialContext(replace(cfg, gamma=g), ts, wm),
                                         25), cfg.reps)
            for g in grid]
        assert points[0] == points[2]


def fresh_streams(seed, reps):
    return [np.random.default_rng([seed, rep]) for rep in range(reps)]


class TestStackedCell:
    """run_trial solves a cell's repetitions together; each is still its own one-generator call.

    At gamma = 0.05 some clamps of 50 fixture neurons leave the reduced
    block singular, so that cell mixes stacked rows and eigen fallbacks.
    """

    SINGULAR = ExperimentConfig(l_grid=(50,), units="neurons", gamma=0.05, reps=200)

    @pytest.mark.parametrize("cfg", [
        SINGULAR,
        ExperimentConfig(l_grid=(10,), reps=30, seed=4),
        ExperimentConfig(l_grid=(3,), d=12, m=2, reps=25, units="neurons",
                         data_format="synthetic", seed=2, mu=0.1),
        ExperimentConfig(l_grid=(3,), d=12, m=2, reps=12, units="neurons",
                         data_format="synthetic", seed=2, method="iterative"),
        ExperimentConfig(l_grid=(6,), d=16, m=4, reps=12, units="neurons",
                         data_format="synthetic", seed=3, method="quantum"),
    ], ids=["singular-rows", "bases", "positive-mu", "iterative", "quantum"])
    def test_a_cell_is_its_one_generator_calls(self, cfg):
        ctx = experiments._TrialContext(cfg, ingest(cfg))
        l = cfg.l_grid[0]
        got = experiments.run_trial(ctx, l, fresh_streams(cfg.seed, cfg.reps))
        want = np.concatenate([experiments.run_trial(ctx, l, [rng])
                               for rng in fresh_streams(cfg.seed, cfg.reps)])
        np.testing.assert_array_equal(got, want)
        reset = experiments.run_trial(ctx, l, experiments._Streams(cfg.seed, cfg.reps))
        np.testing.assert_array_equal(reset, want)

    def test_only_singular_rows_take_the_eigen_fallback(self, monkeypatch):
        cfg = self.SINGULAR
        ctx = experiments._TrialContext(cfg, ingest(cfg))
        w = train(ctx.ts).w
        singular = 0
        for rng in fresh_streams(cfg.seed, cfg.reps):
            free = ~experiments._known_mask(ctx, 50, rng)
            eigs = np.abs(np.linalg.eigvalsh(cfg.gamma * np.eye(50) - w[np.ix_(free, free)]))
            singular += eigs.min() <= RANK_TOL_FACTOR * eigs.max()
        calls = []

        def counting(*args):
            calls.append(args)
            return truncated_pseudoinverse_apply(*args)

        monkeypatch.setattr(experiments, "truncated_pseudoinverse_apply", counting)
        experiments.run_trial(ctx, 50, fresh_streams(cfg.seed, cfg.reps))
        assert len(calls) == singular > 0

    def test_chunk_boundaries_do_not_show(self, monkeypatch):
        cfg = self.SINGULAR
        ctx = experiments._TrialContext(cfg, ingest(cfg))
        want = experiments.run_trial(ctx, 50, fresh_streams(cfg.seed, cfg.reps))
        sizes = []

        def recording(wm, known, *args):
            sizes.append(len(known))
            return _reduced_solve(wm, known, *args)

        monkeypatch.setattr(experiments, "_reduced_solve", recording)
        monkeypatch.setattr(experiments, "_SOLVE_ELEMENTS", 7 * ctx.ts.d * ctx.ts.m)
        got = experiments.run_trial(ctx, 50, fresh_streams(cfg.seed, cfg.reps))
        assert sizes == [7] * 28 + [4]  # 200 = 28 * 7 + 4
        np.testing.assert_array_equal(got, want)

    def test_a_cell_holds_one_chunk_at_a_time(self, monkeypatch):
        # chunks of 4 rows at d = 2000: the cell's peak stays below one
        # (reps, d) float stack, which an unchunked solve would hold several times
        cfg = ExperimentConfig(l_grid=(200,), d=2000, m=8, reps=200, units="neurons",
                               data_format="synthetic")
        ctx = experiments._TrialContext(cfg, ingest(cfg))
        rngs = fresh_streams(cfg.seed, cfg.reps)
        monkeypatch.setattr(experiments, "_SOLVE_ELEMENTS", 4 * cfg.d * cfg.m)
        tracemalloc.start()
        try:
            distances = experiments.run_trial(ctx, 200, rngs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert distances.shape == (cfg.reps,)
        assert peak < cfg.reps * cfg.d * 8, peak


class TestClampDraws:
    """The run's streams give the inversion engine the clamps _known_mask draws.

    Below numpy's tail-shuffle branch (n > 10 000), Generator.choice(n, l,
    replace=False) is Floyd's algorithm over Lemire's bounded draws, so
    _Streams derives every cell's clamps from each stream's leading uint32
    values; a rejected draw and a larger pool take _known_mask itself.
    """

    @pytest.mark.parametrize("units", experiments.UNITS)
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 50, 100, 2000, 10_000])
    def test_clamp_sets_are_choice_sets(self, n, units):
        d = 2 * n if units == "bases" else n
        # the masks read d and the units only; d = 1 is below what a config allows
        ctx = SimpleNamespace(ts=SimpleNamespace(d=d), cfg=SimpleNamespace(units=units))
        grid = range(1, n + 1) if n <= 100 else (1, 2, n // 3, n // 2, n - 1, n)
        reps = 2
        for seed in range(30):
            streams = experiments._Streams(seed, reps, grid)
            for l in grid:
                got = np.concatenate(list(streams.masks(ctx, l, reps)))
                want = [experiments._known_mask(ctx, l, rng) for rng in fresh_streams(seed, reps)]
                np.testing.assert_array_equal(got, want, err_msg=f"seed {seed}, l {l}")

    def test_a_rejected_draw_takes_known_mask(self, monkeypatch):
        # at j near 10 000 Lemire's rule rejects about one uint32 in a million;
        # repetition 0 of seed 34 meets one within its 5000 draws
        cfg = ExperimentConfig(l_grid=(5000,), d=10_000, m=2, reps=10, units="neurons",
                               data_format="synthetic", seed=34)
        ts = ingest(cfg)
        ctx = experiments._TrialContext(cfg, ts)
        known_mask, drawn = experiments._known_mask, []

        def counting(ctx, l, rng):
            drawn.append(l)
            return known_mask(ctx, l, rng)

        monkeypatch.setattr(experiments, "_known_mask", counting)
        points = run_recovery_curve(cfg, ts)
        assert drawn == [5000]
        monkeypatch.undo()
        assert points == [CurvePoint(5000, *replayed_cell(ctx, 5000), cfg.reps)]
        got = np.concatenate(list(experiments._Streams(cfg.seed, cfg.reps).masks(ctx, 5000, 4)))
        want = [experiments._known_mask(ctx, 5000, rng) for rng in fresh_streams(cfg.seed, cfg.reps)]
        np.testing.assert_array_equal(got, want)

    def test_a_pool_above_floyds_range_takes_known_mask(self):
        # l > n // 50 at n > 10 000: numpy shuffles the pool's tail instead
        cfg = ExperimentConfig(l_grid=(600,), d=12_000, m=2, reps=6, units="neurons",
                               data_format="synthetic", seed=5)
        assert cfg.d > experiments._FLOYD_POOL and 600 > cfg.d // 50
        ts = ingest(cfg)
        ctx = experiments._TrialContext(cfg, ts)
        assert run_recovery_curve(cfg, ts) == [CurvePoint(600, *replayed_cell(ctx, 600), 6)]

    def test_a_run_holds_one_pass_of_clamps_at_a_time(self, monkeypatch):
        # a pass covers at most _STACK_ELEMENTS // d rows, 32 of the run's 2000
        # (cell, repetition) rows here, and draws only its own streams' uint32
        # values; the run's whole 200 x 1000 table would exceed _STACK_ELEMENTS.
        # The run stays within three of the solve's largest temporaries; every
        # pass's clamps at once would exceed that.
        cfg = ExperimentConfig(l_grid=tuple(range(100, 1001, 100)), d=2000, m=8, reps=200,
                               units="neurons", data_format="synthetic")
        ts = ingest(cfg)
        monkeypatch.setattr(experiments, "_STACK_ELEMENTS", 4 * cfg.d * cfg.m)
        tracemalloc.start()
        try:
            points = run_recovery_curve(cfg, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(points) == 10
        assert peak < 3 * experiments._STACK_ELEMENTS * 8, peak


class TestGammaSweep:
    def test_single_point_sweep_equals_curve_cell(self):
        cfg = small_cfg(reps=30, gamma=0.7)
        curve = run_recovery_curve(cfg)[0]
        sweep = run_gamma_sweep(cfg, [0.7])[0]
        assert sweep.gamma == 0.7
        assert sweep.mean_hamming == curve.mean_hamming
        assert sweep.stderr == curve.stderr

    def test_grid_order_is_preserved(self):
        cfg = small_cfg(reps=5)
        points = run_gamma_sweep(cfg, [1.0, 0.05])
        assert [p.gamma for p in points] == [1.0, 0.05]

    def test_trains_once_per_sweep_with_unchanged_output(self, monkeypatch):
        cfg = small_cfg(reps=20)
        grid = [0.05, 0.3, 1.0]
        expected = io.StringIO()
        write_points_csv([run_gamma_sweep(cfg, [g])[0] for g in grid], expected, "gamma")
        calls = []

        def counting_train(ts):
            calls.append(ts)
            return train(ts)

        monkeypatch.setattr(experiments, "train", counting_train)
        got = io.StringIO()
        write_points_csv(run_gamma_sweep(cfg, grid), got, "gamma")
        assert len(calls) == 1
        assert got.getvalue() == expected.getvalue()

    def test_rejections(self):
        with pytest.raises(ValueError, match="inversion method only"):
            run_gamma_sweep(small_cfg(method="iterative"), [1.0])
        with pytest.raises(ValueError, match="exactly one l"):
            run_gamma_sweep(small_cfg(l_grid=(1, 2)), [1.0])
        with pytest.raises(ValueError, match="gamma grid must be non-empty"):
            run_gamma_sweep(small_cfg(), [])
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            run_gamma_sweep(small_cfg(), [1.0, -0.5])
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            run_gamma_sweep(small_cfg(), [1.0, float("nan")])


class TestCsvOutput:
    def test_curve_rows_format_exactly(self):
        points = [CurvePoint(l=3, mean_hamming=1.5, stderr=0.25, reps=4),
                  CurvePoint(l=10, mean_hamming=0.0, stderr=0.0, reps=4)]
        buf = io.StringIO()
        write_points_csv(points, buf, "l")
        assert buf.getvalue() == ("l,mean_hamming,stderr,reps\n"
                                  "3,1.5,0.25,4\n"
                                  "10,0,0,4\n")

    def test_gamma_rows_format_exactly(self):
        points = [GammaPoint(gamma=0.01, mean_hamming=45.5, stderr=0.5, reps=9)]
        buf = io.StringIO()
        write_points_csv(points, buf, "gamma")
        assert buf.getvalue() == ("gamma,mean_hamming,stderr,reps\n"
                                  "0.01,45.5,0.5,9\n")

    def test_one_repetition_cell_has_zero_stderr(self):
        points = run_recovery_curve(small_cfg(reps=1))
        assert [p.stderr for p in points] == [0.0]
        buf = io.StringIO()
        write_points_csv(points, buf, "l")
        assert buf.getvalue().splitlines()[1].endswith(",0,1")

    def test_cell_statistics_are_rounded_once_and_keep_the_printed_digits(self, monkeypatch):
        # _cell reads its distances from run_trial; feed it random integer cells
        # and check each statistic against the exact rational, and its printed
        # .10g digits against numpy's float formula
        rng = np.random.default_rng(131)
        cells = [rng.integers(0, int(rng.integers(1, 30000)), size=int(rng.integers(2, 3000)))
                 for _ in range(300)]
        cells += [np.full(7, 5), np.array([0, 27000] * 500)]
        for distances in cells:
            monkeypatch.setattr(experiments, "run_trial", lambda ctx, l, streams: distances)
            mean, stderr = experiments._cell(None, 1, None)
            n, s = distances.size, Fraction(int(distances.sum()))
            var = (n * Fraction(int(distances @ distances)) - s * s) / (n * n * (n - 1))
            assert mean == float(s / n)
            assert abs(Fraction(stderr) ** 2 - var) <= abs(2 * stderr * math.ulp(stderr))
            ref = distances.std(ddof=1) / np.sqrt(n)
            assert (f"{mean:.10g}", f"{stderr:.10g}") == (f"{distances.mean():.10g}", f"{ref:.10g}")

    def test_file_output_is_byte_identical_across_runs(self, tmp_path):
        cfg = small_cfg(reps=8, gamma=0.7)
        paths = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            write_points_csv(run_recovery_curve(cfg), out, "l")
            paths.append(out.read_bytes())
        assert paths[0] == paths[1]


class TestQuantumCrosscheck:
    def test_small_instances_pass_against_classical_solver(self):
        rows = run_quantum_crosscheck(d=2, n_seeds=3)
        assert len(rows) == 3
        assert all(row["passed"] for row in rows)
        assert sorted(rows[0]) == ["d", "expected_post_selection", "fidelity",
                                   "message", "passed", "phase_residual",
                                   "post_error", "post_selection_probability",
                                   "resolution_ok", "seed",
                                   "success_probability"]

    def test_cutoff_above_the_spectrum_fails_without_dividing_zero_by_zero(self):
        # mu = 5 exceeds every |eigenvalue| (<= gamma + 2), so both solves keep nothing
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = run_quantum_crosscheck(d=3, n_seeds=3, mu=5.0)
        assert caught
        assert {str(w.message) for w in caught} == {
            "every eigencomponent fell below the cutoff; nothing to invert"}
        assert all(np.isfinite(row["expected_post_selection"]) for row in rows)
        assert not any(row["passed"] for row in rows)

    def test_rows_are_seed_stable(self):
        a = run_quantum_crosscheck(d=2, n_seeds=2)
        b = run_quantum_crosscheck(d=2, n_seeds=2)
        assert a == b

    @pytest.mark.parametrize("name", ["d", "n_seeds"])
    @pytest.mark.parametrize("value", [2.0, 2.5, True])
    def test_rejects_counts_that_are_not_integers(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 1, got {value!r}$"):
            run_quantum_crosscheck(**{name: value})

    def test_rejects_large_systems(self):
        with pytest.raises(ValueError, match="desk-scale only"):
            run_quantum_crosscheck(d=8)

    @pytest.mark.parametrize("kwargs,message", [
        (dict(n_seeds=0), "n_seeds must be an integer >= 1"),
        (dict(gamma=float("nan")), "gamma must be positive"),
        (dict(mu=float("nan")), "mu must be >= 0"),
        (dict(mu=float("inf")), "mu must be >= 0"),
        (dict(mu=0.0), "mu must be positive"),
        (dict(n_seeds="3"), "n_seeds must be an integer >= 1"),
        (dict(d="3"), "d must be an integer >= 1"),
        (dict(d=0), "d must be an integer >= 1"),
    ])
    def test_rejects_bad_parameters(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            run_quantum_crosscheck(**kwargs)
