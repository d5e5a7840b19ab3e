"""The simulated end-to-end recall pipeline on the saddle-point system."""
import itertools
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from dense_saddle import exact_evolution, padded_a
from hopfieldkit.experiments import synthetic_patterns
from hopfieldkit.inversion import _ridge_block, discretize
from hopfieldkit.patterns import ClampSet, HopfieldWarning, TrainingSet
from hopfieldkit.quantum import solver
from hopfieldkit.quantum.evolution import assemble_quantum_a
from hopfieldkit.quantum.register import QuantumRegister, embed_w
from hopfieldkit.quantum.solver import QhopReport, qhop_recall, qhop_solve

TS = TrainingSet([[1.0, 1.0]])
CLAMP = ClampSet(np.array([1.0, 0.0]))
# classical solution of the worked two-neuron system: x = (1, 0.5)
TARGET = np.array([2.0, 1.0]) / np.sqrt(5.0)
EXPECTED_POST = 1.25 / 1.8125  # |x|^2 / (|x|^2 + |lambda|^2)


def fidelity(register, target):
    return float(np.abs(np.vdot(register.amplitudes, target)))


class TestWorkedSystem:
    def test_reference_mode_recovers_classical_solution(self):
        report = qhop_solve(TS, CLAMP, t_qubits=8)
        assert report.ok
        assert report.message == ""
        assert fidelity(report.x_register, TARGET) >= 0.99
        assert abs(report.post_selection_probability - EXPECTED_POST) <= 0.02
        assert report.mode == "reference"
        assert report.w_norm == pytest.approx(1.0)

    def test_scale_and_filter_bookkeeping(self):
        report = qhop_solve(TS, CLAMP, t_qubits=9)
        # spectral bound gamma + 2 = 3 sets the evolution time scale
        assert report.t0 == pytest.approx(np.pi / 3.0)
        # bins inside (-mu, mu) are filtered out: 9 of the 512 here
        assert report.kept_bins == 503
        assert report.resolution_ok

    def test_phase_register_uncomputes_within_resolution_limits(self):
        report = qhop_solve(TS, CLAMP, t_qubits=9)
        # the eigenphases of this instance sit off the T=9 grid, which
        # caps how cleanly the register returns to zero
        assert 0.0 <= report.phase_residual <= 0.05
        assert abs(report.post_selection_probability - EXPECTED_POST) <= 0.002

    def test_discretized_output_is_the_stored_pattern(self):
        report = qhop_solve(TS, CLAMP, t_qubits=8)
        np.testing.assert_array_equal(
            discretize(report.x_register.amplitudes.real), [1.0, 1.0])

    def test_trotter_mode_matches_reference(self):
        report = qhop_solve(TS, CLAMP, t_qubits=8, mode="trotter")
        assert report.ok
        assert report.mode == "trotter"
        assert fidelity(report.x_register, TARGET) >= 0.99
        assert abs(report.post_selection_probability - EXPECTED_POST) <= 0.02

    def test_registers_are_normalized_with_expected_widths(self):
        report = qhop_solve(TS, CLAMP, t_qubits=8)
        assert report.x_register.total_qubits == 1
        assert np.linalg.norm(report.x_register.amplitudes) == pytest.approx(1.0)


class _ExactPowers:
    """An evolution whose product formula is replaced by the exact e^{iAt} of the padded A.

    qhop_solve in trotter mode then runs the circuit, dense controlled
    powers of U(t0) on the full register, with no splitting error; A is
    built from its definition (dense_saddle.padded_a), padding included.
    """

    def __init__(self, source, clamp, gamma):
        self._inner = assemble_quantum_a(source, clamp, gamma)
        self._a = padded_a(source, clamp, gamma)

    def __call__(self, t):
        return exact_evolution(self._a, t)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def eigenbasis_instances():
    """(store, clamp, kwargs) over gamma in {0.3, 1, 2} and mu in {0.02, 0.05, 0.2}.

    The clamps are the 13 at d = 16, then padded d = 3, 5 and 9 with
    theta != 0. At d = 9, d_pad = 16: 7 padding rows, still 16 qubits at
    T = 9, the most that reference mode drops and trotter mode simulates.
    """
    cases = []
    ts = synthetic_patterns(16, 4, 0)
    for l in range(2, 15):
        known = np.sort(np.random.default_rng(l).permutation(16)[:l]) + 1
        cases.append((ts, ClampSet.from_pattern(ts.patterns[0], tuple(int(i) for i in known)),
                      None))
    for d in (3, 5, 9):
        ts = synthetic_patterns(d, 2, 0)
        rng = np.random.default_rng(d)
        for l in range(1, d + 1):
            known = np.sort(rng.permutation(d)[:l]) + 1
            clamp = ClampSet.from_pattern(ts.patterns[0], tuple(int(i) for i in known))
            cases.append((ts, clamp, 0.1 * rng.normal(size=d)))
    for gamma, mu in itertools.product((0.3, 1.0, 2.0), (0.02, 0.05, 0.2)):
        for ts, clamp, theta in cases:
            yield ts, clamp, {"theta": theta, "gamma": gamma, "mu": mu}


class TestEigenbasisCircuit:
    def test_matches_the_dense_power_circuit(self, monkeypatch):
        for ts, clamp, kwargs in eigenbasis_instances():
            fast = qhop_solve(ts, clamp, **kwargs)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "assemble_quantum_a", _ExactPowers)
                dense = qhop_solve(ts, clamp, mode="trotter", **kwargs)
            assert fast.ok == dense.ok, (clamp.values, kwargs)
            if not fast.ok:
                continue
            x_fast, x_dense = fast.x_register.amplitudes, dense.x_register.amplitudes
            gaps = {"x_register": np.linalg.norm(x_fast - x_dense) / np.linalg.norm(x_dense)}
            for name in ("success_probability", "post_selection_probability"):
                gaps[name] = abs(getattr(fast, name) / getattr(dense, name) - 1.0)
            # phase_residual is 1 minus the phase-zero weight; its rounding is
            # relative to that weight, not to the small residual left over
            gaps["phase_residual"] = (abs(fast.phase_residual - dense.phase_residual)
                                      / (1.0 - dense.phase_residual))
            assert max(gaps.values()) <= 1e-12, (clamp.values, kwargs, gaps)

    def test_inactive_coordinates_stay_exactly_zero(self):
        # reference mode filters the eigencomponents of the unpadded block;
        # the padded A adds only decoupled rows (-gamma' on the top padding,
        # zero on the unclamped multipliers) on which |w> is zero, and the
        # closed form writes nothing there
        for ts, clamp, kwargs in eigenbasis_instances():
            a = padded_a(ts, clamp, kwargs["gamma"])
            d, d_pad = ts.d, len(a) // 2
            block, active = _ridge_block(ts, clamp.mask(), kwargs["gamma"])
            logical = np.concatenate([np.arange(d), d_pad + np.flatnonzero(clamp.mask())])
            np.testing.assert_array_equal(active[d:] + d_pad - d, logical[d:])
            np.testing.assert_allclose(block, a[np.ix_(logical, logical)], rtol=0, atol=1e-15)
            rest = np.setdiff1d(np.arange(len(a)), logical)
            assert rest.size == 2 * d_pad - d - clamp.l
            np.testing.assert_array_equal(a[np.ix_(rest, logical)], 0.0)
            np.testing.assert_array_equal(a[np.ix_(rest, rest)],
                                          np.diag(np.diag(a)[rest]))
            np.testing.assert_array_equal(embed_w(kwargs["theta"], clamp)[0].amplitudes[rest],
                                          0.0)
            report = qhop_solve(ts, clamp, **kwargs)
            if report.ok:
                np.testing.assert_array_equal(report.x_register.amplitudes[d:], 0.0)


class TestRotationCache:
    def test_cached_arrays_are_read_only(self):
        keep, rot, _ = solver._rotation(9, np.pi / 3.0, 0.05)
        for cached in (keep, rot):
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = cached[1]

    def test_consecutive_runs_match_a_fresh_rotation(self, monkeypatch):
        # every setting is cached first, then each run changes mu, gamma or T
        # and must read its own entry, not the previous run's
        ts = synthetic_patterns(16, 4, 0)
        clamp = ClampSet.from_pattern(ts.patterns[0], (2, 5, 7, 11, 13))
        settings = list(itertools.product((0.5, 2.0), (0.05, 0.2), (8, 9)))
        for gamma, mu, t_qubits in settings:
            qhop_solve(ts, clamp, gamma=gamma, mu=mu, t_qubits=t_qubits)
        for gamma, mu, t_qubits in settings[::-1] + settings:
            cached = qhop_solve(ts, clamp, gamma=gamma, mu=mu, t_qubits=t_qubits)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_rotation", solver._rotation.__wrapped__)
                fresh = qhop_solve(ts, clamp, gamma=gamma, mu=mu, t_qubits=t_qubits)
            t0 = np.pi / (gamma + 2.0)
            kept = np.abs(solver.bin_eigenvalues(t_qubits, t0)) >= mu
            assert cached.kept_bins == fresh.kept_bins == int(kept.sum())
            for field in fields(QhopReport):
                a, b = getattr(cached, field.name), getattr(fresh, field.name)
                if isinstance(a, QuantumRegister):
                    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
                else:
                    assert a == b, field.name


class TestGuards:
    def test_qubit_budget_enforced(self):
        ts = TrainingSet([[1.0, 1.0, 1.0, -1.0]])
        clamp = ClampSet(np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="needs 17 qubits"):
            qhop_solve(ts, clamp, t_qubits=12)

    def test_budget_is_checked_before_the_evolution_is_built(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("an over-budget request built its evolution")

        monkeypatch.setattr(solver, "assemble_quantum_a", unreachable)
        ts = synthetic_patterns(1000, 20, 0)
        clamp = ClampSet.from_pattern(ts.patterns[0], (1, 2, 3))
        with pytest.raises(ValueError, match="needs 22 qubits"):
            qhop_solve(ts, clamp)

    def test_rejects_an_unknown_mode_before_the_budget(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("an unknown mode built its evolution")

        monkeypatch.setattr(solver, "assemble_quantum_a", unreachable)
        assert solver.MODES == ("reference", "trotter")
        over_budget = synthetic_patterns(1000, 20, 0)
        for ts in (TS, over_budget):
            clamp = ClampSet.from_pattern(ts.patterns[0], (1,))
            with pytest.raises(ValueError, match="unknown mode 'euler'"):
                qhop_solve(ts, clamp, mode="euler")

    def test_rejects_nonpositive_mu(self):
        for mu in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="mu must be positive"):
                qhop_solve(TS, CLAMP, mu=mu)

    def test_rejects_a_phase_register_without_qubits(self):
        for t_qubits in (0, -1, 2.0, None, True, np.float64(8.0)):
            with pytest.raises(ValueError, match="t_qubits must be an integer >= 1"):
                qhop_solve(TS, CLAMP, t_qubits=t_qubits)
        report = qhop_solve(TS, CLAMP, t_qubits=np.int64(8))
        assert report.t_qubits == 8 and type(report.t_qubits) is int

    def test_coarse_phase_grid_warns_and_flags(self):
        with pytest.warns(HopfieldWarning, match="coarser than the cutoff"):
            report = qhop_solve(TS, CLAMP, t_qubits=2)
        assert not report.resolution_ok

    def test_oversized_cutoff_filters_everything(self):
        with pytest.warns(HopfieldWarning, match="nothing to invert"):
            report = qhop_solve(TS, CLAMP, t_qubits=8, mu=4.0)
        assert not report.ok
        assert report.kept_bins == 0
        assert report.x_register is None
        assert report.success_probability == 0.0


    @pytest.mark.filterwarnings("ignore:phase resolution")
    def test_tiny_rotation_constant_is_named_as_the_cause(self):
        # 511 of 512 bins pass a cutoff of 1e-9, but C = mu scales the flag
        # amplitude down to ~1e-9, so the flag probability is ~1e-18
        clamp = ClampSet.from_pattern([1.0, 1.0], (1,))
        with pytest.warns(HopfieldWarning, match=r"flag probability .* C = mu = 1e-09"):
            report = qhop_solve(TrainingSet([[1.0, 1.0], [1.0, -1.0]]), clamp, mu=1e-9)
        assert not report.ok
        assert report.kept_bins == 511
        assert 0.0 < report.success_probability < 1e-14

    @pytest.mark.parametrize("back,message", [
        ([0.0, 0.0, 0.0, 0.0], "phase register failed to uncompute; no usable solution branch"),
        ([0.0, 0.0, 0.6, 0.8], "solution has no weight on the x block"),
    ], ids=["phase-register", "x-block"])
    def test_an_empty_branch_fails_with_one_warning(self, monkeypatch, back, message):
        # trotter mode reads the phase-zero branch from qpe_backward; these
        # stand-ins return it empty, or with weight only past the d_pad = 2
        # entries of the x block
        monkeypatch.setattr(solver, "qpe_backward",
                            lambda s, powers: np.array(back, dtype=complex))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = qhop_solve(TS, CLAMP, t_qubits=8, mode="trotter")
        assert [(w.category, str(w.message)) for w in caught] == [(HopfieldWarning, message)]
        assert not report.ok and report.message == message
        assert report.x_register is None
        assert report.phase_residual == 1.0


class TestRecall:
    STORE = TrainingSet([[1.0, -1.0, 1.0, 1.0], [1.0, 1.0, -1.0, 1.0]])
    PROBE = ClampSet(np.array([1.0, -1.0, 0.0, 0.0]))

    def test_global_sign_is_fixed_against_the_clamp(self, monkeypatch):
        expected, _ = qhop_recall(self.STORE, self.PROBE, t_qubits=8)
        np.testing.assert_array_equal(expected, self.STORE.patterns[0])

        def negated(*args, **kwargs):
            report = qhop_solve(*args, **kwargs)
            flipped = QuantumRegister(-report.x_register.amplitudes)
            return replace(report, x_register=flipped)

        monkeypatch.setattr(solver, "qhop_solve", negated)
        pattern, report = qhop_recall(self.STORE, self.PROBE, t_qubits=8)
        assert np.all(report.x_register.amplitudes.real[:2] * expected[:2] < 0)
        np.testing.assert_array_equal(pattern, expected)

    def test_failed_run_and_non_finite_mu_raise(self):
        with pytest.warns(HopfieldWarning, match="nothing to invert"):
            with pytest.raises(RuntimeError, match="quantum recall failed"):
                qhop_recall(TS, CLAMP, mu=4.0, t_qubits=8)
        for mu in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="mu must be >= 0"):
                qhop_recall(TS, CLAMP, mu=mu)


class TestTrace:
    def test_trace_file_records_every_stage(self, tmp_path):
        path = tmp_path / "pipeline.csv"
        qhop_solve(TS, CLAMP, t_qubits=8, trace_path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,subregister,norm,top_amplitudes"
        steps = [line.split(",")[0] for line in lines[1:]]
        assert steps == ["embed_w", "phase_estimate", "rotation", "uncompute",
                         "postselect_flag", "postselect_block"]

    def test_uncompute_row_reports_the_phase_zero_branch(self, tmp_path):
        path = tmp_path / "pipeline.csv"
        report = qhop_solve(TS, CLAMP, t_qubits=8, trace_path=path)
        row = path.read_text().splitlines()[4].split(",")
        assert row[:2] == ["uncompute", "phase=0"]
        # |phase-zero branch|^2 is the flag weight that returned to |0...0>
        assert float(row[2]) ** 2 == pytest.approx(
            report.success_probability * (1.0 - report.phase_residual), rel=1e-9)

    def test_trace_prints_real_parts_only(self, tmp_path):
        # the imaginary parts of reference-mode amplitudes are rounding
        # noise; printing them would tie the trace bytes to the arithmetic
        path = tmp_path / "pipeline.csv"
        ts = synthetic_patterns(16, 4, 0)
        qhop_solve(ts, ClampSet.from_pattern(ts.patterns[0], (1, 2, 3, 4)), trace_path=path)
        assert "j" not in path.read_text()

    def test_amplitudes_that_agree_to_rounding_list_by_index(self):
        # moduli 1 ulp apart list in index order, and a rounding-level entry
        # prints as 0, so reordered arithmetic leaves the trace bytes alone
        vec = np.array([0.3, 0.5, np.nextafter(0.5, 1.0), 1e-17, -0.2])
        assert solver._top_amplitudes(vec) == "1:0.5 2:0.5 0:0.3 4:-0.2 3:0"

    def test_no_trace_rows_are_formatted_without_a_path(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("trace rows formatted with no trace path")

        monkeypatch.setattr(solver, "_top_amplitudes", unreachable)
        assert qhop_solve(TS, CLAMP, t_qubits=8).ok

    def test_failed_run_still_traces(self, tmp_path):
        path = tmp_path / "failed.csv"
        with pytest.warns(HopfieldWarning, match="nothing to invert"):
            qhop_solve(TS, CLAMP, t_qubits=8, mu=4.0, trace_path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,subregister,norm,top_amplitudes"
        assert len(lines) >= 4
