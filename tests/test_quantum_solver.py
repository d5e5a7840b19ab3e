"""The simulated end-to-end recall pipeline on the saddle-point system."""
from dataclasses import replace

import numpy as np
import pytest

from hopfieldkit.experiments import synthetic_patterns
from hopfieldkit.inversion import discretize
from hopfieldkit.patterns import ClampSet, TrainingSet
from hopfieldkit.quantum import solver
from hopfieldkit.quantum.evolution import BlockSplitEvolution
from hopfieldkit.quantum.register import QuantumRegister
from hopfieldkit.quantum.solver import qhop_recall, qhop_solve

TS = TrainingSet([[1.0, 1.0]])
CLAMP = ClampSet((1,), np.array([1.0, 0.0]))
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
        assert report.v_register.total_qubits == 2
        assert np.linalg.norm(report.x_register.amplitudes) == pytest.approx(1.0)
        assert np.linalg.norm(report.v_register.amplitudes) == pytest.approx(1.0)


class _DensePowers:
    """A reference evolution with its eigenbasis hidden.

    qhop_solve then runs the dense controlled powers of U(t0) = evo(t0) on
    the full register, as it does in trotter mode.
    """

    eigenbasis = None

    def __init__(self, inner):
        self._inner = inner

    def __call__(self, t):
        return self._inner(t)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def eigenbasis_instances():
    """(store, clamp, theta): the 13 d = 16 clamps, then padded d = 3 and 5 with theta != 0."""
    ts = synthetic_patterns(16, 4, 0)
    for l in range(2, 15):
        known = np.sort(np.random.default_rng(l).permutation(16)[:l]) + 1
        yield ts, ClampSet.from_pattern(ts.patterns[0], tuple(int(i) for i in known)), None
    for d in (3, 5):
        ts = synthetic_patterns(d, 2, 0)
        rng = np.random.default_rng(d)
        for l in range(1, d + 1):
            known = np.sort(rng.permutation(d)[:l]) + 1
            clamp = ClampSet.from_pattern(ts.patterns[0], tuple(int(i) for i in known))
            yield ts, clamp, 0.1 * rng.normal(size=d)


class TestEigenbasisCircuit:
    def test_matches_the_dense_power_circuit(self, monkeypatch):
        build = solver.assemble_quantum_a
        for ts, clamp, theta in eigenbasis_instances():
            fast = qhop_solve(ts, clamp, theta=theta)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "assemble_quantum_a",
                              lambda *args, **kwargs: _DensePowers(build(*args, **kwargs)))
                dense = qhop_solve(ts, clamp, theta=theta)
            assert fast.ok and dense.ok
            x_fast, x_dense = fast.x_register.amplitudes, dense.x_register.amplitudes
            gaps = {"x_register": np.linalg.norm(x_fast - x_dense) / np.linalg.norm(x_dense)}
            for name in ("success_probability", "post_selection_probability"):
                gaps[name] = abs(getattr(fast, name) / getattr(dense, name) - 1.0)
            # phase_residual is 1 minus the phase-zero weight; its rounding is
            # relative to that weight, not to the small residual left over
            gaps["phase_residual"] = (abs(fast.phase_residual - dense.phase_residual)
                                      / (1.0 - dense.phase_residual))
            assert max(gaps.values()) <= 1e-12, (clamp.d, clamp.indices, gaps)

    def test_inactive_coordinates_stay_exactly_zero(self):
        for ts, clamp, theta in eigenbasis_instances():
            report = qhop_solve(ts, clamp, theta=theta)
            evo = BlockSplitEvolution(ts, clamp, 1.0)
            inactive = np.setdiff1d(np.arange(evo.dim), evo.eigenbasis.active)
            assert inactive.size == evo.dim - evo.d_pad - len(clamp.indices)
            np.testing.assert_array_equal(report.v_register.amplitudes[inactive], 0.0)


class TestGuards:
    def test_qubit_budget_enforced(self):
        ts = TrainingSet([[1.0, 1.0, 1.0, -1.0]])
        clamp = ClampSet((1,), np.array([1.0, 0.0, 0.0, 0.0]))
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

    def test_rejects_nonpositive_mu(self):
        for mu in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="mu must be positive"):
                qhop_solve(TS, CLAMP, mu=mu)

    def test_rejects_a_phase_register_without_qubits(self):
        for t_qubits in (0, -1, 2.0, None):
            with pytest.raises(ValueError, match="t_qubits must be an integer >= 1"):
                qhop_solve(TS, CLAMP, t_qubits=t_qubits)

    def test_coarse_phase_grid_warns_and_flags(self):
        with pytest.warns(RuntimeWarning, match="coarser than the cutoff"):
            report = qhop_solve(TS, CLAMP, t_qubits=2)
        assert not report.resolution_ok

    def test_oversized_cutoff_filters_everything(self):
        with pytest.warns(RuntimeWarning, match="nothing to invert"):
            report = qhop_solve(TS, CLAMP, t_qubits=8, mu=4.0)
        assert not report.ok
        assert report.kept_bins == 0
        assert report.x_register is None
        assert report.success_probability == 0.0


class TestRecall:
    STORE = TrainingSet([[1.0, -1.0, 1.0, 1.0], [1.0, 1.0, -1.0, 1.0]])
    PROBE = ClampSet((1, 2), np.array([1.0, -1.0, 0.0, 0.0]))

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
        with pytest.warns(RuntimeWarning, match="nothing to invert"):
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
        with pytest.warns(RuntimeWarning, match="nothing to invert"):
            qhop_solve(TS, CLAMP, t_qubits=8, mu=4.0, trace_path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,subregister,norm,top_amplitudes"
        assert len(lines) >= 4
