"""The simulated end-to-end recall pipeline on the saddle-point system."""
from dataclasses import replace

import numpy as np
import pytest

from hopfieldkit.experiments import synthetic_patterns
from hopfieldkit.hebbian import density, train
from hopfieldkit.inversion import discretize
from hopfieldkit.patterns import ClampSet, TrainingSet
from hopfieldkit.quantum import solver
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

    def test_density_matrix_source(self):
        report = qhop_solve(density(train(TS)), CLAMP, t_qubits=8)
        assert report.ok
        assert fidelity(report.x_register, TARGET) >= 0.99

    def test_registers_are_normalized_with_expected_widths(self):
        report = qhop_solve(TS, CLAMP, t_qubits=8)
        assert report.x_register.total_qubits == 1
        assert report.v_register.total_qubits == 2
        assert np.linalg.norm(report.x_register.amplitudes) == pytest.approx(1.0)
        assert np.linalg.norm(report.v_register.amplitudes) == pytest.approx(1.0)


class TestShots:
    def test_seeded_shot_rates_reproduce(self):
        r1 = qhop_solve(TS, CLAMP, t_qubits=8, shots=1000, rng_seed=5)
        r2 = qhop_solve(TS, CLAMP, t_qubits=8, shots=1000, rng_seed=5)
        assert r1.shot_success_rate == r2.shot_success_rate
        assert r1.shot_post_rate == r2.shot_post_rate
        assert r1.shots == 1000

    def test_shot_rates_track_exact_probabilities(self):
        report = qhop_solve(TS, CLAMP, t_qubits=8, shots=200_000, rng_seed=9)
        assert report.shot_success_rate == pytest.approx(
            report.success_probability, abs=5e-4)

    def test_no_shots_by_default(self):
        report = qhop_solve(TS, CLAMP, t_qubits=8)
        assert report.shots is None
        assert report.shot_success_rate is None

    def test_rejects_nonpositive_shots(self):
        with pytest.raises(ValueError, match="shots must be >= 1"):
            qhop_solve(TS, CLAMP, t_qubits=8, shots=0)

    def test_rejects_bad_shots_before_simulating(self):
        # mu = 4 filters every eigencomponent, so that run fails before it samples
        for mu in (0.05, 4.0):
            for shots in (0, -5, 2.5):
                with pytest.raises(ValueError, match="shots must be >= 1"):
                    qhop_solve(TS, CLAMP, t_qubits=8, mu=mu, shots=shots)


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
            flipped = QuantumRegister(-report.x_register.amplitudes,
                                      report.x_register.layout)
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
