"""Command-line entry points, exercised through main(argv)."""
import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hopfieldkit
from hopfieldkit.cli import _parse_float_grid, _parse_grid, main
from hopfieldkit.experiments import ExperimentConfig, ingest
from hopfieldkit.hebbian import load_matrix_csv, train

SYNTH = ["--format", "synthetic", "--d", "8", "--m", "2"]


def probe_file(tmp_path, text="1 0 0 0 0 0 0 0\n"):
    path = tmp_path / "probe.txt"
    path.write_text(text)
    return str(path)


class TestParseGrid:
    def test_range_form_is_inclusive(self):
        assert _parse_grid("1:4") == (1, 2, 3, 4)
        assert _parse_grid("3:3") == (3,)

    def test_comma_form(self):
        assert _parse_grid("5,2,9") == (5, 2, 9)
        assert _parse_float_grid("0.01,1.0") == (0.01, 1.0)

    def test_bad_input(self):
        with pytest.raises(argparse.ArgumentTypeError, match="empty range"):
            _parse_grid("5:1")
        with pytest.raises(argparse.ArgumentTypeError, match="bad grid"):
            _parse_grid("a,b")
        with pytest.raises(argparse.ArgumentTypeError, match="bad grid"):
            _parse_float_grid("x")


class TestTrain:
    def test_writes_a_loadable_matrix(self, tmp_path, capsys):
        out = tmp_path / "weights.csv"
        assert main(["train", *SYNTH, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "trained m=2 patterns, d=8" in stdout
        assert "spectral norm" in stdout

        cfg = ExperimentConfig(l_grid=(1,), d=8, m=2, data_format="synthetic")
        expected = train(ingest(cfg)).w
        np.testing.assert_array_equal(load_matrix_csv(out), expected)


class TestRecall:
    @pytest.mark.parametrize("method,diagnostic", [
        ("iterative", "converged="),
        ("inversion", "certified="),
    ])
    def test_classical_methods_print_a_sign_pattern(self, tmp_path, capsys,
                                                    method, diagnostic):
        code = main(["recall", *SYNTH, "--pattern", probe_file(tmp_path),
                     "--method", method])
        captured = capsys.readouterr()
        assert code == 0
        assert diagnostic in captured.err
        values = captured.out.split()
        assert len(values) == 8
        assert set(values) <= {"-1", "1"}

    def test_quantum_method_on_a_desk_scale_store(self, tmp_path, capsys):
        data = tmp_path / "store.txt"
        data.write_text("1 1\n1 1\n")
        code = main(["recall", "--data", str(data), "--format", "patterns",
                     "--d", "2", "--m", "2",
                     "--pattern", probe_file(tmp_path, "1 0\n"),
                     "--method", "quantum"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "1 1"
        assert "success_p=" in captured.err

    def test_quantum_zero_mu_prints_what_the_default_cutoff_prints(self, tmp_path, capsys):
        args = ["recall", *SYNTH, "--pattern", probe_file(tmp_path, "1 0 0 -1 0 1 0 0\n"),
                "--method", "quantum"]
        outputs = []
        for mu in ("0", "0.05"):
            assert main([*args, "--mu", mu]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0].out == outputs[1].out
        assert outputs[0].err == outputs[1].err
        assert "success_p=" in outputs[0].err

    def test_result_goes_to_out_file_when_asked(self, tmp_path, capsys):
        out = tmp_path / "result.txt"
        code = main(["recall", *SYNTH, "--pattern", probe_file(tmp_path),
                     "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert set(out.read_text().split()) <= {"-1", "1"}

    def test_uncertified_inversion_reports_and_exits_cleanly(self, tmp_path):
        # Bundled fixture, |W| = 0.115: at gamma = 0.05 with three neurons
        # known, gamma I - W on the 97 unknown neurons is indefinite.
        ts = ingest(ExperimentConfig(l_grid=(1,)))
        probe = np.zeros(100)
        probe[[4, 50, 91]] = ts.patterns[0][[4, 50, 91]]
        free = probe == 0
        w = train(ts).w
        assert np.min(np.linalg.eigvalsh(0.05 * np.eye(97) - w[np.ix_(free, free)])) < 0
        path = probe_file(tmp_path, " ".join(str(int(v)) for v in probe) + "\n")
        env = dict(os.environ, PYTHONPATH=str(Path(hopfieldkit.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "hopfieldkit.cli", "recall", "--pattern", path,
             "--method", "inversion", "--gamma", "0.05"],
            capture_output=True, text=True, env=env, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr
        values = proc.stdout.split()
        assert len(values) == 100
        assert set(values) <= {"-1", "1"}
        assert "certified=False" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_all_zero_probe_is_an_error(self, tmp_path, capsys):
        code = main(["recall", *SYNTH,
                     "--pattern", probe_file(tmp_path, "0 0 0 0 0 0 0 0\n")])
        assert code == 1
        assert "error: probe clamps nothing" in capsys.readouterr().err

    def test_multi_line_probe_is_an_error(self, tmp_path, capsys):
        code = main(["recall", *SYNTH,
                     "--pattern", probe_file(tmp_path, "1 0 0 0 0 0 0 0\n" * 2)])
        assert code == 1
        assert "expected a single probe line, found 2" in capsys.readouterr().err

    def test_probe_length_must_match_training(self, tmp_path, capsys):
        code = main(["recall", *SYNTH,
                     "--pattern", probe_file(tmp_path, "1 0\n")])
        assert code == 1
        assert "probe has 2 entries, trained d=8" in capsys.readouterr().err


class TestExperimentCommands:
    CURVE = ["experiment", "recovery-curve", *SYNTH,
             "--l-grid", "1:3", "--units", "neurons", "--reps", "2"]

    def test_curve_writes_csv_to_stdout(self, capsys):
        assert main(self.CURVE) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "l,mean_hamming,stderr,reps"
        assert len(lines) == 4
        assert [row.split(",")[0] for row in lines[1:]] == ["1", "2", "3"]

    def test_curve_out_files_are_reproducible(self, tmp_path, capsys):
        blobs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main([*self.CURVE, "--out", str(out)]) == 0
            assert f"wrote 3 points to {out}" in capsys.readouterr().out
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_sweep_writes_gamma_rows(self, capsys):
        code = main(["experiment", "gamma-sweep", *SYNTH,
                     "--l-grid", "3", "--units", "neurons", "--reps", "2",
                     "--gamma-grid", "0.5,1.0"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "gamma,mean_hamming,stderr,reps"
        assert [row.split(",")[0] for row in lines[1:]] == ["0.5", "1"]

    def test_missing_data_file_is_reported(self, tmp_path, capsys):
        code = main(["experiment", "recovery-curve",
                     "--data", str(tmp_path / "absent.fasta"),
                     "--l-grid", "1", "--reps", "1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestQcheck:
    def test_passing_run(self, capsys):
        assert main(["qcheck", "--d", "2", "--seeds", "2"]) == 0
        stdout = capsys.readouterr().out
        assert "PASS: all 2 instances within tolerance" in stdout
        assert stdout.startswith("seed  fidelity")

    @pytest.mark.filterwarnings("ignore:phase resolution")
    def test_coarse_phase_register_fails(self, capsys):
        assert main(["qcheck", "--t-phase", "2", "--seeds", "1"]) == 1
        assert "FAIL" in capsys.readouterr().out


# Outputs of the quantum pipeline, pinned byte for byte: the recovery curve
# is discretized and qcheck prints six digits, so rounding-level changes to
# the simulation must leave both unchanged.
QUANTUM_CURVE_CSV = """\
l,mean_hamming,stderr,reps
1,3.75,0.5185655758,40
2,2.5,0.2347939631,40
3,1.875,0.2031404087,40
4,1.375,0.1814736684,40
5,0.875,0.1484427715,40
6,0.75,0.1327712511,40
7,0.525,0.1239701163,40
8,0.65,0.126845353,40
9,0.425,0.1067437622,40
10,0.25,0.0780368092,40
11,0.1,0.04803844614,40
12,0.05,0.05,40
13,0,0,40
14,0,0,40
"""

QCHECK_D4_STDOUT = """\
seed  fidelity  post_p    expected  residual  status
   0  0.999999  0.516617  0.515880  1.44e-02  pass
   1  0.999996  0.527827  0.527436  1.99e-02  pass
   2  1.000000  0.683845  0.683127  5.05e-03  pass
   3  0.999997  0.649760  0.649857  1.77e-02  pass
   4  1.000000  0.400171  0.400677  2.80e-02  pass
   5  1.000000  0.440675  0.440326  4.27e-03  pass
   6  0.999996  0.587673  0.587514  1.85e-02  pass
   7  1.000000  0.604183  0.603674  3.54e-02  pass
   8  0.999998  0.659995  0.659677  2.06e-02  pass
   9  1.000000  0.511949  0.511541  3.53e-02  pass
PASS: all 10 instances within tolerance
"""


class TestQuantumGoldens:
    def test_quantum_recovery_curve(self, capsys):
        assert main(["experiment", "recovery-curve", "--method", "quantum",
                     "--format", "synthetic", "--d", "16", "--m", "4",
                     "--units", "neurons", "--l-grid", "1:14", "--reps", "40"]) == 0
        assert capsys.readouterr().out == QUANTUM_CURVE_CSV

    def test_qcheck_d4(self, capsys):
        assert main(["qcheck", "--d", "4"]) == 0
        assert capsys.readouterr().out == QCHECK_D4_STDOUT

    def test_over_budget_quantum_recall_is_a_clean_error(self, tmp_path):
        # d = 1000 needs 22 qubits; the budget check comes before any d x d work
        path = probe_file(tmp_path, " ".join(["1"] * 3 + ["0"] * 997) + "\n")
        env = dict(os.environ, PYTHONPATH=str(Path(hopfieldkit.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "hopfieldkit.cli", "recall", "--method", "quantum",
             "--format", "synthetic", "--d", "1000", "--m", "20", "--pattern", path],
            capture_output=True, text=True, env=env, timeout=120, check=False)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: needs 22 qubits")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


class TestNonFiniteParameters:
    @pytest.mark.parametrize("args,message", [
        (["recall", "--mu", "nan"], "mu must be >= 0"),
        (["recall", "--mu", "inf"], "mu must be >= 0"),
        (["recall", "--method", "quantum", "--mu", "nan"], "mu must be >= 0"),
        (["recall", "--gamma", "inf"], "gamma must be positive"),
        (["recall", "--gamma", "nan"], "gamma must be positive"),
        (["experiment", "recovery-curve", "--gamma", "nan"], "gamma must be positive"),
        (["experiment", "recovery-curve", "--mu", "nan"], "mu must be >= 0"),
        (["experiment", "gamma-sweep", "--gamma-grid", "1,nan"], "gamma grid must be non-empty"),
        (["qcheck", "--gamma", "nan"], "gamma must be positive"),
        (["qcheck", "--mu", "inf"], "mu must be >= 0"),
        (["qcheck", "--seeds", "0"], "n_seeds must be >= 1"),
        (["recall", "--method", "quantum", "--t-phase", "0"], "t_qubits must be an integer >= 1"),
        (["recall", "--method", "quantum", "--t-phase", "-1"], "t_qubits must be an integer >= 1"),
        (["qcheck", "--t-phase", "0"], "t_qubits must be an integer >= 1"),
        (["experiment", "recovery-curve", "--method", "quantum", "--t-phase", "0"],
         "t_qubits must be an integer >= 1"),
        (["qcheck", "--d", "0"], "cross-check is desk-scale only"),
        (["qcheck", "--d", "-1"], "cross-check is desk-scale only"),
    ])
    def test_exit_with_a_clean_error_line(self, tmp_path, capsys, args, message):
        if args[0] == "recall":
            args = [*args, *SYNTH, "--pattern", probe_file(tmp_path)]
        elif args[0] == "experiment":
            args = [*args, *SYNTH, "--l-grid", "2", "--units", "neurons", "--reps", "1"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


class TestArgumentErrors:
    def test_reversed_grid_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["experiment", "recovery-curve", "--l-grid", "5:1"])

    def test_command_is_required(self):
        with pytest.raises(SystemExit):
            main([])
