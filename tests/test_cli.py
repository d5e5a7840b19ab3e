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
from hopfieldkit.experiments import ExperimentConfig, ingest, synthetic_patterns
from hopfieldkit.hebbian import train

try:
    import resource
except ImportError:  # not on Windows
    resource = None

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
        assert out.read_text().splitlines()[0] == "d=8"
        np.testing.assert_array_equal(np.loadtxt(out, delimiter=",", skiprows=1), expected)

    def test_synthetic_store_at_odd_d(self, tmp_path, capsys):
        out = tmp_path / "weights.csv"
        assert main(["train", "--format", "synthetic", "--d", "5", "--out", str(out)]) == 0
        assert "d=5" in capsys.readouterr().out
        assert out.read_text().splitlines()[0] == "d=5"
        assert np.loadtxt(out, delimiter=",", skiprows=1).shape == (5, 5)


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

    @pytest.mark.parametrize("method", ["inversion", "iterative", "quantum"])
    def test_pattern_file_store_at_odd_d(self, tmp_path, capsys, method):
        data = tmp_path / "store.txt"
        data.write_text("1 -1 1 -1 1\n1 1 -1 -1 1\n")
        code = main(["recall", "--data", str(data), "--format", "patterns",
                     "--d", "5", "--m", "2",
                     "--pattern", probe_file(tmp_path, "1 -1 0 0 0\n"),
                     "--method", method])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.out == "1 -1 1 -1 1\n"

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

    def run_quantum_on_store5(self, tmp_path, *flags):
        """recall --method quantum on a d = 5 pattern-file store, in a fresh interpreter."""
        data = tmp_path / "store.txt"
        data.write_text("1 -1 1 -1 1\n1 1 -1 -1 1\n")
        env = dict(os.environ, PYTHONPATH=str(Path(hopfieldkit.__file__).parents[1]))
        env.pop("PYTHONWARNINGS", None)
        return subprocess.run(
            [sys.executable, "-m", "hopfieldkit.cli", "recall", "--data", str(data),
             "--format", "patterns", "--d", "5", "--m", "2",
             "--pattern", probe_file(tmp_path, "1 -1 0 0 0\n"), "--method", "quantum", *flags],
            capture_output=True, text=True, env=env, timeout=120, check=False)

    def test_failed_quantum_recall_is_one_error_line(self, tmp_path):
        # a cutoff above every bin eigenvalue (|mu~| <= gamma + 2 = 3) leaves
        # nothing to invert; the failure's warning is not echoed before it
        proc = self.run_quantum_on_store5(tmp_path, "--mu", "5")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == ("error: quantum recall failed: every eigencomponent fell "
                               "below the cutoff; nothing to invert\n")

    def test_coarse_phase_grid_warns_on_one_line(self, tmp_path):
        proc = self.run_quantum_on_store5(tmp_path, "--mu", "0.0001")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "1 -1 1 -1 1\n"
        lines = proc.stderr.splitlines()
        assert len(lines) == 2, proc.stderr
        assert lines[0].startswith("success_p=")
        assert lines[1] == ("warning: phase resolution 0.0117 is coarser than the cutoff "
                            "mu=0.0001; filtering is unreliable at T=9")

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

    def test_trotter_mode_passes(self, capsys):
        # the one end-to-end run of the B + C + D product formula
        assert main(["qcheck", "--d", "4", "--mode", "trotter"]) == 0
        assert "PASS: all 10 instances within tolerance" in capsys.readouterr().out

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

# d = 3 pads to 4: the top padding coordinate is part of the evolved block,
# the bottom padding is not
QCHECK_D3_STDOUT = """\
seed  fidelity  post_p    expected  residual  status
   0  1.000000  0.656344  0.657079  3.94e-02  pass
   1  1.000000  0.403676  0.403100  3.47e-02  pass
   2  1.000000  0.596186  0.596864  3.91e-02  pass
   3  0.999998  0.571245  0.571192  3.13e-02  pass
   4  1.000000  0.689475  0.690016  3.93e-02  pass
   5  0.999998  0.616475  0.616236  3.09e-02  pass
   6  1.000000  0.579449  0.579906  3.89e-02  pass
   7  0.999997  0.543883  0.543305  3.05e-02  pass
   8  1.000000  0.627582  0.628121  3.91e-02  pass
   9  0.999998  0.579330  0.579240  3.17e-02  pass
  10  1.000000  0.775289  0.774952  4.55e-02  pass
  11  0.999997  0.559643  0.559301  3.19e-02  pass
  12  1.000000  0.456838  0.457254  3.87e-02  pass
  13  1.000000  0.415027  0.414492  2.42e-02  pass
  14  1.000000  0.361487  0.361039  3.43e-02  pass
  15  1.000000  0.465866  0.465199  2.30e-02  pass
  16  0.999998  0.636011  0.635684  3.13e-02  pass
  17  0.999998  0.530242  0.530266  3.21e-02  pass
  18  1.000000  0.538591  0.538881  3.88e-02  pass
  19  1.000000  0.481391  0.481904  3.88e-02  pass
PASS: all 20 instances within tolerance
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

    def test_qcheck_d3_padded(self, capsys):
        assert main(["qcheck", "--d", "3", "--seeds", "20"]) == 0
        assert capsys.readouterr().out == QCHECK_D3_STDOUT

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


# Outputs of the classical engines on the bundled fixture, pinned byte for
# byte. The gamma sweep crosses gamma = 0.05, where some reduced blocks are
# singular and take the eigen fallback; the curves' left ends are decided by
# the tie rule. The iterative curve was generated with the exact-integer
# plain loop of test_iterative.exact_reference_recall in place of the engine.
GAMMA_SWEEP_CSV = """\
gamma,mean_hamming,stderr,reps
0.01,45.704,0.1471667151,1000
0.05,26.263,0.2780020074,1000
0.1,0.007,0.007,1000
"""

INVERSION_CURVE_CSV = """\
l,mean_hamming,stderr,reps
1,32.5,0.4224242075,200
2,22.06,0.5399906941,200
3,15.505,0.5757231633,200
4,11.875,0.5454672747,200
5,9.265,0.5138522117,200
6,6.535,0.4729293667,200
7,4.905,0.3859073691,200
8,3.95,0.3474060373,200
9,2.465,0.2773599062,200
10,1.88,0.2569202993,200
"""

ITERATIVE_CURVE_CSV = """\
l,mean_hamming,stderr,reps
1,58.66666667,1.808875521,30
2,56.33333333,1.808875521,30
3,54,1.254875549,30
4,52.66666667,1.262485537,30
5,51.33333333,1.375761719,30
6,50.33333333,0.7555668243,30
7,48,1.236420492,30
8,47.33333333,1.262485537,30
9,48.5,1.461183586,30
10,44.5,1.38443731,30
"""


# The benchmark's curves and a sweep at seed 1, pinned byte for byte over
# the whole grid: every cell replays the same repetition streams.
FIXTURE_INVERSION_CURVE_CSV = """\
l,mean_hamming,stderr,reps
1,32.15,1.451451179,20
2,23.45,2.008501667,20
3,16.3,1.623997667,20
4,13.6,1.469693846,20
5,8.75,1.809150717,20
6,6.25,1.445273604,20
7,6.5,1.666228012,20
8,4,1.063756996,20
9,2.35,0.85,20
10,1.75,0.8331140062,20
11,2.75,0.7876514057,20
12,0.45,0.3118282253,20
13,1.2,0.7560284038,20
14,0.25,0.25,20
15,0.5,0.3441236008,20
16,0.45,0.3118282253,20
17,0,0,20
18,0,0,20
19,0.25,0.25,20
20,0.2,0.2,20
21,0,0,20
22,0,0,20
23,0,0,20
24,0,0,20
25,0,0,20
26,0,0,20
27,0,0,20
28,0,0,20
29,0,0,20
30,0,0,20
31,0,0,20
32,0,0,20
33,0,0,20
34,0,0,20
35,0,0,20
36,0,0,20
37,0,0,20
38,0,0,20
39,0,0,20
40,0,0,20
41,0,0,20
42,0,0,20
43,0,0,20
44,0,0,20
45,0,0,20
46,0,0,20
47,0,0,20
48,0,0,20
49,0,0,20
50,0,0,20
"""

FIXTURE_ITERATIVE_PLUS_CURVE_CSV = """\
l,mean_hamming,stderr,reps
1,60,2.188987589,16
2,56.25,2.165063509,16
3,54.6875,1.961544353,16
4,52.5,1.290994449,16
5,54.6875,2.348259551,16
6,55.3125,2.67973685,16
7,53.75,2.47907913,16
8,50.625,1.760385848,16
9,47.8125,1.204916145,16
10,44.375,3.057606635,16
11,45.625,2.617051458,16
12,42.5,2.282177323,16
13,35.3125,2.392207401,16
14,32.8125,3.060798847,16
15,35.625,2.809025632,16
16,31.5625,2.269303766,16
17,23.4375,3.971742638,16
18,14.6875,4.840556743,16
19,17.8125,3.679015663,16
20,14.375,4.229731079,16
21,5,1.936491673,16
22,11.25,2.90473751,16
23,10.3125,3.144729387,16
24,4.375,2.536196299,16
25,1.25,1.25,16
26,3.4375,1.974775831,16
27,3.4375,1.974775831,16
28,0,0,16
29,1.25,1.25,16
30,0,0,16
31,0,0,16
32,0.625,0.625,16
33,0.625,0.625,16
34,0,0,16
35,0,0,16
36,0,0,16
37,0,0,16
38,0,0,16
39,0,0,16
40,0,0,16
41,0,0,16
42,0,0,16
43,0,0,16
44,0,0,16
45,0,0,16
46,0,0,16
47,0,0,16
48,0,0,16
49,0,0,16
50,0,0,16
"""

FIXTURE_ITERATIVE_RANDOM_CURVE_CSV = """\
l,mean_hamming,stderr,reps
1,53.4375,2.570617225,16
2,46.875,4.375,16
3,41.875,4.445854811,16
4,40.9375,4.770105476,16
5,46.25,2.757565351,16
6,37.1875,3.872142764,16
7,36.25,3.832427429,16
8,34.6875,4.389114138,16
9,27.8125,4.40096462,16
10,26.25,5.234102916,16
11,24.0625,4.453901614,16
12,25.3125,4.017377617,16
13,24.6875,4.194956049,16
14,11.5625,3.314071954,16
15,14.6875,3.144729387,16
16,9.6875,3.399410182,16
17,9.375,2.771694728,16
18,13.125,3.350217655,16
19,9.0625,3.136437403,16
20,3.125,1.505199322,16
21,4.0625,1.948223015,16
22,4.0625,2.292140103,16
23,4.0625,1.838180146,16
24,2.1875,2.1875,16
25,0,0,16
26,2.1875,1.511673328,16
27,1.25,1.25,16
28,0,0,16
29,2.5,1.767766953,16
30,0,0,16
31,0,0,16
32,0,0,16
33,0,0,16
34,0,0,16
35,0,0,16
36,0,0,16
37,0,0,16
38,0,0,16
39,0,0,16
40,0,0,16
41,0,0,16
42,0,0,16
43,0,0,16
44,0,0,16
45,0,0,16
46,0,0,16
47,0,0,16
48,0,0,16
49,0,0,16
50,0,0,16
"""

# mu > 0 takes the truncated pseudoinverse of the dense saddle matrix
FIXTURE_MU_CURVE_CSV = """\
l,mean_hamming,stderr,reps
1,32.15,1.451451179,20
2,23.45,2.008501667,20
5,8.75,1.809150717,20
10,1.75,0.8331140062,20
20,0.2,0.2,20
30,0,0,20
50,0,0,20
"""

FIXTURE_GAMMA_SWEEP_CSV = """\
gamma,mean_hamming,stderr,reps
0.01,46.08,0.6400510184,50
0.05,25.24,1.199850331,50
0.1,0,0,50
0.2,0,0,50
0.3,0,0,50
0.5,0,0,50
1,0,0,50
"""


class TestClassicalGoldens:
    def test_gamma_sweep(self, capsys):
        assert main(["experiment", "gamma-sweep", "--l-grid", "50", "--units", "neurons",
                     "--gamma-grid", "0.01,0.05,0.1", "--reps", "1000"]) == 0
        assert capsys.readouterr().out == GAMMA_SWEEP_CSV

    @pytest.mark.parametrize("method,reps,expected", [
        ("inversion", "200", INVERSION_CURVE_CSV),
        ("iterative", "30", ITERATIVE_CURVE_CSV),
    ])
    def test_recovery_curve(self, capsys, method, reps, expected):
        assert main(["experiment", "recovery-curve", "--method", method,
                     "--l-grid", "1:10", "--reps", reps]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("args,expected", [
        (["--reps", "20"], FIXTURE_INVERSION_CURVE_CSV),
        (["--reps", "16", "--method", "iterative", "--fill", "plus"],
         FIXTURE_ITERATIVE_PLUS_CURVE_CSV),
        (["--reps", "16", "--method", "iterative", "--fill", "random"],
         FIXTURE_ITERATIVE_RANDOM_CURVE_CSV),
        (["--reps", "20", "--mu", "0.1", "--l-grid", "1,2,5,10,20,30,50"],
         FIXTURE_MU_CURVE_CSV),
    ], ids=["inversion", "iterative-plus", "iterative-random", "mu-fallback"])
    def test_seed_1_recovery_curve(self, capsys, args, expected):
        assert main(["experiment", "recovery-curve", "--seed", "1", *args]) == 0
        assert capsys.readouterr().out == expected

    def test_seed_1_gamma_sweep(self, capsys):
        assert main(["experiment", "gamma-sweep", "--seed", "1", "--reps", "50"]) == 0
        assert capsys.readouterr().out == FIXTURE_GAMMA_SWEEP_CSV

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
        (["qcheck", "--seeds", "0"], "n_seeds must be an integer >= 1"),
        (["recall", "--method", "quantum", "--t-phase", "0"], "t_qubits must be an integer >= 1"),
        (["recall", "--method", "quantum", "--t-phase", "-1"], "t_qubits must be an integer >= 1"),
        (["qcheck", "--t-phase", "0"], "t_qubits must be an integer >= 1"),
        (["experiment", "recovery-curve", "--method", "quantum", "--t-phase", "0"],
         "t_qubits must be an integer >= 1"),
        (["qcheck", "--d", "0"], "d must be an integer >= 1"),
        (["qcheck", "--d", "-1"], "d must be an integer >= 1"),
        (["qcheck", "--d", "5"], "cross-check is desk-scale only"),
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


class TestFastaNeedsEvenD:
    @pytest.mark.parametrize("command", ["train", "recall", "recovery-curve"])
    def test_odd_d_is_one_clean_error_line(self, tmp_path, capsys, command):
        args = {
            "train": ["train", "--out", str(tmp_path / "w.csv")],
            "recall": ["recall", "--pattern", probe_file(tmp_path, "1 0 0 0 0\n")],
            "recovery-curve": ["experiment", "recovery-curve", "--units", "neurons",
                               "--l-grid", "1", "--reps", "1"],
        }[command]
        assert main([*args, "--d", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: fasta data needs an even d (two neurons per base)\n"
        assert not (tmp_path / "w.csv").exists()


class TestUnknownBase:
    def test_is_one_clean_error_line_naming_file_record_and_position(self, tmp_path, capsys):
        path = tmp_path / "genome.fasta"
        path.write_text(">seg1\nACGUACGU\n>seg2\nACGNACGU\n")
        code = main(["experiment", "recovery-curve", "--data", str(path), "--d", "16",
                     "--m", "2", "--l-grid", "1", "--reps", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: sequence 2 ('seg2'): unknown base 'N' at position 4\n"


class TestMemoryErrors:
    @pytest.mark.parametrize("message,line", [
        ("", "error: out of memory\n"),
        ("Unable to allocate 5.43 GiB", "error: Unable to allocate 5.43 GiB\n"),
    ])
    def test_exit_with_a_clean_error_line(self, tmp_path, capsys, monkeypatch,
                                           message, line):
        def exhausted(ts):
            raise MemoryError(message)

        monkeypatch.setattr("hopfieldkit.cli.train", exhausted)
        for args in (["recall", *SYNTH, "--pattern", probe_file(tmp_path)],
                     ["train", *SYNTH, "--out", str(tmp_path / "w.csv")]):
            assert main(args) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == line

    @pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="needs RLIMIT_AS")
    def test_recall_at_d27000_runs_under_a_1_gib_address_space(self, tmp_path):
        # a dense W, or C = X^T X, at this size would be 5.4 GiB; the store
        # holds only X, and both classical engines recall from it
        d = 27000
        pattern = synthetic_patterns(d, 8, 0).patterns[0].astype(int)
        known = np.random.default_rng(0).choice(d, d // 10, replace=False)
        probe = np.zeros(d, dtype=int)
        probe[known] = pattern[known]
        path = probe_file(tmp_path, " ".join(map(str, probe)) + "\n")

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        # one BLAS thread, so the cap does not depend on the host's core count
        env = dict(os.environ, PYTHONPATH=str(Path(hopfieldkit.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        for method, outcome in (("inversion", "certified=True"), ("iterative", "converged=True")):
            proc = subprocess.run(
                [sys.executable, "-m", "hopfieldkit.cli", "recall", "--method", method,
                 "--format", "synthetic", "--d", str(d), "--m", "8", "--pattern", path],
                capture_output=True, text=True, env=env, timeout=120, check=False,
                preexec_fn=cap)
            assert proc.returncode == 0, proc.stderr
            assert outcome in proc.stderr
            assert proc.stdout == " ".join(map(str, pattern)) + "\n"


class TestArgumentErrors:
    def test_reversed_grid_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["experiment", "recovery-curve", "--l-grid", "5:1"])

    def test_command_is_required(self):
        with pytest.raises(SystemExit):
            main([])
