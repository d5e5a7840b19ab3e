"""The benchmark's own tests: each correctness check rejects a wrong result.

Run with `python3 -m pytest bench/tests -q` from the repository root. They
are not part of the library's suite (pyproject's testpaths is tests/).
"""
from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import drift  # noqa: E402
from hopfieldkit import experiments, hebbian, inversion, iterative  # noqa: E402
from hopfieldkit.patterns import ClampSet  # noqa: E402
from hopfieldkit.quantum import solver  # noqa: E402
from tracing import ROOT, Tracer  # noqa: E402


def test_drift_correction_is_identity_at_nominal_reference_speed():
    assert drift.corrected(0.4321, drift.REFERENCE_NOMINAL_S) == 0.4321
    assert drift.corrected(0.4, 2 * drift.REFERENCE_NOMINAL_S) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        drift.corrected(0.4, 0.0)


def test_curve_cell_check_rejects_one_flipped_neuron():
    seed, reps, l = 3, 10, 20
    cfg = experiments.ExperimentConfig(l_grid=(l,), reps=reps, seed=seed)
    ts = experiments.ingest(cfg)
    point, = experiments.run_recovery_curve(cfg, ts)
    w = checks.hebbian_weights(ts.patterns)
    target = ts.patterns[0]
    assert checks.inversion_cell_ok(point.mean_hamming, w, target, l, seed, reps)
    # one neuron flipped in one repetition moves the mean by 1/reps
    assert not checks.inversion_cell_ok(point.mean_hamming + 1 / reps, w, target, l, seed, reps)


def test_curve_shape_checks():
    pts = [experiments.CurvePoint(l=i + 1, mean_hamming=m, stderr=0.1, reps=10)
           for i, m in enumerate([5.0, 3.0, 3.2, 0.0])]
    assert checks.curve_closes(pts)
    assert checks.curve_monotone_violations(pts) == []
    pts[2] = experiments.CurvePoint(l=3, mean_hamming=4.0, stderr=0.1, reps=10)
    assert checks.curve_monotone_violations(pts) == [2]
    pts[3] = experiments.CurvePoint(l=4, mean_hamming=0.1, stderr=0.1, reps=10)
    assert not checks.curve_closes(pts)


def test_iterative_check_rejects_one_flipped_neuron():
    ts = experiments.ingest(experiments.ExperimentConfig(l_grid=(1,)))
    wm = hebbian.train(ts)
    rng = np.random.default_rng(5)
    start = np.where(rng.random(ts.d) < 0.3, ts.patterns[0], 0.0)
    trace = iterative.recall(wm, start, rng_seed=rng)
    counts, m_d = checks.hebbian_counts(ts.patterns), ts.m * ts.d
    assert trace.converged
    assert checks.iterative_state_ok(counts, m_d, start, trace.final, trace.energies)
    for i in (0, 37, 99):
        flipped = trace.final.copy()
        flipped[i] = -flipped[i]
        assert not checks.iterative_state_ok(counts, m_d, start, flipped, trace.energies)


@pytest.fixture(scope="module")
def d40_solve():
    ts = experiments.synthetic_patterns(40, 3, 7)
    target = ts.patterns[0]
    clamp = ClampSet.from_pattern(target, tuple(range(1, 41, 3)))
    report = inversion.solve(inversion.assemble(hebbian.train(ts), clamp, gamma=1.0))
    return checks.hebbian_weights(ts.patterns), clamp, report


def test_inversion_check_accepts_the_library_and_rejects_a_flipped_neuron(d40_solve):
    w, clamp, r = d40_solve
    known = clamp.mask()
    assert checks.inversion_report_ok(w, 1.0, known, clamp.values, r.x, r.lam,
                                      r.minimum_certified)
    free = np.flatnonzero(~known)
    i = free[np.argmax(np.abs(r.x[free]))]
    x = r.x.copy()
    x[i] = -x[i]
    assert not checks.inversion_report_ok(w, 1.0, known, clamp.values, x, r.lam,
                                          r.minimum_certified)


def test_inversion_check_rejects_a_wrong_certificate_flag(d40_solve):
    w, clamp, r = d40_solve
    assert r.minimum_certified
    assert not checks.inversion_report_ok(w, 1.0, clamp.mask(), clamp.values, r.x, r.lam,
                                          False)


def test_quantum_check_rejects_a_perturbed_amplitude_vector():
    ts = experiments.synthetic_patterns(8, 2, 4)
    clamp = ClampSet.from_pattern(ts.patterns[0], (1, 3, 4, 7))
    w = checks.hebbian_weights(ts.patterns)
    rep = solver.qhop_solve(ts, clamp, gamma=1.0, mu=0.05, t_qubits=7)
    args = (w, 1.0, clamp.mask(), clamp.values, 0.05, rep.ok, rep.resolution_ok)
    amps = rep.x_register.amplitudes
    assert checks.quantum_report_ok(*args, amps, rep.post_selection_probability)
    bent = amps.copy()
    bent[int(np.argmin(np.abs(bent)))] += 0.3
    bent /= np.linalg.norm(bent)
    assert not checks.quantum_report_ok(*args, bent, rep.post_selection_probability)
    assert not checks.quantum_report_ok(*args, amps, rep.post_selection_probability + 0.05)


def test_tracer_layers_account_for_the_root_and_uninstall_restores():
    original = inversion.solve
    ts = experiments.synthetic_patterns(30, 2, 1)
    clamp = ClampSet.from_pattern(ts.patterns[0], (2, 5, 9))
    wm = hebbian.train(ts)
    tracer = Tracer()
    tracer.install()
    try:
        inversion.solve(inversion.assemble(wm, clamp))  # outside a root: not recorded
        assert tracer.spans == []
        with tracer.root():
            inversion.solve(inversion.assemble(wm, clamp))
            time.sleep(0.001)
    finally:
        tracer.uninstall()
    assert inversion.solve is original
    agg = tracer.aggregate(0, len(tracer.spans))
    _, _, t0, t1 = tracer.spans[0]
    layers = sum(v for k, v in agg.items() if not k.startswith(("count:", "linalg")))
    assert layers == pytest.approx(t1 - t0, rel=1e-9)
    assert agg[ROOT] >= 0.001  # the sleep is the remainder
    assert agg["count:inversion.certify"] == 1
    # certificate minors: one eigensolve and one slogdet each
    assert agg["count:linalg.slogdet"] == 30 - 3


def test_runner_fails_without_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / "bench" / "run.py"),
                           "--workload", "quantum-d16", "--seconds", "1"],
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
