"""End-to-end acceptance checks, one test per shipped guarantee.

Each test here is a standalone pass/fail gate: statistical claims carry
explicit standard-error slack, numerical claims carry pinned tolerances,
and the two long-running gates enforce their own wall-clock budgets.
"""
import math
import os
import time

import numpy as np
import pytest
from scipy.linalg import expm

from dense_saddle import dense_a

from hopfieldkit.experiments import (
    ExperimentConfig,
    ingest,
    run_gamma_sweep,
    run_quantum_crosscheck,
    run_recovery_curve,
)
from hopfieldkit.hebbian import density, spectral_norm, train
from hopfieldkit.inversion import (
    assemble,
    certify_minimum,
    solve,
    truncated_pseudoinverse_apply,
)
from hopfieldkit.iterative import energy
from hopfieldkit.patterns import TrainingSet
from hopfieldkit.quantum.evolution import (
    conditional_pattern_step,
    conditional_pattern_step_swap,
    pattern_product_unitary,
)
from hopfieldkit.quantum.register import embed, swap_test


def assert_non_increasing(values, stderrs):
    """No point may exceed any earlier point by more than 3 pooled SEs."""
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            slack = 3.0 * math.hypot(stderrs[i], stderrs[j])
            assert values[j] <= values[i] + slack, (
                f"point {j} ({values[j]}) exceeds point {i} ({values[i]}) "
                f"beyond slack {slack}")


def test_recovery_curve_reaches_zero_and_is_monotone():
    """Bundled store, 1000 reps, gamma=1: recall error falls to 0 by 50
    known bases, without statistically significant upticks, for both the
    inversion and the iterative recall, inside a 2-minute budget."""
    start = time.monotonic()
    points = run_recovery_curve(ExperimentConfig(l_grid=tuple(range(1, 51))))
    assert [p.l for p in points] == list(range(1, 51))
    assert all(p.reps == 1000 for p in points)
    assert points[-1].mean_hamming == 0.0
    assert_non_increasing([p.mean_hamming for p in points],
                          [p.stderr for p in points])

    endpoint = run_recovery_curve(
        ExperimentConfig(l_grid=(50,), method="iterative"))[0]
    assert endpoint.mean_hamming == 0.0
    assert time.monotonic() - start < 120.0


def test_regularization_sweep_drops_to_zero_at_high_gamma():
    """Bundled store, 50 known neurons, 1000 reps: recall error is large
    at gamma=0.01, shrinks without significant upticks as gamma grows,
    and is exactly 0 at gamma=1."""
    grid = (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0)
    cfg = ExperimentConfig(l_grid=(50,), units="neurons")
    points = run_gamma_sweep(cfg, grid)
    assert tuple(p.gamma for p in points) == grid
    assert points[0].mean_hamming > 0.0
    assert points[-1].mean_hamming == 0.0
    assert_non_increasing([p.mean_hamming for p in points],
                          [p.stderr for p in points])


def test_real_h1n1_dataset_reproduces_coupling_norm():
    """With the real 8-segment H1N1 FASTA supplied via the environment,
    the trained coupling's spectral norm lands within 0.185 +/- 0.01.
    Skipped when the dataset is not available locally."""
    path = os.environ.get("HOPFIELDKIT_H1N1_FASTA")
    if not path:
        pytest.skip("set HOPFIELDKIT_H1N1_FASTA to the 8-segment FASTA file")
    wm = train(ingest(ExperimentConfig(l_grid=(1,), data=path)))
    assert spectral_norm(wm) == pytest.approx(0.185, abs=0.01)


def test_energy_never_increases_under_threshold_updates(make_weights):
    """10,000 random single-neuron threshold updates never raise the
    energy by more than 1e-12."""
    rng = np.random.default_rng(11)
    checks = 0
    while checks < 10_000:
        d = int(rng.integers(2, 13))
        wm = make_weights(rng, d)
        theta = rng.normal(scale=0.1, size=d)
        x = rng.choice([-1.0, 1.0], size=d)
        for _ in range(25):
            i = int(rng.integers(d))
            before = energy(wm, x, theta)
            x[i] = 1.0 if wm.w[i] @ x >= theta[i] else -1.0
            assert energy(wm, x, theta) <= before + 1e-12
            checks += 1


def test_solver_satisfies_constraints_and_matches_pseudoinverse_oracle(
        make_weights, make_clamp):
    """solve(mu=0) reproduces the clamped values and zeroes the full
    system residual to 1e-8 on 200 random instances (d <= 20), and matches
    numpy's pseudoinverse applied to the same system on small instances."""
    rng = np.random.default_rng(23)
    for _ in range(200):
        d = int(rng.integers(2, 21))
        clamp = make_clamp(rng, d)
        ls = assemble(make_weights(rng, d), clamp, gamma=1.4)
        report = solve(ls, mu=0.0)
        mask = clamp.mask()
        np.testing.assert_allclose(report.x[mask], clamp.values[mask],
                                   atol=1e-8)
        vec = np.concatenate([report.x, report.lam])
        np.testing.assert_allclose(dense_a(ls) @ vec, ls.rhs, atol=1e-8)
    for _ in range(60):
        d = int(rng.integers(2, 7))
        ls = assemble(make_weights(rng, d), make_clamp(rng, d), gamma=1.1)
        report = solve(ls, mu=0.0)
        oracle = np.linalg.pinv(dense_a(ls), rcond=1e-10) @ ls.rhs
        np.testing.assert_allclose(report.x, oracle[:d], atol=1e-8)


def test_certificate_holds_whenever_gamma_clears_the_coupling_norm(
        make_weights, make_clamp):
    """200 random instances with gamma above the coupling norm all certify
    as constrained minima: gamma I - W on the unclamped neurons has every
    eigenvalue above the singularity floor."""
    rng = np.random.default_rng(31)
    margins = (0.01, 0.1, 1.0)
    for k in range(200):
        d = int(rng.integers(2, 13))
        wm = make_weights(rng, d)
        clamp = make_clamp(rng, d)
        gamma = spectral_norm(wm) + margins[k % 3]
        assert certify_minimum(wm, clamp, gamma)


def test_truncation_error_is_zero_below_the_spectrum_and_monotone(
        make_weights, make_clamp):
    """On 50 random assembled systems, the truncation error eta is exactly
    0 for any cutoff up to the smallest nonzero eigenvalue magnitude and
    never decreases as the cutoff grows."""
    rng = np.random.default_rng(41)
    for _ in range(50):
        d = int(rng.integers(2, 13))
        ls = assemble(make_weights(rng, d), make_clamp(rng, d), gamma=1.3)
        a = dense_a(ls)
        _, eta0, _, rank_tol = truncated_pseudoinverse_apply(a, ls.rhs, 0.0)
        assert eta0 == 0.0
        # same eigh call as the implementation, so the boundary mu == smallest
        # compares bit-identical floats
        magnitudes = np.abs(np.linalg.eigh(a)[0])
        smallest = float(magnitudes[magnitudes >= rank_tol].min())
        for mu in (0.5 * smallest, 0.9 * smallest, smallest):
            assert truncated_pseudoinverse_apply(a, ls.rhs, mu)[1] == 0.0
        etas = [truncated_pseudoinverse_apply(a, ls.rhs, mu)[1]
                for mu in smallest * np.array([0.0, 0.5, 1.1, 2.0, 5.0, 20.0])]
        assert all(b >= a - 1e-12 for a, b in zip(etas, etas[1:]))


def test_product_formula_error_halves_when_steps_double():
    """For 2- and 3-pattern stores the product-formula distance to the
    exact density evolution shrinks by >= 1.8x when the step count
    doubles, across t in {0.5, 1, 2}; a single pattern is exact."""
    two = TrainingSet([[1, 1, 1, 1], [1, 1, 1, -1]])
    three = TrainingSet([[1, 1, 1, 1], [1, 1, 1, -1], [1, -1, 1, 1]])
    for ts in (two, three):
        rho = density(train(ts)).rho
        for t in (0.5, 1.0, 2.0):
            exact = expm(-1j * rho * t)
            errs = [np.linalg.norm(pattern_product_unitary(ts, t, n) - exact, 2)
                    for n in (16, 32)]
            assert errs[0] / errs[1] >= 1.8

    one = TrainingSet([[1, 1, 1, 1]])
    rho = density(train(one)).rho
    for t in (0.5, 1.0, 2.0):
        err = np.linalg.norm(
            pattern_product_unitary(one, t, 1) - expm(-1j * rho * t), 2)
        assert err <= 1e-10


def test_swap_trick_gap_shrinks_quadratically():
    """The gap between the direct conditional projector step and its
    swap-with-ancilla realization scales as dt^2: halving dt fits an
    exponent of 2.0 +/- 0.2."""
    rng = np.random.default_rng(53)
    pattern = np.array([1.0, -1.0, 1.0, 1.0])
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    state /= np.linalg.norm(state)

    def gap(dt):
        direct = conditional_pattern_step(state, pattern, dt)
        swapped = conditional_pattern_step_swap(state, pattern, dt)
        return np.linalg.norm(swapped - np.outer(direct, direct.conj()), 2)

    exponent = math.log2(gap(0.02) / gap(0.01))
    assert exponent == pytest.approx(2.0, abs=0.2)


def test_quantum_pipeline_matches_classical_solver_end_to_end():
    """Reference-mode quantum recall at 9 phase qubits and cutoff 0.05
    agrees with the classical truncated solve on 10 seeded instances at
    each of d=2 and d=4: state fidelity >= 0.98 and the reported
    post-selection probability within 0.02 of the classical prediction,
    inside a 5-minute budget."""
    start = time.monotonic()
    for d in (2, 4):
        rows = run_quantum_crosscheck(d=d, n_seeds=10, t_qubits=9, mu=0.05,
                                      mode="reference")
        assert len(rows) == 10
        for row in rows:
            assert row["passed"], f"d={d} seed={row['seed']}: {row['message']}"
            assert row["fidelity"] >= 0.98
            assert row["post_error"] <= 0.02
    assert time.monotonic() - start < 300.0


def test_swap_test_probability_is_exact_and_estimates_converge():
    """The swap-test one-probability equals (1 - overlap^2) / 2 to 1e-10,
    and shot estimates converge at the binomial rate: 100x the shots cuts
    the RMS error by about 10x."""
    rng = np.random.default_rng(61)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        a, _ = embed(rng.normal(size=2 ** n))
        b, _ = embed(rng.normal(size=2 ** n))
        overlap_sq = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
        report = swap_test(a, b, shots=1, rng_seed=0)
        assert abs(report.p_swap_exact - 0.5 * (1.0 - overlap_sq)) <= 1e-10
        assert abs(report.overlap_sq_exact - overlap_sq) <= 1e-10

    zero, _ = embed([1.0, 0.0])
    plus, _ = embed([1.0, 1.0])
    assert swap_test(zero, zero, shots=1).p_swap_exact <= 1e-10
    assert swap_test(zero, embed([0.0, 1.0])[0], shots=1).p_swap_exact == \
        pytest.approx(0.5, abs=1e-10)

    def rms(shots):
        errors = [swap_test(zero, plus, shots=shots, rng_seed=seed).ones / shots
                  - 0.25 for seed in range(200)]
        return float(np.sqrt(np.mean(np.square(errors))))

    ratio = rms(50) / rms(5000)
    assert 5.0 <= ratio <= 20.0
