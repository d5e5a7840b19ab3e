"""Constrained recall through the saddle-point system and its certificates."""
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import hopfieldkit
from dense_saddle import dense_a
from hopfieldkit import experiments, inversion
from hopfieldkit.experiments import ExperimentConfig, ingest, synthetic_patterns
from hopfieldkit.hebbian import WeightMatrix, spectral_norm, train
from hopfieldkit.inversion import (
    KAPPA_DIRECT,
    RANK_TOL_FACTOR,
    LinearSystem,
    assemble,
    certify_minimum,
    discretize,
    solve,
    solve_perturbed,
    truncated_pseudoinverse_apply,
)
from hopfieldkit.inversion import _reduced_solve  # the mu = 0 kernel, stacked
from hopfieldkit.inversion import _ridge_block  # the one builder of A's active block
from hopfieldkit.patterns import ClampSet, HopfieldWarning, TrainingSet, as_thresholds

try:
    import resource
except ImportError:  # not on Windows
    resource = None


class TestAssemble:
    def test_worked_two_neuron_system(self, worked_wm, worked_clamp):
        sys = assemble(worked_wm, worked_clamp, gamma=1.0)
        expected_a = np.array([
            [-1.0, 0.5, 1.0, 0.0],
            [0.5, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ])
        np.testing.assert_array_equal(dense_a(sys), expected_a)
        block, active = _ridge_block(worked_wm, worked_clamp.mask(), 1.0)
        np.testing.assert_array_equal(active, [0, 1, 2])
        np.testing.assert_array_equal(block, expected_a[np.ix_(active, active)])
        np.testing.assert_array_equal(sys.rhs, [0.0, 0.0, 1.0, 0.0])
        assert sys.gamma == 1.0

    def test_zero_couplings_top_block_is_negative_identity(self):
        wm = WeightMatrix(np.zeros((3, 3)))
        clamp = ClampSet(np.array([1.0, 1.0, 0.0]))
        block, _ = _ridge_block(wm, clamp.mask(), 1.0)
        np.testing.assert_array_equal(block[:3, :3], -np.eye(3))

    def test_system_is_symmetric_on_random_instances(self, make_weights, make_clamp):
        rng = np.random.default_rng(71)
        for _ in range(10):
            d = int(rng.integers(2, 12))
            sys = assemble(make_weights(rng, d), make_clamp(rng, d),
                           rng.normal(size=d), gamma=1.5)
            block, _ = _ridge_block(sys.wm, sys.clamp.mask(), sys.gamma)
            np.testing.assert_array_equal(block, block.T)

    def test_norm_bounded_by_gamma_plus_two(self, make_weights, make_clamp):
        rng = np.random.default_rng(72)
        for gamma in (1.0, 2.5):
            d = int(rng.integers(2, 10))
            sys = assemble(make_weights(rng, d), make_clamp(rng, d), gamma=gamma)
            block, _ = _ridge_block(sys.wm, sys.clamp.mask(), sys.gamma)
            assert np.max(np.abs(np.linalg.eigvalsh(block))) <= gamma + 2.0

    @pytest.mark.parametrize("store", ["trained", "hand-built"])
    def test_active_block_is_the_slice_of_the_dense_a(self, make_training, make_weights,
                                                      make_clamp, store):
        # A is zero off the block's indices: the unclamped multipliers
        rng = np.random.default_rng([79, len(store)])
        for _ in range(20):
            d = int(rng.integers(2, 30))
            wm = (make_weights(rng, d) if store == "hand-built"
                  else train(make_training(rng, int(rng.integers(1, 8)), d)))
            clamp = make_clamp(rng, d, l=int(rng.integers(1, d + 1)))
            gamma = float(rng.choice([0.3, 1.0, 1.5]))
            a = dense_a(quiet_assemble(wm, clamp, gamma=gamma))
            block, active = _ridge_block(wm, clamp.mask(), gamma)
            np.testing.assert_array_equal(block, a[np.ix_(active, active)])
            rest = np.setdiff1d(np.arange(2 * d), active)
            np.testing.assert_array_equal(active[d:], d + np.flatnonzero(clamp.mask()))
            np.testing.assert_array_equal(a[rest], 0.0)

    def test_warns_when_gamma_does_not_dominate_couplings(self, worked_wm,
                                                          worked_clamp):
        with pytest.warns(HopfieldWarning, match="spectral norm"):
            assemble(worked_wm, worked_clamp, gamma=0.4)
        with pytest.warns(HopfieldWarning, match="spectral norm"):
            assemble(worked_wm, worked_clamp, gamma=0.5)

    def test_warns_below_conventional_default(self, worked_wm, worked_clamp):
        with pytest.warns(HopfieldWarning, match="below the conventional default"):
            assemble(worked_wm, worked_clamp, gamma=0.75)

    def test_no_warning_at_default(self, worked_wm, worked_clamp):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assemble(worked_wm, worked_clamp, gamma=1.0)

    def test_rejects_nonpositive_gamma(self, worked_wm, worked_clamp):
        with pytest.raises(ValueError, match="gamma must be positive"):
            assemble(worked_wm, worked_clamp, gamma=0.0)

    def test_rejects_dimension_mismatch(self, worked_wm):
        clamp = ClampSet(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="does not match"):
            assemble(worked_wm, clamp)

    def test_rejects_bad_thresholds(self, worked_wm, worked_clamp):
        with pytest.raises(ValueError, match="shape \\(2,\\)"):
            assemble(worked_wm, worked_clamp, theta=[1.0, 2.0, 3.0])

    def test_linear_system_rejects_bad_inputs(self, worked_wm, worked_clamp):
        with pytest.raises(ValueError, match="does not match"):
            LinearSystem(worked_wm, ClampSet(np.array([1.0, 0.0, 0.0])), 1.0, None)
        for gamma in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="gamma must be positive"):
                LinearSystem(worked_wm, worked_clamp, gamma, None)
        with pytest.raises(ValueError, match="shape \\(2,\\)"):
            LinearSystem(worked_wm, worked_clamp, 1.0, np.zeros(3))

    def test_system_blocks_are_derived_on_first_read(self, worked_wm, worked_clamp):
        sys = LinearSystem(worked_wm, worked_clamp, 1.0, np.array([0.25, -0.5]))
        assert solve(sys).minimum_certified
        assert "rhs" not in vars(sys)
        np.testing.assert_array_equal(sys.rhs, [0.25, -0.5, 1.0, 0.0])
        for block in (sys.rhs, sys.theta):
            assert not block.flags.writeable

    def test_linear_system_keeps_the_coupling_matrix(self, make_weights, make_clamp):
        rng = np.random.default_rng(70)
        for gamma in (0.3, 1.0, 2.5):
            d = int(rng.integers(2, 12))
            wm = make_weights(rng, d)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", HopfieldWarning)
                sys = assemble(wm, make_clamp(rng, d), gamma=gamma)
            np.testing.assert_array_equal(sys.wm.w, wm.w)
            assert spectral_norm(sys.wm) == spectral_norm(wm)


class TestTruncatedPseudoinverse:
    def test_diagonal_truncation(self):
        a = np.diag([2.0, 0.1])
        v, eta, kept, _ = truncated_pseudoinverse_apply(a, np.array([1.0, 1.0]),
                                                        mu=0.5)
        np.testing.assert_allclose(v, [0.5, 0.0], atol=1e-15)
        assert kept == 1
        assert eta == pytest.approx(10.0, rel=1e-12)

    def test_zero_cutoff_inverts_everything_nonsingular(self):
        a = np.diag([2.0, 0.1])
        v, eta, kept, _ = truncated_pseudoinverse_apply(a, np.array([1.0, 1.0]),
                                                        mu=0.0)
        np.testing.assert_allclose(v, [0.5, 10.0], atol=1e-12)
        assert (eta, kept) == (0.0, 2)

    def test_eta_zero_below_smallest_nonzero_eigenvalue(self, make_weights,
                                                        make_clamp):
        rng = np.random.default_rng(73)
        for _ in range(10):
            d = int(rng.integers(2, 9))
            sys = assemble(make_weights(rng, d), make_clamp(rng, d),
                           rng.normal(size=d), gamma=1.2)
            a = dense_a(sys)
            eigs = np.abs(np.linalg.eigvalsh(a))
            smallest = eigs[eigs > 1e-9].min()
            _, eta, _, _ = truncated_pseudoinverse_apply(a, sys.rhs,
                                                         mu=0.9 * smallest)
            assert eta == 0.0

    def test_eta_non_decreasing_in_mu(self, make_weights, make_clamp):
        rng = np.random.default_rng(74)
        for _ in range(10):
            d = int(rng.integers(2, 9))
            sys = assemble(make_weights(rng, d), make_clamp(rng, d),
                           rng.normal(size=d), gamma=1.2)
            a = dense_a(sys)
            etas = [truncated_pseudoinverse_apply(a, sys.rhs, mu)[1]
                    for mu in (0.0, 0.05, 0.2, 0.5, 1.0, 2.0)]
            assert all(b >= a - 1e-12 for a, b in zip(etas, etas[1:]))

    def test_rejects_negative_mu(self):
        for mu in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match=">= 0"):
                truncated_pseudoinverse_apply(np.eye(2), np.ones(2), mu=mu)


class TestSolve:
    def test_worked_system_solution(self, worked_wm, worked_clamp):
        report = solve(assemble(worked_wm, worked_clamp, gamma=1.0))
        np.testing.assert_allclose(report.x, [1.0, 0.5], atol=1e-10)
        np.testing.assert_allclose(report.lam, [0.75, 0.0], atol=1e-10)
        np.testing.assert_array_equal(report.discretized, [1.0, 1.0])
        assert report.kept == 3
        assert report.minimum_certified
        assert report.residual_constraint <= 1e-10
        assert report.residual_stationarity <= 1e-10

    def test_reduced_elimination_matches_eigendecomposition(self, worked_wm,
                                                            worked_clamp):
        sys = assemble(worked_wm, worked_clamp, gamma=1.0)
        report = solve(sys)
        dense, _, kept, _ = truncated_pseudoinverse_apply(dense_a(sys), sys.rhs, 0.0)
        np.testing.assert_allclose(report.x, dense[:2], atol=1e-10)
        np.testing.assert_allclose(report.lam, dense[2:], atol=1e-10)
        assert report.kept == kept == 3

    def test_methods_agree_on_random_instances(self, make_weights, make_clamp):
        rng = np.random.default_rng(75)
        for _ in range(20):
            d = int(rng.integers(2, 11))
            sys = assemble(make_weights(rng, d), make_clamp(rng, d),
                           rng.normal(size=d), gamma=1.3)
            report = solve(sys)
            dense = truncated_pseudoinverse_apply(dense_a(sys), sys.rhs, 0.0)[0]
            np.testing.assert_allclose(report.x, dense[:d], atol=1e-8)
            np.testing.assert_allclose(report.lam, dense[d:], atol=1e-8)

    def test_zero_mu_factorizes_only_the_unclamped_block(self, make_weights, make_clamp,
                                                        monkeypatch):
        # A hand-built W: one eigendecomposition of Q_UU, a one-row stack,
        # serves the solve and the certificate, and neither A's active block
        # nor an LU or Cholesky factorization is touched, inside the
        # KAPPA_DIRECT margin or past it: the norm route serves trained cores
        # only. The perturbed solve is the same kernel with nothing clamped,
        # on the whole d x d matrix (gamma + beta) I - W.
        rng = np.random.default_rng(81)
        cases = [(make_weights(rng, d), make_clamp(rng, d)) for d in (3, 8, 20)]
        calls = []

        def recorded(name):
            fn = getattr(np.linalg, name)

            def wrapper(a, *args, **kwargs):
                calls.append((name, np.shape(a)))
                return fn(a, *args, **kwargs)
            return wrapper

        def forbidden(*args, **kwargs):
            raise AssertionError("factorization called on the mu = 0 path")

        for name in ("eigh", "eigvalsh", "solve"):
            monkeypatch.setattr(np.linalg, name, recorded(name))
        monkeypatch.setattr(np.linalg, "cholesky", forbidden)
        monkeypatch.setattr(inversion, "_ridge_block", forbidden)
        for wm, clamp in cases:
            u = wm.d - clamp.l
            # 1.2 clears |W| = 0.9 with condition bound 7; (1 + 1e-5) |W| does not
            for gamma in (1.2, (1.0 + 1e-5) * wm.norm):
                calls.clear()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", HopfieldWarning)  # gamma < 1
                    report = solve(assemble(wm, clamp, gamma=gamma))
                assert calls == [("eigh", (1, u, u))]
                assert report.minimum_certified
                assert (report.kept, report.eta, report.rank_tol) == (wm.d + clamp.l, 0.0, 0.0)
                calls.clear()
                report = solve_perturbed(wm, rng.choice([-1.0, 0.0, 1.0], size=wm.d),
                                         gamma=gamma - 0.5, beta=0.5)
                assert calls == [("eigh", (1, wm.d, wm.d))]
                assert report.minimum_certified

    @pytest.mark.parametrize("coupling", [0.3, 0.4, 0.7])
    def test_singular_unclamped_block_falls_back_to_the_pseudoinverse(self, coupling):
        # The repeated coupling pair of TestCertifyMinimum at gamma equal to
        # the coupling: (gamma I - W)_UU is singular twice over, so A has rank
        # d + l - 2 and the elimination must hand over to the eigen path.
        w = np.zeros((5, 5))
        w[0, 1] = w[1, 0] = w[2, 3] = w[3, 2] = coupling
        clamp = ClampSet(np.array([0.0, 0.0, 0.0, 0.0, 1.0]))
        theta = np.random.default_rng(82).normal(size=5)
        with pytest.warns(HopfieldWarning, match="spectral norm"):
            sys = assemble(WeightMatrix(w), clamp, theta, gamma=coupling)
        report = solve(sys)
        assert report.kept == 5 + 1 - 2
        assert report.rank_tol > 0.0
        assert not report.minimum_certified
        oracle = np.linalg.pinv(dense_a(sys), rcond=1e-10) @ sys.rhs
        np.testing.assert_allclose(np.concatenate([report.x, report.lam]), oracle,
                                   atol=1e-8)

    def test_matches_independent_svd_pseudoinverse(self, make_weights, make_clamp):
        rng = np.random.default_rng(76)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            sys = assemble(make_weights(rng, d), make_clamp(rng, d),
                           rng.normal(size=d), gamma=1.1)
            report = solve(sys)
            oracle = np.linalg.pinv(dense_a(sys), rcond=1e-10) @ sys.rhs
            np.testing.assert_allclose(np.concatenate([report.x, report.lam]),
                                       oracle, atol=1e-8)

    def test_residuals_and_multiplier_support(self, make_weights, make_clamp):
        rng = np.random.default_rng(77)
        for _ in range(20):
            d = int(rng.integers(2, 21))
            wm = make_weights(rng, d)
            clamp = make_clamp(rng, d)
            theta = rng.normal(scale=0.5, size=d)
            report = solve(assemble(wm, clamp, theta, gamma=1.4))
            mask = clamp.mask()
            # clamped coordinates reproduce the known values
            assert np.max(np.abs(report.x[mask] - clamp.values[mask])) <= 1e-8
            # stationarity: (gamma I - W) x + theta - lam vanishes row-wise
            stat = (1.4 * np.eye(d) - wm.w) @ report.x + theta - report.lam
            assert np.max(np.abs(stat)) <= 1e-8
            # multipliers live on the clamp set only
            assert np.max(np.abs(report.lam[~mask]), initial=0.0) <= 1e-8

    def test_discretized_field_matches_sign_rule(self, make_weights, make_clamp):
        rng = np.random.default_rng(78)
        d = 6
        sys = assemble(make_weights(rng, d), make_clamp(rng, d),
                       rng.normal(size=d), gamma=1.0)
        report = solve(sys)
        np.testing.assert_array_equal(report.discretized, discretize(report.x))

    def test_rejects_bad_mu_before_building_the_saddle_matrix(self, make_training, make_clamp):
        rng = np.random.default_rng(57)
        sys = assemble(train(make_training(rng, 3, 12)), make_clamp(rng, 12))
        for mu in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="mu must be >= 0 and finite"):
                solve(sys, mu=mu)


class TestDiscretize:
    def test_signs(self):
        np.testing.assert_array_equal(discretize([0.9, -0.1]), [1.0, -1.0])

    def test_zero_ties_to_plus_one(self):
        np.testing.assert_array_equal(discretize([0.0, 0.0]), [1.0, 1.0])

    def test_rounding_residue_is_a_tie(self):
        # the band is 1e-10 max(1, |x|_inf): absolute below 1, relative above
        np.testing.assert_array_equal(discretize([-1e-17, -1e-10, -1.01e-10, 0.5]),
                                      [1.0, 1.0, -1.0, 1.0])
        np.testing.assert_array_equal(discretize([-5e-10, -2e-9, 10.0]), [1.0, -1.0, 1.0])

    def test_positive_fractions(self):
        np.testing.assert_array_equal(discretize([1.0, 0.5]), [1.0, 1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            discretize([np.nan, 1.0])


class TestSolvePerturbed:
    def test_worked_example(self, worked_wm):
        report = solve_perturbed(worked_wm, [1.0, 1.0], gamma=1.0, beta=1.0)
        np.testing.assert_allclose(report.x, [2.0 / 3.0, 2.0 / 3.0], atol=1e-12)
        np.testing.assert_array_equal(report.discretized, [1.0, 1.0])
        assert report.lam.size == 0
        assert report.minimum_certified
        assert report.residual_stationarity <= 1e-12

    def test_large_anchor_weight_recovers_anchor(self, worked_wm):
        x_pert = np.array([1.0, -1.0])
        report = solve_perturbed(worked_wm, x_pert, beta=1e6)
        assert np.max(np.abs(report.x - x_pert)) <= 1e-4

    def test_zero_couplings_halve_the_anchor(self):
        wm = WeightMatrix(np.zeros((2, 2)))
        report = solve_perturbed(wm, [1.0, -1.0], gamma=1.0, beta=1.0)
        np.testing.assert_allclose(report.x, [0.5, -0.5], atol=1e-14)

    def test_threshold_shifts_the_anchor(self, worked_wm):
        # solution solves ((gamma+beta) I - W) x = beta x_pert - theta
        theta = np.array([0.3, -0.2])
        report = solve_perturbed(worked_wm, [1.0, 1.0], theta=theta)
        m = 2.0 * np.eye(2) - worked_wm.w
        np.testing.assert_allclose(m @ report.x, np.array([1.0, 1.0]) - theta,
                                   atol=1e-12)

    def test_singular_matrix_rejected_after_warning(self):
        wm = WeightMatrix([[0.0, 0.5], [0.5, 0.0]])
        with pytest.warns(HopfieldWarning, match="does not exceed"):
            with pytest.raises(ValueError, match="singular"):
                solve_perturbed(wm, [1.0, 1.0], gamma=0.3, beta=0.2)

    def test_indefinite_combination_only_warns_when_solvable(self):
        wm = WeightMatrix([[0.0, 0.5], [0.5, 0.0]])
        with pytest.warns(HopfieldWarning, match="does not exceed"):
            report = solve_perturbed(wm, [1.0, -1.0], gamma=0.2, beta=0.2)
        assert not report.minimum_certified

    def test_certificate_is_the_spectrum_not_the_norm_bound(self):
        # W = -0.5 (J - I) has eigenvalues -1, 0.5, 0.5, so |W| = 1 and both
        # calls warn; Q = 0.8 I - W has eigenvalues 0.3, 0.3, 1.8 (definite),
        # Q = 0.4 I - W has -0.1, -0.1, 1.4 (indefinite)
        wm = WeightMatrix(-0.5 * (np.ones((3, 3)) - np.eye(3)))
        for half, certified in ((0.4, True), (0.2, False)):
            with pytest.warns(HopfieldWarning, match="does not exceed"):
                report = solve_perturbed(wm, [1.0, -1.0, 1.0], gamma=half, beta=half)
            assert report.minimum_certified is certified

    def test_parameter_validation(self, worked_wm):
        with pytest.raises(ValueError, match="beta must be positive"):
            solve_perturbed(worked_wm, [1.0, 1.0], beta=0.0)
        with pytest.raises(ValueError, match="gamma must be positive"):
            solve_perturbed(worked_wm, [1.0, 1.0], gamma=-1.0)
        with pytest.raises(ValueError, match="shape \\(2,\\)"):
            solve_perturbed(worked_wm, [1.0, 1.0, 1.0])


def bordered_minors_certified(w, known, gamma) -> bool:
    """Reference second-order rule, from determinants of a bordered Hessian.

    With coordinates ordered clamped-first, H = [[0, -E^T], [-E, gamma I - W]]
    where E holds the unit columns of the l clamped neurons, and the rule asks
    (-1)^l det(H_k) > 0 for every leading principal minor of order
    k = 2l+1, ..., l+d. A minor whose smallest eigenvalue magnitude is below
    1e-10 of its largest counts as singular and fails.
    """
    d = w.shape[0]
    l = int(known.sum())
    order = np.concatenate([np.flatnonzero(known), np.flatnonzero(~known)])
    h = np.zeros((l + d, l + d))
    h[:l, l:2 * l] = -np.eye(l)
    h[l:2 * l, :l] = -np.eye(l)
    h[l:, l:] = gamma * np.eye(d) - w[np.ix_(order, order)]
    for k in range(2 * l + 1, l + d + 1):
        eigs = np.linalg.eigvalsh(h[:k, :k])
        if np.min(np.abs(eigs)) < 1e-10 * np.max(np.abs(eigs)):
            return False
        if np.count_nonzero(eigs < 0) % 2 != l % 2:
            return False
    return True


class TestCertifyMinimum:
    def test_agrees_with_bordered_hessian_minors(self, make_weights, make_clamp):
        rng = np.random.default_rng(83)
        verdicts = {True: 0, False: 0}
        below_norm = 0
        for _ in range(400):
            d = int(rng.integers(3, 14))
            wm = make_weights(rng, d, scale=rng.uniform(0.05, 1.0))
            clamp = make_clamp(rng, d)
            gamma = float(rng.uniform(0.0, 0.6))
            got = certify_minimum(wm, clamp, gamma)
            assert got == bordered_minors_certified(wm.w, clamp.mask(), gamma)
            verdicts[got] += 1
            below_norm += gamma < spectral_norm(wm)
        assert min(verdicts.values()) >= 50
        assert below_norm >= 100

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_everything_clamped_certifies(self, make_weights, make_clamp, gamma):
        rng = np.random.default_rng(84)
        for d in (2, 5, 9):
            wm = make_weights(rng, d)
            clamp = make_clamp(rng, d, l=d)
            assert certify_minimum(wm, clamp, gamma)
            assert bordered_minors_certified(wm.w, clamp.mask(), gamma)

    @pytest.mark.parametrize("coupling", [0.3, 0.4, 0.7])
    def test_singular_unclamped_block_does_not_certify(self, coupling):
        # Two identical coupling pairs among the unclamped neurons: at gamma
        # equal to the coupling, gamma I - W on them is singular, twice over.
        # Its two zero eigenvalues do not exceed the floor, so the block fails;
        # a gamma just above the coupling lifts them over it.
        w = np.zeros((5, 5))
        w[0, 1] = w[1, 0] = w[2, 3] = w[3, 2] = coupling
        wm = WeightMatrix(w)
        clamp = ClampSet(np.array([0.0, 0.0, 0.0, 0.0, 1.0]))
        assert not certify_minimum(wm, clamp, gamma=coupling)
        assert not bordered_minors_certified(w, clamp.mask(), coupling)
        assert certify_minimum(wm, clamp, gamma=coupling * (1 + 1e-6))

    def test_worked_system_certifies_at_default(self, worked_wm, worked_clamp):
        assert certify_minimum(worked_wm, worked_clamp, gamma=1.0)

    def test_degenerate_at_zero_regularization(self, worked_wm, worked_clamp):
        assert not certify_minimum(worked_wm, worked_clamp, gamma=0.0)

    def test_always_certifies_above_coupling_norm(self, make_weights, make_clamp):
        rng = np.random.default_rng(79)
        for margin in (0.01, 0.1, 1.0):
            for _ in range(10):
                d = int(rng.integers(2, 10))
                wm = make_weights(rng, d)
                clamp = make_clamp(rng, d)
                assert certify_minimum(wm, clamp, spectral_norm(wm) + margin)

    def test_fails_below_a_negative_coupling_direction(self):
        # The strong pair couples two unclamped neurons, so clamping does
        # not remove the negative direction: for gamma inside the pair's
        # spectrum the unclamped block of gamma I - W is indefinite and a
        # required minor has the wrong sign.
        w = np.zeros((3, 3))
        w[1, 2] = w[2, 1] = 0.9
        wm = WeightMatrix(w)
        clamp = ClampSet(np.array([1.0, 0.0, 0.0]))
        assert not certify_minimum(wm, clamp, gamma=0.5)
        assert certify_minimum(wm, clamp, gamma=0.95)

    def test_rejects_negative_gamma_and_mismatch(self, worked_wm, worked_clamp):
        with pytest.raises(ValueError, match="gamma must be >= 0"):
            certify_minimum(worked_wm, worked_clamp, gamma=-0.1)
        with pytest.raises(ValueError, match="does not match"):
            certify_minimum(worked_wm, ClampSet(np.array([1.0, 0.0, 0.0])),
                            gamma=1.0)


def dense_copy(wm: WeightMatrix) -> WeightMatrix:
    """The same couplings as a hand-built matrix, recalled through the spectrum of Q_UU."""
    return WeightMatrix(wm.w)


def quiet_assemble(wm, clamp, theta=None, gamma=1.0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HopfieldWarning)
        return assemble(wm, clamp, theta, gamma=gamma)


class TestTrainedStore:
    """The factored path of a trained W against the dense path of the same couplings."""

    @pytest.mark.parametrize("m,d,l,gamma,thresholds", [
        (3, 20, 5, 1.0, False),   # M < d
        (12, 8, 3, 1.0, True),    # M >= d, theta != 0
        (8, 8, 4, 0.6, True),     # M = d
        (10, 30, 24, 1.0, True),  # |U| = 6 < M
        (5, 16, 16, 1.0, True),   # l = d: nothing to solve
        (6, 40, 10, 0.3, False),  # gamma inside the spectrum of W
        (1, 12, 4, 0.2, True),    # one pattern
    ])
    def test_matches_the_dense_oracle_on_random_stores(self, make_training, make_clamp,
                                                       m, d, l, gamma, thresholds):
        rng = np.random.default_rng([91, m, d, l])
        for _ in range(15):
            wm = train(make_training(rng, m, d))
            clamp = make_clamp(rng, d, l=l)
            theta = rng.normal(scale=0.3, size=d) if thresholds else None
            got = solve(quiet_assemble(wm, clamp, theta, gamma))
            want = solve(quiet_assemble(dense_copy(wm), clamp, theta, gamma))
            if want.rank_tol > 0.0:  # a singular block: the spectral rule decides, below
                continue
            assert got.rank_tol == 0.0 and got.kept == want.kept == d + l
            np.testing.assert_allclose(got.x, want.x, rtol=0.0, atol=1e-10)
            np.testing.assert_allclose(got.lam, want.lam, rtol=0.0, atol=1e-9)
            np.testing.assert_array_equal(got.discretized, want.discretized)
            assert got.minimum_certified == want.minimum_certified
            assert got.residual_constraint <= 1e-10 and got.residual_stationarity <= 1e-9

    def test_mu_zero_recall_never_derives_w(self, make_training, make_clamp):
        # the factored solve, its residuals and the certificate read only d
        # and the factor; the mu > 0 path writes W into the saddle block from
        # the factor, so it derives no W either
        rng = np.random.default_rng(95)
        for _ in range(10):
            m, d = int(rng.integers(1, 10)), int(rng.integers(4, 40))
            wm = train(make_training(rng, m, d))
            clamp = make_clamp(rng, d)
            theta = rng.normal(scale=0.3, size=d)
            report = solve(assemble(wm, clamp, theta))
            certify_minimum(wm, clamp, 1.0)
            assert report.rank_tol == 0.0
            assert "w" not in vars(wm)
            solve(assemble(wm, clamp, theta), mu=1e-3)
            assert "w" not in vars(wm)

    def test_certificate_matches_the_dense_cholesky(self, make_training, make_clamp):
        # The core's spectrum, Q_UU's own, and an independent Cholesky of Q_UU
        # (it succeeds exactly on a positive definite block) agree.
        rng = np.random.default_rng(92)
        verdicts = {True: 0, False: 0}
        for _ in range(300):
            m, d = int(rng.integers(1, 10)), int(rng.integers(2, 16))
            wm = train(make_training(rng, m, d))
            clamp = make_clamp(rng, d)
            gamma = float(rng.uniform(0.0, 0.6))
            got = certify_minimum(wm, clamp, gamma)
            assert got == certify_minimum(dense_copy(wm), clamp, gamma)
            free = ~clamp.mask()
            try:
                np.linalg.cholesky(gamma * np.eye(int(free.sum())) - wm.w[np.ix_(free, free)])
                cholesky_ok = True
            except np.linalg.LinAlgError:
                cholesky_ok = False
            assert got == cholesky_ok
            verdicts[got] += 1
        assert min(verdicts.values()) >= 50

    def test_duplicated_pattern_at_its_eigenvalue_takes_the_fallback(self):
        # X = [p; p] gives W = (p p^T - I)/d, and W_UU has the eigenvalue
        # (|U| - 1)/d along p_U: at d = 8, |U| = 5 that is gamma = 0.5, where
        # Q_UU and the core C are exactly singular.
        p = np.array([1.0, -1.0, -1.0, 1.0, 1.0, 1.0, -1.0, 1.0])
        wm = train(TrainingSet([p, p]))
        clamp = ClampSet(np.where(np.isin(np.arange(8), [1, 4, 6]), p, 0.0))
        theta = np.random.default_rng(93).normal(size=8)
        for store in (wm, dense_copy(wm)):
            assert not certify_minimum(store, clamp, 0.5)
            assert certify_minimum(store, clamp, 0.5 * (1 + 1e-6))
            assert not certify_minimum(store, clamp, 0.5 * (1 - 1e-6))
        sys = quiet_assemble(wm, clamp, theta, gamma=0.5)
        report = solve(sys)
        assert report.rank_tol > 0.0 and report.kept == 8 + 3 - 1
        assert not report.minimum_certified
        oracle = np.linalg.pinv(dense_a(sys), rcond=1e-10) @ sys.rhs
        np.testing.assert_allclose(np.concatenate([report.x, report.lam]), oracle, atol=1e-8)
        # just off the eigenvalue the block is regular again: no fallback
        for gamma in (0.5 * (1 + 1e-6), 0.5 * (1 - 1e-6)):
            assert solve(quiet_assemble(wm, clamp, theta, gamma)).rank_tol == 0.0

    def test_zero_gamma_never_certifies_an_unclamped_neuron(self, make_training, make_clamp):
        # Q_UU = -W_UU has zero trace. With one free neuron, or orthogonal
        # free columns, the core's eigenvalue 1/d - g/(M d) is zero in exact
        # arithmetic, so only the positive floor keeps rounding from certifying.
        rng = np.random.default_rng(94)
        for _ in range(200):
            m, d = int(rng.integers(1, 8)), int(rng.integers(2, 12))
            wm = train(make_training(rng, m, d))
            l = int(rng.integers(max(1, d - 2), d))
            assert not certify_minimum(wm, make_clamp(rng, d, l=l), 0.0)
        wm = train(TrainingSet([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0]]))
        assert not certify_minimum(wm, ClampSet(np.array([1.0, 0, 1.0, 0])), 0.0)

    def test_perturbed_solve_matches_the_dense_path_and_an_lu(self, make_training):
        # Nothing clamped: the M x M core of the whole store against the
        # eigh of a dense copy's (gamma + beta) I - W, and against an
        # independent LU of that matrix. W's eigenvalues are rationals with
        # small denominators, so some of these sums of gamma and beta land
        # on one: both paths must then reject the system.
        rng = np.random.default_rng(96)
        singular = 0
        for _ in range(300):
            m, d = int(rng.integers(1, 9)), int(rng.integers(3, 81))
            wm = train(make_training(rng, m, d))
            gamma = float(rng.choice([0.05, 0.3, 1.0]))
            beta = float(rng.choice([0.1, 0.5, 1.0]))
            anchor = rng.choice([-1.0, 0.0, 1.0], size=d)
            theta = rng.normal(scale=0.3, size=d) if rng.random() < 0.5 else None
            outcomes = []
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", HopfieldWarning)
                for store in (wm, dense_copy(wm)):
                    try:
                        outcomes.append(solve_perturbed(store, anchor, theta, gamma, beta))
                    except ValueError as err:
                        assert str(err) == "perturbed system matrix is singular"
                        outcomes.append(None)
            got, want = outcomes
            assert (got is None) == (want is None)
            if got is None:
                singular += 1
                continue
            lu = np.linalg.solve((gamma + beta) * np.eye(d) - wm.w,
                                 beta * anchor - as_thresholds(theta, d))
            tol = 1e-12 * np.abs(lu).max()
            np.testing.assert_allclose(got.x, want.x, rtol=0.0, atol=tol)
            np.testing.assert_allclose(got.x, lu, rtol=0.0, atol=tol)
            np.testing.assert_array_equal(got.discretized, want.discretized)
            assert got.minimum_certified == want.minimum_certified
            assert got.residual_stationarity <= tol
        assert 0 < singular < 30

    def test_perturbed_solve_at_an_eigenvalue_of_w_is_singular_on_both_paths(self):
        # M orthogonal patterns (Hadamard rows, columns permuted and signed)
        # give W the M-fold eigenvalue 1/M - 1/d, exact in binary: at
        # gamma + beta equal to it, both paths reject the system; just off
        # it, both solve it.
        rng = np.random.default_rng(97)
        hadamard = np.ones((1, 1))
        for _ in range(5):
            hadamard = np.block([[hadamard, hadamard], [hadamard, -hadamard]])
        for _ in range(30):
            d = int(rng.choice([8, 16, 32]))
            m = int(rng.choice([1, 2, 4]))
            rows = rng.choice(d, size=m, replace=False)
            x = hadamard[np.ix_(rows, rng.permutation(d))] * rng.choice([-1.0, 1.0], size=d)
            wm = train(TrainingSet(x))
            half = (1.0 / m - 1.0 / d) / 2
            anchor = rng.choice([-1.0, 0.0, 1.0], size=d)
            for store in (wm, dense_copy(wm)):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", HopfieldWarning)
                    with pytest.raises(ValueError, match="perturbed system matrix is singular"):
                        solve_perturbed(store, anchor, gamma=half, beta=half)
                    for gamma in (half * (1 + 1e-6), half * (1 - 1e-6)):
                        solve_perturbed(store, anchor, gamma=gamma, beta=half)

    @pytest.mark.parametrize("units,l_grid,gamma", [
        ("neurons", (50,), 0.05),
        ("neurons", (50,), 0.1),
        ("bases", (1, 2, 3, 4), 1.0),
        ("bases", (25,), 0.05),
    ])
    def test_fixture_singular_blocks_fall_back_and_the_rest_match_the_dense_path(
            self, units, l_grid, gamma):
        # Q_UU counts as singular when an eigenvalue lies within RANK_TOL_FACTOR
        # times the largest eigenvalue magnitude of zero. Those trials take the
        # eigen fallback in the library solve, in the curve harness and on a
        # dense copy of W alike; every trial discretizes as on the dense copy,
        # ties included.
        cfg = ExperimentConfig(l_grid=l_grid, units=units, gamma=gamma)
        ctx = experiments._TrialContext(cfg, ingest(cfg))
        dense = dense_copy(ctx.wm)
        singular = 0
        for l in l_grid:
            for rep in range(1000 if gamma < 1.0 else 250):
                mask = experiments._known_mask(ctx, l, np.random.default_rng([cfg.seed, rep]))
                clamp = ClampSet.from_pattern(ctx.target, tuple(np.flatnonzero(mask) + 1))
                free = ~mask
                quu = gamma * np.eye(int(free.sum())) - ctx.wm.w[np.ix_(free, free)]
                eigs = np.abs(np.linalg.eigvalsh(quu))
                is_singular = eigs.min() <= RANK_TOL_FACTOR * eigs.max()
                got = solve(quiet_assemble(ctx.wm, clamp, gamma=gamma))
                want = solve(quiet_assemble(dense, clamp, gamma=gamma))
                assert (got.rank_tol > 0.0) == (want.rank_tol > 0.0) == is_singular
                np.testing.assert_array_equal(
                    experiments._inversion_recover(ctx, mask[None])[0], got.x)
                np.testing.assert_array_equal(got.discretized, want.discretized)
                singular += is_singular
        if gamma == 0.05:
            assert singular > 0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_hand_built_copy_at_d400_recalls_as_the_store(self, seed):
        # the store and clamps of the d = 400, M = 20 benchmark workload
        # (clamps of 50 and 300 neurons on its first pattern): its hand-built
        # copy runs the plain iterative loop and one eigendecomposition of
        # each Q_UU, and recalls the same +/-1 state with the same verdict
        # from both engines. The iterative runs take thresholds half a field
        # step, 1/(2 M d), above zero: at zero the 50-neuron clamp meets
        # exact ties, which the store resolves to +1 and the row product of
        # the copy by its rounding (TestMatchesThePlainLoop pins that)
        ts = ingest(ExperimentConfig(l_grid=(1,), d=400, m=20, seed=seed,
                                     data_format="synthetic", units="neurons"))
        wm = train(ts)
        dense = dense_copy(wm)
        rng = np.random.default_rng([seed, 400])
        theta = np.full(400, 0.5 / (20 * 400))
        for l in (50, 300):
            clamp = ClampSet.from_pattern(ts.patterns[0],
                                          rng.choice(400, size=l, replace=False) + 1)
            got, want = (solve(assemble(store, clamp)) for store in (wm, dense))
            np.testing.assert_array_equal(got.discretized, want.discretized)
            assert got.minimum_certified and want.minimum_certified
            runs = [hopfieldkit.recall(store, clamp.values, theta, rng_seed=[seed, l])
                    for store in (wm, dense)]
            np.testing.assert_array_equal(runs[0].final, runs[1].final)
            assert runs[0].sweeps == runs[1].sweeps
            assert runs[0].converged and runs[1].converged


def mask_stack(rng, d, rows, l, units):
    """rows clamps of l units each, drawn as the harness draws them: bases clamp neuron pairs."""
    masks = np.zeros((rows, d), dtype=bool)
    for mask in masks:
        if units == "bases":
            bases = rng.choice(d // 2, size=l, replace=False)
            mask[2 * bases] = mask[2 * bases + 1] = True
        else:
            mask[rng.choice(d, size=l, replace=False)] = True
    return masks


class TestStackedKernel:
    """_reduced_solve on a stack of clamps against its one-row calls, row by row."""

    @staticmethod
    def assert_rows_match(wm, masks, x_inc, gamma, theta=None):
        xs, block = _reduced_solve(wm, masks, np.where(masks, x_inc, 0.0), gamma, theta)
        assert xs.shape == masks.shape
        stacked = discretize(xs)
        for i, known in enumerate(masks):
            x, one = _reduced_solve(wm, known[None], np.where(known, x_inc, 0.0)[None], gamma,
                                    theta)
            assert block.singular[i] == one.singular[0]
            assert block.definite[i] == one.definite[0]
            if one.singular[0]:
                continue
            np.testing.assert_array_equal(xs[i, known], x_inc[known])
            assert np.abs(xs[i] - x[0]).max() <= 1e-12 * np.abs(x[0]).max()
            np.testing.assert_array_equal(stacked[i], discretize(x[0]))
        return block

    @pytest.mark.parametrize("store", ["trained", "hand-built"])
    @pytest.mark.parametrize("units", ["bases", "neurons"])
    def test_every_row_matches_its_one_row_call(self, make_training, make_weights, store,
                                                units):
        rng = np.random.default_rng([101, len(store), len(units)])
        for _ in range(10):
            d = 2 * int(rng.integers(2, 16))
            if store == "trained":
                wm = train(make_training(rng, int(rng.integers(1, 9)), d))
            else:
                wm = make_weights(rng, d)
            x_inc = rng.choice([-1.0, 1.0], size=d)
            theta = rng.normal(scale=0.3, size=d) if rng.random() < 0.5 else None
            gamma = float(rng.choice([0.3, 1.0]))
            top = d // 2 if units == "bases" else d
            for l in sorted({1, int(rng.integers(1, top + 1)), top}):
                masks = mask_stack(rng, d, int(rng.integers(1, 12)), l, units)
                self.assert_rows_match(wm, masks, x_inc, gamma, theta)

    @pytest.mark.parametrize("thresholds", [False, True])
    def test_singular_rows_of_the_fixture_match_on_both_paths(self, thresholds):
        # at gamma = 0.05 some clamps of 50 fixture neurons leave Q_UU
        # singular and the rest regular, so one stack holds both kinds
        cfg = ExperimentConfig(l_grid=(50,), units="neurons", gamma=0.05)
        ctx = experiments._TrialContext(cfg, ingest(cfg))
        masks = np.array([experiments._known_mask(ctx, 50, np.random.default_rng([0, rep]))
                          for rep in range(200)])
        theta = np.random.default_rng(102).normal(scale=0.3, size=100) if thresholds else None
        verdicts = [self.assert_rows_match(wm, masks, ctx.target, cfg.gamma, theta).singular
                    for wm in (ctx.wm, dense_copy(ctx.wm))]
        np.testing.assert_array_equal(*verdicts)
        assert 0 < verdicts[0].sum() < len(masks)

    @pytest.mark.parametrize("gamma", [1.0, 0.05], ids=["norm-route", "eigen-route"])
    def test_a_trained_stack_may_mix_clamp_counts(self, gamma):
        # the core's Gram is formed without gathering columns, so one stack
        # may clamp any counts, and each row is solved exactly as alone; at
        # gamma = 0.05 some clamps of 50 fixture neurons leave Q_UU singular
        cfg = ExperimentConfig(l_grid=(50,), units="neurons", gamma=gamma)
        ctx = experiments._TrialContext(cfg, ingest(cfg))
        counts = [50 if rep % 2 else (1, 37, 100, 99, 12)[rep // 2 % 5] for rep in range(300)]
        masks = np.array([experiments._known_mask(ctx, l, np.random.default_rng([0, rep]))
                          for rep, l in enumerate(counts)])
        probes = np.where(masks, ctx.target, 0.0)
        xs, block = _reduced_solve(ctx.wm, masks, probes, gamma)
        assert (block.vecs is None) == (gamma == 1.0)
        assert block.singular.any() == (gamma == 0.05)
        for i in range(len(masks)):
            x, one = _reduced_solve(ctx.wm, masks[i:i + 1], probes[i:i + 1], gamma)
            np.testing.assert_array_equal(xs[i], x[0])
            assert block.singular[i] == one.singular[0]
            assert block.definite[i] == one.definite[0]

    def test_a_hand_built_stack_rejects_unequal_clamps(self, make_training):
        wm = dense_copy(train(make_training(np.random.default_rng(103), 2, 6)))
        masks = np.zeros((2, 6), dtype=bool)
        masks[0, :2] = masks[1, :3] = True
        with pytest.raises(ValueError, match="equally many neurons"):
            _reduced_solve(wm, masks, np.where(masks, 1.0, 0.0), 1.0)


class TestNormRoute:
    """The KAPPA_DIRECT route of the reduced blocks against the eigen route and the dense path."""

    @staticmethod
    def eigen_route(monkeypatch, wm, masks, probes, gamma, theta):
        """_reduced_solve with the norm route closed: every stack is eigendecomposed."""
        with monkeypatch.context() as mp:
            mp.setattr(inversion, "KAPPA_DIRECT", 0.0)
            return _reduced_solve(wm, masks, probes, gamma, theta)

    @staticmethod
    def assert_matches_a_dense_solve(wm, masks, probes, gamma, theta, xs, singular):
        """Each row of xs not singular against np.linalg.solve of its dense Q_UU."""
        w = wm.w
        for x, known, probe, skip in zip(xs, masks, probes, singular):
            if skip:
                continue
            free = ~known
            quu = gamma * np.eye(int(free.sum())) - w[np.ix_(free, free)]
            rhs = w[np.ix_(free, known)] @ probe[known]  # -Q_UK x_K
            want = probe.copy()
            want[free] = np.linalg.solve(quu, rhs if theta is None else rhs - theta[free])
            eigs = np.abs(np.linalg.eigvalsh(quu))
            kappa = eigs.max() / eigs.min() if eigs.size else 1.0
            assert np.abs(x - want).max() <= 1e-13 * kappa * np.abs(want).max()

    @pytest.mark.parametrize("store", ["trained", "hand-built"])
    def test_verdicts_and_solutions_match_the_eigen_rule(self, make_training, make_weights,
                                                         monkeypatch, store):
        # gamma below |W|, inside the margin (|W| < gamma < edge) and just past
        # it; the edge is where top = KAPPA_DIRECT (gamma - |W|), with top the
        # bound of the block's largest eigenvalue, gamma + max(|W|, 1/d) for a
        # trained store's core and gamma + |W| for Q_UU itself. Only a trained
        # core takes the norm route past the edge; everywhere else each row
        # not called singular also matches np.linalg.solve of the dense Q_UU
        # within 1e-13 times the row's condition number
        rng = np.random.default_rng([111, len(store)])
        routed = 0
        for _ in range(30):
            d = int(rng.integers(4, 120))
            if store == "trained":
                wm = train(make_training(rng, int(rng.integers(1, 20)), d))
                hi = max(wm.norm, 1.0 / d)
            else:
                wm = make_weights(rng, d, scale=float(rng.uniform(0.05, 0.95)))
                hi = wm.norm
            n = wm.norm
            edge = (KAPPA_DIRECT * n + hi) / (KAPPA_DIRECT - 1.0)
            bands = {
                "below": n * float(rng.choice([1.0, rng.uniform(0.2, 1.0)])),
                "inside": n + (edge - n) * float(10.0 ** rng.uniform(-8, -1e-3)),
                "past": edge * (1.0 + float(10.0 ** rng.uniform(-9, -3))),
            }
            dense = dense_copy(wm)
            masks = mask_stack(rng, d, 8, int(rng.integers(1, d)), "neurons")
            probes = np.where(masks, rng.choice([-1.0, 1.0], size=d), 0.0)
            theta = rng.normal(scale=0.3, size=d) if rng.random() < 0.5 else None
            for band, gamma in bands.items():
                if gamma <= 0.0:
                    continue
                xs, block = _reduced_solve(wm, masks, probes, gamma, theta)
                want, oracle = self.eigen_route(monkeypatch, wm, masks, probes, gamma, theta)
                np.testing.assert_array_equal(block.singular, oracle.singular)
                np.testing.assert_array_equal(block.definite, oracle.definite)
                norm_route = store == "trained" and band == "past"
                assert (block.vecs is None) == norm_route
                if not norm_route:
                    np.testing.assert_array_equal(xs, want)
                    self.assert_matches_a_dense_solve(wm, masks, probes, gamma, theta, xs,
                                                      block.singular)
                    continue
                routed += 1
                assert block.definite.all() and not block.singular.any()
                x_dense, _ = self.eigen_route(monkeypatch, dense, masks, probes, gamma, theta)
                scale = np.abs(x_dense).max(axis=1)
                assert np.all(np.abs(xs - x_dense).max(axis=1) <= 1e-10 * scale)
                np.testing.assert_array_equal(discretize(xs), discretize(x_dense))
        assert routed >= 25 if store == "trained" else routed == 0

    def test_copies_of_c_bound_the_core_when_the_norm_is_below_1_over_d(self, monkeypatch):
        # two orthogonal patterns at M = d = 2: W = 0, so the core's top is
        # c = gamma + 1/d, not gamma + |W|. At gamma = 1e-12 the clamped core's
        # scaled spectrum is {4 gamma, 4 gamma + 2}, which the spectral rule
        # calls singular; at gamma = 1 the route certifies it
        wm = train(TrainingSet([[1.0, 1.0], [1.0, -1.0]]))
        assert wm.norm == 0.0
        masks = np.array([[True, False]])
        probes = np.where(masks, 1.0, 0.0)
        for gamma, routed in [(1e-12, False), (1.0, True)]:
            _, block = _reduced_solve(wm, masks, probes, gamma)
            _, oracle = self.eigen_route(monkeypatch, wm, masks, probes, gamma, None)
            assert (block.vecs is None) == routed
            assert (block.singular[0], block.definite[0]) == (oracle.singular[0],
                                                              oracle.definite[0])
            assert block.singular[0] != routed

    def test_certify_alone_factorizes_nothing_past_the_margin(self, make_training,
                                                              monkeypatch):
        # certify_minimum builds its block as solve does: a trained store's
        # core past the margin is certified from the norm, with no
        # factorization; the margin does not bound a hand-built Q_UU, which
        # takes one eigh and no LU
        calls = []

        def recorded(name):
            def record(a, *args, **kwargs):
                calls.append((name, np.shape(a)))
                return fn(a, *args, **kwargs)
            fn = getattr(np.linalg, name)
            return record

        wm = train(make_training(np.random.default_rng(112), 8, 100))
        stores = (wm, dense_copy(wm))  # each norm is found here, before the patch
        for name in ("eigh", "eigvalsh", "solve", "cholesky"):
            monkeypatch.setattr(np.linalg, name, recorded(name))
        for store, clamp, want in zip(stores, [(1, 2, 3), (1,)], [[], [("eigh", (1, 99, 99))]]):
            calls.clear()
            assert certify_minimum(store, ClampSet.from_pattern(np.ones(100), clamp), 1.0)
            assert calls == want

    @pytest.mark.parametrize("store", ["trained", "hand-built"])
    def test_a_stack_that_mixes_singular_rows(self, store):
        # p = 1 and q alternating on d = 8, each clamp fixing two neurons,
        # leave the unclamped Gram matrix [[6, o], [o, 6]] with o = -(sum of
        # q_K). At gamma = |W| = 3/8, where c M d = 16 gamma + 2 = 8, Q_UU is
        # singular exactly when both clamped neurons have the same parity
        # (o = +/-2). The stack equals its one-row calls, and each row not
        # singular matches a dense solve
        rng = np.random.default_rng([114, len(store)])
        wm = train(TrainingSet([np.ones(8), np.tile([1.0, -1.0], 4)]))
        assert wm.norm == 0.375
        wm = wm if store == "trained" else dense_copy(wm)
        masks = mask_stack(rng, 8, 24, 2, "neurons")
        x_inc, theta = rng.choice([-1.0, 1.0], size=8), rng.normal(scale=0.3, size=8)
        block = TestStackedKernel.assert_rows_match(wm, masks, x_inc, 0.375, theta)
        np.testing.assert_array_equal(block.singular, masks[:, 1::2].sum(axis=1) != 1)
        assert 0 < block.singular.sum() < len(masks)
        probes = np.where(masks, x_inc, 0.0)
        xs, _ = _reduced_solve(wm, masks, probes, 0.375, theta)
        self.assert_matches_a_dense_solve(wm, masks, probes, 0.375, theta, xs, block.singular)


class TestActiveBlockSolve:
    """The truncated solve on A's (d + l)-square active block against the dense A."""

    @staticmethod
    def assert_matches_the_dense_a(sys, mu):
        got = solve(sys, mu)
        a = dense_a(sys)
        v, eta, kept, _ = truncated_pseudoinverse_apply(a, sys.rhs, mu)
        d, scale = sys.d, np.linalg.norm(v)
        assert np.linalg.norm(got.x - v[:d]) <= 1e-12 * scale
        assert np.linalg.norm(got.lam - v[d:]) <= 1e-12 * scale
        # eta = |v - v0| differences two solutions, so its rounding is that
        # of the larger one, the rank-tolerance solution v0
        v0 = truncated_pseudoinverse_apply(a, sys.rhs, 0.0)[0]
        assert abs(got.eta - eta) <= 1e-12 * np.linalg.norm(v0)
        assert got.kept == kept
        np.testing.assert_array_equal(got.discretized, discretize(v[:d]))
        return got

    @pytest.mark.parametrize("store", ["trained", "dense copy", "hand-built"])
    @pytest.mark.parametrize("mu", [0.02, 0.1, 0.5])
    def test_matches_the_dense_a_on_random_instances(self, make_training, make_weights,
                                                     make_clamp, store, mu):
        rng = np.random.default_rng([98, int(100 * mu), len(store)])
        for _ in range(15):
            d = int(rng.integers(2, 30))
            if store == "hand-built":
                wm = make_weights(rng, d)
            else:
                wm = train(make_training(rng, int(rng.integers(1, 8)), d))
                wm = dense_copy(wm) if store == "dense copy" else wm
            theta = rng.normal(scale=0.3, size=d) if rng.random() < 0.5 else None
            gamma = float(rng.choice([0.3, 1.0, 1.5]))
            for l in sorted({1, d - 1, d}):
                clamp = make_clamp(rng, d, l=l)
                got = self.assert_matches_the_dense_a(quiet_assemble(wm, clamp, theta, gamma), mu)
                assert got.kept <= d + l

    def test_trained_store_enters_the_block_from_its_factor(self, make_training, make_clamp):
        # the integer Gram X^T X/(M d) is written into A's active block: A is
        # bit for bit the dense copy's, and no d x d W is derived on the store
        rng = np.random.default_rng(104)
        for _ in range(10):
            d = int(rng.integers(2, 40))
            wm = train(make_training(rng, int(rng.integers(1, 10)), d))
            clamp = make_clamp(rng, d)
            report = solve(quiet_assemble(wm, clamp), mu=0.1)
            assert "w" not in vars(wm)
            dense = dense_copy(wm)
            np.testing.assert_array_equal(report.x, solve(quiet_assemble(dense, clamp), mu=0.1).x)
            for got, want in zip(_ridge_block(wm, clamp.mask(), 1.0),
                                 _ridge_block(dense, clamp.mask(), 1.0)):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("known", [[4], [1, 4, 6]])
    def test_singular_blocks_at_zero_mu_match_the_dense_a(self, known):
        # The duplicated pattern of TestTrainedStore: W_UU has the eigenvalue
        # (|U| - 1)/d along p_U, so gamma there makes Q_UU singular and mu = 0
        # falls back. Clamps of d - 1 or d neurons leave no such gamma > 0.
        p = np.array([1.0, -1.0, -1.0, 1.0, 1.0, 1.0, -1.0, 1.0])
        wm = train(TrainingSet([p, p]))
        clamp = ClampSet(np.where(np.isin(np.arange(8), known), p, 0.0))
        gamma = (8 - len(known) - 1) / 8
        theta = np.random.default_rng(99).normal(size=8)
        for store in (wm, dense_copy(wm)):
            got = self.assert_matches_the_dense_a(quiet_assemble(store, clamp, theta, gamma), 0.0)
            assert got.rank_tol > 0.0 and got.kept == 8 + len(known) - 1


def test_truncated_solve_at_d1000_traces_less_than_the_dense_a():
    """solve(mu=0.1) at d = 1000, M = 20, l = 50 eigendecomposes A's 1050-square
    active block, so its traced peak stays below the dense 2000-square A alone."""
    ts = synthetic_patterns(1000, 20, 0)
    known = np.random.default_rng(0).choice(1000, size=50, replace=False) + 1
    sys = assemble(train(ts), ClampSet.from_pattern(ts.patterns[0], known))
    tracemalloc.start()
    try:
        report = solve(sys, mu=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.kept == 1050 and report.minimum_certified
    assert peak < (2 * 1000) ** 2 * 8, peak


def test_recall_at_d2000_reads_no_matrix_larger_than_the_core(monkeypatch):
    """train plus a certified solve at d = 2000, M = 40: every numpy.linalg
    call sees at most M x M matrices, so neither a d x d eigensolve nor an LU
    of Q_UU runs."""
    ts = synthetic_patterns(2000, 40, 0)
    known = np.sort(np.random.default_rng(0).choice(2000, size=200, replace=False))
    clamp = ClampSet.from_pattern(ts.patterns[0], tuple(int(i) + 1 for i in known))
    mask = clamp.mask()
    q = np.eye(2000) - train(ts).w
    x_ref = clamp.values.copy()
    x_ref[~mask] = np.linalg.solve(q[np.ix_(~mask, ~mask)], -q[np.ix_(~mask, mask)] @ x_ref[mask])
    largest = []

    def recorder(fn):
        def wrapper(*args, **kwargs):
            largest.append(max((max(np.shape(a)[-2:]) for a in args if np.ndim(a) >= 2),
                               default=0))
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh", "eig", "eigvals", "svd", "solve", "lstsq", "inv",
                 "pinv", "cholesky", "qr", "det", "slogdet"):
        monkeypatch.setattr(np.linalg, name, recorder(getattr(np.linalg, name)))
    report = solve(assemble(train(ts), clamp))
    assert report.minimum_certified and report.rank_tol == 0.0
    np.testing.assert_allclose(report.x, x_ref, rtol=0.0, atol=1e-10)
    assert largest and 0 < max(largest) <= 40


@pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="needs RLIMIT_AS")
def test_perturbed_solve_at_d27000_runs_under_a_1_gib_address_space():
    """A dense (gamma + beta) I - W at d = 27 000 would be 5.4 GiB; the
    trained store's perturbed solve reads only its M x d factor."""
    script = (
        "import numpy as np\n"
        "from hopfieldkit import solve_perturbed, train\n"
        "from hopfieldkit.experiments import synthetic_patterns\n"
        "ts = synthetic_patterns(27000, 8, 0)\n"
        "p = ts.patterns[0]\n"
        "r = solve_perturbed(train(ts), p * (np.arange(27000) % 3 != 0), gamma=1.0, beta=1.0)\n"
        "print(bool(np.array_equal(r.discretized, p)), r.minimum_certified)\n"
    )

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    # one BLAS thread, so the cap does not depend on the host's core count
    env = dict(os.environ, PYTHONPATH=str(Path(hopfieldkit.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120, check=False, preexec_fn=cap)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True True\n"
