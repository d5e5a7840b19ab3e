"""Training rule, density matrix, spectral quantities, matrix CSV output."""
import tracemalloc

import numpy as np
import pytest

from hopfieldkit.hebbian import (
    DensityMatrix,
    WeightMatrix,
    density,
    save_matrix_csv,
    spectral_norm,
    train,
)
from hopfieldkit.patterns import TrainingSet


def brute_force_weights(patterns: np.ndarray) -> np.ndarray:
    """Elementwise double loop: w_ij = (1/(M d)) sum_m x_i x_j, zero diagonal."""
    m, d = patterns.shape
    w = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            for k in range(m):
                w[i, j] += patterns[k, i] * patterns[k, j]
    return w / (m * d)


class TestTrain:
    def test_single_pattern_two_neurons(self):
        wm = train(TrainingSet([[1.0, 1.0]]))
        np.testing.assert_array_equal(wm.w, [[0.0, 0.5], [0.5, 0.0]])

    def test_orthogonal_pair_cancels(self):
        wm = train(TrainingSet([[1.0, 1.0], [1.0, -1.0]]))
        np.testing.assert_array_equal(wm.w, np.zeros((2, 2)))

    def test_matches_brute_force_double_loop(self, make_training):
        rng = np.random.default_rng(21)
        for _ in range(10):
            m = int(rng.integers(1, 5))
            d = int(rng.integers(2, 9))
            ts = make_training(rng, m, d)
            np.testing.assert_allclose(train(ts).w,
                                       brute_force_weights(ts.patterns),
                                       atol=1e-14)

    def test_invariants_on_random_sets(self, make_training):
        rng = np.random.default_rng(22)
        for _ in range(10):
            ts = make_training(rng, int(rng.integers(1, 9)), int(rng.integers(2, 40)))
            wm = train(ts)
            np.testing.assert_array_equal(wm.w, wm.w.T)
            assert np.all(np.diag(wm.w) == 0.0)
            assert spectral_norm(wm) <= 1.0 + 1e-12

    @pytest.mark.parametrize("m,d", [(1, 2), (1, 30), (3, 17), (8, 100), (9, 9),
                                     (20, 6), (40, 12)])
    def test_norm_from_the_gram_matrix_equals_the_dense_spectrum(self, make_training, m, d):
        rng = np.random.default_rng([26, m, d])
        for _ in range(5):
            ts = make_training(rng, m, d)
            wm = train(ts)
            assert abs(wm.norm - np.max(np.abs(np.linalg.eigvalsh(wm.w)))) <= 1e-12

    def test_norm_with_repeated_or_orthogonal_patterns(self):
        # rank X < min(M, d): the Gram matrix has zero eigenvalues of its own;
        # three orthogonal patterns over 4 neurons: W's eigenvalue -1/d on the
        # complement of the patterns' span sets the norm, 1/4 against 1/12
        p = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
        orthogonal = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1]]
        for rows in ([p, p, p], [p, -p, p, p, -p, p, p], orthogonal):
            wm = train(TrainingSet(rows))
            assert abs(wm.norm - np.max(np.abs(np.linalg.eigvalsh(wm.w)))) <= 1e-12
        assert wm.norm == pytest.approx(0.25, abs=1e-15)

    def test_keeps_the_patterns_as_its_factor(self, make_training):
        ts = make_training(np.random.default_rng(27), 4, 9)
        wm = train(ts)
        np.testing.assert_array_equal(wm.factor, ts.patterns)
        assert not wm.factor.flags.writeable and not wm.w.flags.writeable
        shifted = wm.factor.T @ wm.factor / (4 * 9) - np.eye(9) / 9
        np.testing.assert_allclose(wm.w, shifted, rtol=0.0, atol=1e-15)
        assert WeightMatrix(wm.w).factor is None

    def test_keeps_the_pattern_gram_it_took_the_norm_from(self, make_training):
        # X X^T is kept from the norm's eigvalsh when M < d, and derived on
        # first read otherwise; integer sums, so bit for bit either way
        rng = np.random.default_rng(28)
        for m, d in ((3, 10), (8, 8), (12, 5)):
            ts = make_training(rng, m, d)
            wm = train(ts)
            assert ("gram" in vars(wm)) == (m < d)
            np.testing.assert_array_equal(wm.gram, np.einsum("ik,jk->ij", ts.patterns,
                                                             ts.patterns))
            assert not wm.gram.flags.writeable

    def test_derives_w_from_the_factor_on_first_read(self, make_training):
        rng = np.random.default_rng(29)
        for _ in range(20):
            m, d = int(rng.integers(1, 12)), int(rng.integers(2, 65))
            ts = make_training(rng, m, d)
            wm = train(ts)
            assert repr(wm).startswith(f"WeightMatrix(trained from m={m} patterns, d={d},")
            assert "w" not in vars(wm) and wm.d == d
            w = wm.w
            # integer sums are exact in any order, so this is bit for bit
            oracle = np.einsum("ki,kj->ij", ts.patterns, ts.patterns) / (m * d)
            np.fill_diagonal(oracle, 0.0)
            np.testing.assert_array_equal(w, oracle)
            assert not w.flags.writeable
            assert wm.w is w

    def test_allocates_no_d_by_d_array(self, make_training):
        ts = make_training(np.random.default_rng(30), 8, 3000)
        tracemalloc.start()
        try:
            wm = train(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3000 * 3000 * 8 / 100  # a dense W would be 72 MB
        assert "w" not in vars(wm)

    def test_runs_no_eigensolve_larger_than_the_smaller_gram(self, make_training,
                                                              monkeypatch):
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a, *args, **kwargs):
            sizes.append(np.shape(a)[0])
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        rng = np.random.default_rng(28)
        for m, d in ((5, 60), (60, 7)):
            train(make_training(rng, m, d))
        assert sizes == [5, 7]

    def test_large_synthetic_set_stays_contractive(self, make_training):
        ts = make_training(np.random.default_rng(23), 8, 100)
        assert spectral_norm(train(ts)) <= 1.0

    def test_permutation_equivariance(self, make_training):
        rng = np.random.default_rng(24)
        ts = make_training(rng, 3, 7)
        perm = rng.permutation(7)
        permuted = train(TrainingSet(ts.patterns[:, perm])).w
        np.testing.assert_allclose(permuted, train(ts).w[np.ix_(perm, perm)],
                                   atol=1e-15)

    def test_stored_pattern_quadratic_form_identity(self, make_training):
        # x^T W x = (1/(M d)) sum_m' <x, x^(m')>^2 - x^T x / d for any binary x
        rng = np.random.default_rng(25)
        for _ in range(10):
            m = int(rng.integers(1, 5))
            d = int(rng.integers(2, 9))
            ts = make_training(rng, m, d)
            w = train(ts).w
            for x in ts.patterns:
                direct = float(x @ w @ x)
                overlaps = sum(float(x @ p) ** 2 for p in ts.patterns)
                np.testing.assert_allclose(direct, overlaps / (m * d) - 1.0,
                                           atol=1e-12)


class TestDensity:
    def test_single_pattern_projector(self):
        dm = density(TrainingSet([[1.0, 1.0]]))
        np.testing.assert_allclose(dm.rho, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_orthogonal_pair_gives_maximal_mixture(self):
        dm = density(TrainingSet([[1.0, 1.0], [1.0, -1.0]]))
        np.testing.assert_allclose(dm.rho, np.eye(2) / 2.0, atol=1e-15)

    def test_offset_from_weights_is_identity_over_d(self, make_training):
        rng = np.random.default_rng(31)
        for _ in range(8):
            d = int(rng.integers(2, 20))
            ts = make_training(rng, int(rng.integers(1, 6)), d)
            wm = train(ts)
            np.testing.assert_allclose(density(ts).rho - wm.w, np.eye(d) / d,
                                       atol=1e-12)

    def test_equals_mixture_of_normalized_projectors(self, make_training):
        rng = np.random.default_rng(32)
        ts = make_training(rng, 4, 6)
        mixture = np.zeros((6, 6))
        for x in ts.patterns:
            xhat = x / np.linalg.norm(x)
            mixture += np.outer(xhat, xhat)
        np.testing.assert_allclose(density(ts).rho, mixture / 4.0, atol=1e-12)

    def test_trace_one_and_positive_semidefinite(self, make_training):
        rng = np.random.default_rng(33)
        for _ in range(8):
            dm = density(make_training(rng, int(rng.integers(1, 7)),
                                       int(rng.integers(2, 30))))
            assert abs(np.trace(dm.rho) - 1.0) <= 1e-12
            assert np.min(np.linalg.eigvalsh(dm.rho)) >= -1e-12

    def test_patterns_give_the_bits_of_the_weights(self, make_training):
        rng = np.random.default_rng(34)
        for _ in range(40):
            ts = make_training(rng, int(rng.integers(1, 12)), int(rng.integers(2, 65)))
            rho = density(ts).rho
            np.testing.assert_array_equal(rho, density(train(ts)).rho)
            assert not rho.flags.writeable

    def test_trained_store_gives_the_checked_bits_without_deriving_w(self, make_training):
        rng = np.random.default_rng(35)
        for _ in range(20):
            wm = train(make_training(rng, int(rng.integers(1, 12)), int(rng.integers(2, 65))))
            rho = density(wm).rho
            assert "w" not in vars(wm)
            assert not rho.flags.writeable
            # the hand-built path: W + I/d, checked as a DensityMatrix
            np.testing.assert_array_equal(rho, density(WeightMatrix(wm.w)).rho)

    def test_accepts_weight_matrix_input(self):
        ts = TrainingSet([[1.0, 1.0]])
        np.testing.assert_allclose(density(train(ts)).rho, density(ts).rho,
                                   atol=1e-15)

    def test_rejects_other_inputs(self):
        with pytest.raises(TypeError, match="TrainingSet or WeightMatrix"):
            density(np.eye(2))


class TestValidation:
    def test_weight_matrix_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            WeightMatrix([[0.0, 0.5], [0.4, 0.0]])

    def test_weight_matrix_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            WeightMatrix([[0.1, 0.0], [0.0, 0.0]])

    def test_weight_matrix_rejects_norm_above_one(self):
        with pytest.raises(ValueError, match="spectral norm"):
            WeightMatrix([[0.0, 1.2], [1.2, 0.0]])

    def test_weight_matrix_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            WeightMatrix(np.zeros((2, 3)))

    def test_weight_matrix_takes_only_the_couplings(self):
        w = [[0.0, 0.5], [0.5, 0.0]]
        with pytest.raises(TypeError):
            WeightMatrix(w, 0.5)
        with pytest.raises(TypeError):
            WeightMatrix(w=w, norm=0.5)

    def test_weights_are_immutable(self, worked_wm):
        with pytest.raises(ValueError):
            worked_wm.w[0, 1] = 0.0

    def test_density_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            DensityMatrix(np.diag([1.5, -0.5]))


class TestSpectralNorm:
    def test_worked_coupling(self, worked_wm):
        assert spectral_norm(worked_wm) == pytest.approx(0.5, abs=1e-12)

    def test_zero_matrix(self):
        assert spectral_norm(WeightMatrix(np.zeros((3, 3)))) == 0.0

    def test_matches_two_norm_for_symmetric(self, make_weights):
        rng = np.random.default_rng(41)
        for d in (1, 2, 9, 30):
            wm = make_weights(rng, d)
            assert spectral_norm(wm) == wm.norm
            assert spectral_norm(wm) == pytest.approx(np.linalg.norm(wm.w, 2),
                                                      rel=1e-10)


class TestMatrixCsv:
    def test_round_trip_is_exact(self, tmp_path, make_weights):
        wm = make_weights(np.random.default_rng(51), 6)
        path = tmp_path / "w.csv"
        save_matrix_csv(path, wm)
        assert path.read_text().splitlines()[0] == "d=6"
        np.testing.assert_array_equal(np.loadtxt(path, delimiter=",", skiprows=1), wm.w)

    def test_header_records_dimension(self, tmp_path):
        path = tmp_path / "w.csv"
        save_matrix_csv(path, WeightMatrix(np.zeros((3, 3))))
        assert path.read_text().splitlines()[0] == "d=3"
