"""Product-formula evolution of pattern projectors and the block split."""
import numpy as np
import pytest
from scipy.linalg import expm

from dense_saddle import dense_a, exact_evolution, padded_a
from hopfieldkit.hebbian import density, train
from hopfieldkit.inversion import _ridge_block, assemble
from hopfieldkit.patterns import ClampSet, TrainingSet
from hopfieldkit.quantum.evolution import (
    TROTTER_EPS,
    BlockSplitEvolution,
    assemble_quantum_a,
    conditional_pattern_step,
    conditional_pattern_step_swap,
    pattern_product_unitary,
)
from test_quantum_solver import eigenbasis_instances

TWO_PATTERNS = TrainingSet([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, -1.0]])


class TestConditionalPatternStep:
    def test_control_zero_branch_untouched(self):
        rng = np.random.default_rng(11)
        top = rng.normal(size=4)
        state = np.concatenate([top, np.zeros(4)]) / np.linalg.norm(top)
        out = conditional_pattern_step(state, [1.0, -1.0, 1.0, 1.0], 0.3)
        np.testing.assert_array_equal(out, state)

    def test_pattern_eigenstate_gets_global_phase(self):
        x = np.array([1.0, -1.0, 1.0, 1.0])
        xhat = x / 2.0
        state = np.concatenate([np.zeros(4), xhat]).astype(complex)
        out = conditional_pattern_step(state, x, 0.7)
        np.testing.assert_allclose(out[4:], np.exp(-0.7j) * xhat, atol=1e-14)
        np.testing.assert_allclose(np.abs(out) ** 2, np.abs(state) ** 2,
                                   atol=1e-14)

    def test_orthogonal_system_state_untouched(self):
        y = np.array([1.0, 1.0, -1.0, 1.0]) / 2.0  # orthogonal to the pattern
        state = np.concatenate([np.zeros(4), y]).astype(complex)
        out = conditional_pattern_step(state, [1.0, -1.0, 1.0, 1.0], 0.7)
        np.testing.assert_allclose(out, state, atol=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(12)
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
        state /= np.linalg.norm(state)
        out = conditional_pattern_step(state, [1.0, 1.0, -1.0, 1.0], 0.4)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="length 8"):
            conditional_pattern_step(np.zeros(4), [1.0, 1.0, 1.0, -1.0], 0.1)
        with pytest.raises(ValueError, match="cannot embed a zero vector"):
            conditional_pattern_step(np.zeros(8), [0.0, 0.0, 0.0, 0.0], 0.1)


class TestSwapTrickStep:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.pattern = np.array([1.0, -1.0, 1.0, 1.0])
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
        self.state = state / np.linalg.norm(state)

    def gap(self, dt):
        exact = conditional_pattern_step(self.state, self.pattern, dt)
        swapped = conditional_pattern_step_swap(self.state, self.pattern, dt)
        return float(np.linalg.norm(swapped - np.outer(exact, exact.conj()), 2))

    def test_output_is_a_density_matrix(self):
        rho = conditional_pattern_step_swap(self.state, self.pattern, 0.05)
        assert rho.shape == (8, 8)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    def test_density_input_matches_vector_input(self):
        from_vec = conditional_pattern_step_swap(self.state, self.pattern, 0.05)
        from_rho = conditional_pattern_step_swap(
            np.outer(self.state, self.state.conj()), self.pattern, 0.05)
        np.testing.assert_allclose(from_rho, from_vec, atol=1e-13)

    def test_gap_to_exact_step_is_quadratic(self):
        g1, g2 = self.gap(0.01), self.gap(0.005)
        assert g1 <= 1.0 * 0.01 ** 2  # small constant in front of dt^2
        assert 1.8 <= np.log2(g1 / g2) <= 2.2

    def test_rejects_malformed_state(self):
        with pytest.raises(ValueError, match="vector or square density"):
            conditional_pattern_step_swap(np.zeros((8, 4)), self.pattern, 0.1)
        with pytest.raises(ValueError, match="length 8"):
            conditional_pattern_step_swap(np.zeros(6), self.pattern, 0.1)


class TestQhebEvolve:
    """The controlled Hebbian evolution on a control + system register.

    n conditional steps of dt = t / n apply e^{-i rho t} on the control-1
    block and leave the control-0 block alone.
    """

    def test_single_pattern_exact_for_any_step_count(self):
        ts = TrainingSet([[1.0, 1.0]])
        rho = density(train(ts))
        rng = np.random.default_rng(31)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        for n, t in ((1, 0.09), (3, 0.09), (7, 0.09), (30, 2.0)):
            out = amps
            for _ in range(n):
                out = conditional_pattern_step(out, ts.patterns[0], t / n)
            expected = amps.copy()
            expected[2:] = expm(-1j * rho * t) @ expected[2:]
            assert np.linalg.norm(out - expected) <= 1e-10


class TestPatternProductUnitary:
    def test_single_pattern_is_exact(self):
        ts = TrainingSet([[1.0, 1.0]])
        rho = density(train(ts))
        for n, t in ((1, 0.9), (3, 0.9), (7, 0.9), (30, 2.0), (5, 0.0)):
            g = pattern_product_unitary(ts, t, n)
            np.testing.assert_allclose(g, expm(-1j * rho * t), atol=1e-10)

    def test_is_unitary(self):
        g = pattern_product_unitary(TWO_PATTERNS, 1.3, 5)
        np.testing.assert_allclose(g @ g.conj().T, np.eye(4), atol=1e-12)

    def test_doubling_steps_halves_the_error(self):
        rho = density(train(TWO_PATTERNS))
        exact = expm(-1j * rho * 1.0)
        errs = [np.linalg.norm(pattern_product_unitary(TWO_PATTERNS, 1.0, n)
                               - exact, 2) for n in (4, 8, 16)]
        assert errs[0] / errs[1] >= 1.8
        assert errs[1] / errs[2] >= 1.8

    def test_rejects_bad_step_count(self):
        with pytest.raises(ValueError, match="step count n must be an integer >= 1"):
            pattern_product_unitary(TWO_PATTERNS, 1.0, 0)


class TestHermitianEvolution:
    def test_matches_dense_exponential(self):
        # row and column 2 of h are zero, so e^{iht} is the identity there
        rng = np.random.default_rng(41)
        h = rng.normal(size=(5, 5))
        h = (h + h.T) / 2.0
        h[2, :] = h[:, 2] = 0.0
        for t in (0.3, 1.7, -0.9):
            u = exact_evolution(h, t)
            np.testing.assert_allclose(u, expm(1j * h * t), atol=1e-12)
            np.testing.assert_allclose(u[2], np.eye(5)[2], atol=1e-12)


class TestBlockSplitEvolution:
    def make(self, **kwargs):
        ts = TrainingSet([[1.0, 1.0]])
        clamp = ClampSet(np.array([1.0, 0.0]))
        return BlockSplitEvolution(ts, clamp, kwargs.pop("gamma", 1.0), **kwargs)

    def test_shifted_ridge_and_bound(self):
        evo = self.make()
        assert evo.gamma_prime == pytest.approx(1.5)
        assert evo.spectral_bound == pytest.approx(3.0)
        assert evo.d_pad == 2 and evo.dim == 4

    def test_padding_dimensions(self):
        ts = TrainingSet([[1.0, 1.0, -1.0]])
        clamp = ClampSet(np.array([1.0, 0.0, 0.0]))
        evo = BlockSplitEvolution(ts, clamp, 1.0)
        assert evo.d_pad == 4 and evo.dim == 8

    def test_top_block_recovers_couplings_minus_ridge(self):
        # D + C on the top block, rho - (gamma + 1/d) I, must equal W - gamma I,
        # the top of the block reference mode reads, exactly when no padding
        # is involved
        for ts in (TrainingSet([[1.0, 1.0]]), TWO_PATTERNS):
            d = ts.d
            clamp = ClampSet(np.array([1.0] + [0.0] * (d - 1)))
            evo = BlockSplitEvolution(ts, clamp, 1.0)
            top = _ridge_block(ts, clamp.mask(), evo.gamma)[0][:d, :d]
            np.testing.assert_array_equal(top, train(ts).w - np.eye(d))
            np.testing.assert_array_equal(top, density(ts) - evo.gamma_prime * np.eye(d))

    def test_logical_system_matches_classical_assembly(self):
        # on the logical coordinates the circuit evolves under the classical A;
        # the padding rows it adds are decoupled from them
        cases = [(TWO_PATTERNS, ClampSet(np.array([1.0, 0.0, -1.0, 0.0]))),
                 (TrainingSet([[1.0, 1.0, -1.0], [1.0, -1.0, -1.0]]),
                  ClampSet(np.array([0.0, -1.0, 0.0])))]
        for ts, clamp in cases:
            d = ts.d
            evo = BlockSplitEvolution(ts, clamp, 1.0)
            logical = np.r_[0:d, evo.d_pad:evo.d_pad + d]
            a = dense_a(assemble(train(ts), clamp, gamma=1.0))
            u = evo(0.5)
            err = np.linalg.norm(u[np.ix_(logical, logical)] - expm(0.5j * a), 2)
            assert err <= 2.0 * TROTTER_EPS, (d, err)
            np.testing.assert_allclose(padded_a(ts, clamp, 1.0)[np.ix_(logical, logical)], a,
                                       rtol=0, atol=1e-15)

    def test_reference_mode_converges_to_dense_exponential(self):
        # the exact e^{iAt} the circuit tests run in place of the product
        # formula: V e^{i Lambda t} V^T from the padded A's eigenpairs
        for ts, clamp, kwargs in eigenbasis_instances():
            if kwargs["mu"] != 0.05:
                continue  # mu does not enter A
            a = padded_a(ts, clamp, kwargs["gamma"])
            t0 = np.pi / (kwargs["gamma"] + 2.0)
            for t in (t0, -0.7):
                u = exact_evolution(a, t)
                assert np.linalg.norm(u - expm(1j * a * t), 2) <= 1e-12

    def test_eigenbasis_spans_the_active_block(self):
        # padded d = 3: reference mode's block holds the 3 neurons and the one
        # clamped multiplier; the padded A adds the top padding row, decoupled
        # at -gamma', and zero rows on the unclamped multipliers
        ts = TrainingSet([[1.0, 1.0, -1.0], [1.0, -1.0, -1.0]])
        clamp = ClampSet(np.array([0.0, -1.0, 0.0]))
        block, active = _ridge_block(ts, clamp.mask(), 0.5)
        np.testing.assert_array_equal(active, [0, 1, 2, 4])
        a = padded_a(ts, clamp, 0.5)
        logical = np.array([0, 1, 2, 5])
        np.testing.assert_array_equal(a[3], -(0.5 + 1.0 / 3.0) * np.eye(8)[3])
        for row in (4, 6, 7):
            np.testing.assert_array_equal(a[row], 0.0)
            np.testing.assert_array_equal(a[:, row], 0.0)
        eigs, vecs = np.linalg.eigh(block)
        np.testing.assert_allclose((vecs * eigs) @ vecs.T, a[np.ix_(logical, logical)],
                                   atol=1e-14)

    def test_call_is_unitary(self):
        u = self.make()(0.7)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-9)

    def test_zero_time_is_identity(self):
        np.testing.assert_array_equal(self.make()(0.0), np.eye(4))

    def test_trotter_steps_meet_their_error_target(self):
        # n = ceil(t^2 / TROTTER_EPS) steps bound the first-order split error
        # by a small multiple of TROTTER_EPS; on the W = 0 instance the split
        # blocks do not commute, so the error is there and nonzero
        cases = [(TrainingSet([[1.0, 1.0]]), ClampSet(np.array([1.0, 0.0])), 1.0),
                 (TrainingSet([[1.0, 1.0, -1.0], [1.0, -1.0, -1.0]]),  # padded
                  ClampSet(np.array([0.0, -1.0, 0.0])), 0.5),
                 (TrainingSet([[1.0, 1.0], [1.0, -1.0]]),  # no couplings
                  ClampSet(np.array([1.0, 1.0])), 1.0)]
        for case, (ts, clamp, gamma) in enumerate(cases):
            evo = BlockSplitEvolution(ts, clamp, gamma)
            a = padded_a(ts, clamp, gamma)
            for t in (0.5, 1.0, np.pi / 3.0):
                err = np.linalg.norm(evo(t) - expm(1j * a * t), 2)
                assert err <= 2.0 * TROTTER_EPS, (ts.d, t, err)
                if case == 2:
                    assert err > 0.1 * TROTTER_EPS, (t, err)

    def test_split_blocks_do_not_commute_yet_reference_converges(self):
        # Even with zero couplings and every neuron clamped, the projector
        # block fails to commute with the diagonal blocks (their commutator
        # has unit norm), so no step count makes the product formula exact
        # (test_trotter_steps_meet_their_error_target sees its error); one
        # eigendecomposition of reference mode's block, which here spans
        # every coordinate, is.
        ts = TrainingSet([[1.0, 1.0], [1.0, -1.0]])  # makes W = 0
        clamp = ClampSet(np.array([1.0, 1.0]))
        np.testing.assert_array_equal(train(ts).w, np.zeros((2, 2)))
        a = padded_a(ts, clamp, 1.0)
        b = a.copy()
        b[:2, :2] = 0.0
        cd = a - b
        commutator = b @ cd - cd @ b
        assert np.linalg.norm(commutator, 2) > 0.1
        exact = expm(1j * a * 1.0)
        reference = exact_evolution(_ridge_block(ts, clamp.mask(), 1.0)[0], 1.0)
        assert np.linalg.norm(reference - exact, 2) <= 1e-12

    def test_validation(self):
        ts = TrainingSet([[1.0, 1.0]])
        clamp = ClampSet(np.array([1.0, 0.0]))
        for gamma in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="gamma must be positive"):
                BlockSplitEvolution(ts, clamp, gamma)
        for source in (np.eye(2), train(ts)):
            with pytest.raises(TypeError, match="source must be a TrainingSet$"):
                BlockSplitEvolution(source, clamp, 1.0)
        bad_clamp = ClampSet(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="does not match"):
            BlockSplitEvolution(ts, bad_clamp, 1.0)

    def test_wrapper_passes_through(self):
        ts = TrainingSet([[1.0, 1.0]])
        clamp = ClampSet(np.array([1.0, 0.0]))
        evo = assemble_quantum_a(ts, clamp, 1.2)
        assert isinstance(evo, BlockSplitEvolution)
        assert evo.gamma == pytest.approx(1.2)
        np.testing.assert_array_equal(evo(0.5), BlockSplitEvolution(ts, clamp, 1.2)(0.5))
