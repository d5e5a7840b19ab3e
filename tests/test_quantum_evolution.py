"""Product-formula evolution of pattern projectors and the block split."""
import numpy as np
import pytest
from scipy.linalg import expm

from hopfieldkit import patterns
from hopfieldkit.hebbian import density, train
from hopfieldkit.patterns import ClampSet, TrainingSet
from hopfieldkit.quantum.evolution import (
    TROTTER_EPS,
    BlockSplitEvolution,
    assemble_quantum_a,
    conditional_pattern_step,
    conditional_pattern_step_swap,
    pattern_product_unitary,
)
from test_quantum_solver import eigenbasis_instances, exact_evolution

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
        with pytest.raises(ValueError, match="zero pattern"):
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
        rho = density(train(ts)).rho
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
        rho = density(train(ts)).rho
        for n, t in ((1, 0.9), (3, 0.9), (7, 0.9), (30, 2.0), (5, 0.0)):
            g = pattern_product_unitary(ts, t, n)
            np.testing.assert_allclose(g, expm(-1j * rho * t), atol=1e-10)

    def test_is_unitary(self):
        g = pattern_product_unitary(TWO_PATTERNS, 1.3, 5)
        np.testing.assert_allclose(g @ g.conj().T, np.eye(4), atol=1e-12)

    def test_doubling_steps_halves_the_error(self):
        rho = density(train(TWO_PATTERNS)).rho
        exact = expm(-1j * rho * 1.0)
        errs = [np.linalg.norm(pattern_product_unitary(TWO_PATTERNS, 1.0, n)
                               - exact, 2) for n in (4, 8, 16)]
        assert errs[0] / errs[1] >= 1.8
        assert errs[1] / errs[2] >= 1.8

    def test_rejects_bad_step_count(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            pattern_product_unitary(TWO_PATTERNS, 1.0, 0)


class TestHermitianEvolution:
    def test_matches_dense_exponential(self):
        # row and column 2 of h are zero, so e^{iht} is the identity there
        rng = np.random.default_rng(41)
        h = rng.normal(size=(5, 5))
        h = (h + h.T) / 2.0
        h[2, :] = h[:, 2] = 0.0
        active = np.array([0, 1, 3, 4])
        for t in (0.3, 1.7, -0.9):
            u = exact_evolution(h[np.ix_(active, active)], active, 5, t)
            np.testing.assert_allclose(u, expm(1j * h * t), atol=1e-12)


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
        # D + C on the top block must equal W - gamma I exactly when no
        # padding is involved: rho - (gamma + 1/d) I = W - gamma I.
        for ts in (TrainingSet([[1.0, 1.0]]), TWO_PATTERNS):
            d = ts.d
            clamp = ClampSet(np.array([1.0] + [0.0] * (d - 1)))
            evo = BlockSplitEvolution(ts, clamp, 1.0)
            w = train(ts).w
            np.testing.assert_array_equal(evo.a[:d, :d], w - np.eye(d))

    def test_recalls_from_one_store_build_rho_once(self, monkeypatch):
        gram, grams = patterns._pattern_gram, []

        def counting_gram(p):
            grams.append(p)
            return gram(p)

        monkeypatch.setattr(patterns, "_pattern_gram", counting_gram)
        ts = TrainingSet(TWO_PATTERNS.patterns)
        clamps = [ClampSet(np.array(p)) for p in ([1.0, 0, 0, 0], [0, 1.0, -1.0, 0])]
        blocks = [BlockSplitEvolution(ts, clamp, 1.0).active_block()[0] for clamp in clamps]
        assert len(grams) == 1
        for block, clamp in zip(blocks, clamps):  # bit for bit a fresh store's block
            fresh = BlockSplitEvolution(TrainingSet(ts.patterns), clamp, 1.0)
            np.testing.assert_array_equal(block, fresh.active_block()[0])

    def test_logical_system_matches_classical_assembly(self):
        from hopfieldkit.inversion import assemble

        cases = [(TWO_PATTERNS, ClampSet(np.array([1.0, 0.0, -1.0, 0.0]))),
                 (TrainingSet([[1.0, 1.0, -1.0], [1.0, -1.0, -1.0]]),
                  ClampSet(np.array([0.0, -1.0, 0.0])))]
        for ts, clamp in cases:
            d = ts.d
            evo = BlockSplitEvolution(ts, clamp, 1.0)
            logical = np.r_[0:d, evo.d_pad:evo.d_pad + d]
            sys = assemble(train(ts), clamp, gamma=1.0)
            np.testing.assert_allclose(evo.a[np.ix_(logical, logical)], sys.a, atol=1e-15)

    def test_reference_mode_converges_to_dense_exponential(self):
        # the exact e^{iAt} the circuit tests run in place of the product
        # formula: V e^{i Lambda t} V^T on the active block
        for ts, clamp, kwargs in eigenbasis_instances():
            if kwargs["mu"] != 0.05:
                continue  # mu does not enter A
            evo = BlockSplitEvolution(ts, clamp, kwargs["gamma"])
            t0 = np.pi / evo.spectral_bound
            for t in (t0, -0.7):
                u = exact_evolution(*evo.active_block(), evo.dim, t)
                assert np.linalg.norm(u - expm(1j * evo.a * t), 2) <= 1e-12

    def test_eigenbasis_spans_the_active_block(self):
        # padded d = 3: the top padding row is active (A has -gamma' there),
        # the bottom padding and the unclamped multipliers are not
        evo = BlockSplitEvolution(TrainingSet([[1.0, 1.0, -1.0], [1.0, -1.0, -1.0]]),
                                  ClampSet(np.array([0.0, -1.0, 0.0])), 0.5)
        block, active = evo.active_block()
        np.testing.assert_array_equal(active, [0, 1, 2, 3, 5])
        inactive = np.setdiff1d(np.arange(evo.dim), active)
        np.testing.assert_array_equal(evo.a[inactive], 0.0)
        np.testing.assert_array_equal(evo.a[:, inactive], 0.0)
        eigs, vecs = np.linalg.eigh(block)
        np.testing.assert_allclose((vecs * eigs) @ vecs.T, evo.a[np.ix_(active, active)],
                                   atol=1e-14)

    def test_active_block_is_the_slice_of_the_dense_a(self):
        for ts, clamp, kwargs in eigenbasis_instances():
            evo = BlockSplitEvolution(ts, clamp, kwargs["gamma"])
            block, active = evo.active_block()
            np.testing.assert_array_equal(block, evo.a[np.ix_(active, active)])

    def test_call_is_unitary(self):
        u = self.make()(0.7)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-9)

    def test_zero_time_is_identity(self):
        np.testing.assert_array_equal(self.make()(0.0), np.eye(4))

    def test_trotter_steps_meet_their_error_target(self):
        # n = ceil(t^2 / TROTTER_EPS) steps bound the first-order split error
        # by a small multiple of TROTTER_EPS; on the W = 0 instance the split
        # blocks do not commute, so the error is there and nonzero
        padded = BlockSplitEvolution(TrainingSet([[1.0, 1.0, -1.0], [1.0, -1.0, -1.0]]),
                                     ClampSet(np.array([0.0, -1.0, 0.0])), 0.5)
        no_couplings = BlockSplitEvolution(TrainingSet([[1.0, 1.0], [1.0, -1.0]]),
                                           ClampSet(np.array([1.0, 1.0])), 1.0)
        for evo in (self.make(), padded, no_couplings):
            for t in (0.5, 1.0, np.pi / 3.0):
                err = np.linalg.norm(evo(t) - expm(1j * evo.a * t), 2)
                assert err <= 2.0 * TROTTER_EPS, (evo.d, t, err)
                if evo is no_couplings:
                    assert err > 0.1 * TROTTER_EPS, (t, err)

    def test_split_blocks_do_not_commute_yet_reference_converges(self):
        # Even with zero couplings and every neuron clamped, the projector
        # block fails to commute with the diagonal blocks (their commutator
        # has unit norm), so no step count makes the product formula exact
        # (test_trotter_steps_meet_their_error_target sees its error); one
        # eigendecomposition of the active block is.
        ts = TrainingSet([[1.0, 1.0], [1.0, -1.0]])  # makes W = 0
        clamp = ClampSet(np.array([1.0, 1.0]))
        evo = BlockSplitEvolution(ts, clamp, 1.0)
        np.testing.assert_array_equal(train(ts).w, np.zeros((2, 2)))
        b = evo.a.copy()
        b[:2, :2] = 0.0
        cd = evo.a - b
        commutator = b @ cd - cd @ b
        assert np.linalg.norm(commutator, 2) > 0.1
        exact = expm(1j * evo.a * 1.0)
        reference = exact_evolution(*evo.active_block(), evo.dim, 1.0)
        assert np.linalg.norm(reference - exact, 2) <= 1e-12

    def test_validation(self):
        ts = TrainingSet([[1.0, 1.0]])
        clamp = ClampSet(np.array([1.0, 0.0]))
        for gamma in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="gamma must be positive"):
                BlockSplitEvolution(ts, clamp, gamma)
        for source in (np.eye(2), density(ts)):
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
        np.testing.assert_array_equal(evo.a, BlockSplitEvolution(ts, clamp, 1.2).a)
