"""Asynchronous single-neuron recall: energy, updates, convergence."""
import copy

import numpy as np
import pytest

from hopfieldkit import experiments
from hopfieldkit.experiments import ExperimentConfig, ingest
from hopfieldkit.hebbian import WeightMatrix, train
from hopfieldkit.iterative import RecallTrace, energy, recall
from hopfieldkit.patterns import TrainingSet, as_pattern, as_thresholds


def reference_recall(wm, start, theta=None, rng_seed=None, max_sweeps=100,
                     order="random", fill="plus"):
    """The plain float loop: one draw and one row product w[i] @ x per update.

    Returns the final state, sweeps, energy trace, converged flag and the
    number of updates whose field lay within 1e-12 of its threshold, ties
    in exact arithmetic that rounding leaves on either side.
    """
    x = as_pattern(start, d=wm.d).copy()
    rng = np.random.default_rng(rng_seed)
    unknown = x == 0.0
    if np.any(unknown):
        if fill == "plus":
            x[unknown] = 1.0
        else:
            x[unknown] = rng.choice([-1.0, 1.0], size=int(unknown.sum()))
    t = as_thresholds(theta, wm.d)
    w = wm.w
    d = wm.d
    energies = [float(-0.5 * x @ w @ x + t @ x)]
    stable_run = 0
    updates = 0
    ties = 0
    budget = max_sweeps * d
    converged = False
    while updates < budget:
        if order == "random":
            i = int(rng.integers(d))
        else:
            i = updates % d
        field = w[i] @ x
        ties += abs(field - t[i]) <= 1e-12
        new = 1.0 if field >= t[i] else -1.0
        if new != x[i]:
            x[i] = new
            stable_run = 0
        else:
            stable_run += 1
        updates += 1
        if updates % d == 0:
            energies.append(float(-0.5 * x @ w @ x + t @ x))
        if stable_run >= d:
            if np.array_equal(np.where(w @ x >= t, 1.0, -1.0), x):
                converged = True
                break
            stable_run = 0
    if updates % d != 0:
        energies.append(float(-0.5 * x @ w @ x + t @ x))
    sweeps = -(-updates // d)
    return x, sweeps, np.array(energies), converged, ties


def exact_reference_recall(wm, start, theta=None, rng_seed=None, max_sweeps=100,
                           order="random", fill="plus"):
    """The plain loop in exact integers, for a trained store.

    One draw and one int64 row product per update: M d (W x)_i is the
    integer (C x)_i, with C = X^T X and a zero diagonal, compared with
    M d theta_i. Returns what reference_recall returns; ties counts the
    updates whose field equals its threshold exactly.
    """
    x = as_pattern(start, d=wm.d).copy()
    rng = np.random.default_rng(rng_seed)
    unknown = x == 0.0
    if np.any(unknown):
        if fill == "plus":
            x[unknown] = 1.0
        else:
            x[unknown] = rng.choice([-1.0, 1.0], size=int(unknown.sum()))
    x = x.astype(np.int64)
    p = wm.factor.astype(np.int64)
    m, d = p.shape
    c = p.T @ p
    np.fill_diagonal(c, 0)
    t = as_thresholds(theta, d)
    thr = m * d * t

    def energy_of(x):
        return float(-int(x @ c @ x) / (2 * m * d) + t @ x.astype(float))

    energies = [energy_of(x)]
    stable_run = 0
    updates = 0
    ties = 0
    budget = max_sweeps * d
    converged = False
    while updates < budget:
        if order == "random":
            i = int(rng.integers(d))
        else:
            i = updates % d
        field = int(c[i] @ x)
        ties += field == thr[i]
        new = 1 if field >= thr[i] else -1
        if new != x[i]:
            x[i] = new
            stable_run = 0
        else:
            stable_run += 1
        updates += 1
        if updates % d == 0:
            energies.append(energy_of(x))
        if stable_run >= d:
            if np.array_equal(np.where(c @ x >= thr, 1, -1), x):
                converged = True
                break
            stable_run = 0
    if updates % d != 0:
        energies.append(energy_of(x))
    sweeps = -(-updates // d)
    return x.astype(float), sweeps, np.array(energies), converged, ties


def assert_matches_reference(wm, start, seed, **kwargs):
    """recall equals the plain loop bit for bit, and leaves its Generator alike.

    The oracle is the exact-integer loop for a trained store and the float
    loop for a hand-built W.
    """
    oracle = reference_recall if wm.factor is None else exact_reference_recall
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    trace = recall(wm, start, rng_seed=ours, **kwargs)
    final, sweeps, energies, converged, ties = oracle(wm, start, rng_seed=theirs, **kwargs)
    assert trace.final.tobytes() == final.tobytes()
    assert trace.sweeps == sweeps
    assert trace.energies.tobytes() == energies.tobytes()
    assert trace.converged == converged
    assert ours.bit_generator.state == theirs.bit_generator.state
    return converged, ties


class TestEnergy:
    def test_aligned_pair(self, worked_wm):
        assert energy(worked_wm, [1.0, 1.0]) == pytest.approx(-0.5, abs=1e-15)

    def test_zero_state_has_zero_energy(self, worked_wm):
        assert energy(worked_wm, [0.0, 0.0]) == 0.0
        assert energy(worked_wm, [0.0, 0.0], theta=[2.0, 0.7]) == 0.0

    def test_threshold_contribution(self, worked_wm):
        assert energy(worked_wm, [1.0, -1.0],
                      theta=[1.0, 0.0]) == pytest.approx(1.5, abs=1e-15)

    def test_trained_store_energy_is_exact(self, make_training):
        rng = np.random.default_rng(60)
        ts = make_training(rng, 3, 9)
        wm = train(ts)
        theta = rng.normal(scale=0.3, size=9)
        for _ in range(20):
            x = rng.choice([-1.0, 0.0, 1.0], size=9)
            p = ts.patterns.astype(np.int64)
            c = p.T @ p
            np.fill_diagonal(c, 0)
            xs = x.astype(np.int64)
            exact = -int(xs @ c @ xs) / (2 * 3 * 9) + theta @ x
            assert energy(wm, x, theta) == exact
            assert energy(wm, x, theta) == pytest.approx(
                -0.5 * x @ wm.w @ x + theta @ x, abs=1e-12)
        assert energy(wm, np.zeros(9), theta) == 0.0

    def test_last_sample_of_a_trained_recall_is_energy_of_final(self, make_training):
        rng = np.random.default_rng(59)
        for k in range(20):
            wm = train(make_training(rng, int(rng.integers(1, 6)), 30))
            theta = (None, rng.normal(scale=0.3, size=30))[k % 2]
            trace = recall(wm, rng.choice([-1.0, 0.0, 1.0], size=30), theta=theta,
                           rng_seed=k, max_sweeps=1 + k % 3)
            assert energy(wm, trace.final, theta) == trace.energies[-1]

    def test_dimension_mismatch_rejected(self, worked_wm):
        with pytest.raises(ValueError, match="length 3, expected 2"):
            energy(worked_wm, [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="shape \\(2,\\)"):
            energy(worked_wm, [1.0, 1.0], theta=[1.0])


class TestUpdateNeuron:
    """The single-neuron update rule, seen through one sweep of recall in sweep order."""

    @staticmethod
    def sweep_once(wm, start, theta=None):
        return recall(wm, start, theta=theta, max_sweeps=1, order="sweep").final

    def test_negative_field_flips_down(self, worked_wm):
        # neuron 1 sees -0.5 and flips; neuron 2 then sees -0.5 and stays down
        np.testing.assert_array_equal(self.sweep_once(worked_wm, [1.0, -1.0]), [-1.0, -1.0])

    def test_positive_field_keeps_up(self, worked_wm):
        np.testing.assert_array_equal(self.sweep_once(worked_wm, [1.0, 1.0]), [1.0, 1.0])

    def test_tie_resolves_to_plus_one(self):
        wm = WeightMatrix(np.zeros((2, 2)))  # every field is exactly 0 = theta
        np.testing.assert_array_equal(self.sweep_once(wm, [-1.0, -1.0]), [1.0, 1.0])

    def test_tie_against_nonzero_threshold(self, worked_wm):
        # neuron 1's field -0.5 ties its threshold and stays +1, so neuron 2
        # sees +0.5 and flips up; a tie resolved to -1 would end at (-1, -1)
        final = self.sweep_once(worked_wm, [1.0, -1.0], theta=[-0.5, 0.0])
        np.testing.assert_array_equal(final, [1.0, 1.0])

    def test_input_not_mutated(self, worked_wm):
        x = np.array([1.0, -1.0])
        self.sweep_once(worked_wm, x)
        np.testing.assert_array_equal(x, [1.0, -1.0])

    def test_single_update_never_raises_energy(self, make_weights):
        # Updating neuron i alone is recall on a one-neuron network whose
        # threshold absorbs the field of the others: theta_i - (W x)_i.
        lone = WeightMatrix(np.zeros((1, 1)))
        rng = np.random.default_rng(61)
        for _ in range(40):
            d = int(rng.integers(2, 15))
            wm = make_weights(rng, d)
            for _ in range(50):
                x = rng.choice([-1.0, 1.0], size=d)
                theta = rng.normal(scale=0.5, size=d)
                i = int(rng.integers(d))
                new = x.copy()
                new[i] = self.sweep_once(lone, x[i:i + 1],
                                         theta=[theta[i] - wm.w[i] @ x])[0]
                assert new[i] == (1.0 if wm.w[i] @ x >= theta[i] else -1.0)
                assert energy(wm, new, theta) <= energy(wm, x, theta) + 1e-12


class TestRecall:
    def test_stored_patterns_are_one_sweep_fixed_points(self):
        ts = ingest(ExperimentConfig(l_grid=(1,)))
        wm = train(ts)
        for k in range(1, ts.m + 1):
            trace = recall(wm, ts.patterns[k - 1], rng_seed=k, max_sweeps=5)
            np.testing.assert_array_equal(trace.final, ts.patterns[k - 1])
            assert trace.sweeps == 1
            assert trace.converged

    def test_two_neuron_landscape_has_two_minima(self, worked_wm):
        for seed in range(6):
            trace = recall(worked_wm, [1.0, -1.0], rng_seed=seed)
            assert trace.converged
            assert tuple(trace.final) in {(1.0, 1.0), (-1.0, -1.0)}

    def test_budget_exhaustion_is_flagged_not_raised(self, worked_wm):
        trace = recall(worked_wm, [1.0, -1.0], rng_seed=0, max_sweeps=1)
        assert not trace.converged
        assert trace.sweeps == 1

    def test_deterministic_given_seed(self, make_weights):
        rng = np.random.default_rng(62)
        wm = make_weights(rng, 12)
        start = rng.choice([-1.0, 1.0], size=12)
        a = recall(wm, start, rng_seed=99)
        b = recall(wm, start, rng_seed=99)
        np.testing.assert_array_equal(a.final, b.final)
        np.testing.assert_array_equal(a.energies, b.energies)
        assert a.sweeps == b.sweeps

    def test_energies_non_increasing(self, make_weights):
        rng = np.random.default_rng(63)
        for seed in range(10):
            d = int(rng.integers(2, 20))
            wm = make_weights(rng, d)
            start = rng.choice([-1.0, 1.0], size=d)
            theta = rng.normal(scale=0.3, size=d)
            trace = recall(wm, start, theta=theta, rng_seed=seed)
            assert np.all(np.diff(trace.energies) <= 1e-12)

    def test_fixed_point_soundness_by_full_scan(self, make_weights):
        rng = np.random.default_rng(64)
        for seed in range(10):
            d = int(rng.integers(2, 15))
            wm = make_weights(rng, d)
            start = rng.choice([-1.0, 1.0], size=d)
            trace = recall(wm, start, rng_seed=seed)
            if not trace.converged:
                continue
            # every neuron's update, field >= 0 -> +1 else -1, leaves it as it is
            np.testing.assert_array_equal(
                np.where(wm.w @ trace.final >= 0.0, 1.0, -1.0), trace.final)

    def test_zero_entries_fill_with_plus_one(self, worked_wm):
        trace = recall(worked_wm, [0.0, 0.0], rng_seed=0)
        np.testing.assert_array_equal(trace.final, [1.0, 1.0])

    def test_random_fill_is_seeded(self, worked_wm):
        a = recall(worked_wm, [0.0, 0.0], rng_seed=5, fill="random")
        b = recall(worked_wm, [0.0, 0.0], rng_seed=5, fill="random")
        np.testing.assert_array_equal(a.final, b.final)
        assert tuple(a.final) in {(1.0, 1.0), (-1.0, -1.0)}

    def test_sweep_order_cycles_deterministically(self, worked_wm):
        a = recall(worked_wm, [1.0, -1.0], order="sweep")
        b = recall(worked_wm, [1.0, -1.0], order="sweep")
        np.testing.assert_array_equal(a.final, b.final)
        assert a.converged

    def test_final_state_is_binary(self, make_weights):
        wm = make_weights(np.random.default_rng(65), 8)
        trace = recall(wm, np.zeros(8), rng_seed=1, fill="random")
        assert np.all(np.abs(trace.final) == 1.0)

    def test_trace_is_immutable(self, worked_wm):
        trace = recall(worked_wm, [1.0, 1.0], rng_seed=0)
        assert isinstance(trace, RecallTrace)
        with pytest.raises(ValueError):
            trace.final[0] = 0.0

    def test_option_validation(self, worked_wm):
        with pytest.raises(ValueError, match="unknown update order"):
            recall(worked_wm, [1.0, 1.0], order="shuffled")
        with pytest.raises(ValueError, match="unknown fill mode"):
            recall(worked_wm, [1.0, 1.0], fill="zeros")
        with pytest.raises(ValueError, match="max_sweeps"):
            recall(worked_wm, [1.0, 1.0], max_sweeps=0)

    def test_low_load_restores_mostly_known_pattern(self):
        # One stored pattern, 15 of 20 neurons known: the field of every
        # neuron is then dominated by the overlap with the stored pattern,
        # so recall must land on it exactly, for any update order.
        x = np.random.default_rng(66).choice([-1.0, 1.0], size=20)
        wm = train(TrainingSet([x]))
        start = np.where(np.arange(20) < 15, x, 0.0)
        for seed in range(5):
            trace = recall(wm, start, rng_seed=seed)
            np.testing.assert_array_equal(trace.final, x)
            assert trace.converged


class TestMatchesThePlainLoop:
    """recall skips updates that cannot flip; nothing observable may change."""

    def test_fixture_store_at_zero_threshold(self):
        # Hebbian fields are multiples of 1/(M d), so exact ties are common
        ts = ingest(ExperimentConfig(l_grid=(1,)))
        wm = train(ts)
        rng = np.random.default_rng(71)
        ties = 0
        for k in range(60):
            target = ts.patterns[int(rng.integers(1, ts.m + 1)) - 1]
            start = np.where(rng.random(ts.d) < rng.random(), target, 0.0)
            theta = None if k % 2 else np.zeros(ts.d)
            _, t = assert_matches_reference(wm, start, [71, k], theta=theta,
                                            max_sweeps=50, fill=("plus", "random")[k % 3 == 0])
            ties += t
        assert ties > 0

    def test_random_instances_in_every_mode(self, make_weights, make_training):
        rng = np.random.default_rng(72)
        outcomes = set()
        for k in range(300):
            d = int(rng.integers(2, 40))
            if k % 2:
                wm = make_weights(rng, d)
            else:
                wm = train(make_training(rng, int(rng.integers(1, 6)), d))
            theta = (None, np.zeros(d), rng.normal(scale=0.3, size=d))[k % 3]
            start = rng.choice([-1.0, 0.0, 1.0], size=d)
            converged, _ = assert_matches_reference(
                wm, start, [72, k], theta=theta, max_sweeps=int(rng.integers(1, 12)),
                order=("random", "sweep")[k % 5 == 0], fill=("plus", "random")[k // 2 % 2])
            outcomes.add(converged)
        assert outcomes == {True, False}

    def test_budgets_that_end_inside_a_block(self, make_weights, make_training):
        # a short budget stops the run mid-block, whether or not it converged;
        # a fractional budget stops it mid-sweep; an infinite one never does
        rng = np.random.default_rng(73)
        unconverged = {True: 0, False: 0}
        for k in range(120):
            d = int(rng.integers(5, 30))
            trained = k % 2 == 0
            if trained:
                wm = train(make_training(rng, int(rng.integers(2, 8)), d))
            else:
                wm = make_weights(rng, d)
            theta = (None, rng.normal(scale=0.3, size=d))[k % 4 // 2]
            start = rng.choice([-1.0, 1.0], size=d)
            for max_sweeps in (1, 1.5, 2, 3, np.inf):
                converged, _ = assert_matches_reference(wm, start, [73, k], theta=theta,
                                                        max_sweeps=max_sweeps)
                unconverged[trained] += not converged
        assert unconverged[True] > 0 and unconverged[False] > 0

    def test_hand_built_copy_of_the_fixture_store(self):
        # the same couplings without the patterns: float fields, whose exact
        # ties rounding puts on either side, decided as the float loop decides
        ts = ingest(ExperimentConfig(l_grid=(1,)))
        wm = WeightMatrix(train(ts).w)
        assert wm.factor is None
        rng = np.random.default_rng(74)
        ties = 0
        for k in range(30):
            target = ts.patterns[int(rng.integers(1, ts.m + 1)) - 1]
            start = np.where(rng.random(ts.d) < rng.random(), target, 0.0)
            _, t = assert_matches_reference(wm, start, [74, k], max_sweeps=50)
            ties += t
        assert ties > 0

    def test_two_neurons(self, worked_wm):
        for seed in range(20):
            for start in ([1.0, -1.0], [-1.0, 1.0], [0.0, 0.0], [0.0, -1.0]):
                for order in ("random", "sweep"):
                    for theta in (None, [0.5, -0.5], [1.0, 0.0]):
                        assert_matches_reference(worked_wm, start, seed, theta=theta,
                                                 max_sweeps=1 + seed % 4, order=order,
                                                 fill=("plus", "random")[seed % 2])


class TestExactFields:
    """A trained store's fields are exact integers, decided without W."""

    def test_exact_tie_resolves_to_plus_one(self):
        """Repetition 2 at l = 1 of the default iterative recovery curve.

        Its 16th update draws neuron 7 (index 6) at +1 with a field of
        exactly 0. The float row product puts that tie at -2.6e-18 and the
        float loop flips the neuron to -1; the exact field keeps it at +1,
        and the trial ends 70 neurons from the target instead of 50.
        """
        cfg = ExperimentConfig(l_grid=(1,), method="iterative")
        ts = ingest(cfg)
        wm = train(ts)
        rng = np.random.default_rng([cfg.seed, 2])
        mask = experiments._known_mask(experiments._TrialContext(cfg, ts), 1, rng)
        start = np.where(mask, ts.patterns[0], 0.0)

        p = ts.patterns.astype(np.int64)
        c = p.T @ p
        np.fill_diagonal(c, 0)
        probe, x = copy.deepcopy(rng), np.where(start == 0.0, 1, start).astype(np.int64)
        for _ in range(15):
            i = int(probe.integers(wm.d))
            x[i] = 1 if c[i] @ x >= 0 else -1
        i = int(probe.integers(wm.d))
        assert (i, x[i], c[i] @ x) == (6, 1, 0)
        assert wm.w[i] @ x < 0.0

        floating = reference_recall(wm, start, rng_seed=copy.deepcopy(rng),
                                    max_sweeps=cfg.max_sweeps)[0]
        trace = recall(wm, start, rng_seed=copy.deepcopy(rng), max_sweeps=cfg.max_sweeps)
        assert np.sum(floating != ts.patterns[0]) == 50
        assert np.sum(trace.final != ts.patterns[0]) == 70
        exact = exact_reference_recall(wm, start, rng_seed=copy.deepcopy(rng),
                                       max_sweeps=cfg.max_sweeps)[0]
        assert trace.final.tobytes() == exact.tobytes()

    def test_trained_recall_does_not_read_w(self, make_training):
        rng = np.random.default_rng(75)
        for k in range(10):
            wm = train(make_training(rng, 4, 25))
            start = rng.choice([-1.0, 0.0, 1.0], size=25)
            theta = rng.normal(scale=0.3, size=25)
            before = recall(wm, start, theta=theta, rng_seed=k)
            object.__setattr__(wm, "w", np.full_like(wm.w, np.nan))
            after = recall(wm, start, theta=theta, rng_seed=k)
            assert after.final.tobytes() == before.final.tobytes()
            assert after.energies.tobytes() == before.energies.tobytes()
            assert (after.sweeps, after.converged) == (before.sweeps, before.converged)
            assert energy(wm, after.final, theta) == after.energies[-1]
