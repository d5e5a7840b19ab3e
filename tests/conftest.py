"""Shared fixtures: the hand-checked two-neuron system and instance factories."""
import numpy as np
import pytest

from hopfieldkit import BASE_TO_BITS, ClampSet, TrainingSet, WeightMatrix


@pytest.fixture
def worked_wm():
    """Two-neuron coupling [[0, 0.5], [0.5, 0]] used by the hand-checked cases."""
    return WeightMatrix(np.array([[0.0, 0.5], [0.5, 0.0]]))


@pytest.fixture
def worked_clamp():
    """Neuron 1 clamped to +1, neuron 2 unknown."""
    return ClampSet(np.array([1.0, 0.0]))


@pytest.fixture
def make_weights():
    """Factory for random symmetric zero-diagonal couplings with norm <= scale."""

    def _make(rng, d, scale=0.9):
        a = rng.normal(size=(d, d))
        w = (a + a.T) / 2.0
        np.fill_diagonal(w, 0.0)
        norm = float(np.max(np.abs(np.linalg.eigvalsh(w))))
        if norm > 0.0:
            w *= scale / norm
        return WeightMatrix(w)

    return _make


@pytest.fixture
def make_training():
    """Factory for random +/-1 training sets of shape (m, d)."""

    def _make(rng, m, d):
        return TrainingSet(rng.choice([-1.0, 1.0], size=(m, d)))

    return _make


@pytest.fixture
def make_clamp():
    """Factory for a random clamp of size l (default: uniform in 1..d-1)."""

    def _make(rng, d, l=None):
        if l is None:
            l = int(rng.integers(1, d))
        idx = np.sort(rng.choice(d, size=l, replace=False)) + 1
        values = np.zeros(d)
        values[idx - 1] = rng.choice([-1.0, 1.0], size=l)
        return ClampSet(values)

    return _make


@pytest.fixture
def per_base_encoding():
    """The reference RNA encoding: BASE_TO_BITS base by base, T read as U, either case."""

    def _encode(seq):
        return np.array([bit for ch in seq.upper() for bit in BASE_TO_BITS[ch.replace("T", "U")]],
                        dtype=float)

    return _encode
