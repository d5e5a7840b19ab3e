"""Hebbian training: weight matrix, pattern density matrix, matrix CSV output.

Training averages outer products of the stored patterns,

    W = (1/(M d)) sum_m x(m) x(m)^T - I/d,

which is symmetric with an exactly zero diagonal and spectral norm <= 1.
Adding I/d back yields the density matrix of the normalized pattern
ensemble: rho = W + I/d, positive semidefinite with unit trace.

W is rank M plus a shift, W = s X^T X - I/d with s = 1/(M d) and X the
(M, d) matrix of stored patterns. A WeightMatrix from train holds only X,
its factor: |W| comes from the eigenvalues of the smaller of the Gram
matrices X X^T and X^T X, with no d x d eigensolve. The mu = 0 inversion
recall and the perturbed solve work on an M x M core built from X, and
the iterative recall on the M exact integers X x; the mu > 0 and singular
fallbacks write X^T X/(M d) straight into their saddle block. The dense W
is derived from X on its first read and cached on the store, so a store
of d neurons costs M d floats until something reads W; of the library,
only the matrix CSV does. A hand-built WeightMatrix(w) has no factor; it
is checked densely and recalled by the dense path.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .patterns import TrainingSet, _pattern_gram


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric zero-diagonal couplings; norm is their spectral norm (<= 1), found once.

    factor is the (M, d) array of +/-1 patterns X with W = X^T X/(M d) - I/d
    when train built the matrix, and None for a hand-built one. A trained
    store holds only X and derives w from it on first read.
    """

    w: np.ndarray
    norm: float = field(init=False, repr=False, compare=False)
    factor: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 1:
            raise ValueError("weight matrix must be square and non-empty")
        if np.max(np.abs(w - w.T), initial=0.0) > 1e-12:
            raise ValueError("weight matrix must be symmetric within 1e-12")
        if np.any(np.diag(w) != 0.0):
            raise ValueError("weight matrix diagonal must be exactly zero")
        norm = float(np.max(np.abs(np.linalg.eigvalsh(w))))
        if norm > 1.0 + 1e-12:
            raise ValueError("weight matrix spectral norm must not exceed 1")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "norm", norm)

    @property
    def d(self) -> int:
        return self.w.shape[0]


class _TrainedWeightMatrix(WeightMatrix):
    """A WeightMatrix built by train: it holds the factor X, and W is derived from it.

    w is X^T X/(M d) with a zero diagonal, computed on first read, cached on
    this store and read-only; d is read from the factor, so the recall
    paths that need only d and X never derive W. gram is the M x M integer
    Gram matrix X X^T, read-only; train keeps the one its norm came from.
    """

    @cached_property
    def gram(self) -> np.ndarray:
        g = self.factor @ self.factor.T
        g.setflags(write=False)
        return g

    @cached_property
    def w(self) -> np.ndarray:
        w = _pattern_gram(self.factor)
        np.fill_diagonal(w, 0.0)  # outer-product diagonal is exactly 1/d for bipolar patterns
        w.setflags(write=False)
        return w

    @property
    def d(self) -> int:
        return self.factor.shape[1]

    def __repr__(self) -> str:  # the dataclass repr would derive W
        m, d = self.factor.shape
        return f"WeightMatrix(trained from m={m} patterns, d={d}, norm={self.norm!r})"


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace positive semidefinite mixture of normalized patterns."""

    rho: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rho, dtype=float)
        if r.ndim != 2 or r.shape[0] != r.shape[1] or r.shape[0] < 1:
            raise ValueError("density matrix must be square and non-empty")
        if np.max(np.abs(r - r.T), initial=0.0) > 1e-12:
            raise ValueError("density matrix must be symmetric within 1e-12")
        if abs(np.trace(r) - 1.0) > 1e-12:
            raise ValueError("density matrix trace must equal 1 within 1e-12")
        if np.min(np.linalg.eigvalsh(r)) < -1e-12:
            raise ValueError("density matrix must be positive semidefinite")
        r = r.copy()
        r.setflags(write=False)
        object.__setattr__(self, "rho", r)

    @property
    def d(self) -> int:
        return self.rho.shape[0]


def train(ts: TrainingSet) -> WeightMatrix:
    """Hebbian rule: average of pattern outer products, self-couplings removed.

    The store keeps the patterns as W's factor and builds no d x d array:
    W itself is derived from the factor on its first read. W's eigenvalues
    are g/(M d) - 1/d for the eigenvalues g of X^T X, which are those of
    X X^T plus d - M zeros when M < d; so |W| comes from the smaller Gram
    matrix, and W, symmetric with a zero diagonal by construction, is not
    checked again.
    """
    p = ts.patterns
    m, d = p.shape
    gram = p @ p.T if m < d else p.T @ p
    norm = float(np.max(np.abs(np.linalg.eigvalsh(gram) / (m * d) - 1.0 / d)))
    if m < d:
        norm = max(norm, 1.0 / d)
    wm = object.__new__(_TrainedWeightMatrix)  # valid by construction: skip the dense checks
    object.__setattr__(wm, "norm", norm)
    object.__setattr__(wm, "factor", p)
    if m < d:
        gram.setflags(write=False)
        object.__setattr__(wm, "gram", gram)  # X X^T, which the mu = 0 recall reads
    return wm


def density(source: TrainingSet | WeightMatrix) -> DensityMatrix:
    """Density matrix rho = W + I/d of the normalized stored patterns.

    From a TrainingSet, or a WeightMatrix that train built, rho = X^T X/(M d)
    is built from the patterns alone, bit for bit the W + I/d of train (the
    diagonal M/(M d) rounds as 1/d does); a TrainingSet builds it once and
    keeps it. It is a valid density matrix by construction, so, as in
    train, the dense checks are skipped and W is not derived. A hand-built
    W gives W + I/d, checked.
    """
    if isinstance(source, TrainingSet):
        rho = source._rho
    elif isinstance(source, WeightMatrix):
        if source.factor is None:
            d = source.d
            return DensityMatrix(source.w + np.eye(d) / d)
        rho = _pattern_gram(source.factor)
        rho.setflags(write=False)
    else:
        raise TypeError("density expects a TrainingSet or WeightMatrix")
    dm = object.__new__(DensityMatrix)
    object.__setattr__(dm, "rho", rho)
    return dm


def spectral_norm(wm: WeightMatrix) -> float:
    """Largest absolute eigenvalue of W, computed when the WeightMatrix was built."""
    return wm.norm


def save_matrix_csv(path, wm: WeightMatrix) -> None:
    """Write W row-major as CSV with a 'd=<n>' header line."""
    with open(path, "w") as fh:
        fh.write(f"d={wm.d}\n")
        for row in wm.w:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
