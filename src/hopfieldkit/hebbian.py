"""Hebbian training: weight matrix, pattern density matrix, matrix CSV output.

Training averages outer products of the stored patterns,

    W = (1/(M d)) sum_m x(m) x(m)^T - I/d,

which is symmetric with an exactly zero diagonal and spectral norm <= 1.
Adding I/d back yields the density matrix of the normalized pattern
ensemble: rho = W + I/d, positive semidefinite with unit trace. density
returns rho as a read-only (d, d) array.

W is rank M plus a shift, W = s X^T X - I/d with s = 1/(M d) and X the
(M, d) matrix of stored patterns. A WeightMatrix from train holds only X,
its factor: |W| comes from the eigenvalues of the smaller of the Gram
matrices X X^T and X^T X, with no d x d eigensolve. The mu = 0 inversion
recall and the perturbed solve work on an M x M core built from X, and
the iterative recall on the M exact integers X x. One function,
_pattern_gram, writes X^T X/(M d): the trained store's dense W, rho, and
the top of the one saddle block that the mu > 0 and singular fallbacks
and quantum reference mode read. The dense W is derived from X on its
first read and cached on the store, so a store of d neurons costs M d
floats until something reads W; of the library, only the matrix CSV does.
A hand-built WeightMatrix(w) has no factor; it is checked densely and
recalled by the dense path.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .patterns import TrainingSet


def _pattern_gram(p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """X^T X/(M d) for the (M, d) patterns p: rho, and W off its diagonal.

    The one writer of this matrix. Its integer entries are summed exactly,
    so it is exactly symmetric. It is written into out when given (a d x d
    view, such as the saddle block's top), else into a new writable array.
    """
    g = np.matmul(p.T, p, out=out)
    g /= p.size
    return g


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


def _patterns_of(source: TrainingSet | WeightMatrix) -> np.ndarray | None:
    """The (M, d) patterns X of a TrainingSet or a store train built; None for a hand-built W."""
    if isinstance(source, TrainingSet):
        return source.patterns
    if isinstance(source, WeightMatrix):
        return source.factor
    raise TypeError("expected a TrainingSet or WeightMatrix")


def density(source: TrainingSet | WeightMatrix) -> np.ndarray:
    """Density matrix rho = W + I/d of the normalized stored patterns, a read-only (d, d) array.

    From a TrainingSet, or a WeightMatrix that train built, rho = X^T X/(M d)
    is _pattern_gram of the patterns, bit for bit the W + I/d of train (the
    diagonal M/(M d) rounds as 1/d does), and W is not derived. A hand-built
    W gives W + I/d: symmetry, shape and unit trace follow from W's own
    checks, so only positive semidefiniteness is checked.
    """
    x = _patterns_of(source)
    if x is None:
        d = source.d
        rho = source.w + np.eye(d) / d
        if np.min(np.linalg.eigvalsh(rho)) < -1e-12:
            raise ValueError("density matrix W + I/d must be positive semidefinite")
    else:
        rho = _pattern_gram(x)
    rho.setflags(write=False)
    return rho


def spectral_norm(wm: WeightMatrix) -> float:
    """Largest absolute eigenvalue of W, computed when the WeightMatrix was built."""
    return wm.norm


def save_matrix_csv(path, wm: WeightMatrix) -> None:
    """Write W row-major as CSV with a 'd=<n>' header line."""
    with open(path, "w") as fh:
        fh.write(f"d={wm.d}\n")
        for row in wm.w:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
