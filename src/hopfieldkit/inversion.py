"""Recall by constrained energy minimization and one linear solve.

Clamping the known neurons with a diagonal projector P and adding a
ridge term gives the Lagrangian

    L(x, lam) = -1/2 x^T W x + theta^T x - lam^T (P x - x_inc) + gamma/2 x^T x.

Its stationarity conditions form one symmetric linear system

    A (x; lam) = (theta; x_inc),   A = [[W - gamma I, P], [P, 0]].

A LinearSystem records the instance (W, the clamp, gamma, theta). No code
lays out the dense 2d-square A: _ridge_block, the one builder, writes its
(d + l)-square active block, which the truncated solve below and quantum
reference mode both eigendecompose. With mu = 0 the
clamped block is eliminated: x_K = x_inc fixes the known neurons,
Q_UU x_U = -(theta_U + Q_UK x_K) with Q = gamma I - W gives the unclamped
set U, and the multipliers follow from the clamped rows. One kernel,
_reduced_solve, does this for a stack of clamps that fix equally many
neurons: the library solve and the perturbed solve (nothing clamped,
gamma + beta for gamma) pass one row, the curve harness all repetitions
of a cell. It takes each row's Q_UU apart by one symmetric
eigendecomposition, run over the whole stack at once, and the solve, the
singularity rule and the certificate share it. The rule is the same for
every block: with floor = RANK_TOL_FACTOR times the largest eigenvalue
magnitude of the decomposed matrix, Q_UU counts as singular when an
eigenvalue lies within floor of zero, and as positive definite when its
smallest eigenvalue exceeds floor. eigh is the only factorization the
module runs.

- A trained W keeps its patterns X as a factor, W = s X^T X - I/d with
  s = 1/(M d). Then Q_UU = c I - s X_U^T X_U with c = gamma + 1/d, whose
  spectrum is that of the M x M core C = c I - s X_U X_U^T up to copies of
  c > 0. The Gram matrix X_U X_U^T = X X^T - X_K X_K^T has integer
  entries, so it is exact; X X^T is kept on the store, and only the
  clamp's columns X_K are gathered. One eigendecomposition of it gives
  C's spectrum and eigenvectors, and the rule is applied to C. Woodbury,
  (Q_UU)^-1 r = (r + s X_U^T C^-1 X_U r) / c, turns the solve into one
  with C. A recall costs O(M^2 |K| + M d + M^3), and Q x costs O(M d); no
  d x d matrix is read.
- A hand-built W has no factor. Q_UU is extracted and eigendecomposed
  itself, O(|U|^3), and solved with its eigenvectors. The tests use this
  dense path as an oracle of the factored one.

For mu > 0, and when Q_UU is singular, A's active block is eigendecomposed
instead and only eigenvalues of magnitude >= mu are inverted (the truncated
pseudoinverse); a trained W enters that block straight from its factor.
The recovered state is sign(x); a component within
TIE_TOL_FACTOR * max(1, |x|_inf) of zero is a tie and resolves to +1.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hebbian import WeightMatrix, _patterns_of, spectral_norm
from .patterns import ClampSet, TrainingSet, as_thresholds

RANK_TOL_FACTOR = 1e-10  # relative eigenvalue cutoff treated as exact rank deficiency
TIE_TOL_FACTOR = 1e-10  # components this close to zero, relative to max(1, |x|_inf), are ties


@dataclass(frozen=True)
class LinearSystem:
    """One recall instance: couplings wm, clamp, ridge gamma and thresholds theta.

    It defines the saddle-point system A v = rhs with
    A = [[W - gamma I, P], [P, 0]] and rhs = (theta; x_inc). rhs is derived
    on first read and kept read-only; A is never laid out whole, only its
    active block, by _ridge_block.
    """

    wm: WeightMatrix
    clamp: ClampSet
    gamma: float
    theta: np.ndarray

    def __post_init__(self):
        if self.clamp.d != self.wm.d:
            raise ValueError(f"clamp dimension {self.clamp.d} does not match "
                             f"weights {self.wm.d}")
        if not 0 < self.gamma < np.inf:
            raise ValueError("gamma must be positive and finite")
        theta = as_thresholds(self.theta, self.d).copy()
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)

    @property
    def d(self) -> int:
        return self.clamp.d

    @cached_property
    def rhs(self) -> np.ndarray:
        rhs = np.concatenate([self.theta, self.clamp.values])
        rhs.setflags(write=False)
        return rhs


def _ridge_block(source: WeightMatrix | TrainingSet, known,
                 gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """A's active block [[W - gamma I, E], [E^T, 0]] and its indices into A.

    A = [[W - gamma I, P], [P, 0]]: P projects onto known, and E is its
    clamped columns. A is zero on the unclamped multipliers, which no
    solve inverts, so the block holds the other d + l rows. W's diagonal
    is exactly zero, so -gamma replaces it. A TrainingSet, or a
    WeightMatrix that train built, writes W from its patterns X as the
    integer Gram X^T X/(M d), summed exactly, so no d x d W is derived or
    kept on the store; a hand-built W is copied in.
    """
    x = _patterns_of(source)
    d = source.d
    ks = np.flatnonzero(known)
    multipliers = d + np.arange(ks.size)
    block = np.zeros((d + ks.size, d + ks.size))
    top = block[:d, :d]
    if x is None:
        top[...] = source.w
    else:
        np.matmul(x.T, x, out=top)
        top /= x.size
    np.fill_diagonal(top, -gamma)
    block[ks, multipliers] = block[multipliers, ks] = 1.0
    return block, np.concatenate([np.arange(d), d + ks])


@dataclass(frozen=True)
class SolveReport:
    """Solution and diagnostics of one truncated-pseudoinverse solve.

    lam holds the multipliers (zero off the clamp set; empty for the
    penalty variant, which has none) and discretized is sign(x) with the
    +1 tie rule.
    """

    x: np.ndarray
    lam: np.ndarray
    discretized: np.ndarray
    gamma: float
    mu: float
    rank_tol: float
    kept: int
    eta: float
    residual_constraint: float
    residual_stationarity: float
    minimum_certified: bool


def assemble(wm: WeightMatrix, clamp: ClampSet, theta=None, gamma: float = 1.0) -> LinearSystem:
    """The recall instance whose system is A = [[W - gamma I, P], [P, 0]], rhs (theta; x_inc)."""
    sys = LinearSystem(wm, clamp, float(gamma), theta)
    if gamma <= spectral_norm(wm):
        warnings.warn("gamma does not exceed the spectral norm of W; the clamped "
                      "minimum is no longer guaranteed", RuntimeWarning, stacklevel=2)
    elif gamma < 1.0:
        warnings.warn("gamma below the conventional default of 1; the minimum is "
                      "still certified while gamma > |W|", RuntimeWarning, stacklevel=2)
    return sys


def truncated_pseudoinverse_apply(a, w, mu: float):
    """Apply the mu-truncated pseudoinverse of symmetric a to w.

    Eigenvalues of magnitude below max(mu, rank_tol) are not inverted,
    where rank_tol = RANK_TOL_FACTOR * |a|. Returns (v, eta, kept, rank_tol)
    where eta = |v - v0|_2 against the plain rank-tolerance pseudoinverse
    solution v0, and kept counts the inverted eigenvalues.
    """
    a = np.asarray(a, dtype=float)
    w = np.asarray(w, dtype=float)
    if not 0 <= mu < np.inf:
        raise ValueError("mu must be >= 0 and finite")
    eigs, vecs = np.linalg.eigh(a)
    rank_tol = float(_rank_floor(eigs))
    beta = vecs.T @ w

    def apply_cut(cut):
        inv = np.zeros_like(eigs)
        keep = np.abs(eigs) >= cut
        inv[keep] = 1.0 / eigs[keep]
        return vecs @ (inv * beta), int(keep.sum())

    v0, _ = apply_cut(rank_tol)
    v, kept = apply_cut(max(mu, rank_tol))
    eta = float(np.linalg.norm(v - v0))
    return v, eta, kept, rank_tol


def _rank_floor(eigs: np.ndarray) -> np.ndarray:
    """RANK_TOL_FACTOR * max|eigs| over the last axis: the module rule's floor, 0 if empty."""
    return RANK_TOL_FACTOR * np.maximum.reduce(np.abs(eigs), axis=-1, initial=0.0)


def solve(sys: LinearSystem, mu: float = 0.0) -> SolveReport:
    """Solve A (x; lam) = rhs, where rhs = (theta; x_inc).

    mu = 0 eliminates the clamped block on Q = gamma I - W: _reduced_solve
    on Q_UU gives the minimum-norm pseudoinverse solution (eta = 0,
    kept = d + l, rank_tol = 0) without building A. mu > 0, or a singular
    Q_UU, takes the truncated pseudoinverse of A's active block instead.
    minimum_certified is the verdict of certify_minimum.
    """
    if not 0 <= mu < np.inf:
        raise ValueError("mu must be >= 0 and finite")
    d = sys.d
    theta, x_inc = sys.theta, sys.clamp.values
    p_mask = sys.clamp.mask()
    x = block = None
    if mu == 0.0:
        # one clamp, a one-row stack; x_inc is already zero off the clamp, and
        # zero thresholds skip the theta terms
        xs, block = _reduced_solve(sys.wm, p_mask[None], x_inc[None], sys.gamma,
                                   theta if theta.any() else None)
        if not block.singular[0]:
            x = xs[0]
    if x is not None:
        # full-rank elimination: rank(A) = d + l, truncation plays no part,
        # and x_K = x_inc by construction
        qx = _apply_q(sys.wm, sys.gamma, x)
        lam = np.where(p_mask, qx + theta, 0.0)
        eta, kept, rank_tol = 0.0, d + sys.clamp.l, 0.0
        residual_constraint = 0.0
    else:
        saddle, active = _ridge_block(sys.wm, p_mask, sys.gamma)
        v, eta, kept, rank_tol = truncated_pseudoinverse_apply(saddle, sys.rhs[active], mu)
        x, lam = v[:d], np.zeros(d)
        lam[p_mask] = v[d:]  # the unclamped multipliers stay exactly zero
        qx = _apply_q(sys.wm, sys.gamma, x)
        residual_constraint = float(np.max(np.abs(np.where(p_mask, x, 0.0) - x_inc)))
    residual_stationarity = float(np.abs(lam - qx - theta).max())
    certified = certify_minimum(sys.wm, sys.clamp, sys.gamma, _block=block)
    return SolveReport(x=x, lam=lam, discretized=discretize(x), gamma=sys.gamma,
                       mu=float(mu), rank_tol=rank_tol, kept=kept, eta=eta,
                       residual_constraint=residual_constraint,
                       residual_stationarity=residual_stationarity,
                       minimum_certified=bool(certified))


def _apply_q(wm: WeightMatrix, gamma: float, x) -> np.ndarray:
    """Q x for Q = gamma I - W; O(M d) from the factor of a trained W."""
    if wm.factor is None:
        return gamma * x - wm.w @ x
    f = wm.factor
    return (gamma + 1.0 / wm.d) * x - (f.T @ (f @ x)) / f.size


def _columns(mask) -> np.ndarray:
    """The (R, k) ascending column indices of an (R, d) mask stack with k set in every row."""
    cols = mask.nonzero()[1]
    k = cols.size // len(mask)
    if len(mask) > 1 and np.any(mask.sum(axis=1) != k):
        raise ValueError("every clamp of a stack must fix equally many neurons")
    return cols.reshape(len(mask), k)


class _SpectralBlock:
    """A stack of Q_UU, one per clamp, each taken apart by one eigendecomposition.

    eigs is the (R, n) stack of decomposed spectra, each sorted either way.
    The rule of the module notes, row by row: with floor = _rank_floor of
    the row, a block is singular when some |eig| <= floor and positive
    definite when min(eigs) > floor. An empty spectrum (nothing unclamped)
    has floor 0 and counts as definite and not singular. u is |U|, shared
    by every row.
    """

    def _decide(self, eigs: np.ndarray) -> None:
        self.eigs = eigs
        floor = _rank_floor(eigs)
        self.singular = np.minimum.reduce(np.abs(eigs), axis=1, initial=np.inf) <= floor
        self.definite = np.minimum.reduce(eigs, axis=1, initial=np.inf) > floor

    def _inverse(self, r: np.ndarray) -> np.ndarray:
        """Each row of r under its block's inverse, by the eigenpairs; zero on singular rows."""
        coef = (r[:, None, :] @ self.vecs)[:, 0]
        coef /= np.where(self.singular[:, None], np.inf, self.eigs)
        return (self.vecs @ coef[:, :, None])[:, :, 0]


class _CoreBlock(_SpectralBlock):
    """Q_UU of a trained W, through the spectrum of its M x M core (see the module notes).

    The core is kept scaled by M d, as M d C = (gamma M d + M) I - X_U X_U^T,
    so its spectrum follows from the Gram matrix by one subtraction.
    """

    def __init__(self, wm: WeightMatrix, known, gamma: float):
        f = wm.factor
        m, d = f.shape
        self.f = f
        self.known = known
        self.c = gamma + 1.0 / d
        xk = f[:, _columns(known)].transpose(1, 0, 2)  # each row's X_K
        self.u = d - xk.shape[2]
        # X_U X_U^T = X X^T - X_K X_K^T has integer entries, so it is exact
        g, self.vecs = np.linalg.eigh(wm.gram - xk @ xk.transpose(0, 2, 1))
        self._decide(gamma * m * d + m - g)  # c M d minus the ascending Gram spectrum

    def solve(self, x, theta=None) -> np.ndarray:
        """A new x with Q_UU x_U = -(theta_U + Q_UK x_K), from x holding x_inc on K and 0 on U.

        Woodbury, with I + s C^-1 X_U X_U^T = c C^-1, gives
        x_U = s X_U^T C^-1 (X_K x_K - X_U theta_U / c) - theta_U / c. The
        spectral rule is the only gate: past it the eigen fallback would
        invert the same small eigenvalues, so no residual guard follows.
        """
        b = x @ self.f.T  # X_K x_K, for x zero on U
        if theta is not None:
            t = np.where(self.known, 0.0, theta / self.c)
            b = b - t @ self.f.T
        sol = self._inverse(b) @ self.f  # X^T of it, read on U
        if theta is not None:
            sol = sol - t
        return np.where(self.known, x, sol)


class _DenseBlock(_SpectralBlock):
    """Q_UU of a hand-built W, extracted and eigendecomposed once."""

    def __init__(self, wm: WeightMatrix, known, gamma: float):
        self.w = wm.w
        self.free = _columns(~known)
        self.u = self.free.shape[1]
        quu = -self.w[self.free[:, :, None], self.free[:, None, :]]
        diag = np.arange(self.u)
        quu[:, diag, diag] = gamma  # W has a zero diagonal, so this is gamma I - W_UU
        eigs, self.vecs = np.linalg.eigh(quu)
        self._decide(eigs)

    def solve(self, x, theta=None) -> np.ndarray:
        """A new x with Q_UU x_U = -(theta_U + Q_UK x_K), from x holding x_inc on K and 0 on U."""
        rhs = np.take_along_axis(x @ self.w, self.free, axis=1)  # -Q_UK x_K, for x zero on U
        if theta is not None:
            rhs -= theta[self.free]
        x = x.copy()
        np.put_along_axis(x, self.free, self._inverse(rhs), axis=1)
        return x


def _unclamped_block(wm: WeightMatrix, known, gamma: float):
    """Q_UU = (gamma I - W)_UU on each row's unclamped set U = ~known, taken apart once."""
    return (_DenseBlock if wm.factor is None else _CoreBlock)(wm, known, gamma)


def _reduced_solve(wm: WeightMatrix, known, probes, gamma: float, theta=None):
    """The mu = 0 kernel: x with x_K = x_inc_K and Q_UU x_U = -(theta_U + Q_UK x_K).

    known is an (R, d) stack of masks that clamp equally many neurons, and
    probes the (R, d) stack of their x_inc, zero off the clamp; each row is
    solved on its own, with Q = gamma I - W and U = ~known. theta=None
    means zero thresholds. Returns (x, block): x is a new (R, d) array, and
    block the stack of Q_UU from _unclamped_block. A row that the spectral
    rule calls singular (block.singular) is not solved; its x is meaningless.
    """
    block = _unclamped_block(wm, known, gamma)
    return block.solve(probes, theta), block


def discretize(x) -> np.ndarray:
    """Map solver output to +/-1 by sign; ties resolve to +1.

    A component within TIE_TOL_FACTOR * max(1, |x|_inf) of zero is a tie:
    it vanishes in exact arithmetic, and its rounding residue, whose sign
    depends on the solver, does not decide the neuron. A stack of solutions
    is discretized row by row, each row against its own |x|_inf.
    """
    x = np.asarray(x, dtype=float)
    scale = np.maximum.reduce(np.abs(x), axis=-1, keepdims=True, initial=1.0)  # max(1, |x|_inf)
    if not math.isfinite(np.maximum.reduce(scale, axis=None)):
        raise ValueError("cannot discretize non-finite values")
    return np.where(x >= -TIE_TOL_FACTOR * scale, 1.0, -1.0)


def solve_perturbed(wm: WeightMatrix, x_pert, theta=None, gamma: float = 1.0,
                    beta: float = 1.0) -> SolveReport:
    """Solve ((gamma + beta) I - W) x = beta x_pert - theta.

    The soft variant: instead of clamping, a quadratic penalty of weight
    beta pulls the state toward the perturbed anchor x_pert, so there are
    no multipliers (lam comes back empty). It is the mu = 0 kernel with
    nothing clamped, ridge gamma + beta and thresholds theta - beta x_pert,
    so a trained store is solved from its factor. The matrix is rejected
    as singular when an eigenvalue lies within RANK_TOL_FACTOR times the
    largest eigenvalue magnitude of zero, the rule of every reduced block,
    and minimum_certified is that block's positive-definiteness verdict,
    decided on the spectrum the solve took apart. gamma + beta > |W| is
    sufficient for it but not necessary; below that bound a warning is
    raised before solving.
    """
    if not 0 < gamma < np.inf:
        raise ValueError("gamma must be positive and finite")
    if not 0 < beta < np.inf:
        raise ValueError("beta must be positive and finite")
    anchor = np.asarray(x_pert, dtype=float)
    if anchor.shape != (wm.d,) or not np.all(np.isfinite(anchor)):
        raise ValueError(f"x_pert must be a finite vector of shape ({wm.d},)")
    t = as_thresholds(theta, wm.d)
    if gamma + beta <= spectral_norm(wm):
        warnings.warn("gamma + beta does not exceed |W|; system may be indefinite",
                      RuntimeWarning, stacklevel=2)
    xs, block = _reduced_solve(wm, np.zeros((1, wm.d), dtype=bool), np.zeros((1, wm.d)),
                               gamma + beta, t - beta * anchor)
    if block.singular[0]:
        raise ValueError("perturbed system matrix is singular")
    x = xs[0]
    residual = float(np.max(np.abs(_apply_q(wm, gamma + beta, x) - (beta * anchor - t))))
    return SolveReport(x=x, lam=np.zeros(0), discretized=discretize(x),
                       gamma=float(gamma), mu=0.0, rank_tol=0.0, kept=wm.d,
                       eta=0.0, residual_constraint=0.0,
                       residual_stationarity=residual,
                       minimum_certified=bool(block.definite[0]))


def certify_minimum(wm: WeightMatrix, clamp: ClampSet, gamma: float, *, _block=None) -> bool:
    """Second-order check of the clamped minimizer: (gamma I - W)_UU > 0.

    Clamping fixes the known coordinates, so the minimum is strict exactly
    when Q = gamma I - W on the unclamped set U is positive definite. It is
    decided on the one spectrum the solve also uses (see the module notes):
    Q_UU's own for a hand-built W, its core C's for a trained one. The
    smallest eigenvalue must exceed RANK_TOL_FACTOR times the largest
    eigenvalue magnitude, so a block within that floor of singular fails.
    An empty U certifies; gamma = 0 never certifies a non-empty U, since
    Q_UU = -W_UU then has zero trace. solve hands over, as _block, the
    one-row stack of Q_UU it already took apart.
    """
    if not 0 <= gamma < np.inf:
        raise ValueError("gamma must be non-negative and finite")
    if clamp.d != wm.d:
        raise ValueError(f"clamp dimension {clamp.d} does not match weights {wm.d}")
    if _block is None:
        _block = _unclamped_block(wm, clamp.mask()[None], gamma)
    return not _block.u or bool(_block.definite[0])
