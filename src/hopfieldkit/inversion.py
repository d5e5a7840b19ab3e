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
_reduced_solve, does this for a stack of clamps: the library solve and
the perturbed solve (nothing clamped, gamma + beta for gamma) pass one
row, the curve harness a chunk of (cell, repetition) rows. A trained
store's stack may mix clamp counts, and each of its rows is solved bit
for bit as it would be alone; a hand-built W's stack fixes equally many
neurons in every row. Each stack is certified and solved by one of two
routes:

- Each row's Q_UU is taken apart by one symmetric eigendecomposition, run
  over the whole stack at once, and the solve, the singularity rule and
  the certificate share it. The rule is the same for every block: with
  floor = RANK_TOL_FACTOR times the largest eigenvalue magnitude of the
  decomposed matrix, Q_UU counts as singular when an eigenvalue lies
  within floor of zero, and as positive definite when its smallest
  eigenvalue exceeds floor.
- A trained store's core skips the spectrum when the coupling norm |W|
  that train already computed decides it. Q = gamma I - W >=
  (gamma - |W|) I, so once gamma clears |W| every Q_UU is positive
  definite. While the bound of the core's condition number (see below)
  is at most KAPPA_DIRECT, every row is certified from the norm, and the
  rows are solved by one batched LU (np.linalg.solve). The margin is what
  keeps the route's output that of the eigen route: the solve's error
  grows with the condition number, and near gamma = |W| rounding would
  decide signs. Past the margin the rule would call every row definite
  and not singular, which is why the norm route may skip it.

For the two kinds of store:

- A trained W keeps its patterns X as a factor, W = s X^T X - I/d with
  s = 1/(M d). Then Q_UU = c I - s X_U^T X_U with c = gamma + 1/d, whose
  spectrum is that of the M x M core C = c I - s X_U X_U^T up to copies of
  c > 0. The Gram matrix X_U X_U^T = X X^T - X_K X_K^T has integer
  entries, so it is exact; X X^T is kept on the store. X_K X_K^T takes
  one of two formulas, which give the same integers: a stack of R masks
  times the store's (d, M(M+1)/2) table of pattern-pair products, one
  GEMM, or, unless that table holds fewer entries than the R M d of the
  masked patterns (M(M+1)/2 < R M, never for one row), each row's
  clamped columns X_K times their transpose. Neither needs the clamp
  counts of a stack to agree. The norm route solves
  with C itself, whose spectrum lies in [gamma - |W|, gamma + max(|W|,
  1/d)]: its copies of c exceed gamma + |W| only when |W| < 1/d, which
  takes M >= d. The eigen route eigendecomposes the Gram matrix, which
  gives C's spectrum and eigenvectors, and applies the rule to C. Woodbury,
  (Q_UU)^-1 r = (r + s X_U^T C^-1 X_U r) / c, turns the solve into one
  with C. A recall costs O(M^2 d + M^3), and Q x costs O(M d); no d x d
  matrix is read.
- A hand-built W has no factor. Q_UU is extracted, O(|U|^2), and always
  eigendecomposed itself, O(|U|^3). The tests use this dense path as an
  oracle of the factored one.

For mu > 0, and when Q_UU is singular, A's active block is eigendecomposed
instead and only eigenvalues of magnitude >= mu are inverted (the truncated
pseudoinverse); a trained W enters that block straight from its factor.
The recovered state is sign(x); a component within
TIE_TOL_FACTOR * max(1, |x|_inf) of zero is a tie and resolves to +1.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hebbian import WeightMatrix, _pattern_gram, _patterns_of, spectral_norm
from .patterns import ClampSet, HopfieldWarning, TrainingSet, _finite_vector, _real, as_thresholds

RANK_TOL_FACTOR = 1e-10  # relative eigenvalue cutoff treated as exact rank deficiency
KAPPA_DIRECT = 1e4  # trained cores whose norm-bound condition number is at most this skip eigh
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
        object.__setattr__(self, "gamma", _real(self.gamma, "gamma"))
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
    WeightMatrix that train built, has _pattern_gram write X^T X/(M d)
    into the top block, so no d x d W is derived or kept on the store; a
    hand-built W is copied in.
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
        _pattern_gram(x, out=top)
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
    sys = LinearSystem(wm, clamp, gamma, theta)
    if sys.gamma <= spectral_norm(wm):
        warnings.warn("gamma does not exceed the spectral norm of W; the clamped "
                      "minimum is no longer guaranteed", HopfieldWarning, stacklevel=2)
    elif sys.gamma < 1.0:
        warnings.warn("gamma below the conventional default of 1; the minimum is "
                      "still certified while gamma > |W|", HopfieldWarning, stacklevel=2)
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
    mu = _real(mu, "mu", zero=True)
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
    mu = _real(mu, "mu", zero=True)
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
                       mu=mu, rank_tol=rank_tol, kept=kept, eta=eta,
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
    """The (R, k) ascending column indices of an (R, d) mask stack with k set in every row.

    Only a hand-built W's block gathers columns, so only its stacks must
    fix equally many neurons.
    """
    cols = mask.nonzero()[1]
    k = cols.size // len(mask)
    if len(mask) > 1 and np.any(mask.sum(axis=1) != k):
        raise ValueError("every clamp of a stack must fix equally many neurons")
    return cols.reshape(len(mask), k)


class _SpectralBlock:
    """A stack of Q_UU, one per clamp, certified and solved by one route (see the module notes).

    On the norm route, which only a trained store's core takes, the block
    keeps its matrices as q, every row is definite and not singular, and
    _inverse solves them by one batched LU.
    Otherwise each row is taken apart by one eigendecomposition: eigs is
    the (R, n) stack of decomposed spectra, each sorted either way, vecs
    their eigenvectors, and the rule of the module notes decides row by
    row: with floor = _rank_floor of the row, a block is singular when some
    |eig| <= floor and positive definite when min(eigs) > floor. An empty
    spectrum (nothing unclamped) has floor 0 and counts as definite and not
    singular.
    """

    def __init__(self, q=None, eigs=None, vecs=None):
        self.q, self.eigs, self.vecs = q, eigs, vecs
        if vecs is None:
            self.singular = np.zeros(len(q), dtype=bool)
            self.definite = ~self.singular
        else:
            floor = _rank_floor(eigs)
            self.singular = np.minimum.reduce(np.abs(eigs), axis=1, initial=np.inf) <= floor
            self.definite = np.minimum.reduce(eigs, axis=1, initial=np.inf) > floor

    def _inverse(self, r: np.ndarray) -> np.ndarray:
        """Each row of r under its block's inverse; zero on singular rows."""
        if self.vecs is None:
            return np.linalg.solve(self.q, r[:, :, None])[:, :, 0]
        coef = (r[:, None, :] @ self.vecs)[:, 0]
        coef /= np.where(self.singular[:, None], np.inf, self.eigs)
        return (self.vecs @ coef[:, :, None])[:, :, 0]


def _clamped_gram(wm: WeightMatrix, known) -> np.ndarray:
    """The (R, M, M) stack X_K X_K^T of a trained store, one per mask row.

    Its entries are integers, so both formulas give them exactly: one GEMM
    of the float masks against the store's pair-product table, scattered
    into M x M, or, unless the table is smaller than the masked patterns it
    stands for, each row's clamped columns times their transpose.
    """
    f = wm.factor
    m = len(f)
    pairs = m * (m + 1) // 2
    if pairs >= len(known) * m:
        gram = np.empty((len(known), m, m))
        for row, mask in zip(gram, known):
            columns = f.compress(mask, axis=1)
            np.matmul(columns, columns.T, out=row)
        return gram
    return (known.astype(float) @ wm.pair_products)[:, _pair_slots(m)]


@functools.cache
def _pair_slots(m: int) -> np.ndarray:
    """The (M, M) column of each pattern pair (a, b) in the pair-product table, either order."""
    slots = np.empty((m, m), dtype=np.intp)
    a, b = np.triu_indices(m)
    slots[a, b] = slots[b, a] = np.arange(a.size)
    slots.setflags(write=False)
    return slots


class _CoreBlock(_SpectralBlock):
    """Q_UU of a trained W, through its M x M core (see the module notes).

    The core is kept scaled by M d, as M d C = (gamma M d + M) I - X_U X_U^T,
    so its spectrum follows from the Gram matrix X_U X_U^T, which is X X^T
    minus _clamped_gram, by one subtraction. Its spectrum lies in
    [gamma - |W|, top] with top = gamma + max(|W|, 1/d), and the norm route
    takes the stack when gamma > |W| and top <= KAPPA_DIRECT (gamma - |W|).
    """

    def __init__(self, wm: WeightMatrix, known, gamma: float):
        f = wm.factor
        m, d = f.shape
        self.f = f
        self.known = known
        self.c = gamma + 1.0 / d
        g = wm.gram - _clamped_gram(wm, known)
        shift = gamma * m * d + m  # c M d
        norm = wm.norm
        if gamma > norm and gamma + max(norm, 1.0 / d) <= KAPPA_DIRECT * (gamma - norm):
            super().__init__(q=shift * np.eye(m) - g)
        else:
            g, vecs = np.linalg.eigh(g)
            super().__init__(eigs=shift - g, vecs=vecs)  # c M d minus the ascending Gram spectrum

    def solve(self, x, theta=None) -> np.ndarray:
        """A new x with Q_UU x_U = -(theta_U + Q_UK x_K), from x holding x_inc on K and 0 on U.

        Woodbury, with I + s C^-1 X_U X_U^T = c C^-1, gives
        x_U = s X_U^T C^-1 (X_K x_K - X_U theta_U / c) - theta_U / c. The
        block's verdict is the only gate: on the norm route the condition
        number is at most KAPPA_DIRECT, and past the spectral rule the eigen
        fallback would invert the same small eigenvalues, so no residual
        guard follows.
        """
        b = x @ self.f.T  # X_K x_K, for x zero on U: integer entries, so exact
        # the other products run row by row, so no row's x depends on its stack
        if theta is not None:
            t = np.where(self.known, 0.0, theta / self.c)
            b = b - (t[:, None, :] @ self.f.T)[:, 0]
        sol = (self._inverse(b)[:, None, :] @ self.f)[:, 0]  # X^T of it, read on U
        if theta is not None:
            sol = sol - t
        return np.where(self.known, x, sol)


class _DenseBlock(_SpectralBlock):
    """Q_UU of a hand-built W, extracted once and eigendecomposed."""

    def __init__(self, wm: WeightMatrix, known, gamma: float):
        self.w = wm.w
        self.free = _columns(~known)
        quu = -self.w[self.free[:, :, None], self.free[:, None, :]]
        diag = np.arange(self.free.shape[1])
        quu[:, diag, diag] = gamma  # W has a zero diagonal, so this is gamma I - W_UU
        eigs, vecs = np.linalg.eigh(quu)
        super().__init__(eigs=eigs, vecs=vecs)

    def solve(self, x, theta=None) -> np.ndarray:
        """A new x with Q_UU x_U = -(theta_U + Q_UK x_K), from x holding x_inc on K and 0 on U."""
        rhs = np.take_along_axis(x @ self.w, self.free, axis=1)  # -Q_UK x_K, for x zero on U
        if theta is not None:
            rhs -= theta[self.free]
        x = x.copy()
        np.put_along_axis(x, self.free, self._inverse(rhs), axis=1)
        return x


def _unclamped_block(wm: WeightMatrix, known, gamma: float):
    """Q_UU = (gamma I - W)_UU on each row's unclamped set U = ~known, certified once."""
    return (_DenseBlock if wm.factor is None else _CoreBlock)(wm, known, gamma)


def _reduced_solve(wm: WeightMatrix, known, probes, gamma: float, theta=None):
    """The mu = 0 kernel: x with x_K = x_inc_K and Q_UU x_U = -(theta_U + Q_UK x_K).

    known is an (R, d) stack of masks, and probes the (R, d) stack of
    their x_inc, zero off the clamp; each row is solved on its own, with
    Q = gamma I - W and U = ~known. A trained store's masks may clamp
    different counts; a hand-built W's must clamp equally many neurons.
    theta=None means zero thresholds. Returns (x, block): x is a new (R, d) array, and
    block the stack of Q_UU from _unclamped_block. A row that the spectral
    rule calls singular (block.singular) is not solved; its x is meaningless.
    The norm route of a trained core never calls a row singular.
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
    return np.where(_positive(x), 1.0, -1.0)


def _positive(x) -> np.ndarray:
    """The mask of components that discretize maps to +1: x at or above minus the tie band."""
    x = np.asarray(x, dtype=float)
    scale = np.maximum.reduce(np.abs(x), axis=-1, keepdims=True, initial=1.0)  # max(1, |x|_inf)
    if not math.isfinite(np.maximum.reduce(scale, axis=None)):
        raise ValueError("cannot discretize non-finite values")
    return x >= -TIE_TOL_FACTOR * scale


def solve_perturbed(wm: WeightMatrix, x_pert, theta=None, gamma: float = 1.0,
                    beta: float = 1.0) -> SolveReport:
    """Solve ((gamma + beta) I - W) x = beta x_pert - theta.

    The soft variant: instead of clamping, a quadratic penalty of weight
    beta pulls the state toward the perturbed anchor x_pert, so there are
    no multipliers (lam comes back empty). It is the mu = 0 kernel with
    nothing clamped, ridge gamma + beta and thresholds theta - beta x_pert,
    so a trained store is solved from its factor, and it takes the route of
    every reduced block. When gamma + beta clears |W| by the KAPPA_DIRECT
    margin, a trained store's core is certified from the norm and solved by
    LU. Otherwise, and always for a hand-built W, the spectrum decides: the
    matrix is rejected as singular when an eigenvalue lies within
    RANK_TOL_FACTOR times the largest eigenvalue magnitude of zero.
    minimum_certified is that block's positive-definiteness verdict.
    gamma + beta > |W| is sufficient for it but not necessary; below that
    bound a warning is raised before solving.
    """
    gamma, beta = _real(gamma, "gamma"), _real(beta, "beta")
    anchor = _finite_vector(x_pert, wm.d, "x_pert")
    t = as_thresholds(theta, wm.d)
    if gamma + beta <= spectral_norm(wm):
        warnings.warn("gamma + beta does not exceed |W|; system may be indefinite",
                      HopfieldWarning, stacklevel=2)
    xs, block = _reduced_solve(wm, np.zeros((1, wm.d), dtype=bool), np.zeros((1, wm.d)),
                               gamma + beta, t - beta * anchor)
    if block.singular[0]:
        raise ValueError("perturbed system matrix is singular")
    x = xs[0]
    residual = float(np.max(np.abs(_apply_q(wm, gamma + beta, x) - (beta * anchor - t))))
    return SolveReport(x=x, lam=np.zeros(0), discretized=discretize(x),
                       gamma=gamma, mu=0.0, rank_tol=0.0, kept=wm.d,
                       eta=0.0, residual_constraint=0.0,
                       residual_stationarity=residual,
                       minimum_certified=bool(block.definite[0]))


def certify_minimum(wm: WeightMatrix, clamp: ClampSet, gamma: float, *, _block=None) -> bool:
    """Second-order check of the clamped minimizer: (gamma I - W)_UU > 0.

    Clamping fixes the known coordinates, so the minimum is strict exactly
    when Q = gamma I - W on the unclamped set U is positive definite. It is
    decided by the block the solve also builds, on its route (see the module
    notes). When gamma clears |W| by the KAPPA_DIRECT margin, the norm
    bound Q >= (gamma - |W|) I certifies a trained store's core. Otherwise
    the smallest eigenvalue of Q_UU (a hand-built W) or of its core C (a
    trained one) must exceed RANK_TOL_FACTOR times the largest eigenvalue
    magnitude, so a block within that floor of singular fails. An empty U
    certifies; gamma = 0 never certifies a non-empty U, since Q_UU = -W_UU
    then has zero trace. solve hands over, as _block, the one-row stack of
    Q_UU it already certified.
    """
    gamma = _real(gamma, "gamma", zero=True)
    if clamp.d != wm.d:
        raise ValueError(f"clamp dimension {clamp.d} does not match weights {wm.d}")
    if _block is None:
        _block = _unclamped_block(wm, clamp.mask()[None], gamma)
    return bool(_block.definite[0])
