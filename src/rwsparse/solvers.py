"""Inner convex solvers called at every outer reweighting iteration.

Four problems are covered, all over a dense underdetermined matrix:

* weighted basis pursuit      min sum_i w_i |x_i|  s.t.  phi x = b
* weighted LASSO              min (lam/2) ||phi x - b||^2 + sum_i w_i |x_i|
* constrained weighted l1     min sum_i w_i |x_i|  s.t.  ||phi x - b|| <= eta
* minimum-l2-norm solution    argmin ||x||  s.t.  phi x = b

All three sparse problems follow the weighted-LASSO homotopy (``_path``):
the minimizer is piecewise linear in the effective weights w / lam, and an
active-set path finds its support and signs breakpoint by breakpoint. The
LASSO ends on the exact solve on that support; the constrained problem
follows the path in 1/lam until the residual norm meets eta and ends on
the closed-form multiplier on that segment's support. Both answers are
returned only when the LASSO optimality conditions certify them. When the
path runs out of breakpoints, the exact minimizer at the weights it
reached is returned as not converged; any other failure of the path or of
the certificate raises ``NoConvergenceError``.

Basis pursuit is the limit of the LASSO as lam grows, and the same path
answers every input. It runs to a small residual norm (cold; at a second,
smaller norm when the first does not certify), or continues from the
LASSO point of the previous basis pursuit answer, which that answer's
report carries (warm). The exact solve on the support the path ends on,
pruned of rounding-level coordinates and of those that cross zero on the
way to the limit, is returned only with a verified dual certificate
seeded by the path's own multiplier. A cold path holds a column that
comes due in the span of its support off it, as at equal columns and
tied weights, and returns the minimizer at the weights it reached, not
converged, when it runs out of breakpoints. Where the fit on the
zero-weight coordinates already meets phi x = b (b = 0, all weights
zero, or zero weights on a support of b), the cold path stops at once
and that fit is the answer, at objective 0; any other input on which no
path certifies raises ``NoConvergenceError``.

Each instance has one cached operator, the package's only per-instance
cache, which builds on first use the minimum-norm solution, phi^T b and
the Gram rows phi_i^T phi the path enters. It also keeps the path's
workspace (the support the last path call ended on, with the inverse Gram
matrix of its columns, from which a warm re-solve on that support
continues without refactoring) and the outer loop's unit-weight starts
(:mod:`rwsparse.reweight`), and dies with the instance. A phi without
full row rank, numerically, is rejected with ``RankDeficientError``.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve, qr, solve_triangular
from scipy.linalg.blas import dger
from scipy.linalg.lapack import dpotri

from .model import ConfigurationError, ProblemInstance, SolverConfig, as_weight_array

__all__ = [
    "InnerSolveReport",
    "NoConvergenceError",
    "RankDeficientError",
    "min_l2_solution",
    "weighted_basis_pursuit",
    "weighted_lasso_fista",
    "constrained_weighted_l1",
]

_DEFAULT_CFG = SolverConfig()
_EPS = np.finfo(float).eps

# certified-polish acceptance slack for the dual optimality conditions
_CERT_TOL = 1e-9
# smallest accepted min/max ratio of the Gram Cholesky pivots diag(L); the
# ratio is at least 1 / cond(phi), so a phi is rejected only if its
# condition number is at least 1e6, while a duplicated row leaves a ratio
# at rounding level (about 2e-8 and below)
_GRAM_PIVOT_RATIO = 1e-6
# a column whose squared sine to the span of the LASSO path's support is
# at most this lies in that span (``_path``)
_PATH_RANK_TOL = 1e-10
# a cold basis pursuit path stops where ||phi x - b|| = eta ||b||, at the
# first of these eta that certifies. On the 1000 solves of a 200-instance
# Fig-1 sweep (n=256, m=100, s=20..50, l1, rw-sub and rw-cwb at
# rw_iter=2), a single eta of 1e-5, 1e-6, 1e-7 or 1e-8 left 11, 1, 6 and
# 485 uncertified: a larger budget stops on a support that still misses
# the basis pursuit support, and a smaller one loses the closed form's
# slack eta^2 - (||b||^2 - ||Q^T b||^2) to cancellation. 1e-6, then 1e-7
# leaves none.
_BP_ETAS = (1e-6, 1e-7)
# basis pursuit's path candidate drops the coordinates of its support at
# most this fraction of max |x|: the LASSO's support at a small residual is
# the basis pursuit support plus coordinates that vanish in the limit
_BP_PRUNE = 1e-9


class NoConvergenceError(RuntimeError):
    """An iterative solve failed to reach its stopping criterion."""


class RankDeficientError(ConfigurationError, np.linalg.LinAlgError):
    """phi does not have full row rank, numerically: phi phi^T has no
    Cholesky factor, or one with a pivot ratio min/max diag(L) of at most
    ``_GRAM_PIVOT_RATIO``, so the affine projection and the minimum-norm
    solution are undefined or dominated by rounding. It is also a
    ``LinAlgError``."""


@dataclass(frozen=True, eq=False)
class InnerSolveReport:
    """Outcome of one inner solve.

    ``primal_residual`` is the solver's own normalized stopping measure
    (affine infeasibility ||phi x - b|| / (1 + ||b||) for basis pursuit,
    worst-case optimality-condition violation for LASSO, relative distance
    of the data-fit norm from its budget for the constrained problem).
    ``exit`` says how the solve stopped: ``"certified"`` (an exact solve or
    closed form whose optimality conditions were verified; the only
    ``converged`` exit) or ``"max_iter"`` (the breakpoint budget ran out).
    ``iterations`` counts the breakpoints of the weighted-LASSO path (the
    first entry included; for basis pursuit, of every path it walked).
    ``degenerate`` marks solves whose solution set is unbounded.
    ``lasso_point`` is, for a basis pursuit answer found on the path, the
    LASSO point (x_L, t) it came from, x_L the minimizer of
    (1/2)||phi x - b||^2 + t sum_i w_i |x_i|; a re-solve warm from this
    report continues the path from it (None on every other answer).
    ``multiplier`` is the data-fit multiplier lam the solve ended at: the
    LASSO's own lam, the constrained problem's multiplier of its budget
    (0 when the budget is inactive, NaN when the path ran out of
    breakpoints before meeting it), and infinity for basis pursuit, whose
    data fit is a hard constraint.
    """

    x: np.ndarray
    iterations: int
    primal_residual: float
    objective: float
    exit: str
    degenerate: bool = False
    multiplier: float = np.inf
    lasso_point: tuple[np.ndarray, float] | None = None

    @property
    def converged(self) -> bool:
        return self.exit == "certified"


class _Operator:
    """Everything derived from one instance, each piece built on first use:
    the minimum-norm solution ``x0`` (which applies the rank guard),
    phi^T b, the Gram rows phi_i^T phi of the coordinates the LASSO path
    has touched (``gram_row``), the path's workspace (``path_buffers``),
    and the outer loop's unit-weight start reports (``starts``, keyed and
    filled by ``reweight._start``).

    The workspace is the support a path call ended on, in its order of
    entry (``idx[:k]``), the inverse Gram matrix of its columns
    (``ginv[:k, :k]``) and their Gram rows (``rows[:k]``), with k
    ``path_size`` (None while the buffers hold no consistent support). A
    warm path that starts on that support continues from it in place;
    any other start overwrites it."""

    def __init__(self, instance: ProblemInstance):
        self.phi, self.b = instance.phi, instance.b
        self.gram_rows: dict[int, np.ndarray] = {}
        self.path_size: int | None = None
        self.starts: dict = {}

    @cached_property
    def x0(self) -> np.ndarray:
        """phi^T (phi phi^T)^{-1} b by a Cholesky solve with one step of
        iterative refinement, which keeps the residual near machine precision
        for moderately conditioned Gram matrices; the factor is not kept.
        Raises RankDeficientError when the factorization breaks down or its
        pivot ratio is at most ``_GRAM_PIVOT_RATIO``."""
        phi, b = self.phi, self.b
        m, n = phi.shape
        try:
            chol = cho_factor(phi @ phi.T)
        except np.linalg.LinAlgError as exc:
            raise RankDeficientError(
                f"phi ({m}x{n}) is rank deficient: the Cholesky factorization "
                f"of phi phi^T failed ({exc})"
            ) from None
        pivots = np.abs(np.diag(chol[0]))
        ratio = float(pivots.min() / pivots.max())
        if ratio <= _GRAM_PIVOT_RATIO:
            raise RankDeficientError(
                f"phi ({m}x{n}) is rank deficient: the Cholesky factor of "
                f"phi phi^T has pivot ratio {ratio:.3e} <= {_GRAM_PIVOT_RATIO:.0e}"
            )
        y = cho_solve(chol, b)
        y += cho_solve(chol, b - phi @ (phi.T @ y))
        return phi.T @ y

    @cached_property
    def corr_b(self) -> np.ndarray:
        """phi^T b, minus the LASSO gradient at x = 0 per unit lam."""
        return self.phi.T @ self.b

    def gram_row(self, i: int) -> np.ndarray:
        """phi_i^T phi, computed on first use and kept: the path solves of
        one instance keep entering the same few coordinates (a noisy trial
        of l1, rw-lasso and cwb-noisy at n = 256 enters 76 of them, on
        average, some 400 times)."""
        row = self.gram_rows.get(i)
        if row is None:
            row = self.gram_rows[i] = self.phi[:, i] @ self.phi
        return row

    @cached_property
    def path_buffers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The workspace's (idx, ginv, rows): m indices, an m x m and an
        m x n array."""
        m, n = self.phi.shape
        return np.empty(m, dtype=np.intp), np.zeros((m, m)), np.empty((m, n))


_OPERATORS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _operator(instance: ProblemInstance) -> _Operator:
    if instance not in _OPERATORS:
        _OPERATORS[instance] = _Operator(instance)
    return _OPERATORS[instance]


def min_l2_solution(instance: ProblemInstance) -> np.ndarray:
    """Minimum-l2-norm solution of phi x = b: phi^T (phi phi^T)^{-1} b,
    computed once per instance (see ``_Operator.x0``)."""
    return _operator(instance).x0.copy()


def _support_qr(phi, support):
    """Economic QR of the support columns phi_S, or None when S is empty,
    larger than m, or numerically rank deficient
    (min |diag R| <= |S| eps max |diag R|)."""
    k = support.size
    if k == 0 or k > phi.shape[0]:
        return None
    q, r = qr(phi[:, support], mode="economic", overwrite_a=True, check_finite=False)
    pivots = np.abs(np.diag(r))
    if pivots.min() <= k * _EPS * pivots.max():
        return None
    return q, r


def _bp_candidate(instance, support, tol, factors=None):
    """The exact solve on a candidate support: (q, r, x) with phi_S = q r
    (economic QR, ``factors`` when the caller has it) and
    x_S = r^{-1} q^T b, or None when the support has no usable QR (see
    ``_support_qr``) or x misses phi x = b by more than tol (1 + ||b||).
    A pure function of the support."""
    phi, b = instance.phi, instance.b
    if factors is None:
        factors = _support_qr(phi, support)
    if factors is None:
        return None
    q, r = factors
    x = np.zeros(phi.shape[1])
    x[support] = solve_triangular(r, q.T @ b, check_finite=False)
    if np.linalg.norm(phi @ x - b) > tol * (1.0 + np.linalg.norm(b)):
        return None
    return q, r, x


def _bp_certified(op, w, support, candidate, nu) -> bool:
    """Whether a dual certificate built from the multiplier estimate nu (a
    vector of length m) proves the candidate x of ``_bp_candidate`` a
    minimizer.

    The estimate is corrected on the support:
    nu + q r^{-T} (w_S sign(x_S) - phi_S^T nu), so that
    (phi^T nu)_S = w_S sign(x_S). nu = 0 gives the minimum-norm multiplier;
    the path passes its own multiplier (``_bp_path``). x is certified when
    the correlation phi^T nu matches the subdifferential of the weighted l1
    norm at x on every coordinate (equality on the support, magnitude at
    most w_i off it) within ``_CERT_TOL``. Any nu that passes certifies x,
    whatever the estimate was. When |S| = m, q is square and q q^T = I, so
    the corrected multiplier is q r^{-T} w_S sign(x_S) for every estimate
    (up to rounding).
    """
    phi = op.phi
    q, r, x = candidate
    target = w[support] * np.sign(x[support])
    # phi_S^T nu through the support factors, without copying the columns
    nu = nu + q @ solve_triangular(r, target - r.T @ (q.T @ nu), trans="T", check_finite=False)
    corr = phi.T @ nu
    slack = _CERT_TOL * (1.0 + float(np.max(w, initial=0.0)))
    if np.max(np.abs(corr[support] - target), initial=0.0) > slack:
        return False
    off = np.ones(phi.shape[1], dtype=bool)
    off[support] = False
    return not np.max(np.abs(corr[off]) - w[off], initial=0.0) > slack


def _warm_start(warm, n: int) -> np.ndarray:
    """A float copy of a warm start, which must be a finite 1-D vector of
    length n; anything else raises ConfigurationError."""
    arr = np.array(warm, dtype=float)
    if arr.shape != (n,):
        raise ConfigurationError(f"warm start must have shape ({n},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError("warm start must be finite")
    return arr


def weighted_basis_pursuit(
    instance: ProblemInstance,
    w,
    warm: InnerSolveReport | None = None,
    cfg: SolverConfig = _DEFAULT_CFG,
) -> InnerSolveReport:
    """Minimize sum_i w_i |x_i| subject to phi x = b.

    The problem is the limit of the weighted LASSO as lam grows, so it is
    solved along the homotopy ``_path`` (``_bp_path``): warm from the LASSO
    point that ``warm`` carries when it is the report of a basis pursuit
    answer on this instance (from m nonzeros only at weights that keep its
    objective), and cold otherwise or when the warm path does not certify.
    The answer is the exact solve on the support the path ends on, pruned
    of rounding-level coordinates and of those whose sign opposes the
    path's (``_bp_candidate``), returned only with a verified
    optimality certificate seeded by the path's own multiplier
    (``_bp_certified``): exit ``"certified"``, ``iterations`` the
    breakpoints of every path walked, and the LASSO point in
    ``lasso_point``. A cold path that would pass ``cfg.inner_max_iter``
    breakpoints ends the solve with exit ``"max_iter"`` and the minimizer
    at the weights it reached. A cold path stops at once, with nothing to
    certify, where the fit on the zero-weight coordinates meets phi x = b
    (b = 0, all weights zero, or zero weights on a support of b). When no
    path certifies, that fit (``_zero_weight_fit``) is the answer,
    certified at objective 0, if it meets phi x = b within
    ``cfg.inner_tol`` (1 + ||b||), and ``NoConvergenceError`` is raised
    otherwise; it is flagged degenerate when the zero-weight columns have
    a null space, which makes the solution set unbounded.

    ``warm`` must be None or a report whose x is a finite vector of length
    n (``ConfigurationError`` otherwise). ``primal_residual`` is
    ||phi x - b|| / (1 + ||b||).
    """
    w = as_weight_array(w, instance.n)
    carry = None
    if warm is not None:
        if not isinstance(warm, InnerSolveReport):
            kind = type(warm).__name__
            raise ConfigurationError(f"warm start must be a basis pursuit report, not {kind}")
        _warm_start(warm.x, instance.n)
        carry = warm.lasso_point
        # a warm path from a square support (m nonzeros) gives up at its
        # first entry, as on every such re-solve of a Fig-1 sweep: it is
        # walked only at weights that keep the objective, as unchanged ones do
        if carry is not None and np.count_nonzero(carry[0]) == instance.m:
            carry = carry if float(w @ np.abs(warm.x)) == warm.objective else None
    _operator(instance).x0  # the rank guard runs on every input
    x, breakpoints, carry = _bp_path(instance, w, carry, cfg)
    stop = "max_iter" if carry is None else "certified"
    degenerate, b = False, instance.b
    if x is None:
        x, resid, degenerate = _zero_weight_fit(instance, w)
        if np.linalg.norm(resid) > cfg.inner_tol * (1.0 + np.linalg.norm(b)):
            raise NoConvergenceError("no basis pursuit path certifies, nor the zero-weight fit")
        stop = "certified"
    return InnerSolveReport(
        x=x,
        iterations=breakpoints,
        primal_residual=float(np.linalg.norm(instance.phi @ x - b) / (1.0 + np.linalg.norm(b))),
        objective=float(w @ np.abs(x)),
        exit=stop,
        degenerate=degenerate,
        lasso_point=carry,
    )


def _lasso_optimality(w, grad, x) -> float:
    """Worst violation of the LASSO optimality conditions, normalized so
    that a value below the solver tolerance certifies the iterate:
    |grad_i + w_i sign(x_i)| / (1 + w_i) on the support, and
    max(|grad_i| - w_i, 0) off it.
    """
    viol = np.where(
        x != 0.0,
        np.abs(grad + w * np.sign(x)) / (1.0 + w),
        np.maximum(np.abs(grad) - w, 0.0),
    )
    return float(np.max(viol, initial=0.0))


def _lasso_polish(instance, w, lam, support, sigma):
    """Exact solve of the reduced smooth problem on a candidate support.

    With signs sigma fixed, the minimizer on support S solves
    lam phi_S^T phi_S x_S = lam phi_S^T b - w_S sigma. The candidate is
    returned only when its signs match sigma on the penalized
    coordinates; the caller re-checks the full optimality conditions
    before accepting.
    """
    phi, b = instance.phi, instance.b
    if support.size == 0 or support.size > phi.shape[0]:
        return None
    phi_s = phi[:, support]
    try:
        x_s = np.linalg.solve(
            lam * (phi_s.T @ phi_s),
            lam * (phi_s.T @ b) - w[support] * sigma,
        )
    except np.linalg.LinAlgError:
        return None
    penalized = w[support] > 0.0
    if np.any(np.sign(x_s[penalized]) != sigma[penalized]):
        return None
    cand = np.zeros(instance.n)
    cand[support] = x_s
    return cand


def _start_inverse(op, start, rows):
    """The inverse Gram matrix of the start columns, with their Gram rows
    copied into ``rows``, or None when a column's squared sine to the span
    of the columns before it is at most ``_PATH_RANK_TOL``."""
    k = start.size
    for j, i in enumerate(start.tolist()):
        rows[j] = op.gram_row(i)
    gram = rows[:k, start]
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    # each squared pivot over its diagonal entry is the squared sine of that
    # column's angle to the span of the columns before it
    if np.min(np.diag(chol) ** 2 / np.diag(gram)) <= _PATH_RANK_TOL:
        return None
    inv = dpotri(chol, lower=1)[0]  # its lower triangle
    return inv + np.tril(inv, -1).T


def _rank_one(ginv, k, u, v):
    """Add the symmetric term u v^T (v a multiple of u) to ginv[:k, :k] in
    place: BLAS dger on the rows ginv[:k], whose transpose is a
    Fortran-contiguous view, with u padded by zeros to the row length so
    that the rest of those rows keeps its values."""
    pad = np.zeros(ginv.shape[1])
    pad[:k] = u
    dger(1.0, pad, v, a=ginv[:k].T, overwrite_a=1)


def _path(instance, c, max_breakpoints, warm=None, eta=None):
    """The weighted-LASSO homotopy: follow the minimizer of
    (1/2)||phi x - b||^2 + sum_i c_i(t) |x_i| while the weights move
    linearly from c(0) to c(1), and return the support and signs it ends
    on as (support, sigma, breakpoints, None), support sorted and sigma 0
    where the weight is zero throughout; None when the path cannot be
    followed. When a breakpoint past ``max_breakpoints`` comes due, it
    returns (None, None, max_breakpoints, x) instead, with x the minimizer
    at the weights c(t) reached, x_S = G_S^{-1} (phi_S^T b - c_S sigma_S)
    (G_S the Gram matrix of the support).

    The minimizer is piecewise linear in t. With a = phi^T (b - phi x), a
    segment keeps its support S and signs sigma, on which
    phi_S^T phi_S x_S = phi_S^T b - c_S sigma (a_S = c_S sigma), and ends
    at a breakpoint: a coordinate off S reaches |a_i| = c_i and enters
    with the sign of a_i, or one of S reaches zero and leaves. A coordinate
    leaves only while it moves toward zero, at once if rounding has already
    put it past zero; one whose weight is zero throughout never leaves,
    and one that just left cannot enter again with the same sign on the
    next segment.

    * Cold (``warm`` None): c(t) = mu(t) c. The zero weights of c start
      active at their least-squares solve (x = 0 when there are none; when
      their columns are dependent, an independent subset starts and the
      others are held at 0, out of the support), and mu falls linearly
      from mu0 = max |a_i| / c_i, the first entry, to 1, or with ``eta``
      to 0, stopping on the first segment on which ||phi x - b|| = eta
      (the path ending first gives None).
    * Warm (without ``eta``): from the point ``warm``, c(0) the weights it
      solves, read off a: |a_i| on its support, max(|a_i|, kappa c_i) off
      it, with kappa the largest |a_i| / c_i over the penalized
      coordinates of the support (1 when there are none), and c(1) = c. A
      point solved at weights proportional to c, such as a LASSO or
      constrained solve at uniform weights, then starts at c(0) = kappa c
      and continues along the plain path in 1/lam. A sign of a_S that
      contradicts x_S beyond rounding gives None.

    The path runs in the instance's workspace (``_Operator``): the support
    in its order of entry, the inverse Gram matrix of phi_S (bordered on
    each entry, downdated on each exit, both in place) and the rows
    phi_S^T phi, copied from the instance's memo (``_Operator.gram_row``).
    A warm start on the support the last path call ended on, the usual
    case of a re-solve, continues from them as they are; any other start
    inverts its Gram matrix from its Cholesky factor. Along a segment the
    path updates, in preallocated buffers, |x_S| and the gaps c - a and
    c + a off the support, each of which closes at a known speed, and
    ||phi x - b||^2. The next breakpoint is the gap with the largest
    closing rate speed / gap, and the step to it is its gap / speed. So a
    breakpoint makes no product with phi beyond the first computation of a
    Gram row. The path gives None on a numerically rank-deficient start.
    A coordinate due to enter in the span of phi_S (every one when
    |S| = m; else by ``_PATH_RANK_TOL``) gives None on a warm path; on a
    cold one, where c(t) stays a multiple of c, phi_i = phi_S u keeps
    a_i = u^T c_S sigma_S = +-c_i while S holds, so it is held off the
    support until a coordinate leaves (equal columns at tied weights). A
    hold is a breakpoint, as is the first entry; a path that keeps tying
    ends at ``max_breakpoints``.
    """
    phi, b = instance.phi, instance.b
    m, n = phi.shape
    op = _operator(instance)
    corr = op.corr_b
    start = np.flatnonzero(c == 0.0 if warm is None else warm)
    k = start.size
    if k > m or (warm is not None and k == 0):
        return None
    idx, ginv, rows = op.path_buffers  # idx: the support, in the order of entry
    held = start[:0]  # zero weights kept at 0 and off the path
    a = corr.copy()
    if warm is not None and op.path_size == k and np.array_equal(np.sort(idx[:k]), start):
        start = idx[:k].copy()
    elif k:
        op.path_size = None  # until the buffers hold the start
        inv = _start_inverse(op, start, rows)
        if inv is None and warm is None:
            # dependent zero-weight columns: start on an independent subset
            # (pivoted QR) and hold the others at 0; they lie in its span, so
            # their correlation stays 0 and they never enter
            r, piv = qr(phi[:, start], mode="r", pivoting=True, check_finite=False)
            d = np.abs(np.diag(r))
            keep = np.sort(piv[: np.count_nonzero(d > math.sqrt(_PATH_RANK_TOL) * d[0])])
            held, start = np.delete(start, keep), start[keep]
            k = start.size  # 0 when every such column is zero
            inv = _start_inverse(op, start, rows) if k else ginv[:0, :0]
        if inv is None:
            return None
        ginv[:k, :k] = inv
        idx[:k] = start
    op.path_size = k
    if k:
        xs = ginv[:k, :k] @ corr[start] if warm is None else warm[start]
        a -= xs @ rows[:k]
    if warm is None:
        pen = c > 0.0
        c0 = float(np.max(np.abs(a[pen]) / c[pen], initial=0.0)) * c
        c1 = c if eta is None else np.zeros(n)
    else:
        # a_S = c_S sigma_S, within the certificate slack of rounding
        sa = np.sign(xs) * a[start]
        slack = _CERT_TOL * float(np.max(np.abs(a), initial=0.0))
        if np.any(sa < -slack):
            return None
        pen = c[start] > 0.0
        kappa = float(np.max(sa[pen] / c[start][pen])) if pen.any() else 1.0
        c0 = np.maximum(np.abs(a), kappa * c)
        c0[start] = np.where(sa > slack, sa, 0.0)
        c1 = c
    dc = c1 - c0
    free = (c0 == 0.0) & (dc == 0.0)
    sig = np.empty(m)
    sdc = np.empty(m)  # sigma_S dc_S, so that d x_S / dt = -ginv sdc
    csig = np.empty(m)  # c_S sigma_S = a_S
    # Every breakpoint is a gap closing to zero, so one buffer holds them
    # all: gaps[:m] is |x_S| in the order of entry, through which a
    # coordinate leaves (+inf past k, and where the weight is zero
    # throughout, which never leaves), and gaps[m:] is c - a and c + a,
    # through which a coordinate enters with sign +1 and -1 (+inf on the
    # support and on the held coordinates). A rounding error past zero is
    # cut to zero. The gaps close at the speeds; the next breakpoint is the
    # largest rate speed / gap (exits come first, so they win exact ties),
    # and its step is gap / speed.
    gaps = np.full(m + 2 * n, np.inf)
    mag, gap = gaps[:m], gaps[m:].reshape(2, n)
    speeds = np.zeros(m + 2 * n)
    fall, q = speeds[:m], speeds[m:].reshape(2, n)
    rates = np.empty(m + 2 * n)
    if k:
        sig[:k] = np.where(free[start], 0.0, np.sign(xs))
        mag[:k] = np.where(free[start], np.inf, sig[:k] * xs)
    sdc[:k] = sig[:k] * dc[start]
    csig[:k] = sig[:k] * c0[start]
    if eta is not None:
        r = b - phi[:, start] @ xs if k else b
        rho, eta_sq = float(r @ r), eta * eta
    np.subtract(c0, a, out=gap[0])
    np.add(c0, a, out=gap[1])
    gap[:, start] = gap[:, held] = np.inf
    np.maximum(gaps, 0.0, out=gaps)
    ndc = -dc

    t = 0.0
    left = None
    tied = []  # (side, i) of the coordinates held at a closed gap
    breakpoints = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            xb = ginv[:k, :k] @ sdc[:k]  # -d x_S / dt
            v = xb @ rows[:k]  # d a / dt
            np.add(ndc, v, out=q[0])
            np.subtract(ndc, v, out=q[1])
            np.multiply(sig[:k], xb, out=fall[:k])  # -d |x_S| / dt
            # a positive rate closes; 0 over an infinite gap, and NaN (none)
            # at zero gap and zero speed
            np.divide(speeds, gaps, out=rates)
            if left is not None:
                rates[left] = -np.inf
            j = int(rates.argmax())
            if math.isnan(rates[j]):
                rates[np.isnan(rates)] = -np.inf
                j = int(rates.argmax())
            step = gaps[j] / speeds[j] if rates[j] > 0.0 else np.inf
            event = "leave" if j < m else "enter"
            if not step < 1.0 - t:  # a NaN step ends the path too
                step, event = 1.0 - t, "end"
            if eta is not None:
                # ||r - s phi_S xdot||^2, where phi_S^T r = c_S sigma_S and
                # phi_S^T phi_S xdot = -sdc
                rho_next = rho + step * (2.0 * (csig[:k] @ xb) + step * (xb @ sdc[:k]))
                if rho_next <= eta_sq:
                    break
                if event == "end":
                    # rounding drifts rho (most on an ill-conditioned square
                    # S); at t = 1, c = 0 and x_S is the least-squares fit
                    support = idx[:k]
                    r = b - phi[:, support] @ (ginv[:k, :k] @ corr[support])
                    if r @ r > eta_sq:
                        return None
                    break
                rho = rho_next
            np.multiply(speeds, step, out=rates)  # rates serves as scratch
            gaps -= rates
            np.maximum(gaps, 0.0, out=gaps)
            csig[:k] += step * sdc[:k]
            t += step
            if event == "end":
                break
            breakpoints += 1
            if breakpoints > max_breakpoints:
                x = np.zeros(n)
                x[idx[:k]] = ginv[:k, :k] @ (corr[idx[:k]] - csig[:k])
                return None, None, max_breakpoints, x
            if event == "leave":
                out = idx[j]
                out_side = 0 if sig[j] > 0.0 else 1
                left = m + out_side * n + out  # the flat index of its gap
                # off the support again, at a_out = c_out sigma_out, and so
                # are the tied coordinates, which the smaller support frees
                for side, i in tied + [(out_side, out)]:
                    gap[side, i] = 0.0
                    gap[1 - side, i] = 2.0 * (c0[i] + t * dc[i])
                tied.clear()
                last = k - 1
                if j != last:
                    swap, back = [j, last], [last, j]
                    for arr in (idx, sig, mag, sdc, csig):
                        arr[swap] = arr[back]
                    rows[j] = rows[last]
                    ginv[swap, :k] = ginv[back, :k]
                    ginv[:k, swap] = ginv[:k, back]
                mag[last] = np.inf
                if last:
                    e = ginv[:last, last].copy()
                    _rank_one(ginv, last, e, e / -ginv[last, last])
                k = op.path_size = last
                continue
            side, i = divmod(j - m, n)
            if k < m:
                rows[k] = op.gram_row(i)
                g = rows[:k, i]
                gamma = rows[k, i]
                u = ginv[:k, :k] @ g
                delta = gamma - g @ u
            if k == m or not delta > _PATH_RANK_TOL * gamma:
                if warm is not None:
                    return None
                # a_i = u^T c_S sigma_S = +-c_i until a coordinate leaves:
                # i is tied to the support and held off it
                tied.append((side, i))
                gap[:, i] = np.inf
                continue
            s = 0.0 if free[i] else 1.0 - 2.0 * side
            ud = u / delta
            if k:
                _rank_one(ginv, k, u, ud)
            ginv[:k, k] = ginv[k, :k] = -ud
            ginv[k, k] = 1.0 / delta
            idx[k], sig[k], mag[k] = i, s, np.inf if s == 0.0 else 0.0
            sdc[k], csig[k] = s * dc[i], s * (c0[i] + t * dc[i])
            gap[:, i] = np.inf
            k = op.path_size = k + 1
            left = None
    order = np.argsort(idx[:k])
    return idx[:k][order], sig[:k][order], breakpoints, None


def _zero_weight_fit(instance, w):
    """The fit on the zero-weight coordinates, at weighted l1 norm 0, as
    (x, b - phi x, degenerate): their exact QR solve when their columns
    are independent (``_support_qr``), else their least-squares fit, one
    of an unbounded set (degenerate); x = 0 when no weight is zero. Each
    caller decides whether the fit answers its problem."""
    phi, b = instance.phi, instance.b
    x = np.zeros(instance.n)
    free = np.flatnonzero(w == 0.0)
    if free.size == 0:
        return x, b, False
    factors = _support_qr(phi, free)
    if factors is None:
        x[free] = np.linalg.lstsq(phi[:, free], b, rcond=None)[0]
    else:
        q, r = factors
        x[free] = solve_triangular(r, q.T @ b, check_finite=False)
    return x, b - phi[:, free] @ x[free], factors is None


def weighted_lasso_fista(
    instance: ProblemInstance,
    w,
    lam: float,
    warm: np.ndarray | None = None,
    cfg: SolverConfig = _DEFAULT_CFG,
) -> InnerSolveReport:
    """Minimize (lam/2) ||phi x - b||^2 + sum_i w_i |x_i|.

    The minimizer is that of the weights c = w / lam at unit lam, found
    along the homotopy ``_path``: cold from x = 0, or warm from ``warm`` (a
    finite vector of length n, ``ConfigurationError`` otherwise) through
    the weights it solves, and cold when the warm path fails or runs out of
    breakpoints. The exact solve on the support and signs the path ends on
    (``_lasso_polish``) is returned with exit ``"certified"`` when the
    optimality conditions hold there within ``cfg.inner_tol``;
    ``iterations`` counts the path's breakpoints. When the cold path would
    pass ``cfg.inner_max_iter`` breakpoints, the minimizer at the weights
    it reached is returned with exit ``"max_iter"`` and, as
    ``primal_residual``, its violation of the optimality conditions at
    (w, lam). A path that cannot be followed, or an answer that does not
    certify, raises ``NoConvergenceError``.

    When lam |phi^T b|_i <= w_i for every i, x = 0 is returned certified
    after 0 iterations. This covers lam = 0 and phi = 0, where the solve is
    flagged degenerate if any weight vanishes (those coordinates are then
    unconstrained by the objective). More than m zero weights, more than
    the path holds, give the least-squares fit on their columns, certified
    and flagged degenerate, as is an answer on which the path held a zero
    weight of a dependent column at 0.
    """
    w = as_weight_array(w, instance.n)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if warm is not None:
        warm = _warm_start(warm, instance.n)
    phi, b = instance.phi, instance.b
    breakpoints, stop, degenerate = 0, "certified", False
    if np.all(lam * np.abs(_operator(instance).corr_b) <= w):
        x = np.zeros(instance.n)
        degenerate = (lam == 0.0 or not np.any(phi)) and bool(np.any(w == 0.0))
    elif np.count_nonzero(w == 0.0) > instance.m:
        x, _, degenerate = _zero_weight_fit(instance, w)
    else:
        c = w / lam
        found = None if warm is None else _path(instance, c, cfg.inner_max_iter, warm)
        if found is None or found[3] is not None:
            found = _path(instance, c, cfg.inner_max_iter)
        if found is None:
            raise NoConvergenceError(
                "the weighted-LASSO path cannot be followed: a numerically "
                "rank-deficient support"
            )
        support, sigma, breakpoints, x = found
        if x is None:
            x = _lasso_polish(instance, w, lam, support, sigma)
            # a zero weight off the support is a dependent column held at 0
            degenerate = np.count_nonzero(w[support] == 0.0) < np.count_nonzero(w == 0.0)
        else:
            stop = "max_iter"
    if x is not None:
        resid = phi @ x - b
        viol = _lasso_optimality(w, lam * (phi.T @ resid), x)
    if x is None or (stop == "certified" and viol > cfg.inner_tol):
        raise NoConvergenceError(
            "the weighted-LASSO answer (the exact solve on the path's support, "
            "or the zero-weight least-squares fit) does not certify"
        )
    return InnerSolveReport(
        x=x,
        iterations=breakpoints,
        primal_residual=viol,
        objective=0.5 * lam * float(resid @ resid) + float(w @ np.abs(x)),
        exit=stop,
        degenerate=degenerate,
        multiplier=float(lam),
    )


def _support_lasso(instance, w, support, sigma, eta=None, t=None):
    """The weighted-LASSO minimizer on support S with signs sigma at
    lam = 1/t, from the QR phi_S = QR, as (q, r, g, x_S, t), or None when S
    has no usable QR (``_support_qr``) or, with ``eta`` instead of t, the
    path on this support never meets the budget.

    The minimizer at t is x_S(t) = R^{-1}(Q^T b - t g) with
    g = R^{-T} w_S sigma, and its residual b - Q Q^T b + t Q g has the
    squared norm r0^2 + t^2 ||g||^2, r0^2 = ||b||^2 - ||Q^T b||^2 (the cross
    term vanishes: b - Q Q^T b is orthogonal to range(phi_S)). So
    ||phi x - b|| = eta at t = sqrt((eta^2 - r0^2) / ||g||^2).
    """
    phi, b = instance.phi, instance.b
    factors = _support_qr(phi, support)
    if factors is None:
        return None
    q, r = factors
    c = q.T @ b
    g = solve_triangular(r, w[support] * sigma, trans="T", check_finite=False)
    if t is None:
        slack = eta * eta - (float(b @ b) - float(c @ c))
        gg = float(g @ g)
        if slack <= 0.0 or gg == 0.0:
            return None
        t = np.sqrt(slack / gg)
    return q, r, g, solve_triangular(r, c - t * g, check_finite=False), t


def _constrained_root(instance, w, eta, support, sigma, tol):
    """The multiplier lam at which the LASSO path on support S and signs
    sigma meets the budget, as (minimizer, lam), or None when the path on
    this support never meets the budget or its minimizer fails its checks.

    The minimizer is the closed form of ``_support_lasso`` at the t = 1/lam
    where ||phi x - b|| = eta. It is returned only when its signs match
    sigma on the penalized coordinates and the full LASSO optimality
    conditions hold at lam within ``tol``; by duality it is then the
    constrained minimizer and lam its multiplier.
    """
    root = _support_lasso(instance, w, support, sigma, eta=eta)
    if root is None:
        return None
    x_s, t = root[3:]
    lam = 1.0 / t
    # a sign change fails the certificate below as well (unless w_i is near
    # the tolerance); checked first because it needs no product with phi
    penalized = w[support] > 0.0
    if np.any(np.sign(x_s[penalized]) != sigma[penalized]):
        return None
    cand = np.zeros(instance.n)
    cand[support] = x_s
    phi, b = instance.phi, instance.b
    if _lasso_optimality(w, lam * (phi.T @ (phi @ cand - b)), cand) > tol:
        return None
    return cand, lam


def _bp_path(instance, w, carry, cfg):
    """Weighted basis pursuit along the LASSO homotopy: (x, breakpoints,
    (x_L, t)) with x certified, (x, breakpoints, None) when a cold path
    runs out of breakpoints, x the minimizer at the weights it reached, or
    (None, breakpoints, None) when no path certifies.

    The path ends on a support S' and signs at weights t w: cold, it runs
    from x = 0 in 1/lam to the residual norm eta = f ||b||, f in
    ``_BP_ETAS`` in turn, and t is where the closed form on S' meets eta
    (``_support_lasso``); warm, from the carried LASSO point (x_L, t) of an
    earlier answer to t times the new weights, and the LASSO minimizer x_L
    on S' is taken at that t. The basis pursuit candidate on S' comes from
    the same QR; its coordinates at most ``_BP_PRUNE`` max |x|, or of the
    sign opposite to the path's (it crosses zero on the way to the limit,
    as one of -1.5e-8 does on n=20, m=10, s=4, seed 209 at unit weights),
    are dropped, and the pruned support is factored again if it shrank.
    The candidate is accepted when the certificate seeded with the path's
    multiplier passes. A warm path that fails or does not certify is
    followed by the cold ones; breakpoints count every path walked.

    The path's multiplier is the LASSO dual (b - phi x_L) / t
    = (b - Q Q^T b) / t + Q g. The candidate passed its residual test, so b
    lies in range(phi_S'), and the first term is rounding error that 1/t
    amplifies: with it, a re-solve of a Fig-1 sweep (rw-cwb, s=40, seed 37)
    failed its certificate on the basis pursuit support. Without it, the
    seed Q g is the minimum-norm multiplier with phi_S'^T nu = w_S' sigma:
    it holds the path's signs on the coordinates that pruning drops, which
    the minimum-norm multiplier of the pruned support alone lacks.
    """
    norm_b = float(np.linalg.norm(instance.b))
    starts = [(None, None, f * norm_b) for f in _BP_ETAS]
    if carry is not None:
        starts.insert(0, (*carry, None))
    breakpoints = 0
    for x_l, t, eta in starts:
        if x_l is None:
            found = _path(instance, w, cfg.inner_max_iter, eta=eta)
        else:
            found = _path(instance, t * w, cfg.inner_max_iter, warm=x_l)
        if found is None:
            continue
        support, sigma, steps, x = found
        breakpoints += steps
        if x is not None:
            if x_l is None:
                return x, breakpoints, None
            continue
        lasso = _support_lasso(instance, w, support, sigma, eta, t)
        if lasso is None:
            continue
        q, r, g, x_s, t = lasso
        candidate = _bp_candidate(instance, support, cfg.inner_tol, (q, r))
        if candidate is None:
            continue
        x_bp = candidate[2][support]
        mags = np.abs(x_bp)
        kept = support[(mags > _BP_PRUNE * mags.max()) & (x_bp * sigma >= 0.0)]
        if kept.size < support.size:
            candidate = _bp_candidate(instance, kept, cfg.inner_tol)
            if candidate is None:
                continue
        if _bp_certified(_operator(instance), w, kept, candidate, q @ g):
            x_l = np.zeros(instance.n)
            x_l[support] = x_s
            return candidate[2], breakpoints, (x_l, t)
    return None, breakpoints, None


def constrained_weighted_l1(
    instance: ProblemInstance,
    w,
    eta: float,
    cfg: SolverConfig = _DEFAULT_CFG,
) -> InnerSolveReport:
    """Minimize sum_i w_i |x_i| subject to (1/2)||phi x - b||^2 <= eta^2 / 2.

    The weighted-LASSO path (``_path``) runs cold in 1/lam, from x = 0 to
    the segment on which ||phi x - b|| = eta, and the closed-form
    multiplier on that segment's support and signs (``_constrained_root``)
    is returned with exit ``"certified"`` when the LASSO optimality
    conditions certify it, with ||phi x - b|| = eta up to rounding;
    ``iterations`` counts the path's breakpoints, and ``multiplier`` is the
    budget's. When the path would pass ``cfg.inner_max_iter`` breakpoints
    before it meets the budget, the LASSO minimizer at the weights it
    reached, whose residual norm is still above eta, is returned with exit
    ``"max_iter"`` and multiplier NaN. A path that cannot be followed to
    the budget, or a root that does not certify, raises
    ``NoConvergenceError``. eta = 0 is weighted basis pursuit.

    When the fit on the zero-weight coordinates (``_zero_weight_fit``;
    x = 0 when there are none) meets the budget, it is returned at once
    with objective 0 and multiplier 0, exit ``"certified"``. Any answer is
    flagged degenerate when those columns have a null space, which makes
    the solution set unbounded (as with more than m zero weights).
    """
    w = as_weight_array(w, instance.n)
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    if eta == 0.0:
        return weighted_basis_pursuit(instance, w, None, cfg)
    phi, b = instance.phi, instance.b
    # the fit on the zero-weight coordinates is a minimizer when it meets
    # the budget, which then has multiplier 0
    x, resid, degenerate = _zero_weight_fit(instance, w)
    if np.linalg.norm(resid) <= eta:
        return InnerSolveReport(
            x=x,
            iterations=0,
            primal_residual=0.0,
            objective=0.0,
            exit="certified",
            degenerate=degenerate,
            multiplier=0.0,
        )

    found = _path(instance, w, cfg.inner_max_iter, eta=eta)
    if found is None:
        raise NoConvergenceError(
            f"the weighted-LASSO path cannot be followed to the budget {eta:.3e}: "
            f"a numerically rank-deficient support, or a budget below the "
            f"least-squares residual"
        )
    support, sigma, iterations, x = found
    lam, stop = np.nan, "max_iter"
    if x is None:
        root = _constrained_root(instance, w, eta, support, sigma, cfg.inner_tol)
        if root is None:
            raise NoConvergenceError(
                f"the closed-form multiplier on the constrained path's support of "
                f"{support.size} coordinates does not certify"
            )
        (x, lam), stop = root, "certified"
    res = float(np.linalg.norm(phi @ x - b))
    return InnerSolveReport(
        x=x,
        iterations=iterations,
        primal_residual=abs(res - eta) / eta,
        objective=float(w @ np.abs(x)),
        exit=stop,
        degenerate=degenerate,
        multiplier=float(lam),
    )
