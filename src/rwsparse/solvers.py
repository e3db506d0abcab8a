"""Inner convex solvers called at every outer reweighting iteration.

Four problems are covered, all over a dense underdetermined matrix:

* weighted basis pursuit      min sum_i w_i |x_i|  s.t.  phi x = b
* weighted LASSO              min (lam/2) ||phi x - b||^2 + sum_i w_i |x_i|
* constrained weighted l1     min sum_i w_i |x_i|  s.t.  ||phi x - b|| <= eta
* minimum-l2-norm solution    argmin ||x||  s.t.  phi x = b

All three sparse problems follow the weighted-LASSO homotopy (``_path``):
the minimizer is piecewise linear in the effective weights w / lam, and an
active-set path finds its support and signs breakpoint by breakpoint. Every
certified answer is the exact QR solve on its support (``_support_fit``),
a pure function of the support: the LASSO's at its lam, and that of the
constrained problem, which follows the path in 1/lam until the residual
norm meets eta, at the closed-form multiplier where it meets eta. Either
is returned only when one certificate, the LASSO optimality conditions at
its multiplier, holds, and the constrained answer only on its budget
(``_support_answer``). The solvers take no settings: every answer is
certified at the fixed slack ``_INNER_TOL``, and a path takes at most
``_MAX_BREAKPOINTS`` breakpoints.

Each solver walks its path starts in one loop, ``_walk``: warm from the
previous answer (the LASSO's x, or the LASSO point a basis pursuit report
carries), then cold from x = 0 (basis pursuit: toward a small residual
norm, then toward a second, smaller one). The loop has three exits. The
first path end that the problem's answer step accepts is the answer,
certified. A cold path that runs out of breakpoints returns the minimizer
at the weights it reached, not converged. When no start gives an answer,
the problem's fallback decides: the fit on the zero-weight coordinates
answers basis pursuit if it meets phi x = b and the constrained problem
if it meets the budget, at objective 0, and ``NoConvergenceError`` (or,
below the constrained problem's least-squares floor, ``ConfigurationError``)
is raised otherwise. Basis pursuit's answer step is the exact solve on the
path's support, pruned of rounding-level coordinates and of those that
cross zero on the way to the limit, with a dual certificate seeded by the
path's own multiplier.

One rule covers zero weights: a cold path starts with them active and
holds at 0, off its support, each one it cannot border (a column in the
span of the ones before it, as every one past the m-th is), as it holds
a column that comes due in the span of its support at equal columns and
tied weights. An answer with a zero weight held off its support is
flagged degenerate: those columns have a null space, so the solution set
is unbounded.

Every column joins a path's support by one step, ``_border``, at its
start as at an entry: one rank-one update of the inverse Gram matrix of
the support, under one rank rule.

Each instance has one cached operator, the package's only per-instance
cache, which builds on first use the Cholesky factor of phi phi^T (the
rank guard), the minimum-norm solution, phi^T b, ||b|| and the Gram rows
phi_i^T phi the path enters. It also keeps the path's workspace (the
support the last path call ended on, with the inverse Gram matrix of its
columns, which a warm start around that support keeps and borders its
other columns onto, and the buffers every path call writes) and the
outer loop's unit-weight starts
(:mod:`rwsparse.reweight`), and dies with the instance. A phi without
full row rank, numerically, is rejected with ``RankDeficientError``.

The BLAS and LAPACK routines are SciPy's f2py wrappers, called directly
(no higher-level ``scipy.linalg`` function runs). They are taken from the
compiled modules ``scipy.linalg._fblas`` and ``_flapack``, loaded without
importing the ``scipy.linalg`` package (``_scipy_linalg_extension``):
they are the very objects ``scipy.linalg.blas`` and ``scipy.linalg.lapack``
export, so every call and every bit is the same, and a fresh
``import rwsparse`` skips that package's Python layer, which on SciPy 1.17
clones NumPy's namespace and imports ``numpy.f2py``, ``numpy.testing``
and ``numpy.ma``. On a 2-core AVX-512 Xeon VM that halves the import of
the package and its CLI (median 0.47 -> 0.24 s over 12 fresh
interpreters) and lowers its peak RSS from 57 to 38 MB.
"""

from __future__ import annotations

import math
import sys
import weakref
from dataclasses import dataclass
from functools import cache, cached_property
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

from .model import ConfigurationError, ProblemInstance, as_weight_array


def _scipy_linalg_extension(name):
    """SciPy's compiled f2py module ``scipy.linalg.<name>`` without the
    ``scipy.linalg`` package: the module already in ``sys.modules``, or the
    one its ``ExtensionFileLoader`` loads from the package's directory
    (``find_spec`` imports only the top-level ``scipy``), registered there
    so that a later ``import scipy.linalg`` reuses it."""
    full = f"scipy.linalg.{name}"
    if full not in sys.modules:
        spec = PathFinder.find_spec(full, find_spec("scipy.linalg").submodule_search_locations)
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[full] = module
    return sys.modules[full]


_fblas, _flapack = _scipy_linalg_extension("_fblas"), _scipy_linalg_extension("_flapack")
daxpy, dger = _fblas.daxpy, _fblas.dger
dgeqrf, dormqr = _flapack.dgeqrf, _flapack.dormqr
dpotrf, dpotrs, dtrtrs = _flapack.dpotrf, _flapack.dpotrs, _flapack.dtrtrs

__all__ = [
    "InnerSolveReport",
    "NoConvergenceError",
    "RankDeficientError",
    "min_l2_solution",
    "weighted_basis_pursuit",
    "weighted_lasso_fista",
    "constrained_weighted_l1",
]

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny

# the residual ||phi x - b|| / (1 + ||b||) within which a basis pursuit
# answer meets phi x = b, and the slack of the LASSO optimality conditions
# (``_lasso_certificate``) that certify a LASSO or constrained answer
_INNER_TOL = 1e-8
# the breakpoints a path may take before it stops at the minimizer of the
# weights it reached (``_path``), which a cold path returns, not converged
_MAX_BREAKPOINTS = 50_000
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
    Cholesky factor, or one whose pivot ratio min/max diag(L) is not above
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
    closed form whose optimality conditions were verified within
    ``_INNER_TOL``; the only ``converged`` exit) or ``"max_iter"`` (a path
    reached ``_MAX_BREAKPOINTS``).
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
    the Cholesky factor of phi phi^T (``gram_factor``, which applies the
    rank guard; basis pursuit needs nothing else of it), the minimum-norm
    solution ``x0`` solved from that factor for ``min_l2_solution``,
    phi^T b and its largest magnitude (``corr_b``, ``corr_inf``), ||b||^2
    and ||b|| (``b_sq``, ``norm_b``), the Gram rows
    phi_i^T phi of the coordinates the LASSO path has touched
    (``gram_row``), the path's workspace (``path_buffers``) and per-call
    buffers (``path_vectors``), and the outer loop's unit-weight start
    reports (``starts``, keyed and filled by ``reweight._start``).

    The workspace is the support a path call ended on, in its order of
    entry (``idx[:k]``), the inverse Gram matrix of its columns
    (``ginv[:k, :k]``; ginv is zero outside that block) and their Gram
    rows (``rows[:k]``), with k ``path_size`` (None while the buffers hold
    no consistent support, as while a path's start is bordered). A warm
    path whose point is nonzero on all of that support keeps it and
    borders its other columns onto it (``_border``); any other start
    clears it."""

    def __init__(self, instance: ProblemInstance):
        self.phi, self.b = instance.phi, instance.b
        self.gram_rows: dict[int, np.ndarray] = {}
        self.path_size: int | None = None
        self.starts: dict = {}

    @cached_property
    def b_sq(self) -> float:
        """||b||^2 (b @ b), which the path and the answer steps read on
        every solve."""
        return float(self.b @ self.b)

    @cached_property
    def norm_b(self) -> float:
        """||b||, as ``_norm`` computes it."""
        return math.sqrt(self.b_sq)

    @cached_property
    def gram_factor(self) -> np.ndarray:
        """The upper Cholesky factor of phi phi^T, the array ``cho_factor``
        returns (LAPACK potrf on the upper triangle, the call it makes, made
        directly): the rank guard, which basis pursuit applies on every
        input. Raises RankDeficientError when the factorization breaks down
        or its pivot ratio is not above ``_GRAM_PIVOT_RATIO`` (also when it
        is NaN, as on a phi phi^T that overflows)."""
        phi = self.phi
        m, n = phi.shape
        chol, info = dpotrf(phi @ phi.T, lower=0, clean=0)
        if info > 0:
            raise RankDeficientError(
                f"phi ({m}x{n}) is rank deficient: the Cholesky factorization "
                f"of phi phi^T failed (its {info}-th leading minor is not positive definite)"
            )
        pivots = np.abs(chol.diagonal())
        ratio = float(pivots.min() / pivots.max())
        if not ratio > _GRAM_PIVOT_RATIO:
            raise RankDeficientError(
                f"phi ({m}x{n}) is rank deficient: the Cholesky factor of "
                f"phi phi^T has pivot ratio {ratio:.3e}, not above {_GRAM_PIVOT_RATIO:.0e}"
            )
        return chol

    @cached_property
    def x0(self) -> np.ndarray:
        """phi^T (phi phi^T)^{-1} b by solves with ``gram_factor`` (LAPACK
        potrs, the call ``cho_solve`` makes) and one step of iterative
        refinement, which keeps the residual near machine precision for
        moderately conditioned Gram matrices."""
        phi, b = self.phi, self.b
        chol = self.gram_factor
        y = dpotrs(chol, b, lower=0)[0]
        y += dpotrs(chol, b - phi @ (phi.T @ y), lower=0)[0]
        return phi.T @ y

    @cached_property
    def corr_b(self) -> np.ndarray:
        """phi^T b, minus the LASSO gradient at x = 0 per unit lam."""
        return self.phi.T @ self.b

    @cached_property
    def corr_inf(self) -> float:
        """||phi^T b||_inf, the scale of the LASSO gradient at x = 0."""
        return float(np.abs(self.corr_b).max(initial=0.0))

    def gram_row(self, i: int) -> np.ndarray:
        """phi_i^T phi, computed on first use and kept: the path solves of
        one instance keep entering the same few coordinates (a noisy trial
        of l1, rw-lasso and cwb-noisy at n = 256 enters 76 of them, on
        average, some 400 times)."""
        row = self.gram_rows.get(i)
        if row is None:
            row = self.gram_rows[i] = self.phi[:, i].dot(self.phi)
        return row

    @cached_property
    def path_buffers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The workspace's (idx, ginv, rows): m indices, an m x m and an
        m x n array."""
        m, n = self.phi.shape
        return np.empty(m, dtype=np.intp), np.zeros((m, m)), np.empty((m, n))

    @cached_property
    def path_vectors(self) -> tuple:
        """The buffers of ``_path`` that carry nothing from one call to the
        next; a call writes each before it reads it. Of length m + 2n: the
        gaps, closing speeds and rates, and ``floor`` (zeros, never
        written); the rows of one 3 x m block, which setup clears past the
        support in one call: the support's signs and direction, and the pad
        handed to BLAS ``dger``; ``dual`` (2 x m, the intercept and slope
        of c_S sigma_S); of length n: v = d a / dt, c(0), dc and -dc. Then
        the views of them that ``_path`` reads, made here once: the three
        rows of that block, the two of ``dual``, and the parts of the gaps
        (|x_S|, then c - a and c + a as one 2 x n view and its two rows)
        and of the speeds (-d |x_S| / dt, then the two entry speeds)."""
        m, n = self.phi.shape
        gaps, speeds, rates = np.empty((3, m + 2 * n))
        floor, vecs, dual = np.zeros(m + 2 * n), np.empty((3, m)), np.empty((2, m))
        v, c0, dc, ndc = np.empty((4, n))
        gap = gaps[m:].reshape(2, n)
        return (
            (gaps, speeds, rates, floor, vecs, dual, v, c0, dc, ndc)
            + (*vecs, *dual, gaps[:m], gap, *gap, speeds[:m], *speeds[m:].reshape(2, n))
        )


_OPERATORS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _operator(instance: ProblemInstance) -> _Operator:
    op = _OPERATORS.get(instance)
    if op is None:
        op = _OPERATORS[instance] = _Operator(instance)
    return op


def min_l2_solution(instance: ProblemInstance) -> np.ndarray:
    """Minimum-l2-norm solution of phi x = b: phi^T (phi phi^T)^{-1} b,
    computed once per instance (see ``_Operator.x0``)."""
    return _operator(instance).x0.copy()


def _norm(v) -> float:
    """||v|| for a 1-D float vector, as ``np.linalg.norm`` computes it (the
    root of v.dot(v)), without its argument handling."""
    return math.sqrt(v.dot(v))


@cache
def _upper(m: int) -> np.ndarray:
    """The mask of the upper triangle of an m x m matrix, diagonal included;
    its leading k x k block is that of a k x k matrix."""
    return ~np.tri(m, k=-1, dtype=bool)


@cache
def _qr_lwork(m: int, k: int) -> int:
    """The optimal workspace size of dgeqrf on an m x k matrix, which
    ``scipy.linalg.qr`` queries before each call; LAPACK derives it from
    the shape alone."""
    return int(dgeqrf(np.empty((m, k), order="F"), lwork=-1)[2][0])


def _support_fit(op, support):
    """The QR phi_S = Q R of the support columns of the operator's instance
    with c = Q_1^T b (Q_1 the first |S| columns of Q), as
    ((packed, tau), r, c), or None when S is empty, larger than m, or
    numerically rank deficient (min |diag r| <= |S| eps max |diag r|).

    The factorization is the LAPACK call of ``scipy.linalg.qr`` (geqrf,
    with the workspace SciPy queries, ``_qr_lwork``), made directly:
    phi^T[S]^T is phi_S in Fortran order, which geqrf factors in place. Q
    is never formed: it stays as geqrf's Householder reflectors (packed
    below the diagonal, with their scalars tau), and every product with it
    is ``_apply_q``. r is ``np.triu(packed[:k])``, copied through the
    cached mask ``_upper``, and C-ordered, as ``_triangular_solve``
    expects."""
    k = support.size
    m = op.phi.shape[0]
    if k == 0 or k > m:
        return None
    packed, tau = dgeqrf(op.phi.T[support].T, lwork=_qr_lwork(m, k), overwrite_a=1)[:2]
    pivots = np.abs(packed.diagonal())
    if np.minimum.reduce(pivots) <= k * _EPS * np.maximum.reduce(pivots):
        return None
    r = np.zeros((k, k))
    np.copyto(r, packed[:k], where=_upper(m)[:k, :k])
    qf = (packed, tau)
    return qf, r, _apply_q(qf, op.b, "T")[:k]


def _apply_q(qf, y, trans):
    """Q y (``trans`` "N") or Q^T y ("T") for the full m x m orthogonal Q
    of a ``_support_fit``, applied from its reflectors qf = (packed, tau)
    by LAPACK ormqr, as an m-vector; a y of length k < m is read as
    [y; 0], so that Q [y; 0] = Q_1 y (Golub & Van Loan, Matrix
    Computations, sec. 5.1.6). A workspace of one entry makes ormqr apply
    the reflectors one by one (its unblocked path), which for a single
    vector is 2 to 5 times faster than the blocked path the optimal
    workspace selects: 9.4 against 49.6 us at m = k = 100, and 13.3 against
    51.8 us at m = 128, k = 60 (one thread of a 2-core AVX-512 Xeon VM)."""
    packed = qf[0]
    if y.size < packed.shape[0]:
        y = np.concatenate((y, np.zeros(packed.shape[0] - y.size)))
    return dormqr("L", trans, packed, qf[1], y[:, None], 1)[0][:, 0]


def _triangular_solve(r, y, trans=0):
    """r^{-1} y, or r^{-T} y with trans 1, for the upper triangular,
    C-ordered r of ``_support_fit``: the LAPACK call that
    ``scipy.linalg.solve_triangular`` makes for such an r (trtrs on the
    lower triangle of r^T, trans flipped), without its argument checks.
    Raises LinAlgError at a zero pivot."""
    x, info = dtrtrs(r.T, y, lower=1, trans=1 - trans)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular triangular factor: zero pivot {info - 1}")
    return x


def _bp_candidate(op, support, fit=None):
    """The exact solve on a candidate support of the operator's instance:
    (qf, r, x, primal) with x_S = r^{-1} c from ``_support_fit`` (``fit``
    when the caller has it) and primal = ||phi x - b|| / (1 + ||b||), or
    None when the support has no usable QR or primal exceeds
    ``_INNER_TOL``. A pure function of the support."""
    phi, b = op.phi, op.b
    if fit is None:
        fit = _support_fit(op, support)
    if fit is None:
        return None
    qf, r, c = fit
    x = np.zeros(phi.shape[1])
    x[support] = _triangular_solve(r, c)
    res, scale = _norm(phi @ x - b), 1.0 + op.norm_b
    if res > _INNER_TOL * scale:
        return None
    return qf, r, x, res / scale


def _bp_certified(op, w, support, candidate, nu) -> bool:
    """Whether a dual certificate built from the multiplier estimate nu (a
    vector of length m) proves the candidate x of ``_bp_candidate`` a
    minimizer.

    The estimate is corrected on the support:
    nu + Q_1 r^{-T} (w_S sign(x_S) - phi_S^T nu), so that
    (phi^T nu)_S = w_S sign(x_S). nu = 0 gives the minimum-norm multiplier;
    ``weighted_basis_pursuit`` passes the path's own. x is certified when
    the correlation phi^T nu matches the subdifferential of the weighted l1
    norm at x on every coordinate (equality on the support, magnitude at
    most w_i off it) within ``_CERT_TOL`` max w, a slack that scales with
    the weights, as the minimizer does not depend on their scale. Any nu
    that passes certifies x, whatever the estimate was. When |S| = m, Q_1
    is square and Q_1 Q_1^T = I, so the corrected multiplier is
    Q_1 r^{-T} w_S sign(x_S) for every estimate (up to rounding). Both
    products with Q are ``_apply_q`` on its reflectors; Q is never formed.
    """
    phi = op.phi
    qf, r, x, _ = candidate
    target = w[support] * np.sign(x[support])
    # phi_S^T nu = r^T Q_1^T nu through the support factors, without
    # copying the columns
    y = _triangular_solve(r, target - r.T @ _apply_q(qf, nu, "T")[: support.size], trans=1)
    nu = nu + _apply_q(qf, y, "N")
    corr = phi.T @ nu
    slack = _CERT_TOL * float(w.max(initial=0.0))
    if np.abs(corr[support] - target).max(initial=0.0) > slack:
        return False
    # |corr_i| - w_i off the support; 0 on it, which the floor of the max is
    excess = np.abs(corr, out=corr)
    excess -= w
    excess[support] = 0.0
    return not excess.max(initial=0.0) > slack


def _warm_start(warm, n: int) -> np.ndarray:
    """A warm start as a float array (not a copy when it is one already:
    the solvers only read it), which must be a finite 1-D vector of length
    n; anything else raises ConfigurationError."""
    arr = np.asarray(warm, dtype=float)
    if arr.shape != (n,):
        raise ConfigurationError(f"warm start must have shape ({n},), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ConfigurationError("warm start must be finite")
    return arr


def _walk(instance, w, starts, answer, fallback):
    """The one loop of the three sparse solvers over their path starts: the
    homotopy ``_path`` from each start (c, warm, t, eta) in turn (weights,
    warm point, and the LASSO point's t or a residual budget, either None),
    with three exits, each as (x, detail, exit, breakpoints, degenerate):

    * ``"certified"``: the first path end that the problem's answer step
      ``answer(support, sigma, t, eta)`` accepts, as (x, detail); the
      answer is degenerate when a zero weight is off the path's support,
      held at 0 by the path (``_path``), which makes the solution set
      unbounded;
    * ``"max_iter"``: a cold path out of breakpoints, with x the minimizer
      at the weights it reached and detail None (a warm one is followed by
      the next start);
    * the problem's ``fallback()`` when no start gives an answer, as
      (x, detail, degenerate), or its exception.

    ``breakpoints`` counts those of every path walked."""
    breakpoints = 0
    for c, warm, t, eta in starts:
        found = _path(instance, c, warm=warm, eta=eta)
        if found is None:
            continue
        support, sigma, steps, x = found
        breakpoints += steps
        if x is not None:  # out of breakpoints
            if warm is None:
                return x, None, "max_iter", breakpoints, False
            continue
        answered = answer(support, sigma, t, eta)
        if answered is not None:
            held = np.count_nonzero(w[support] == 0.0) < np.count_nonzero(w == 0.0)
            return *answered, "certified", breakpoints, held
    x, detail, degenerate = fallback()
    return x, detail, "certified", breakpoints, degenerate


def weighted_basis_pursuit(
    instance: ProblemInstance,
    w,
    warm: InnerSolveReport | None = None,
) -> InnerSolveReport:
    """Minimize sum_i w_i |x_i| subject to phi x = b.

    The problem is the limit of the weighted LASSO as lam grows, so the
    walk over path starts (``_walk``) takes each start in turn: the LASSO
    point that ``warm`` carries when it is the report of a basis pursuit
    answer on this instance (from m nonzeros only at weights that keep its
    objective), then x = 0 toward each residual budget of ``_BP_ETAS``.
    Its three exits:

    * a path whose end certifies: the exact solve on its support, pruned
      of rounding-level coordinates and of those whose sign opposes the
      path's (``_bp_candidate``), with a verified optimality certificate
      seeded by the path's own multiplier (``_bp_certified``); exit
      ``"certified"``, the LASSO point in ``lasso_point``, and degenerate
      when the path held a zero weight at 0, off its support;
    * a cold path that would pass ``_MAX_BREAKPOINTS`` breakpoints: exit
      ``"max_iter"`` and the minimizer at the weights it reached;
    * no path certifies: the fit on the zero-weight coordinates
      (``_zero_weight_fit``), certified at objective 0 if it meets
      phi x = b within ``_INNER_TOL`` (1 + ||b||), flagged degenerate
      when those columns have a null space, which makes the solution set
      unbounded; ``NoConvergenceError`` otherwise. A cold path stops at
      once where that fit meets phi x = b (b = 0, all weights zero, or
      zero weights on a support of b).

    ``iterations`` counts the breakpoints of every path walked. ``warm``
    must be None or a report whose x is a finite vector of length n
    (``ConfigurationError`` otherwise). ``primal_residual`` is
    ||phi x - b|| / (1 + ||b||).
    """
    w = as_weight_array(w, instance.n)
    op = _operator(instance)
    # (weights, warm point, t, residual budget) of each path in turn
    starts = [(w, None, None, f * op.norm_b) for f in _BP_ETAS]
    if warm is not None:
        if not isinstance(warm, InnerSolveReport):
            kind = type(warm).__name__
            raise ConfigurationError(f"warm start must be a basis pursuit report, not {kind}")
        _warm_start(warm.x, instance.n)
        carry = warm.lasso_point
        # a warm path from a square support (m nonzeros) gives up at its
        # first entry, as on every such re-solve of a Fig-1 sweep: it is
        # walked only at weights that keep the objective, as unchanged ones do
        if carry is not None and (
            np.count_nonzero(carry[0]) < instance.m or float(w @ np.abs(warm.x)) == warm.objective
        ):
            starts.insert(0, (carry[1] * w, *carry, None))
    op.gram_factor  # the rank guard runs on every input

    def answer(support, sigma, t, eta):
        # cold, t is where the closed form on the support meets eta; warm,
        # the LASSO minimizer is taken there at the carried t
        lasso = _support_lasso(op, w, support, sigma, eta, t)
        if lasso is None:
            return None
        fit, g, x_s, t = lasso
        candidate = _bp_candidate(op, support, fit)
        if candidate is None:
            return None
        # a coordinate of the sign opposite to the path's crosses zero on the
        # way to the limit, as one of -1.5e-8 does on n=20, m=10, s=4, seed
        # 209 at unit weights: it is pruned, and the pruned support factored again
        x_bp = candidate[2][support]
        mags = np.abs(x_bp)
        kept = support[(mags > _BP_PRUNE * mags.max()) & (x_bp * sigma >= 0.0)]
        if kept.size < support.size:
            candidate = _bp_candidate(op, kept)
            if candidate is None:
                return None
        # the seed is the LASSO dual (b - phi x_L) / t = (b - Q_1 Q_1^T b) / t
        # + Q_1 g without its first term: b lies in range(phi_S) (the
        # candidate passed its residual test), so that term is rounding error
        # that 1/t amplifies, with which a re-solve of a Fig-1 sweep (rw-cwb,
        # s=40, seed 37) failed its certificate on the basis pursuit support.
        # Q_1 g holds the path's signs on the coordinates pruning drops, which
        # the minimum-norm multiplier of the pruned support alone lacks
        if not _bp_certified(op, w, kept, candidate, _apply_q(fit[0], g, "N")):
            return None
        x_l = np.zeros(instance.n)
        x_l[support] = x_s
        return candidate[2], (x_l, t)

    def fallback():
        x, resid, degenerate = _zero_weight_fit(instance, w)
        if _norm(resid) > _INNER_TOL * (1.0 + op.norm_b):
            raise NoConvergenceError("no basis pursuit path certifies, nor the zero-weight fit")
        return x, None, degenerate

    x, lasso_point, stop, breakpoints, degenerate = _walk(instance, w, starts, answer, fallback)
    return InnerSolveReport(
        x=x,
        iterations=breakpoints,
        primal_residual=_norm(instance.phi @ x - instance.b) / (1.0 + op.norm_b),
        objective=float(w @ np.abs(x)),
        exit=stop,
        degenerate=degenerate,
        lasso_point=lasso_point,
    )


def _lasso_certificate(instance, w, lam, x):
    """The residual phi x - b and the worst violation of the LASSO
    optimality conditions at (w, lam), normalized so that a value below
    the solver tolerance certifies x: with grad = lam phi^T (phi x - b),
    |grad_i + w_i sign(x_i)| / (1 + w_i) on the support, and
    max(|grad_i| - w_i, 0) off it.

    The conditions are read at (w / s, lam / s), which have the same
    minimizer, with s = min(1, max w): below unit scale the value does not
    depend on the scale of (w, lam), and at and above it is that at
    (w, lam) itself. At all-zero weights the minimizer (the least-squares
    fit) does not depend on lam > 0 at all, and s = lam ||phi^T b||_inf,
    the scale of the gradient at x = 0, at every lam (1 when that is 0).

    The support's conditions are evaluated on the support only, and the
    others over all coordinates with the support's then written over
    them: the same values as both branches of an ``np.where`` over every
    coordinate, so the same maximum, bit for bit.
    """
    s = min(1.0, float(np.maximum.reduce(w, initial=0.0)))
    if not s:
        s = lam * _operator(instance).corr_inf or 1.0
    if s != 1.0:
        w, lam = w / s, lam / s
    resid = instance.phi @ x - instance.b
    grad = lam * (instance.phi.T @ resid)
    on = x.nonzero()[0]
    w_on = w[on]
    inside = np.abs(grad[on] + w_on * np.sign(x[on])) / (1.0 + w_on)
    viol = np.abs(grad, out=grad)
    viol -= w
    viol[on] = inside
    return resid, float(np.maximum.reduce(viol, initial=0.0))


def _border(op, k, i, pad):
    """Border the path's inverse Gram block ginv[:k, :k] (``_Operator``)
    with column i, the one step by which a column joins the support, at a
    path's start as at an entry: the pivot delta, or None when i lies in
    the span of the support, its squared sine to it, delta / gamma, at
    most ``_PATH_RANK_TOL`` (every column when k = m).

    rows[k] = phi_i^T phi (from the memo, ``_Operator.gram_row``), and with
    g = phi_S^T phi_i its entries on the support, gamma = ||phi_i||^2 and
    u = G_S^{-1} g formed in pad[:k], delta = gamma - g^T u. Then, with
    p = [u; -1] (pad[k] set to -1; pad must be zero past k), one BLAS dger
    adds p p^T / delta to the rows ginv[:k+1] (a Fortran-contiguous
    transpose) onto the zeros of row and column k, and idx[k] = i. p stays
    in pad for the caller; a column in the span changes only rows[k]."""
    idx, ginv, rows = op.path_buffers
    if k == len(idx):
        return None
    row = op.gram_rows.get(i)  # gram_row only on a miss
    if row is None:
        row = op.gram_row(i)
    rows[k] = row
    g = rows[:k, i]
    gamma = row.item(i)
    u = np.matmul(ginv[:k, :k], g, out=pad[:k])
    delta = gamma - float(g.dot(u))
    if not delta > _PATH_RANK_TOL * gamma:
        return None
    pad[k] = -1.0
    dger(1.0 / delta, pad, pad[: k + 1], a=ginv.T[:, : k + 1], overwrite_a=1)
    idx[k] = i
    return delta


def _path(instance, c, warm=None, eta=None):
    """The weighted-LASSO homotopy: follow the minimizer of
    (1/2)||phi x - b||^2 + sum_i c_i(t) |x_i| while the weights move
    linearly from c(0) to c(1), and return the support and signs it ends
    on as (support, sigma, breakpoints, None), support sorted and sigma 0
    where the weight is zero throughout; None when the path cannot be
    followed. When a breakpoint past ``_MAX_BREAKPOINTS`` comes due, it
    returns (None, None, _MAX_BREAKPOINTS, x) instead, with x the minimizer
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
      active at their least-squares solve (x = 0 when there are none; a
      column in the span of the ones before it, as every one past the m-th
      is, is held at 0, out of the support), and mu falls linearly
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
      contradicts x_S beyond rounding, max(``_CERT_TOL`` max |a|,
      8 eps ||phi^T b||_inf), gives None.

    The path runs in the instance's workspace (``_Operator``): the support
    in its order of entry, the inverse Gram matrix of phi_S in place in
    ginv[:k, :k], zero outside that block, and the rows phi_S^T phi,
    copied from the instance's memo (``_Operator.gram_row``). Every column
    joins the support through ``_border``, in index order at the start. A
    warm start whose point is nonzero on every coordinate of the support
    the last path call ended on, the usual case of a re-solve, keeps that
    block and borders only its other columns onto it; any other start
    clears the block and borders all of its columns. Along a
    segment the path updates, in the instance's per-call buffers
    (``_Operator.path_vectors``, allocated once per instance; setup writes
    each before it is read), |x_S| and the gaps c - a and c + a off the
    support, each of which closes at a known speed, and ||phi x - b||^2
    (c_S sigma_S is kept as intercept plus t times slope).
    The next breakpoint is the gap with the largest closing rate, and the
    step to it is its gap / speed; a breakpoint makes no product with phi
    beyond the first computation of a Gram row.
    The direction xb = G_S^{-1} sigma_S dc_S = -d x_S / dt is updated with
    the inverse. An entry of i with sign s borders the inverse with
    p = [u; -1], u = G_S^{-1} phi_S^T phi_i, and pivot delta (``_border``),
    and then the direction: with beta = (s dc_i - v_i) / delta
    (v = d a / dt), one daxpy sets xb[:k+1] -= beta p.
    An exit through the leaver's column e subtracts e e^T / e_j (one dger)
    and xb_j e / e_j (one daxpy), moves the last slot into the leaver's and
    clears the last. So u is the only product with the inverse per
    breakpoint; p and e are formed in the pad vector, zero past them, so
    that dger keeps the rest of the rows. Toward a budget c(1) = 0, and the
    residual norm takes one dot product per breakpoint.
    A column in the span of phi_S (``_border``'s rule) gives None on a warm
    path, at the start as at an entry. On a cold one, the start holds such
    a zero weight at 0, and a coordinate due to enter, where c(t) stays a
    multiple of c, phi_i = phi_S u keeps
    a_i = u^T c_S sigma_S = +-c_i while S holds, so it is held off the
    support until a coordinate leaves (equal columns at tied weights). A
    hold is a breakpoint, as is the first entry, and changes only the held
    coordinate's gaps; a path that keeps tying ends at ``_MAX_BREAKPOINTS``.
    """
    phi, b = instance.phi, instance.b
    m, n = phi.shape
    op = _operator(instance)
    corr = op.corr_b
    on = c == 0.0 if warm is None else warm != 0.0  # the start's coordinates
    if warm is not None and not on.any():
        return None
    idx, ginv, rows = op.path_buffers  # idx: the support, in the order of entry
    gaps, speeds, rates, floor, vecs, dual, v, c0, dc, ndc, *views = op.path_vectors
    sig, xb, pad, d0, d1, mag, gap, gap0, gap1, fall, q0, q1 = views
    k, op.path_size = op.path_size, None  # None until the buffers hold the start
    if warm is not None and k is not None and on[idx[:k]].all():
        on[idx[:k]] = False  # the workspace's block is kept
    else:
        # ginv is zero outside the block the last path call left, if known
        stale = m if k is None else k
        ginv[:stale, :stale] = 0.0
        k = 0
    # sig[:k] and xb[:k]: the signs and -d x_S / dt, both zero past the
    # support, so that their product, -d |x_S| / dt, runs over the whole
    # vector; pad: p or e of a rank-one update, zero past index k (a border
    # sets pad[k] to -1, an exit clears it).
    vecs[:, k:] = 0.0
    held = []  # zero weights in the span of the support, kept at 0 off the path
    for i in on.nonzero()[0].tolist():
        if _border(op, k, i, pad) is not None:
            k += 1
        elif warm is None:
            held.append(i)
        else:
            return None
    op.path_size = k
    start = idx[:k]  # read only before the first breakpoint
    # a = phi^T (b - phi x), which is phi^T b at the empty start
    xs = ginv[:k, :k] @ corr[start] if warm is None else warm[start]
    a = corr - xs @ rows[:k]
    sign_xs = np.sign(xs)
    if warm is None:
        pen = c > 0.0  # mu0 runs over the penalized coordinates
        mu0 = float((np.abs(a[pen]) / c[pen]).max(initial=0.0))
        np.multiply(c, mu0, out=c0)
        np.subtract(c if eta is None else 0.0, c0, out=dc)  # c(1) = 0 toward a budget
    else:
        # a_S = c_S sigma_S, within the certificate slack or the rounding of
        # a's terms (about eps ||phi^T b||_inf): at a basis pursuit LASSO
        # point max |a| is about 1e-7, and a_S on rw-sub's zero weights
        # rounds to at most 4.6 eps ||phi^T b||_inf below zero on the
        # 100-trial Fig-1 panel
        sa = sign_xs * a[start]
        abs_a = np.abs(a, out=c0)
        slack = max(_CERT_TOL * float(abs_a.max(initial=0.0)), 8.0 * _EPS * op.corr_inf)
        if (sa < -slack).any():
            return None
        cs = c[start]
        pen = cs > 0.0
        kappa = float((sa[pen] / cs[pen]).max()) if pen.any() else 1.0
        np.maximum(abs_a, np.multiply(c, kappa, out=dc), out=c0)  # dc as a temporary
        c0[start] = np.where(sa > slack, sa, 0.0)
        np.subtract(c, c0, out=dc)
    np.negative(dc, out=ndc)
    # c_S(t) sigma_S = a_S is d0 + t d1 (sigma_S c0_S, sigma_S dc_S)
    # Every breakpoint is a gap closing to zero, so one buffer holds them
    # all: gaps[:m] is |x_S| in the order of entry, through which a
    # coordinate leaves (+inf past k, and where the weight is zero
    # throughout, which never leaves), and gaps[m:] is c - a and c + a,
    # through which a coordinate enters with sign +1 and -1 (+inf on the
    # support and on the held coordinates). A rounding error past zero is
    # cut to zero. The gaps close at the speeds; the next breakpoint is the
    # largest rate speed / gap (exits come first, so they win exact ties),
    # and its step is gap / speed (gap0 and gap1 close at q0 and q1, mag
    # at fall). A rate past k is 0 / inf.
    mag[k:] = np.inf
    c0s, dcs = c0[start], dc[start]
    free = (c0s == 0.0) & (dcs == 0.0)  # weight zero throughout
    sig[:k] = np.where(free, 0.0, sign_xs)
    mag[:k] = np.where(free, np.inf, sig[:k] * xs)
    np.multiply(sig[:k], c0s, out=d0[:k])
    np.multiply(sig[:k], dcs, out=d1[:k])
    xb[:k] = ginv[:k, :k] @ d1[:k]
    if eta is not None:  # rho = ||b - phi x||^2
        r = b - phi[:, start] @ xs
        rho = float(r @ r)
        eta_sq = eta * eta
    np.subtract(c0, a, out=gap0)
    np.add(c0, a, out=gap1)
    gap0[start] = gap1[start] = gap0[held] = gap1[held] = np.inf
    np.maximum(gaps, floor, out=gaps)

    # the scalar bookkeeping below runs on Python floats (.item, float()),
    # which cost less per operation than NumPy scalars and round the same;
    # the loop reads the ufuncs and item methods it calls from locals
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    maximum, argmax, isnan, inf = np.maximum, rates.argmax, math.isnan, math.inf
    rate_at, gap_at, speed_at, v_at = rates.item, gaps.item, speeds.item, v.item
    idx_at, sig_at, xb_at, c0_at, dc_at = idx.item, sig.item, xb.item, c0.item, dc.item
    ginv_t = ginv.T  # ginv_t[:, :k], the rows ginv[:k], is Fortran-contiguous
    t = 0.0
    left = None
    tied = []  # (side, i) of the coordinates held at a closed gap
    breakpoints = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            xk = xb[:k]
            # ndarray.dot: the BLAS gemv of np.matmul, bit for bit, with
            # less dispatch per call
            xk.dot(rows[:k], out=v)
            add(ndc, v, out=q0)
            subtract(ndc, v, out=q1)
            multiply(sig, xb, out=fall)  # -d |x_S| / dt, 0 past k
            # a positive rate closes; 0 over an infinite gap, and NaN (none)
            # at zero gap and zero speed
            divide(speeds, gaps, out=rates)
            if left is not None:
                rates[left] = -inf
            j = int(argmax())
            rate = rate_at(j)
            if isnan(rate):
                rates[np.isnan(rates)] = -inf
                j = int(argmax())
                rate = rate_at(j)
            step = gap_at(j) / speed_at(j) if rate > 0.0 else inf
            event = "leave" if j < m else "enter"
            if not step < 1.0 - t:  # a NaN step ends the path too
                step, event = 1.0 - t, "end"
            if eta is not None:
                # ||r - s phi_S xdot||^2, where phi_S^T r = c_S sigma_S and
                # phi_S^T phi_S xdot = -sigma_S dc_S; c(1) = 0, so
                # dual[0] = -dual[1] and c_S sigma_S . xb = (t - 1) p1
                p1 = float(d1[:k].dot(xk))
                rho_next = rho + step * (2.0 * (t * p1 - p1) + step * p1)
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
            daxpy(speeds, gaps, a=-step)
            maximum(gaps, floor, out=gaps)
            t += step
            if event == "end":
                break
            breakpoints += 1
            if breakpoints > _MAX_BREAKPOINTS:
                x = np.zeros(n)
                x[idx[:k]] = ginv[:k, :k] @ (corr[idx[:k]] - d0[:k] - t * d1[:k])
                return None, None, _MAX_BREAKPOINTS, x
            if event == "leave":
                out = idx_at(j)
                out_side = 0 if sig_at(j) > 0.0 else 1
                left = m + out_side * n + out  # the flat index of its gap
                # off the support again, at a_out = c_out sigma_out, and so
                # are the tied coordinates, which the smaller support frees
                gap[out_side, out] = 0.0
                gap[1 - out_side, out] = 2.0 * (c0_at(out) + t * dc_at(out))
                for side, i in tied:
                    gap[side, i] = 0.0
                    gap[1 - side, i] = 2.0 * (c0_at(i) + t * dc_at(i))
                tied.clear()
                # downdate, then move the last slot into j's and clear it
                last = k - 1
                e = pad[:k]
                e[:] = ginv[:k, j]
                ve = e / -e.item(j)
                if k < m:
                    pad[k] = 0.0
                dger(1.0, pad, ve, a=ginv_t[:, :k], overwrite_a=1)
                daxpy(ve, xk, a=xb_at(j))  # xb -= xb_j e / e_j
                idx[j], sig[j], mag[j], xb[j] = idx[last], sig[last], mag[last], xb[last]
                dual[:, j], rows[j] = dual[:, last], rows[last]
                # ginv[last, last] goes to [j, last], then to [j, j]
                ginv[j, :k] = ginv[last, :k]
                ginv[:k, j] = ginv[:k, last]
                ginv[last, :k] = ginv[:k, last] = 0.0
                sig[last] = xb[last] = 0.0
                mag[last] = inf
                k = op.path_size = last
                continue
            side, i = divmod(j - m, n)
            delta = _border(op, k, i, pad)
            if delta is None:
                if warm is not None:
                    return None
                # a_i = u^T c_S sigma_S = +-c_i until a coordinate leaves:
                # i is tied to the support and held off it
                tied.append((side, i))
                gap0[i] = gap1[i] = inf
                continue
            c0i, dci = c0_at(i), dc_at(i)
            # sign 0 where the weight is zero throughout
            s = 0.0 if c0i == 0.0 and dci == 0.0 else 1.0 - 2.0 * side
            sdc = s * dci
            beta = (sdc - v_at(i)) / delta
            # xb[:k+1] -= beta p, with p = [u; -1] the border left in pad
            daxpy(pad[: k + 1], xb[: k + 1], a=-beta)
            sig[k], mag[k] = s, inf if s == 0.0 else 0.0
            d0[k], d1[k] = s * c0i, sdc
            gap0[i] = gap1[i] = inf
            k = op.path_size = k + 1
            left = None
    order = np.argsort(idx[:k])
    return idx[:k][order], sig[:k][order], breakpoints, None


def _zero_weight_fit(instance, w):
    """The fit on the zero-weight coordinates, at weighted l1 norm 0, as
    (x, b - phi x, degenerate): their exact QR solve when their columns
    are independent (``_support_fit``), else their least-squares fit, one
    of an unbounded set (degenerate); x = 0 when no weight is zero. Each
    caller decides whether the fit answers its problem."""
    phi, b = instance.phi, instance.b
    x = np.zeros(instance.n)
    free = (w == 0.0).nonzero()[0]
    if free.size == 0:
        return x, b, False
    fit = _support_fit(_operator(instance), free)
    if fit is None:
        x[free] = np.linalg.lstsq(phi[:, free], b, rcond=None)[0]
    else:
        x[free] = _triangular_solve(fit[1], fit[2])
    return x, b - phi[:, free] @ x[free], fit is None


def weighted_lasso_fista(
    instance: ProblemInstance,
    w,
    lam: float,
    warm: np.ndarray | None = None,
) -> InnerSolveReport:
    """Minimize (lam/2) ||phi x - b||^2 + sum_i w_i |x_i|.

    The minimizer is that of the weights c = w / lam at unit lam, found by
    the walk over path starts (``_walk``): warm from ``warm`` (a finite
    vector of length n, ``ConfigurationError`` otherwise) through the
    weights it solves, then cold from x = 0. The first path end whose exact
    QR solve on its support and signs (``_support_lasso`` at t = 1/lam)
    certifies within ``_INNER_TOL`` (``_support_answer``) is returned with
    exit ``"certified"``, flagged degenerate when the path held a zero
    weight at 0, off the support (a column in the span of the zero-weight
    columns before it, or past the m-th); ``iterations`` counts the
    breakpoints of every path walked. When the cold path would pass
    ``_MAX_BREAKPOINTS`` breakpoints, the minimizer at the weights it
    reached is returned with exit ``"max_iter"`` and, as
    ``primal_residual``, its violation of the optimality conditions at
    (w, lam). When no path end certifies, ``NoConvergenceError`` is raised.

    When lam |phi^T b|_i <= w_i for every i, x = 0 is returned certified
    after 0 iterations. This covers lam = 0 and phi = 0, where the solve is
    flagged degenerate if any weight vanishes (those coordinates are then
    unconstrained by the objective).
    """
    w = as_weight_array(w, instance.n)
    if not 0.0 <= lam < np.inf:
        raise ValueError("lam must be nonnegative and finite")
    if warm is not None:
        warm = _warm_start(warm, instance.n)
    if (lam * np.abs(_operator(instance).corr_b) <= w).all():
        x, certificate, stop, breakpoints = np.zeros(instance.n), None, "certified", 0
        degenerate = (lam == 0.0 or not np.any(instance.phi)) and not w.all()
    else:
        c = w / lam
        cold = (c, None, None, None)
        starts = [cold] if warm is None else [(c, warm, None, None), cold]

        def answer(support, sigma, t, eta):
            return _support_answer(instance, w, support, sigma, lam=lam)

        def fallback():
            raise NoConvergenceError("no weighted-LASSO path certifies")

        x, certificate, stop, breakpoints, degenerate = _walk(instance, w, starts, answer, fallback)
    resid, viol = certificate[1:] if certificate else _lasso_certificate(instance, w, lam, x)
    return InnerSolveReport(
        x=x,
        iterations=breakpoints,
        primal_residual=viol,
        objective=0.5 * lam * float(resid @ resid) + float(w @ np.abs(x)),
        exit=stop,
        degenerate=degenerate,
        multiplier=float(lam),
    )


def _support_lasso(op, w, support, sigma, eta=None, t=None):
    """The weighted-LASSO minimizer of the operator's instance on support S
    with signs sigma at lam = 1/t, from the support's ``_support_fit``
    (q, r, c), as (fit, g, x_S, t), or None when S has no usable QR or,
    with ``eta`` instead of t, the path on this support never meets the
    budget. Every certified answer (LASSO, constrained, and basis
    pursuit's LASSO point) is this solve on its support.

    The minimizer at t is x_S(t) = R^{-1}(c - t g) with g = R^{-T} w_S sigma,
    and its residual b - Q_1 c + t Q_1 g has the squared norm
    r0^2 + t^2 ||g||^2, r0^2 = ||b||^2 - ||c||^2 (the cross term vanishes:
    b - Q_1 c is orthogonal to range(phi_S)). So ||phi x - b|| = eta at
    t = sqrt((eta^2 - r0^2) / ||g||^2), with ||g|| from g / max |g| when
    ||g||^2 leaves the normal range (as at uniform weights of 1e155 or
    1e-156; the minimizer does not depend on their scale). On the QR, the
    error scales with cond(phi_S), not with its square.
    """
    fit = _support_fit(op, support)
    if fit is None:
        return None
    _, r, c = fit
    g = _triangular_solve(r, w[support] * sigma, trans=1)
    if t is None:
        slack = eta * eta - (op.b_sq - float(c @ c))
        with np.errstate(over="ignore"):
            gg = float(g @ g)
        top = 1.0
        if not _TINY <= gg < math.inf:  # ||g||^2 from g / max |g| instead
            top = float(np.abs(g).max()) or 1.0
            gg = float((g / top) @ (g / top))
        if slack <= 0.0 or gg == 0.0:
            return None
        t = math.sqrt(slack / gg) / top
    return fit, g, _triangular_solve(r, c - t * g), t


def _support_answer(instance, w, support, sigma, eta=None, lam=None):
    """The answer step of the LASSO and the constrained problem on the
    support and signs a path ended on: ``_support_lasso`` at t = 1/lam or
    at the budget eta (lam = 1/t), as (x, (lam, phi x - b, violation)) when
    ``_lasso_certificate`` holds within ``_INNER_TOL`` and, at a budget,
    | ||phi x - b|| - eta | <= ``_INNER_TOL`` eta; None otherwise. A sign of x
    opposite to sigma on a penalized coordinate fails the certificate by
    2 w_i / (1 + w_i), at the weights it reads."""
    t = None if lam is None else 1.0 / lam
    root = _support_lasso(_operator(instance), w, support, sigma, eta, t)
    if root is None:
        return None
    x = np.zeros(instance.n)
    x[support] = root[2]
    lam = 1.0 / root[3] if lam is None else lam
    resid, viol = _lasso_certificate(instance, w, lam, x)
    if viol <= _INNER_TOL and (eta is None or abs(_norm(resid) - eta) <= _INNER_TOL * eta):
        return x, (lam, resid, viol)
    return None


def constrained_weighted_l1(
    instance: ProblemInstance,
    w,
    eta: float,
) -> InnerSolveReport:
    """Minimize sum_i w_i |x_i| subject to (1/2)||phi x - b||^2 <= eta^2 / 2.

    The walk over path starts (``_walk``) has one start: the
    weighted-LASSO path cold in 1/lam, from x = 0 to the segment on which
    ||phi x - b|| = eta. On that segment's support and signs, the closed
    form of ``_support_lasso`` gives the multiplier lam at which the LASSO
    minimizer meets the budget; that minimizer is returned with exit
    ``"certified"`` when the LASSO optimality conditions at lam certify it
    (by duality it is then the constrained minimizer) and its residual norm
    meets eta within ``_INNER_TOL`` eta (``_support_answer``), flagged
    degenerate when the path held a zero weight at 0, off its support;
    ``iterations`` counts the path's breakpoints, and ``multiplier`` is the
    budget's. When the path would pass ``_MAX_BREAKPOINTS`` breakpoints
    before it meets the budget, the LASSO minimizer at the weights it
    reached, whose residual norm is still above eta, is returned with exit
    ``"max_iter"`` and multiplier NaN. eta = 0 is weighted basis pursuit.

    When the path gives no answer, the fit on the zero-weight coordinates
    (``_zero_weight_fit``; x = 0 when there are none) answers if it meets
    the budget, with objective 0, multiplier 0 and ``primal_residual`` 0,
    exit ``"certified"``, flagged degenerate when those columns have a
    null space, which makes the solution set unbounded. The cold path stops
    at once where it does. Otherwise a budget below the least-squares
    residual ||b - phi phi^+ b||, which no point meets, raises
    ``ConfigurationError``, and any other ``NoConvergenceError``.
    """
    w = as_weight_array(w, instance.n)
    if not eta >= 0:
        raise ValueError("eta must be nonnegative")
    if eta == 0.0:
        return weighted_basis_pursuit(instance, w)
    phi, b = instance.phi, instance.b

    def answer(support, sigma, t, eta):
        return _support_answer(instance, w, support, sigma, eta=eta)

    def fallback():
        # the fit on the zero-weight coordinates is a minimizer when it meets
        # the budget, which then has multiplier 0
        x, resid, degenerate = _zero_weight_fit(instance, w)
        if _norm(resid) <= eta:
            return x, (0.0, resid, None), degenerate
        floor = float(np.linalg.norm(b - phi @ np.linalg.lstsq(phi, b, rcond=None)[0]))
        raise (ConfigurationError if floor > eta else NoConvergenceError)(
            f"no weighted-LASSO path certifies at the budget {eta:.3e}, nor the zero-weight "
            f"fit; the least-squares residual ||b - phi phi^+ b|| is {floor:.3e}"
        )

    x, answered, stop, iterations, degenerate = _walk(
        instance, w, [(w, None, None, eta)], answer, fallback
    )
    lam, resid, _ = answered or (np.nan, phi @ x - b, None)
    return InnerSolveReport(
        x=x,
        iterations=iterations,
        # 0 where the budget is inactive (lam = 0)
        primal_residual=abs(_norm(resid) - eta) / eta if lam else 0.0,
        objective=float(w @ np.abs(x)),
        exit=stop,
        degenerate=degenerate,
        multiplier=float(lam),
    )
