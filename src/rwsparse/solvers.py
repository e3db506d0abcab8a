"""Inner convex solvers called at every outer reweighting iteration.

Four problems are covered, all over a dense underdetermined matrix:

* weighted basis pursuit      min sum_i w_i |x_i|  s.t.  phi x = b
* weighted LASSO              min (lam/2) ||phi x - b||^2 + sum_i w_i |x_i|
* constrained weighted l1     min sum_i w_i |x_i|  s.t.  ||phi x - b|| <= eta
* minimum-l2-norm solution    argmin ||x||  s.t.  phi x = b

Basis pursuit is an operator-splitting iteration (an affine projection and
a weighted shrinkage) that stops on a certified support polish: the exact
solve on a support, accepted only with a verified dual certificate.

The two noisy problems follow the weighted-LASSO homotopy (``_path``): the
minimizer is piecewise linear in the effective weights w / lam, and an
active-set path finds its support and signs breakpoint by breakpoint. The
LASSO ends on the exact solve on that support; the constrained problem
follows the path in 1/lam until the residual norm meets eta and ends on
the closed-form multiplier on that segment's support. Both answers are
returned only when the LASSO optimality conditions certify them. When the
path fails (a rank loss, a tie it cannot resolve, its breakpoint budget)
or its answer does not certify, the LASSO falls back to accelerated
proximal gradient and the constrained problem to a search over lam
through LASSO solves.

Each instance has one cached operator that builds, on first use, the
minimum-norm solution, an orthonormal basis of the row space of phi, the
squared spectral norm, phi^T b and the Gram rows phi_i^T phi the path
enters. A phi without full row rank, numerically, is rejected with
``RankDeficientError``.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigvalsh, qr, solve_triangular
from scipy.linalg.lapack import dpotri

from .model import ConfigurationError, ProblemInstance, SolverConfig, as_weight_array

__all__ = [
    "InnerSolveReport",
    "NoConvergenceError",
    "RankDeficientError",
    "soft_threshold",
    "spectral_norm_sq",
    "min_l2_solution",
    "weighted_basis_pursuit",
    "weighted_lasso_fista",
    "constrained_weighted_l1",
]

_DEFAULT_CFG = SolverConfig()

# certified-polish acceptance slack for the dual optimality conditions
_CERT_TOL = 1e-9
_POLISH_EVERY = 10
# over-relaxation factor of the splitting iteration
_RELAX = 1.8
# smallest accepted min/max ratio of the Gram Cholesky pivots diag(L); the
# ratio is at least 1 / cond(phi), so a phi is rejected only if its
# condition number is at least 1e6, while a duplicated row leaves a ratio
# at rounding level (about 2e-8 and below)
_GRAM_PIVOT_RATIO = 1e-6
# the LASSO path gives up on a support column whose squared sine to the
# span of the others is at most this
_PATH_RANK_TOL = 1e-10


class NoConvergenceError(RuntimeError):
    """An iterative solve failed to reach its stopping criterion."""


class RankDeficientError(ConfigurationError, np.linalg.LinAlgError):
    """phi does not have full row rank, numerically: phi phi^T has no
    Cholesky factor, or one with a pivot ratio min/max diag(L) of at most
    ``_GRAM_PIVOT_RATIO``, so the affine projection and the minimum-norm
    solution are undefined or dominated by rounding. It is also a
    ``LinAlgError``, the error this case raised before it was typed."""


@dataclass(frozen=True, eq=False)
class InnerSolveReport:
    """Outcome of one inner solve.

    ``primal_residual`` is the solver's own normalized stopping measure
    (the larger of affine feasibility and splitting consensus for basis
    pursuit, worst-case optimality-condition violation for LASSO, relative
    distance of the data-fit norm from its budget for the constrained
    problem). ``exit`` says how the solve stopped: ``"certified"`` (an
    exact solve or closed form whose optimality conditions were verified),
    ``"tol"`` (the iterate met the stopping measure at the tolerance, or
    the constrained search its budget band), ``"stall"`` (the LASSO
    objective stopped moving without a certificate) or ``"max_iter"``
    (the iteration budget ran out); the first two are ``converged``.
    ``iterations`` counts the solver's steps: breakpoints of the LASSO
    path (the first entry included), or iterations of the splitting and
    the FISTA fallback, summed over the LASSO solves of a constrained
    search. ``degenerate`` marks solves whose solution set is unbounded.
    ``multiplier`` is the data-fit multiplier lam the solve ended at: the
    LASSO's own lam, the constrained problem's multiplier of its budget
    (0 when the budget is inactive), and infinity for basis pursuit, whose
    data fit is a hard constraint.
    """

    x: np.ndarray
    iterations: int
    primal_residual: float
    objective: float
    exit: str
    degenerate: bool = False
    multiplier: float = np.inf

    @property
    def converged(self) -> bool:
        return self.exit in ("certified", "tol")


def soft_threshold(v, t):
    """Shrink toward zero: sign(v) * max(|v| - t, 0), elementwise."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def spectral_norm_sq(phi) -> float:
    """Largest eigenvalue of phi^T phi, from a symmetric eigensolver on the
    smaller Gram matrix."""
    phi = np.asarray(phi, dtype=float)
    if not np.any(phi):
        return 0.0
    gram = phi @ phi.T if phi.shape[0] <= phi.shape[1] else phi.T @ phi
    return float(eigvalsh(gram)[-1])


class _Operator:
    """The linear algebra of one instance, each piece built on first use:
    the minimum-norm solution ``x0`` (which applies the rank guard), the
    economic QR phi^T = Q R as Q^T, one contiguous m x n array, and R
    (``row_qr``), the squared spectral norm, phi^T b, and the Gram rows
    phi_i^T phi of the coordinates the LASSO path has touched
    (``gram_row``). A run without basis pursuit never builds the QR, and
    one without a noisy solve holds no Gram row."""

    def __init__(self, instance: ProblemInstance):
        self.phi, self.b = instance.phi, instance.b
        self.gram_rows: dict[int, np.ndarray] = {}

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
    def row_qr(self) -> tuple[np.ndarray, np.ndarray]:
        q, r = qr(self.phi.T, mode="economic", check_finite=False)
        return np.ascontiguousarray(q.T), r

    @cached_property
    def spectral_sq(self) -> float:
        return spectral_norm_sq(self.phi)

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

    def project(self, v: np.ndarray) -> np.ndarray:
        """Orthogonal projection of v onto {x : phi x = b}:
        v - Q Q^T v + x0 (x0 lies in the row space, so Q Q^T x0 = x0)."""
        x0 = self.x0  # the rank guard runs before the QR
        qt = self.row_qr[0]
        return v - np.dot(qt.T, np.dot(qt, v)) + x0


_OPERATORS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _operator(instance: ProblemInstance) -> _Operator:
    if instance not in _OPERATORS:
        _OPERATORS[instance] = _Operator(instance)
    return _OPERATORS[instance]


def min_l2_solution(instance: ProblemInstance) -> np.ndarray:
    """Minimum-l2-norm solution of phi x = b: phi^T (phi phi^T)^{-1} b,
    computed once per instance (see ``_Operator.x0``)."""
    return _operator(instance).x0.copy()


def _polish_support(z):
    """The nonzeros S of z above rounding level, |z_i| > |S| eps max|z|, so
    that no certificate hinges on the signs of rounding errors."""
    support = np.flatnonzero(z)
    mags = np.abs(z[support])
    return support[mags > support.size * np.finfo(float).eps * mags.max(initial=0.0)]


def _support_qr(phi, support):
    """Economic QR of the support columns phi_S, or None when S is empty,
    larger than m, or numerically rank deficient
    (min |diag R| <= |S| eps max |diag R|)."""
    k = support.size
    if k == 0 or k > phi.shape[0]:
        return None
    q, r = qr(phi[:, support], mode="economic", overwrite_a=True, check_finite=False)
    pivots = np.abs(np.diag(r))
    if pivots.min() <= k * np.finfo(float).eps * pivots.max():
        return None
    return q, r


def _bp_candidate(instance, support, tol):
    """The exact solve on a candidate support: (q, r, x) with phi_S = q r
    (economic QR) and x_S = r^{-1} q^T b, or None when the support has no
    usable QR (see ``_support_qr``) or x misses phi x = b by more than
    tol (1 + ||b||). A pure function of the support."""
    phi, b = instance.phi, instance.b
    factors = _support_qr(phi, support)
    if factors is None:
        return None
    q, r = factors
    x = np.zeros(phi.shape[1])
    x[support] = solve_triangular(r, q.T @ b, check_finite=False)
    if np.linalg.norm(phi @ x - b) > tol * (1.0 + np.linalg.norm(b)):
        return None
    return q, r, x


def _bp_certified(op, w, support, candidate, v) -> bool:
    """Whether a dual certificate built from the estimate v of phi^T nu
    proves the candidate x of ``_bp_candidate`` a minimizer.

    With phi^T = Q R (``op.row_qr``), the multiplier starts at
    nu0 = R^{-1} Q^T v, whose correlation phi^T nu0 is the projection of v
    onto the row space of phi, and is corrected on the support:
    nu = nu0 + q r^{-T} (w_S sign(x_S) - phi_S^T nu0), so that
    (phi^T nu)_S = w_S sign(x_S). v = 0 gives the minimum-norm multiplier;
    the splitting passes its scaled dual, which converges to the row space
    of phi. x is certified when the correlation phi^T nu matches
    the subdifferential of the weighted l1 norm at x on every coordinate
    (equality on the support, magnitude at most w_i off it) within
    ``_CERT_TOL``. Any nu that passes certifies x, whatever v was. When
    |S| = m, q is square and q q^T = I, so nu = q r^{-T} w_S sign(x_S) for
    every v (up to rounding): a failed certificate on a square support
    fails for every later dual too, and the solver drops that support's
    factors.
    """
    phi = op.phi
    q, r, x = candidate
    target = w[support] * np.sign(x[support])
    qt_row, r_row = op.row_qr
    nu = solve_triangular(r_row, qt_row @ v, check_finite=False)
    # phi_S^T nu0 through the support factors, without copying the columns
    nu += q @ solve_triangular(r, target - r.T @ (q.T @ nu), trans="T", check_finite=False)
    corr = phi.T @ nu
    slack = _CERT_TOL * (1.0 + float(np.max(w, initial=0.0)))
    if np.max(np.abs(corr[support] - target), initial=0.0) > slack:
        return False
    off = np.ones(phi.shape[1], dtype=bool)
    off[support] = False
    return not np.max(np.abs(corr[off]) - w[off], initial=0.0) > slack


def weighted_basis_pursuit(
    instance: ProblemInstance,
    w,
    warm: np.ndarray | None = None,
    cfg: SolverConfig = _DEFAULT_CFG,
) -> InnerSolveReport:
    """Minimize sum_i w_i |x_i| subject to phi x = b.

    Operator splitting: the feasibility block is an affine projection
    (through the instance's cached orthonormal row basis), the sparsity
    block a weighted soft threshold. The problem is scale invariant in both
    w and b, so the penalty is set to cfg.admm_rho * max(w) / ||z||_inf
    with z the minimum-norm solution, which keeps the shrinkage threshold
    a fixed fraction of the solution scale. Every few iterations the
    current support is polished by an exact solve (``_bp_candidate``, at
    most once per support, and only for a support that is also the
    previous checkpoint's, or at iteration 1) and accepted only with a
    verified optimality certificate built from the current scaled dual
    (``_bp_certified``; retried on later checkpoints only for a thin
    support), which ends the solve with exit ``"certified"``. The screen
    moves only the checkpoint at which a certified solve stops: its x is
    still the exact solve on the support it certifies. Otherwise it stops
    with exit ``"tol"`` when both the affine residual
    ||phi x - b|| / (1 + ||b||) and the consensus residual of the split
    variables fall below ``cfg.inner_tol`` (the larger is reported), or
    with ``"max_iter"``. ``warm`` seeds the split iterate, which lets outer
    reweighting loops restart cheaply.
    """
    w = as_weight_array(w, instance.n)
    phi, b = instance.phi, instance.b
    op = _operator(instance)
    norm_b = np.linalg.norm(b)
    wmax = float(np.max(w))
    if wmax > 0.0:
        xscale = max(float(np.max(np.abs(op.x0))), 1e-12)
        rho = cfg.admm_rho * wmax / xscale
    else:
        rho = cfg.admm_rho
    thresh = w / rho

    z = np.zeros(instance.n) if warm is None else np.asarray(warm, dtype=float).copy()
    u = np.zeros(instance.n)
    # the candidate is a pure function of the support, so no support is
    # factored twice in one solve: a failed one maps to None, and a passed
    # one keeps its factors for certificate retries with later duals (a
    # square one only until its certificate fails)
    candidates = {}
    last_key = None
    residual = np.inf
    stop = "max_iter"
    it = 0
    for it in range(1, cfg.inner_max_iter + 1):
        x = op.project(z - u)
        xr = _RELAX * x + (1.0 - _RELAX) * z
        z = soft_threshold(xr + u, thresh)
        u = u + xr - z
        if it == 1 or it % _POLISH_EVERY == 0:
            support = _polish_support(z)
            key = support.tobytes()
            # most supports of a moving iterate never recur, so a new one is
            # factored only once it persists to a second checkpoint; at
            # iteration 1 a warm start's support may already certify
            if key not in candidates and (it == 1 or key == last_key):
                candidates[key] = _bp_candidate(instance, support, cfg.inner_tol)
            last_key = key
            candidate = candidates.get(key)
            if candidate is not None:
                # rho u is a subgradient of the weighted l1 norm at z
                if _bp_certified(op, w, support, candidate, rho * u):
                    z = candidate[2]
                    residual = np.linalg.norm(phi @ z - b) / (1.0 + norm_b)
                    stop = "certified"
                    break
                if support.size == instance.m:
                    # a square support's certificate ignores the dual
                    candidates[key] = None
        # both residuals must pass, so the affine one (a matvec with phi)
        # waits for the consensus one to pass, or for the last iteration;
        # the norms are np.linalg.norm's own formula, without its overhead
        d = x - z
        residual = math.sqrt(d @ d) / (1.0 + math.sqrt(z @ z))
        if residual <= cfg.inner_tol or it == cfg.inner_max_iter:
            residual = max(np.linalg.norm(phi @ z - b) / (1.0 + norm_b), residual)
            if residual <= cfg.inner_tol:
                stop = "tol"
                break

    return InnerSolveReport(
        x=z,
        iterations=it,
        primal_residual=float(residual),
        objective=float(w @ np.abs(z)),
        exit=stop,
    )


def _lasso_objective(w, lam, x, resid) -> float:
    return 0.5 * lam * float(resid @ resid) + float(w @ np.abs(x))


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


def _lasso_polish_candidates(instance, w, lam, x, grad, viol):
    """Candidate supports for the exact reduced solve: the support of the
    current iterate, and the dual-active set {i : |grad_i| close to w_i}
    with signs read off the gradient (which identifies the optimal
    support before the iterate sheds its last spurious coordinates).
    The activity band widens with the current optimality violation, and
    trimmed supports (dropping the smallest magnitudes) cover spurious
    coordinates that shrink toward zero for many iterations."""
    support = np.flatnonzero(x)
    yield support, np.sign(x[support])
    if support.size > 1:
        by_magnitude = support[np.argsort(np.abs(x[support]))]
        for drop in range(1, min(3, support.size - 1) + 1):
            trimmed = np.sort(by_magnitude[drop:])
            yield trimmed, np.sign(x[trimmed])
    margin = np.maximum(1e-3 * w, 2.0 * viol * (1.0 + w))
    active = np.flatnonzero(np.abs(grad) >= w - margin)
    if active.size and not np.array_equal(active, support):
        yield active, -np.sign(grad[active])


def _lasso_certified(instance, w, lam, support, sigma, tol):
    """The exact solve on a support (``_lasso_polish``) as (x, residual
    phi x - b, optimality violation), or None unless the LASSO optimality
    conditions hold there within ``tol``."""
    cand = _lasso_polish(instance, w, lam, support, sigma)
    if cand is None:
        return None
    phi, b = instance.phi, instance.b
    resid = phi @ cand - b
    viol = _lasso_optimality(w, lam * (phi.T @ resid), cand)
    return (cand, resid, viol) if viol <= tol else None


def _path(instance, c, max_breakpoints, warm=None, eta=None):
    """The weighted-LASSO homotopy: follow the minimizer of
    (1/2)||phi x - b||^2 + sum_i c_i(t) |x_i| while the weights move
    linearly from c(0) to c(1), and return the support and signs it ends
    on as (support, sigma, breakpoints), support sorted and sigma 0 where
    the weight is zero throughout; None when the path cannot be followed.

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
      active at their least-squares solve (x = 0 when there are none), and
      mu falls linearly from mu0 = max |a_i| / c_i, the first entry, to 1,
      or with ``eta`` to 0, stopping on the first segment on which
      ||phi x - b|| = eta (the path ending first gives None).
    * Warm (without ``eta``): from the point ``warm``, c(0) the weights it
      solves, read off a: |a_i| on its support, max(|a_i|, kappa c_i) off
      it, with kappa the largest |a_i| / c_i over the penalized
      coordinates of the support (1 when there are none), and c(1) = c. A
      point solved at weights proportional to c, such as a LASSO or
      constrained solve at uniform weights, then starts at c(0) = kappa c
      and continues along the plain path in 1/lam. A sign of a_S that
      contradicts x_S beyond rounding gives None.

    Per segment it keeps the inverse Gram of phi_S (bordered on each entry,
    downdated on each exit; a warm start inverts it from its Cholesky
    factor), the rows phi_S^T phi in one m x n buffer, copied from the
    instance's memo (``_Operator.gram_row``), the gaps c - a and c + a,
    |x_S| and ||phi x - b||^2, each updated along the segment, so a
    breakpoint makes no product with phi beyond the first computation of a
    Gram row. The path also gives None on a numerically rank-deficient
    support, an entry when |S| = m, or more than ``max_breakpoints``
    breakpoints, the first entry included.
    """
    phi, b = instance.phi, instance.b
    m, n = phi.shape
    op = _operator(instance)
    corr = op.corr_b
    start = np.flatnonzero(c == 0.0 if warm is None else warm)
    k = start.size
    if k > m or (warm is not None and k == 0):
        return None
    idx = np.empty(m, dtype=np.intp)  # the support, in the order of entry
    sig = np.empty(m)
    mag = np.empty(m)  # sigma_S x_S, |x_S| while the signs hold
    rows = np.empty((m, n))  # rows[j] = phi_i^T phi for i = idx[j]
    ginv = np.empty((m, m))  # inverse Gram of the support columns
    idx[:k] = start
    a = corr.copy()
    if k:
        for j, i in enumerate(start.tolist()):
            rows[j] = op.gram_row(i)
        gram = rows[:k, start]
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            return None
        # each squared pivot over its diagonal entry is the squared sine of
        # that column's angle to the span of the columns before it
        if np.min(np.diag(chol) ** 2 / np.diag(gram)) <= _PATH_RANK_TOL:
            return None
        inv = dpotri(chol, lower=1)[0]  # its lower triangle
        ginv[:k, :k] = inv + np.tril(inv, -1).T
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
    if k:
        sig[:k] = np.where(free[start], 0.0, np.sign(xs))
        mag[:k] = sig[:k] * xs
    nsdc = np.empty(m)  # -sigma_S dc_S, so that d x_S / dt = ginv nsdc
    nsdc[:k] = -sig[:k] * dc[start]
    csig = np.empty(m)  # c_S sigma_S = a_S
    csig[:k] = sig[:k] * c0[start]
    if eta is not None:
        r = b - phi[:, start] @ xs if k else b
        rho, eta_sq = float(r @ r), eta * eta
    off = np.ones(n, dtype=bool)
    off[start] = False
    # gap[0] = c - a and gap[1] = c + a, nonnegative off the support, close
    # at the speeds q; an entry is a gap reaching zero, with sign +1 from
    # row 0 and -1 from row 1
    gap = np.stack([c0 - a, c0 + a])
    ndc = -dc
    q = np.empty((2, n))
    s_in = np.empty((2, n))
    closing = np.empty((2, n), dtype=bool)
    s_out = np.empty(m)
    falling = np.empty(m, dtype=bool)

    t = 0.0
    left = None
    breakpoints = 0
    while True:
        xdot = ginv[:k, :k] @ nsdc[:k]
        v = xdot @ rows[:k]  # -d a / dt
        np.subtract(ndc, v, out=q[0])
        np.add(ndc, v, out=q[1])
        np.greater(q, 0.0, out=closing)
        closing &= off
        s_in.fill(np.inf)
        np.divide(gap, q, out=s_in, where=closing)
        if left is not None:
            s_in[left] = np.inf
        enter = int(s_in.argmin())
        step, event = s_in.flat[enter], "enter"
        if k:
            # exits: sigma_i x_i falling to zero; s_out holds minus the
            # step to the exit
            mdot = sig[:k] * xdot
            np.less(mdot, 0.0, out=falling[:k])
            s_out[:k].fill(-np.inf)
            np.divide(mag[:k], mdot, out=s_out[:k], where=falling[:k])
            leave = int(s_out[:k].argmax())
            if -s_out[leave] <= step:
                step, event = -s_out[leave], "leave"
        step = max(step, 0.0)
        if not step < 1.0 - t:  # a NaN step ends the path too
            step, event = 1.0 - t, "end"
        if eta is not None:
            # ||r - s phi_S xdot||^2, where phi_S^T r = c_S sigma_S and
            # phi_S^T phi_S xdot = nsdc
            rho_next = rho - step * (2.0 * (csig[:k] @ xdot) - step * (xdot @ nsdc[:k]))
            if rho_next <= eta_sq:
                break
            if event == "end":
                return None
            rho = rho_next
        gap -= step * q
        if k:
            mag[:k] += step * mdot
            csig[:k] -= step * nsdc[:k]
        t += step
        if event == "end":
            break
        breakpoints += 1
        if breakpoints > max_breakpoints:
            return None
        if event == "leave":
            i = idx[leave]
            left = (0 if sig[leave] > 0.0 else 1, i)
            off[i] = True
            last = k - 1
            if leave != last:
                swap, back = [leave, last], [last, leave]
                for arr in (idx, sig, mag, nsdc, csig):
                    arr[swap] = arr[back]
                rows[leave] = rows[last]
                ginv[swap, :k] = ginv[back, :k]
                ginv[:k, swap] = ginv[:k, back]
            e = ginv[:last, last].copy()
            ginv[:last, :last] -= e[:, None] * (e / ginv[last, last])
            k = last
        else:
            if k == m:
                return None
            side, i = divmod(enter, n)
            rows[k] = op.gram_row(i)
            g = rows[:k, i]
            gamma = rows[k, i]
            u = ginv[:k, :k] @ g
            delta = gamma - g @ u
            if not delta > _PATH_RANK_TOL * gamma:
                return None
            ginv[:k, :k] += u[:, None] * (u / delta)
            ginv[:k, k] = ginv[k, :k] = -u / delta
            ginv[k, k] = 1.0 / delta
            s = 0.0 if free[i] else 1.0 - 2.0 * side
            idx[k], sig[k], mag[k] = i, s, 0.0
            nsdc[k], csig[k] = -s * dc[i], s * (c0[i] + t * dc[i])
            off[i] = False
            k += 1
            left = None
    order = np.argsort(idx[:k])
    return idx[:k][order], sig[:k][order], breakpoints


def weighted_lasso_fista(
    instance: ProblemInstance,
    w,
    lam: float,
    warm: np.ndarray | None = None,
    cfg: SolverConfig = _DEFAULT_CFG,
) -> InnerSolveReport:
    """Minimize (lam/2) ||phi x - b||^2 + sum_i w_i |x_i|.

    The minimizer is that of the weights c = w / lam at unit lam, found
    along the homotopy ``_path``: cold from x = 0, or warm from ``warm``
    through the weights it solves, and cold again when the warm path
    fails. The exact solve on the support and signs the path ends on
    (``_lasso_polish``) is returned with exit ``"certified"`` when the
    optimality conditions hold there within ``cfg.inner_tol``;
    ``iterations`` counts the path's breakpoints. When the path fails or
    its answer does not certify, the solve falls back to accelerated
    proximal gradient (``_fista``), started from ``warm``.

    When lam |phi^T b|_i <= w_i for every i, x = 0 satisfies the
    optimality conditions exactly and is returned certified after 0
    iterations. This covers lam = 0, which removes the data-fit term
    entirely, and phi = 0; in those two cases the solve is flagged
    degenerate if any weight vanishes (those coordinates are then
    unconstrained by the objective).
    """
    w = as_weight_array(w, instance.n)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    op = _operator(instance)
    if np.all(lam * np.abs(op.corr_b) <= w):
        x = np.zeros(instance.n)
        return InnerSolveReport(
            x=x,
            iterations=0,
            primal_residual=0.0,
            objective=_lasso_objective(w, lam, x, -instance.b),
            exit="certified",
            degenerate=(lam == 0.0 or op.spectral_sq == 0.0) and bool(np.any(w == 0.0)),
            multiplier=float(lam),
        )
    c = w / lam
    found = None if warm is None else _path(instance, c, cfg.inner_max_iter, np.asarray(warm, dtype=float))
    if found is None:
        found = _path(instance, c, cfg.inner_max_iter)
    if found is not None:
        support, sigma, breakpoints = found
        certified = _lasso_certified(instance, w, lam, support, sigma, cfg.inner_tol)
        if certified is not None:
            x, resid, viol = certified
            return InnerSolveReport(
                x=x,
                iterations=breakpoints,
                primal_residual=viol,
                objective=_lasso_objective(w, lam, x, resid),
                exit="certified",
                multiplier=float(lam),
            )
    return _fista(instance, w, lam, warm, cfg)


def _fista(instance, w, lam, warm, cfg) -> InnerSolveReport:
    """The weighted LASSO by accelerated proximal gradient, the fallback of
    ``weighted_lasso_fista`` when the path fails.

    Step 1 / (lam * ||phi||_2^2) and restart of the momentum sequence
    whenever the objective increases. Each iteration makes two products
    with phi, for the residual and the gradient at the new iterate: the
    gradient is affine in x, so the one at the extrapolated point
    y = x + beta (x - x_prev) is grad_x + beta (grad_x - grad_prev), and
    grad_x itself after a restart. Every few iterations the support is
    polished by an exact reduced solve, accepted only if it satisfies the
    optimality conditions. Stops when the coordinate-wise optimality
    conditions hold at ``cfg.inner_tol``, or when the objective has moved
    by less than it (relative) over the last 10 iterations; a stop of the
    second kind without a certified polish is reported as not converged.
    """
    phi, b = instance.phi, instance.b
    lip = lam * _operator(instance).spectral_sq

    x_prev = np.zeros(instance.n) if warm is None else np.asarray(warm, dtype=float).copy()
    resid = phi @ x_prev - b
    grad_prev = lam * (phi.T @ resid)
    grad_y = grad_prev
    y = x_prev
    t = 1.0
    obj_prev = _lasso_objective(w, lam, x_prev, resid)
    step_thresh = w / lip
    obj_history = [obj_prev]
    residual = np.inf
    stop = "max_iter"
    x = x_prev
    it = 0

    def polished(x_now, grad_now, viol_now):
        for support, sigma in _lasso_polish_candidates(instance, w, lam, x_now, grad_now, viol_now):
            found = _lasso_certified(instance, w, lam, support, sigma, cfg.inner_tol)
            if found is not None:
                return found
        return None

    for it in range(1, cfg.inner_max_iter + 1):
        x = soft_threshold(y - grad_y / lip, step_thresh)
        resid = phi @ x - b
        grad_x = lam * (phi.T @ resid)
        residual = _lasso_optimality(w, grad_x, x)
        if residual <= cfg.inner_tol:
            stop = "tol"
            break
        obj = _lasso_objective(w, lam, x, resid)
        # stall: the objective moved less than inner_tol over 10 iterations
        stalled = (
            len(obj_history) >= 10
            and abs(obj - obj_history[-10]) <= cfg.inner_tol * max(1.0, abs(obj))
        )
        if stalled or it % _POLISH_EVERY == 0:
            found = polished(x, grad_x, residual)
            if found is not None:
                x, resid, residual = found
                stop = "certified"
                break
        if stalled:  # no certificate: the solve stops unconverged
            stop = "stall"
            break
        obj_history.append(obj)
        if len(obj_history) > 10:
            del obj_history[0]
        if obj > obj_prev:
            # adaptive restart: drop momentum when the objective rises
            t = 1.0
            y, grad_y = x, grad_x
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
            y = x + beta * (x - x_prev)
            grad_y = grad_x + beta * (grad_x - grad_prev)
            t = t_next
        x_prev, grad_prev = x, grad_x
        obj_prev = obj

    return InnerSolveReport(
        x=x,
        iterations=it,
        primal_residual=float(residual),
        objective=_lasso_objective(w, lam, x, resid),
        exit=stop,
        multiplier=float(lam),
    )


def _constrained_root(instance, w, eta, support, sigma, tol):
    """The multiplier lam at which the LASSO path on support S and signs
    sigma meets the budget, as (minimizer, lam); the minimizer is None when
    it fails its checks, and the whole result None when the path on this
    support never meets the budget.

    With phi_S = QR, the LASSO minimizer at lam = 1/t
    is x_S(t) = R^{-1}(Q^T b - t g) with g = R^{-T} w_S sigma, and its
    residual b - Q Q^T b + t Q g has the squared norm r0^2 + t^2 ||g||^2,
    r0^2 = ||b||^2 - ||Q^T b||^2 (the cross term vanishes: b - Q Q^T b is
    orthogonal to range(phi_S)). So ||phi x - b|| = eta at
    t = sqrt((eta^2 - r0^2) / ||g||^2). The minimizer is returned only when
    its signs match sigma on the penalized coordinates and the full LASSO
    optimality conditions hold at lam within ``tol``; by duality it is then
    the constrained minimizer and lam its multiplier. Otherwise lam is
    still a prediction of the multiplier (a Newton step on the Pareto
    curve), which the search may solve at next.
    """
    phi, b = instance.phi, instance.b
    factors = _support_qr(phi, support)
    if factors is None:
        return None
    q, r = factors
    c = q.T @ b
    g = solve_triangular(r, w[support] * sigma, trans="T", check_finite=False)
    slack = eta * eta - (float(b @ b) - float(c @ c))
    gg = float(g @ g)
    if slack <= 0.0 or gg == 0.0:
        return None
    t = np.sqrt(slack / gg)
    lam = 1.0 / t
    x_s = solve_triangular(r, c - t * g, check_finite=False)
    # a sign change fails the certificate below as well (unless w_i is near
    # the tolerance); checked first because it needs no product with phi
    penalized = w[support] > 0.0
    if np.any(np.sign(x_s[penalized]) != sigma[penalized]):
        return None, lam
    cand = np.zeros(instance.n)
    cand[support] = x_s
    if _lasso_optimality(w, lam * (phi.T @ (phi @ cand - b)), cand) > tol:
        return None, lam
    return cand, lam


def _bisect_multiplier(lam, eta, tol):
    """Bracket and bisect the LASSO multiplier, as a coroutine: it yields
    each multiplier to solve at and is sent (residual norm, guess) for that
    solve, where guess is a predicted multiplier or None.

    The data-fit norm of the LASSO minimizer decreases in lam, so the
    multipliers solved at bracket the root between lo, the largest with a
    residual norm above eta, and hi, the smallest at or below it. Until
    both exist lam is doubled (no hi yet) or halved (no lo yet); then the
    bracket is bisected. The search ends when the residual norm is within
    ``tol`` of eta (relative; above eta only once the bracket is closed)
    or the bracket collapses. A guess strictly inside the bracket is solved
    at instead of the plain step (a safeguarded Newton step), but right
    after another guess only if it is at most half as long a step: Newton
    steps on this curve close in on the root from one side, shrinking the
    step but not the bracket, and a guess that does not halve the step is
    replaced by the plain one. So a run of guesses ends after finitely many
    steps, and the 60-step and collapse bounds on the plain steps still end
    the search.
    """
    lo, hi = 0.0, np.inf  # 0 and infinity: that side is not found yet
    doublings = halvings = 0
    step = np.inf  # length of the last step if it was a guess
    while True:
        res, guess = yield lam
        if res > eta:
            lo = lam
        else:
            hi = lam
        if abs(res - eta) <= tol * eta and (res <= eta or hi < np.inf):
            return
        if lo > 0.0 and hi - lo < 1e-12:
            if res > eta:  # land on the feasible side of the bracket
                yield hi
            return
        if guess is not None and lo < guess < hi and abs(guess - lam) <= 0.5 * step:
            step = abs(guess - lam)
            lam = guess
            continue
        step = np.inf
        if hi == np.inf:
            if doublings == 60:
                raise NoConvergenceError(
                    f"no multiplier bracket found below residual {eta:.3e} "
                    f"after 60 doublings"
                )
            doublings += 1
            lam = 2.0 * lo
        elif lo == 0.0:
            if halvings == 60:
                raise NoConvergenceError(
                    f"no multiplier bracket found above residual {eta:.3e} "
                    f"after 60 halvings"
                )
            halvings += 1
            lam = 0.5 * hi
        else:
            lam = 0.5 * (lo + hi)


def constrained_weighted_l1(
    instance: ProblemInstance,
    w,
    eta: float,
    cfg: SolverConfig = _DEFAULT_CFG,
    lam_start: float = 1.0,
) -> InnerSolveReport:
    """Minimize sum_i w_i |x_i| subject to (1/2)||phi x - b||^2 <= eta^2 / 2.

    The weighted-LASSO path (``_path``) runs cold in 1/lam, from x = 0 to
    the segment on which ||phi x - b|| = eta, and the closed-form
    multiplier on that segment's support and signs (``_constrained_root``)
    is returned with exit ``"certified"`` when the LASSO optimality
    conditions certify it, with ||phi x - b|| = eta up to rounding;
    ``iterations`` counts the path's breakpoints. Otherwise the solve falls
    back to a search in lam through LASSO solves (``_constrained_search``),
    the first at ``lam_start`` (an outer loop passes the multiplier its
    previous solve ended at). The report's ``multiplier`` is the lam the
    solve ended at.

    When the least-squares fit on the zero-weight coordinates (x = 0 when
    there are none) meets the budget, it is returned at once with
    objective 0 and multiplier 0, exit ``"certified"``; it is flagged
    degenerate when those columns have a null space, which makes the
    solution set unbounded (as with more than m zero weights).
    """
    w = as_weight_array(w, instance.n)
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    if eta == 0.0:
        return weighted_basis_pursuit(instance, w, None, cfg)
    phi, b = instance.phi, instance.b
    # the least-squares fit on the zero-weight coordinates (x = 0 when no
    # weight is zero) has objective 0, the least possible, so when it meets
    # the budget it is a minimizer and the budget has multiplier 0
    x = np.zeros(instance.n)
    resid, degenerate = b, False
    free = np.flatnonzero(w == 0.0)
    if free.size:
        x[free], _, rank, _ = np.linalg.lstsq(phi[:, free], b, rcond=None)
        resid = b - phi[:, free] @ x[free]
        degenerate = rank < free.size  # phi_Z has a null space
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
    if not 0.0 < lam_start < np.inf:
        raise ValueError("lam_start must be positive and finite")

    found = _path(instance, w, cfg.inner_max_iter, eta=eta)
    root = None if found is None else _constrained_root(instance, w, eta, found[0], found[1], cfg.inner_tol)
    if root is not None and root[0] is not None:
        (x, lam), iterations, stop = root, found[2], "certified"
    else:
        x, lam, iterations, stop = _constrained_search(instance, w, eta, cfg, lam_start)
    res = float(np.linalg.norm(phi @ x - b))
    return InnerSolveReport(
        x=x,
        iterations=iterations,
        primal_residual=abs(res - eta) / eta,
        objective=float(w @ np.abs(x)),
        exit=stop,
        multiplier=float(lam),
    )


def _constrained_search(instance, w, eta, cfg, lam_start):
    """The constrained problem by LASSO solves in the data-fit multiplier
    lam, the fallback of ``constrained_weighted_l1``, as (x, lam, LASSO
    iterations, exit). The first solve is at ``lam_start``. After each
    converged LASSO solve, the closed-form multiplier on its support and
    signs (``_constrained_root``) ends the search when the optimality
    conditions certify it; until then lam is bracketed and bisected
    (``_bisect_multiplier``, to within ``cfg.bisect_tol`` of eta), and a
    closed-form multiplier that failed its checks is the next lam to solve
    at when it lies inside the bracket, a safeguarded Newton step.
    """
    phi, b = instance.phi, instance.b
    total_iters = 0
    x = None  # each LASSO solve is warm-started at the previous one's x
    search = _bisect_multiplier(lam_start, eta, cfg.bisect_tol)
    lam = next(search)
    while True:
        rep = weighted_lasso_fista(instance, w, lam, x, cfg)
        total_iters += rep.iterations
        x = rep.x
        support = np.flatnonzero(x)
        root = None
        if rep.converged:
            root = _constrained_root(instance, w, eta, support, np.sign(x[support]), cfg.inner_tol)
        guess = None
        if root is not None:
            cand, guess = root
            if cand is not None:
                x, lam = cand, guess
                stop = "certified"
                break
        try:
            lam = search.send((float(np.linalg.norm(phi @ x - b)), guess))
        except StopIteration:
            # the budget band is met, or the bracket collapsed around it
            stop = "tol" if rep.converged else rep.exit
            break

    return x, lam, total_iters, stop
