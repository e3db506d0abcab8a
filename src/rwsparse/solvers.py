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
path runs out of breakpoints, the exact minimizer at the weights it
reached is returned as not converged; any other failure of the path or of
the certificate raises ``NoConvergenceError``.

Each instance has one cached operator that builds, on first use, the
minimum-norm solution, an orthonormal basis of the row space of phi,
phi^T b and the Gram rows phi_i^T phi the path enters. A phi without full
row rank, numerically, is rejected with ``RankDeficientError``.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve, qr, solve_triangular
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

# certified-polish acceptance slack for the dual optimality conditions
_CERT_TOL = 1e-9
_POLISH_EVERY = 10
# over-relaxation factor of the splitting iteration
_RELAX = 1.8
# dimensionless penalty scale of the splitting: a fixed rho of 2, 5, 10, 20
# or 40 took 313k, 166k, 129k, 129k and 161k iterations on one 144-run
# Fig-1 panel, so 10 sits at the minimum
_RHO = 10.0
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
    ``LinAlgError``."""


@dataclass(frozen=True, eq=False)
class InnerSolveReport:
    """Outcome of one inner solve.

    ``primal_residual`` is the solver's own normalized stopping measure
    (the larger of affine feasibility and splitting consensus for basis
    pursuit, worst-case optimality-condition violation for LASSO, relative
    distance of the data-fit norm from its budget for the constrained
    problem). ``exit`` says how the solve stopped: ``"certified"`` (an
    exact solve or closed form whose optimality conditions were verified),
    ``"tol"`` (the splitting met its stopping measure at the tolerance) or
    ``"max_iter"`` (the iteration or breakpoint budget ran out); the first
    two are ``converged``. ``iterations`` counts the solver's steps:
    iterations of the splitting for basis pursuit, breakpoints of the
    LASSO path (the first entry included) for the two noisy problems.
    ``degenerate`` marks solves whose solution set is unbounded.
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

    @property
    def converged(self) -> bool:
        return self.exit in ("certified", "tol")


class _Operator:
    """The linear algebra of one instance, each piece built on first use:
    the minimum-norm solution ``x0`` (which applies the rank guard), the
    economic QR phi^T = Q R as Q^T, one contiguous m x n array, and R
    (``row_qr``), phi^T b, and the Gram rows phi_i^T phi of the
    coordinates the LASSO path has touched (``gram_row``). A run without
    basis pursuit never builds the QR, and one without a noisy solve holds
    no Gram row."""

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
    warm: np.ndarray | None = None,
    cfg: SolverConfig = _DEFAULT_CFG,
) -> InnerSolveReport:
    """Minimize sum_i w_i |x_i| subject to phi x = b.

    Operator splitting: the feasibility block is an affine projection
    (through the instance's cached orthonormal row basis), the sparsity
    block a weighted soft threshold. The problem is scale invariant in both
    w and b, so the penalty is set to ``_RHO`` max(w) / ||z||_inf with z
    the minimum-norm solution, which keeps the shrinkage threshold a fixed
    fraction of the solution scale. Every few iterations the current
    support is polished by an exact solve (``_bp_candidate``, at
    most once per support, and only for a support that is also the
    previous checkpoint's, or at iteration 1) and accepted only with a
    verified optimality certificate built from the current scaled dual
    (``_bp_certified``; retried on later checkpoints only for a thin
    support), which ends the solve with exit ``"certified"``. The screen
    moves only the checkpoint at which a certified solve stops: its x is
    still the exact solve on the support it certifies. Otherwise, at the
    same checkpoints and at the last iteration, it stops with exit
    ``"tol"`` when both the affine residual ||phi x - b|| / (1 + ||b||)
    and the consensus residual of the split variables are at most
    ``cfg.inner_tol`` (the larger is reported), so a ``"tol"`` exit's
    ``iterations`` is a checkpoint or ``cfg.inner_max_iter``; else it
    ends with ``"max_iter"``. ``warm`` seeds the split iterate, which lets
    outer reweighting loops restart cheaply; it must be a finite vector of
    length n (``ConfigurationError`` otherwise).
    """
    w = as_weight_array(w, instance.n)
    n = instance.n
    z = np.zeros(n) if warm is None else _warm_start(warm, n)
    phi, b = instance.phi, instance.b
    op = _operator(instance)
    norm_b = np.linalg.norm(b)
    wmax = float(np.max(w))
    x0 = op.x0  # the rank guard runs before the QR
    if wmax > 0.0:
        xscale = max(float(np.max(np.abs(x0))), 1e-12)
        rho = _RHO * wmax / xscale
    else:
        rho = _RHO
    thresh = w / rho
    lower = -thresh
    qt = op.row_qr[0]
    q = qt.T

    u = np.zeros(n)
    # each iteration writes these in place; none is written after the loop,
    # so the report may hold z
    x, v, t = np.empty(n), np.empty(n), np.empty(n)
    y = np.empty(instance.m)
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
        # x = v - Q Q^T v + x0 with v = z - u, the projection of v onto
        # phi x = b (x0 lies in the row space, so Q Q^T x0 = x0)
        np.subtract(z, u, out=v)
        np.dot(qt, v, out=y)
        np.dot(q, y, out=x)
        np.subtract(v, x, out=x)
        x += x0
        # over-relaxed ADMM (Boyd et al. 2011, 3.4.3): with
        # t = relaxed x + u, the shrinkage
        # z = sign(t) max(|t| - thresh, 0) and the dual update
        # u + relaxed x - z come to u = clip(t) and z = t - u
        np.multiply(z, 1.0 - _RELAX, out=v)
        np.multiply(x, _RELAX, out=t)
        t += v
        t += u
        np.maximum(t, lower, out=u)
        np.minimum(u, thresh, out=u)
        np.subtract(t, u, out=z)
        checkpoint = it == 1 or it % _POLISH_EVERY == 0
        if checkpoint:
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
        if checkpoint or it == cfg.inner_max_iter:
            # both residuals must pass, so the affine one (a matvec with
            # phi) waits for the consensus one to pass, or for the last
            # iteration; the norms are np.linalg.norm's own formula,
            # without its overhead
            np.subtract(x, z, out=v)
            residual = math.sqrt(v @ v) / (1.0 + math.sqrt(z @ z))
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

    Per segment it keeps the inverse Gram of phi_S (bordered on each entry,
    downdated on each exit; a warm start inverts it from its Cholesky
    factor), the rows phi_S^T phi in one m x n buffer, copied from the
    instance's memo (``_Operator.gram_row``), the gaps c - a and c + a,
    |x_S| and ||phi x - b||^2, each updated along the segment, so a
    breakpoint makes no product with phi beyond the first computation of a
    Gram row. The path also gives None on a numerically rank-deficient
    support or an entry when |S| = m. Its breakpoints include the first
    entry.
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
    held = start[:0]  # zero weights kept at 0 and off the path
    a = corr.copy()
    if k:
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
    off[start] = off[held] = False
    idx[:k] = start
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
            x = np.zeros(n)
            x[idx[:k]] = ginv[:k, :k] @ (corr[idx[:k]] - csig[:k])
            return None, None, max_breakpoints, x
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
    return idx[:k][order], sig[:k][order], breakpoints, None


def _zero_weight_fit(instance, w):
    """The least-squares fit on the zero-weight coordinates (x = 0 when no
    weight is zero) as (x, b - phi x, degenerate): its weighted l1 norm is
    0, the least possible, and it is one of an unbounded set (degenerate)
    when those columns have a null space."""
    phi, b = instance.phi, instance.b
    x = np.zeros(instance.n)
    resid, degenerate = b, False
    free = np.flatnonzero(w == 0.0)
    if free.size:
        x[free], _, rank, _ = np.linalg.lstsq(phi[:, free], b, rcond=None)
        resid = b - phi[:, free] @ x[free]
        degenerate = rank < free.size  # phi_Z has a null space
    return x, resid, degenerate


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
    if np.all(lam * np.abs(_operator(instance).corr_b) <= w):
        x = np.zeros(instance.n)
        return InnerSolveReport(
            x=x,
            iterations=0,
            primal_residual=0.0,
            objective=_lasso_objective(w, lam, x, -b),
            exit="certified",
            degenerate=(lam == 0.0 or not np.any(phi)) and bool(np.any(w == 0.0)),
            multiplier=float(lam),
        )
    breakpoints, stop, degenerate = 0, "certified", False
    if np.count_nonzero(w == 0.0) > instance.m:
        x, _, degenerate = _zero_weight_fit(instance, w)
    else:
        c = w / lam
        found = None if warm is None else _path(instance, c, cfg.inner_max_iter, warm)
        if found is None or found[3] is not None:
            found = _path(instance, c, cfg.inner_max_iter)
        if found is None:
            raise NoConvergenceError(
                "the weighted-LASSO path cannot be followed: a numerically "
                "rank-deficient support, or an entry at |S| = m"
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
        objective=_lasso_objective(w, lam, x, resid),
        exit=stop,
        degenerate=degenerate,
        multiplier=float(lam),
    )


def _constrained_root(instance, w, eta, support, sigma, tol):
    """The multiplier lam at which the LASSO path on support S and signs
    sigma meets the budget, as (minimizer, lam), or None when the path on
    this support never meets the budget or its minimizer fails its checks.

    With phi_S = QR, the LASSO minimizer at lam = 1/t
    is x_S(t) = R^{-1}(Q^T b - t g) with g = R^{-T} w_S sigma, and its
    residual b - Q Q^T b + t Q g has the squared norm r0^2 + t^2 ||g||^2,
    r0^2 = ||b||^2 - ||Q^T b||^2 (the cross term vanishes: b - Q Q^T b is
    orthogonal to range(phi_S)). So ||phi x - b|| = eta at
    t = sqrt((eta^2 - r0^2) / ||g||^2). The minimizer is returned only when
    its signs match sigma on the penalized coordinates and the full LASSO
    optimality conditions hold at lam within ``tol``; by duality it is then
    the constrained minimizer and lam its multiplier.
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
        return None
    cand = np.zeros(instance.n)
    cand[support] = x_s
    if _lasso_optimality(w, lam * (phi.T @ (phi @ cand - b)), cand) > tol:
        return None
    return cand, lam


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

    When the least-squares fit on the zero-weight coordinates (x = 0 when
    there are none) meets the budget, it is returned at once with
    objective 0 and multiplier 0, exit ``"certified"``. Any answer is
    flagged degenerate when those columns have a null space, which makes
    the solution set unbounded (as with more than m zero weights).
    """
    w = as_weight_array(w, instance.n)
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    if eta == 0.0:
        return weighted_basis_pursuit(instance, w, None, cfg)
    phi, b = instance.phi, instance.b
    # the least-squares fit on the zero-weight coordinates is a minimizer
    # when it meets the budget, which then has multiplier 0
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
            f"a numerically rank-deficient support, an entry at |S| = m, or a "
            f"budget below the least-squares residual"
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
