"""Outer reweighting algorithms: one shared loop, six rule pairs.

Every algorithm runs the same outer loop: solve at unit weights, then up
to ``cfg.rw_iter`` times update the weights, re-solve with a warm restart
and record a trace row. An algorithm is a re-solve rule (weighted basis
pursuit, weighted LASSO at the current data-fit multiplier, or the
quadratically constrained problem at the noise budget) paired with an
update rule: dual ascent along a supergradient of a Lagrange dual with a
zero-target stepsize and a nonnegative projection (oracle, non-oracle, or
jointly in the weights and the data-fit multiplier), or the classical
inverse-magnitude baseline w_i = 1 / (|x_i| + eps). Plain l1 is the loop
at budget zero. An update rule ends a run early by raising the
``ZeroSubgradientError`` or ``ZeroIterateError`` of :mod:`rwsparse.duality`,
or, for the oracle ascent, on a zero stepsize, which leaves the weights
where they are.

The unit-weight start depends only on the instance, the re-solve rule and
the starting multiplier, so it is solved once per instance and shared: on
one noiseless instance, plain l1, both dual ascents and the
inverse-magnitude baseline make one start solve between them. The start
reports live and die with the instance's operator in
:mod:`rwsparse.solvers`; each run gets its own copy of the iterate.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .duality import (
    ZeroIterateError,
    ZeroSubgradientError,
    lambda_subgradient,
    polyak_step_lasso,
    polyak_step_nonoracle,
    polyak_step_oracle,
    project_nonneg,
    subgradient_nonoracle,
    subgradient_oracle,
)
from .model import (
    _L0_REPORTING_REL,
    ConfigurationError,
    OracleRequiredError,
    ProblemInstance,
    SolverConfig,
)
from .solvers import (
    InnerSolveReport,
    _operator,
    constrained_weighted_l1,
    min_l2_solution,
    weighted_basis_pursuit,
    weighted_lasso_fista,
)

__all__ = [
    "RwTraceRow",
    "RwTrace",
    "rw_l1_oracle",
    "rw_l1_subgradient",
    "cwb_rw_l1",
    "rw_lasso_subgradient",
    "cwb_rw_l1_noisy",
    "l1_baseline",
    "ALGORITHMS",
    "run_algorithm",
    "trace_to_csv",
    "inner_trace_to_csv",
]

_DEFAULT_CFG = SolverConfig()

CWB_DEFAULT_EPS = 0.1
SUBGRADIENT_DEFAULT_EPS = 1.0


@dataclass(frozen=True, eq=False)
class RwTraceRow:
    k: int
    alpha: float
    objective: float
    l0: int
    linf_err: float
    inner_iterations: int
    residual: float


@dataclass(frozen=True, eq=False)
class RwTrace:
    """Per-iteration history of one outer run (at most rw_iter + 1 rows) and
    its final multipliers: ``w``, the weights of the last solve, and ``lam``,
    its data-fit multiplier (``None`` for every algorithm but rw-lasso). The
    last row holds the last solve's k, stepsize and objective; the run
    returns its iterate."""

    algo: str
    seed: int
    rows: list
    exit_reason: str
    w: np.ndarray
    lam: float | None


def _row(k, alpha, report: InnerSolveReport, x_star) -> RwTraceRow:
    # ndarray.max's reduction, called as a ufunc reduction without its
    # Python wrapper: the same bits
    high = np.maximum.reduce
    x = report.x
    linf = float(high(np.abs(x - x_star))) if x_star is not None else float("nan")
    mags = np.abs(x)  # l0 at ``l0_reporting_tol(x)``, from one |x|
    return RwTraceRow(
        k=k,
        alpha=float(alpha),
        objective=report.objective,
        l0=int(np.count_nonzero(mags > _L0_REPORTING_REL * float(high(mags, initial=0.0)))),
        linf_err=linf,
        inner_iterations=report.iterations,
        residual=report.primal_residual,
    )


# Re-solve rules (instance, w, lam, warm) -> report, where warm is the
# report of the previous solve of the run (None for the start). They look the
# solvers up as module globals at call time, so wrappers bound there see
# every solve. Basis pursuit takes the whole report, whose LASSO point its
# path continues from.


def _bp(instance, w, lam, warm):
    return weighted_basis_pursuit(instance, w, warm)


def _lasso(instance, w, lam, warm):
    return weighted_lasso_fista(instance, w, lam, None if warm is None else warm.x)


def _constrained(instance, w, lam, warm):
    return constrained_weighted_l1(instance, w, instance.eta)


class _ZeroStepError(ArithmeticError):
    """The stepsize is zero, so the weights cannot move and a re-solve
    would repeat the last one."""


# Update rules (w, lam, x, instance, cfg) -> (alpha, w, lam), x solved at (w, lam);
# every update uses the same eps, ``cfg.eps_at`` of the rule's default.


def _oracle_ascent(w, lam, x, instance, cfg):
    alpha = polyak_step_oracle(w, x, instance.x_star)
    if alpha == 0.0:
        raise _ZeroStepError("zero-target stepsize is zero")
    g = subgradient_oracle(x, instance.x_star)
    return alpha, project_nonneg(w + alpha * g), lam


def _nonoracle_ascent(w, lam, x, instance, cfg):
    eps = cfg.eps_at(SUBGRADIENT_DEFAULT_EPS)
    alpha = polyak_step_nonoracle(w, x, eps)
    g = subgradient_nonoracle(x, eps)
    return alpha, project_nonneg(w + alpha * g), lam


def _joint_ascent(w, lam, x, instance, cfg):
    eps = cfg.eps_at(SUBGRADIENT_DEFAULT_EPS)
    g_w = subgradient_nonoracle(x, eps)
    g_lam = lambda_subgradient(x, instance)
    alpha = polyak_step_lasso(w, lam, x, eps, instance, g_lam)
    return alpha, project_nonneg(w + alpha * g_w), max(0.0, lam + alpha * g_lam)


def _inverse_magnitude(w, lam, x, instance, cfg):
    eps = cfg.eps_at(CWB_DEFAULT_EPS)
    return float("nan"), 1.0 / (np.abs(x) + eps), lam


_EARLY_EXITS = {
    ZeroSubgradientError: "zero_subgradient",
    ZeroIterateError: "zero_iterate",
    _ZeroStepError: "zero_step",
}


def _start(instance, solve, lam):
    """The unit-weight solve a run begins with, made once per instance and
    key, in the instance operator's ``starts``. The report is shared:
    ``_drive`` copies its iterate before a caller can see it. The key is
    (solve, lam), the re-solve rule and the starting multiplier: the inner
    solvers take no settings, and the outer loop's do not reach the start.

    The unit-weight LASSO starts warm from the unit-weight constrained
    start when that is already cached (the l1 baseline and cwb-noisy make
    it): both solve the LASSO at uniform weights, so its path continues
    from the budget's multiplier to ``lam`` instead of walking from x = 0
    again. Its answer is the same exact support solve either way; no
    constrained solve is made for it."""
    starts = _operator(instance).starts
    report = starts.get((solve, lam))
    if report is None:
        warm = starts.get((_constrained, None)) if solve is _lasso else None
        report = starts[solve, lam] = solve(instance, np.ones(instance.n), lam, warm)
    return report


def _drive(algo, instance, cfg, solve, update, lam=None, alpha=0.0):
    """The outer loop shared by every algorithm. ``alpha`` is the stepsize
    reported before the first update (NaN for rules that take no step)."""
    w = np.ones(instance.n)
    start = report = _start(instance, solve, lam)
    x = report.x
    rows = [_row(0, alpha, report, instance.x_star)]
    reason = "budget"
    for k in range(1, cfg.rw_iter + 1):
        try:
            alpha, w, lam = update(w, lam, x, instance, cfg)
        except tuple(_EARLY_EXITS) as stop:
            reason = _EARLY_EXITS[type(stop)]
            break
        report = solve(instance, w, lam, report)
        x = report.x
        rows.append(_row(k, alpha, report, instance.x_star))
    if report is start:  # the shared start's iterate: the caller gets a copy
        x = x.copy()
    return x, RwTrace(algo, instance.seed, rows, reason, w, lam)


def rw_l1_oracle(instance: ProblemInstance, cfg: SolverConfig = _DEFAULT_CFG):
    """Dual-ascent reweighting with ground truth available.

    Each iteration takes the supergradient g_i = |x_i| - |x*_i| at the
    current weights, a zero-target stepsize, a nonnegative projection, and
    a warm-restarted weighted basis pursuit re-solve. Stops early when the
    supergradient vanishes (the iterate magnitudes match the target), or
    when the stepsize is zero (``"zero_step"``: clamped at zero, the
    weights would not move and the re-solve would repeat the last one).
    """
    if instance.x_star is None:
        raise OracleRequiredError("oracle reweighting requires instance.x_star")
    return _drive("oracle", instance, cfg, _bp, _oracle_ascent)


def rw_l1_subgradient(instance: ProblemInstance, cfg: SolverConfig = _DEFAULT_CFG):
    """Dual-ascent reweighting without ground truth (noise free).

    The ideal magnitudes are replaced by the current iterate amplified by
    (1 + eps_k); the resulting supergradient is -eps_k |x_k| and the
    zero-target stepsize makes the combined update independent of eps_k.
    Stops early on an identically zero iterate.
    """
    return _drive("rw-sub", instance, cfg, _bp, _nonoracle_ascent)


def cwb_rw_l1(instance: ProblemInstance, cfg: SolverConfig = _DEFAULT_CFG):
    """Inverse-magnitude reweighting baseline (noise free):
    w_i = 1 / (|x_i| + eps_k) followed by a weighted basis pursuit re-solve.
    """
    return _drive("rw-cwb", instance, cfg, _bp, _inverse_magnitude, alpha=float("nan"))


def rw_lasso_subgradient(instance: ProblemInstance, cfg: SolverConfig = _DEFAULT_CFG):
    """Dual-ascent reweighted LASSO for noisy systems.

    Joint ascent in (w, lambda): the weight supergradient is -eps_k |x_k|,
    the multiplier supergradient is (1/2)(||phi x - b||^2 - eta^2), and one
    shared zero-target stepsize drives both updates. The multiplier starts
    at n / ||z||_1 with z the minimum-l2-norm solution of phi x = b, so
    b = 0 (z = 0) is rejected. The unit-weight start runs warm from the
    instance's constrained unit-weight start when an earlier l1 or
    cwb-noisy run made one (see ``_start``); each re-solve runs warm from
    the previous iterate.
    """
    if instance.eta is None:
        raise ConfigurationError("noisy reweighting requires instance.eta")
    z_l1 = float(np.sum(np.abs(min_l2_solution(instance))))
    if z_l1 == 0.0:
        raise ConfigurationError(
            "noisy reweighting requires b != 0: lambda0 = n / ||z||_1 is undefined for z = 0"
        )
    return _drive("rw-lasso", instance, cfg, _lasso, _joint_ascent, lam=instance.n / z_l1)


def cwb_rw_l1_noisy(instance: ProblemInstance, cfg: SolverConfig = _DEFAULT_CFG):
    """Inverse-magnitude reweighting with the quadratic data-fit constraint
    (1/2)||phi x - b||^2 <= eta^2 / 2 solved at every iteration."""
    if instance.eta is None:
        raise ConfigurationError("noisy reweighting requires instance.eta")
    return _drive("cwb-noisy", instance, cfg, _constrained, _inverse_magnitude, alpha=float("nan"))


def l1_baseline(instance: ProblemInstance, cfg: SolverConfig = _DEFAULT_CFG):
    """Plain l1 minimization: equality constrained for noiseless instances,
    quadratically constrained (the noisy baseline) when a budget is set."""
    solve = _constrained if instance.eta is not None and instance.eta > 0 else _bp
    return _drive("l1", instance, replace(cfg, rw_iter=0), solve, None)


ALGORITHMS = {
    "l1": l1_baseline,
    "oracle": rw_l1_oracle,
    "rw-sub": rw_l1_subgradient,
    "rw-cwb": cwb_rw_l1,
    "rw-lasso": rw_lasso_subgradient,
    "cwb-noisy": cwb_rw_l1_noisy,
}


def run_algorithm(name: str, instance: ProblemInstance, cfg: SolverConfig = _DEFAULT_CFG):
    try:
        fn = ALGORITHMS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}"
        ) from None
    return fn(instance, cfg)


def _write_rows(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def trace_to_csv(trace: RwTrace, path) -> None:
    """Write outer-iteration rows as ``algo,seed,k,alpha,obj,l0,linf_err``."""
    _write_rows(
        path,
        ["algo", "seed", "k", "alpha", "obj", "l0", "linf_err"],
        (
            [trace.algo, trace.seed, row.k, repr(row.alpha), repr(row.objective), row.l0,
             repr(row.linf_err)]
            for row in trace.rows
        ),
    )


def inner_trace_to_csv(trace: RwTrace, path) -> None:
    """Write the inner-solve reports as ``k,inner_iters,objective,residual``."""
    _write_rows(
        path,
        ["k", "inner_iters", "objective", "residual"],
        ([row.k, row.inner_iterations, repr(row.objective), repr(row.residual)]
         for row in trace.rows),
    )
