"""Lagrange-dual machinery for the reweighting loops.

The key identity: relaxing the per-coordinate magnitude constraints
|x_i| <= |x*_i| of the ideal feasibility problem produces a dual function
whose evaluation is a weighted l1 solve, with the weights playing the role
of the multipliers. Everything here is a pure function over immutable
inputs; the ascent loops live in :mod:`rwsparse.reweight`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    ConfigurationError,
    OracleRequiredError,
    ProblemInstance,
    SolverConfig,
    as_weight_array,
)
from .solvers import weighted_basis_pursuit

__all__ = [
    "DualEvaluation",
    "PolyakStep",
    "ZeroSubgradientError",
    "ZeroIterateError",
    "dual_function_oracle",
    "subgradient_oracle",
    "subgradient_nonoracle",
    "polyak_step_oracle",
    "polyak_step_nonoracle",
    "project_nonneg",
    "lambda_subgradient",
    "polyak_step_lasso",
]

_DEFAULT_CFG = SolverConfig()
_EPS = np.finfo(float).eps
# a supergradient |x_i| - |x*_i| of at most this many units in the last
# place of max |x*| on every coordinate is the rounding error of an exact
# recovery, and counts as zero: on the oracle runs of the test panels
# (n <= 256) a recovered x* comes back within 10 such ulps, and a missed
# recovery leaves at least 1e12. A Polyak step over rounding error is
# about 1e14, and would set the next weights from the last bits of x.
_ROUNDING_ULPS = 1e3


class ZeroSubgradientError(ArithmeticError):
    """The subgradient vanished: the iterate magnitudes already match the
    target, so the ascent has converged."""


class ZeroIterateError(ArithmeticError):
    """The primal iterate is identically zero, which is already the
    sparsest possible point; no further ascent step is defined."""


@dataclass(frozen=True, eq=False)
class DualEvaluation:
    """Value of the dual function at some weights, together with the inner
    minimizer and the supergradient it induces."""

    value: float
    minimizer: np.ndarray
    subgradient: np.ndarray


def subgradient_oracle(x_k, x_star) -> np.ndarray:
    """Supergradient of the ideal dual at the current weights:
    g_i = |x_k_i| - |x*_i|."""
    x_k = np.asarray(x_k, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    if x_k.shape != x_star.shape:
        raise ValueError("x_k and x_star must have equal length")
    return np.abs(x_k) - np.abs(x_star)


def subgradient_nonoracle(x_k, eps: float) -> np.ndarray:
    """Supergradient of the amplified-constraint dual: g_i = -eps * |x_k_i|."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    return -eps * np.abs(np.asarray(x_k, dtype=float))


def dual_function_oracle(w, instance: ProblemInstance, cfg: SolverConfig = _DEFAULT_CFG) -> DualEvaluation:
    """Evaluate the ideal dual d(w) = min_{phi x = b} sum_i w_i(|x_i| - |x*_i|).

    The inner minimization is a weighted basis pursuit solve; its minimizer
    also yields the supergradient |x| - |x*|. Requires ground truth on the
    instance.
    """
    if instance.x_star is None:
        raise OracleRequiredError("dual evaluation requires instance.x_star")
    w = as_weight_array(w, instance.n)
    report = weighted_basis_pursuit(instance, w, None, cfg)
    g = subgradient_oracle(report.x, instance.x_star)
    return DualEvaluation(value=float(w @ g), minimizer=report.x, subgradient=g)


class PolyakStep(NamedTuple):
    alpha: float
    clamped: bool


def polyak_step_oracle(w_k, x_k, x_star) -> PolyakStep:
    """Zero-target stepsize for the ideal dual:
    alpha = -sum_i w_i (|x_i| - |x*_i|) / sum_i (|x_i| - |x*_i|)^2.

    A negative value (possible when x_k is not the exact inner minimizer
    for w_k) is clamped to zero, and the clamping is flagged. A
    supergradient at the rounding level of x* (``_ROUNDING_ULPS``) raises
    ``ZeroSubgradientError``, as a zero one does.
    """
    w_k = as_weight_array(w_k)
    g = subgradient_oracle(x_k, x_star)
    denom = float(g @ g)
    ulp = _EPS * float(np.max(np.abs(np.asarray(x_star, dtype=float)), initial=0.0))
    if denom == 0.0 or np.max(np.abs(g)) <= _ROUNDING_ULPS * ulp:
        raise ZeroSubgradientError("iterate magnitudes match the oracle to rounding")
    alpha = -float(w_k @ g) / denom
    if alpha < 0.0:
        return PolyakStep(0.0, True)
    return PolyakStep(alpha, False)


def polyak_step_nonoracle(w_k, x_k, eps: float) -> float:
    """Zero-target stepsize for the amplified-constraint dual:
    alpha = (1/eps) * ||W_k x_k||_1 / ||x_k||_2^2, always nonnegative.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    w_k = as_weight_array(w_k)
    x_k = np.asarray(x_k, dtype=float)
    l2_sq = float(x_k @ x_k)
    if l2_sq == 0.0:
        raise ZeroIterateError("zero iterate is already maximally sparse")
    return float(w_k @ np.abs(x_k)) / (eps * l2_sq)


def project_nonneg(w) -> np.ndarray:
    """Projection onto the dual-feasible set: coordinate-wise max(0, w_i)."""
    return np.maximum(np.asarray(w, dtype=float), 0.0)


def lambda_subgradient(x_k, instance: ProblemInstance) -> float:
    """Supergradient of the joint dual in the data-fit multiplier:
    (1/2)(||phi x_k - b||^2 - eta^2)."""
    if instance.eta is None:
        raise ConfigurationError("lambda subgradient requires instance.eta")
    r = instance.phi @ np.asarray(x_k, dtype=float) - instance.b
    return 0.5 * (float(r @ r) - instance.eta**2)


def polyak_step_lasso(
    w_k,
    lambda_k: float,
    x_k,
    eps: float,
    instance: ProblemInstance,
    g_lam: float | None = None,
) -> float:
    """Zero-target stepsize for the joint (w, lambda) dual of the noisy
    problem:

        alpha = max(0, (eps ||W_k x_k||_1 - lambda_k g_lam)
                       / (eps^2 ||x_k||^2 + g_lam^2))

    with g_lam the data-fit supergradient, ``lambda_subgradient(x_k,
    instance)``, computed here unless the caller passes it. Reduces to the
    noiseless rule when g_lam = 0. The numerator is clamped at zero
    because inner-solve inexactness can leave the quadratic constraint
    slightly violated.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if not lambda_k >= 0:
        raise ValueError("lambda_k must be nonnegative")
    w_k = as_weight_array(w_k)
    x_k = np.asarray(x_k, dtype=float)
    if g_lam is None:
        g_lam = lambda_subgradient(x_k, instance)
    denom = eps**2 * float(x_k @ x_k) + g_lam**2
    if denom == 0.0:
        raise ZeroSubgradientError("joint subgradient vanished")
    numer = eps * float(w_k @ np.abs(x_k)) - lambda_k * g_lam
    return max(0.0, numer / denom)
