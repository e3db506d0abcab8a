"""Sparse recovery by re-weighted l1 minimization, with weights estimated
as Lagrange multipliers by projected subgradient ascent on a dual problem.

Modules: :mod:`~rwsparse.model` (types and metrics), :mod:`~rwsparse.solvers`
(inner convex solvers), :mod:`~rwsparse.duality` (dual function,
subgradients, stepsizes), :mod:`~rwsparse.reweight` (outer algorithms),
:mod:`~rwsparse.probgen` (seeded random ensembles) and
:mod:`~rwsparse.bench` (experiment harness; CLI in :mod:`~rwsparse.cli`).
"""

from .model import (
    ConfigurationError,
    DegenerateBaselineError,
    OracleRequiredError,
    ProblemInstance,
    SolverConfig,
    SweepResult,
    improvement,
    l0_norm,
    recovered,
)
from .reweight import (
    ALGORITHMS,
    cwb_rw_l1,
    cwb_rw_l1_noisy,
    l1_baseline,
    rw_l1_oracle,
    rw_l1_subgradient,
    rw_lasso_subgradient,
    run_algorithm,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "ConfigurationError",
    "DegenerateBaselineError",
    "OracleRequiredError",
    "ProblemInstance",
    "SolverConfig",
    "SweepResult",
    "cwb_rw_l1",
    "cwb_rw_l1_noisy",
    "improvement",
    "l0_norm",
    "l1_baseline",
    "recovered",
    "rw_l1_oracle",
    "rw_l1_subgradient",
    "rw_lasso_subgradient",
    "run_algorithm",
    "__version__",
]
