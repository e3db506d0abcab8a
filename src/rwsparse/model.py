"""Core problem/result types and recovery metrics shared by all solvers.

All types are immutable value objects after construction and safe to share
across parallel trial workers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Optional

import numpy as np

__all__ = [
    "ProblemInstance",
    "SolverConfig",
    "SweepResult",
    "ConfigurationError",
    "OracleRequiredError",
    "DegenerateBaselineError",
    "l0_norm",
    "l0_reporting_tol",
    "recovered",
    "improvement",
    "as_weight_array",
]


class ConfigurationError(ValueError):
    """A run was requested with missing or inconsistent configuration."""


class OracleRequiredError(ConfigurationError):
    """An oracle-mode operation was called without ground truth available."""


class DegenerateBaselineError(ValueError):
    """The reference solution coincides with the ground truth, so the
    relative improvement is undefined."""


def _as_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A sensing problem: matrix ``phi`` (m x n, m <= n), observation ``b``,
    optionally the ground-truth sparse vector, and a noise description.

    For noiseless instances carrying ground truth, ``phi @ x_star`` must
    reproduce ``b`` to near machine precision. ``sigma`` is the
    per-coordinate noise standard deviation, ``eta`` the residual budget
    used by the quadratically constrained solvers.
    """

    phi: np.ndarray
    b: np.ndarray
    x_star: Optional[np.ndarray] = None
    sigma: Optional[float] = None
    eta: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        if phi.ndim != 2:
            raise ValueError(f"phi must be 2-D, got shape {phi.shape}")
        m, n = phi.shape
        if m > n:
            raise ValueError(f"phi must not be overdetermined, got {m}x{n}")
        if not np.all(np.isfinite(phi)):
            raise ValueError("phi has non-finite entries")
        b = _as_vector(self.b, "b")
        if b.shape[0] != m:
            raise ValueError(f"b has length {b.shape[0]}, expected {m}")
        if not np.all(np.isfinite(b)):
            raise ValueError("b has non-finite entries")
        # read-only copies: the per-instance caches (the solvers' operator,
        # the outer loop's start solves) hold only while phi and b cannot move
        phi, b = phi.copy(order="K"), b.copy(order="K")
        phi.flags.writeable = b.flags.writeable = False
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "b", b)
        if self.x_star is not None:
            xs = _as_vector(self.x_star, "x_star")
            if xs.shape[0] != n:
                raise ValueError(f"x_star has length {xs.shape[0]}, expected {n}")
            object.__setattr__(self, "x_star", xs)
        if self.sigma is not None and not self.sigma >= 0:
            raise ValueError("sigma must be nonnegative")
        if self.eta is not None and not self.eta >= 0:
            raise ValueError("eta must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be an unsigned integer")
        if self.x_star is not None and self.eta is None:
            resid = np.linalg.norm(phi @ self.x_star - b)
            if resid > 1e-10 * (1.0 + np.linalg.norm(b)):
                raise ValueError(
                    "noiseless instance is inconsistent: "
                    f"||phi @ x_star - b|| = {resid:.3e}"
                )

    @property
    def m(self) -> int:
        return self.phi.shape[0]

    @property
    def n(self) -> int:
        return self.phi.shape[1]

    def content_digest(self) -> str:
        """SHA-256 over all defining fields, for pairing assertions."""
        h = hashlib.sha256()
        h.update(self.phi.tobytes())
        h.update(self.b.tobytes())
        h.update(b"" if self.x_star is None else self.x_star.tobytes())
        h.update(repr((self.sigma, self.eta, self.seed)).encode())
        return h.hexdigest()

    def to_json(self) -> str:
        doc = {
            "phi": self.phi.tolist(),
            "b": self.b.tolist(),
            "x_star": None if self.x_star is None else self.x_star.tolist(),
            "sigma": self.sigma,
            "eta": self.eta,
            "seed": self.seed,
        }
        return json.dumps(doc, indent=1)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def from_json(cls, text: str) -> "ProblemInstance":
        doc = json.loads(text)
        return cls(
            phi=np.asarray(doc["phi"], dtype=float),
            b=np.asarray(doc["b"], dtype=float),
            x_star=None if doc.get("x_star") is None else np.asarray(doc["x_star"], dtype=float),
            sigma=doc.get("sigma"),
            eta=doc.get("eta"),
            seed=int(doc.get("seed", 0)),
        )

    @classmethod
    def load(cls, path) -> "ProblemInstance":
        with open(path) as fh:
            return cls.from_json(fh.read())


def _is_integer(value) -> bool:
    """True for an integer, NumPy's included, but not for a bool: Python
    counts ``True`` as an ``Integral``, and a JSON config can give ``true``
    for any count, size or seed."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def as_weight_array(w, n: Optional[int] = None) -> np.ndarray:
    """Coerce array-like weights to a validated float vector: finite,
    nonnegative, and of length n when n is given."""
    arr = _as_vector(w, "weights")
    # one reduction each for the least and the largest weight, which NaN
    # fails too; the checks below name what is wrong
    low, high = np.minimum.reduce(arr, initial=np.inf), np.maximum.reduce(arr, initial=0.0)
    if not (low >= 0.0 and high < np.inf):
        if not np.isfinite(arr).all():
            raise ValueError("weights must be finite")
        if (arr < 0).any():
            raise ValueError("weights must be nonnegative")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"weights have length {arr.shape[0]}, expected {n}")
    return arr


@dataclass(frozen=True)
class SolverConfig:
    """The outer loop's two settings: ``rw_iter``, the number of weight
    updates (and re-solves) after the unit-weight solve, an integer >= 0,
    and ``eps_k``, the constraint amplification every update uses, a number
    > 0. ``None`` selects each algorithm's default (1.0 for the subgradient
    update, 0.1 for the inverse-magnitude update).

    The inner solves have no settings: each is an exact support solve,
    certified at a fixed slack (:mod:`rwsparse.solvers`).
    """

    rw_iter: int = 4
    eps_k: float | None = None

    def __post_init__(self):
        if not (_is_integer(self.rw_iter) and self.rw_iter >= 0):
            raise ValueError(f"rw_iter must be an integer >= 0, got {self.rw_iter!r}")
        if self.eps_k is not None and not (isinstance(self.eps_k, Real) and self.eps_k > 0):
            raise ValueError(f"eps_k must be a number > 0 or None, got {self.eps_k!r}")

    def eps_at(self, default: float) -> float:
        """``eps_k``, or ``default`` when it is ``None``."""
        eps = default if self.eps_k is None else float(self.eps_k)
        if not eps > 0:
            raise ValueError(f"eps_k must be > 0, got {eps}")
        return eps


@dataclass(frozen=True)
class SweepResult:
    """Aggregated outcome of a benchmark run.

    For recovery sweeps, ``recovery_rate_per_algorithm`` maps each algorithm
    name to one rate per sparsity level. For improvement benchmarks,
    ``improvements`` maps each algorithm name to one percentage per trial
    (NaN marks a skipped trial), aligned with ``seeds``.
    """

    sparsity_levels: list
    recovery_rate_per_algorithm: dict
    trials: int
    seeds: list
    improvements: Optional[dict] = None

    def __post_init__(self):
        if len(self.seeds) != self.trials:
            raise ValueError("seeds must have one entry per trial")
        for name, rates in self.recovery_rate_per_algorithm.items():
            if len(rates) != len(self.sparsity_levels):
                raise ValueError(f"rates for {name} do not match sparsity levels")
            if any(not (0.0 <= r <= 1.0) for r in rates):
                raise ValueError(f"rates for {name} outside [0, 1]")
        for name, pcts in (self.improvements or {}).items():
            if len(pcts) != len(self.seeds):
                raise ValueError(f"improvements for {name} do not match seeds")


def l0_norm(x, tol: float = 0.0) -> int:
    """Number of coordinates with magnitude strictly above ``tol``."""
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    x = _as_vector(x, "x")
    return int(np.count_nonzero(np.abs(x) > tol))


# the sparsity reporting threshold relative to max |x_i|
_L0_REPORTING_REL = 1e-6


def l0_reporting_tol(x) -> float:
    """Scale-aware threshold for sparsity reporting: 1e-6 * max |x_i|.

    Iterative solvers never produce exact zeros, so counting is done
    relative to the largest magnitude present.
    """
    x = np.asarray(x, dtype=float)
    return _L0_REPORTING_REL * float(np.max(np.abs(x), initial=0.0))


def recovered(x, x_star, tol: float = 1e-3) -> bool:
    """True iff the sup-norm error against the ground truth is at most tol."""
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    x = _as_vector(x, "x")
    x_star = _as_vector(x_star, "x_star")
    if x.shape != x_star.shape:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {x_star.shape[0]}")
    return bool(np.max(np.abs(x - x_star)) <= tol)


def improvement(x_rw, x_l1, x_star) -> float:
    """Percent reduction of l2 error relative to the plain-l1 baseline:
    100 * (1 - ||x_rw - x*|| / ||x_l1 - x*||)."""
    x_rw = _as_vector(x_rw, "x_rw")
    x_l1 = _as_vector(x_l1, "x_l1")
    x_star = _as_vector(x_star, "x_star")
    if not (x_rw.shape == x_l1.shape == x_star.shape):
        raise ValueError("improvement requires equal-length vectors")
    denom = np.linalg.norm(x_l1 - x_star)
    if denom == 0.0:
        raise DegenerateBaselineError("baseline coincides with ground truth")
    return 100.0 * (1.0 - np.linalg.norm(x_rw - x_star) / denom)
