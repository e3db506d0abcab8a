"""Seeded random generation of Gaussian sparse-recovery ensembles.

Reproducibility contract: all draws come from NumPy's PCG64 bit generator
seeded with the instance seed, normal variates are produced by the
Box-Muller transform over 53-bit uniform doubles (no ziggurat), and the
support set comes from a partial Fisher-Yates shuffle. Draw order is fixed:
matrix entries row-major, then the support, then the nonzero values in
support order, then (noisy ensembles) the noise vector. The same seed
therefore yields the same uniform doubles and the same support on any
platform. The instance's values are bit-identical only where the same
floating-point paths run: NumPy dispatches ``log``, ``cos`` and ``sin`` to
CPU-specific SIMD loops (without its AVX-512 loops, float64 ``log``
differs by one ulp on about 0.36% of inputs), and b = phi x* is a BLAS
product, rounded as the BLAS kernel sums it. Elsewhere entries may differ
in their last bits. ``standard_normal`` forms its variates in place, in its
output buffer, but runs the same operations in the same order as the
separate arrays of the textbook form, so where those paths run it returns
the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import ProblemInstance, _is_integer

__all__ = [
    "EnsembleSpec",
    "standard_normal",
    "sample_support",
    "eta_from_sigma",
    "gen_noiseless",
    "gen_noisy",
]


@dataclass(frozen=True)
class EnsembleSpec:
    """Dimensions and noise level of one random problem draw."""

    n: int
    m: int
    s: int
    sigma: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "m", "s", "seed"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not (0 < self.s <= self.m < self.n):
            raise ValueError(
                f"require 0 < s <= m < n, got s={self.s}, m={self.m}, n={self.n}"
            )
        if self.sigma is not None and not self.sigma >= 0:
            raise ValueError("sigma must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be an unsigned integer")


def standard_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    """Box-Muller standard normals from uniform doubles.

    Pairs (u1, u2) with u1 in (0, 1] give r = sqrt(-2 ln u1) and the two
    variates r cos(2 pi u2), r sin(2 pi u2); the cosine block precedes the
    sine block and the result is truncated to ``size``. r and the angle are
    formed in the two blocks of the result, which then receive r cos and
    r sin in place.
    """
    pairs = (size + 1) // 2
    out = np.empty((2, pairs))
    r, theta = out
    rng.random(out=r)
    rng.random(out=theta)
    np.subtract(1.0, r, out=r)
    np.log(r, out=r)
    np.multiply(-2.0, r, out=r)
    np.sqrt(r, out=r)
    np.multiply(2.0 * math.pi, theta, out=theta)
    cos = np.cos(theta)
    np.multiply(r, np.sin(theta, out=theta), out=theta)
    np.multiply(r, cos, out=r)
    return out.reshape(-1)[:size]


def sample_support(rng: np.random.Generator, n: int, s: int) -> np.ndarray:
    """Uniform s-subset of {0, ..., n-1} by partial Fisher-Yates shuffle,
    returned in ascending order. Step i swaps i with i + j, j uniform on
    {0, ..., n - i - 1}; the s bounded integers are drawn in one call,
    which takes them from the stream in the same order and with the same
    rejections as one ``rng.integers(0, n - i)`` per step."""
    idx = list(range(n))
    for i, j in enumerate(rng.integers(0, n - np.arange(s)).tolist()):
        j += i
        idx[i], idx[j] = idx[j], idx[i]
    return np.sort(idx[:s])


def eta_from_sigma(sigma: float, m: int) -> float:
    """Residual budget making the true signal feasible with probability
    about 0.97: eta = sigma * sqrt(m + 2 sqrt(2m))."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if not sigma >= 0:
        raise ValueError("sigma must be nonnegative")
    return sigma * math.sqrt(m + 2.0 * math.sqrt(2.0 * m))


def _draw_phi_xstar(rng, spec: EnsembleSpec):
    phi = standard_normal(rng, spec.m * spec.n).reshape(spec.m, spec.n)
    phi /= math.sqrt(spec.m)  # N(0, 1/sqrt(m)) entries: unit expected column norm
    support = sample_support(rng, spec.n, spec.s)
    x_star = np.zeros(spec.n)
    x_star[support] = standard_normal(rng, spec.s) / math.sqrt(spec.s)
    return phi, x_star


def gen_noiseless(spec: EnsembleSpec) -> ProblemInstance:
    """Draw phi with N(0, 1/sqrt(m)) entries, a random s-sparse x* with
    N(0, 1/sqrt(s)) nonzeros, and b = phi x*."""
    if spec.sigma is not None:
        raise ValueError("noiseless generation requires sigma=None")
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    phi, x_star = _draw_phi_xstar(rng, spec)
    return ProblemInstance(phi=phi, b=phi @ x_star, x_star=x_star, seed=spec.seed)


def gen_noisy(spec: EnsembleSpec) -> ProblemInstance:
    """As gen_noiseless, plus b = phi x* + z with z_i = sigma v_i,
    v_i ~ N(0,1); the residual budget eta is set from sigma and m."""
    if spec.sigma is None:
        raise ValueError("noisy generation requires sigma")
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    phi, x_star = _draw_phi_xstar(rng, spec)
    z = spec.sigma * standard_normal(rng, spec.m)
    return ProblemInstance(
        phi=phi,
        b=phi @ x_star + z,
        x_star=x_star,
        sigma=spec.sigma,
        eta=eta_from_sigma(spec.sigma, spec.m),
        seed=spec.seed,
    )
