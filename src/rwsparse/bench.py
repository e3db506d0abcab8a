"""Benchmark harness: recovery-rate sweeps over sparsity and the noisy
improvement benchmark, with CSV emission.

Trials are independent work items; seeds are paired across algorithms
(seed = base_seed + trial index), so every algorithm sees the identical
instance and per-seed comparisons are meaningful. Workers > 1 dispatches
trials to a process pool; results are re-ordered by trial index before
aggregation, so the output is identical to a serial run. Serial and pooled
trials both run with one BLAS thread: the thread count then cannot change
the bits, and pool workers do not contend for the cores with BLAS threads.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import itertools
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .model import (
    ConfigurationError,
    DegenerateBaselineError,
    SolverConfig,
    SweepResult,
    improvement,
    recovered,
)
from .probgen import EnsembleSpec, gen_noiseless, gen_noisy
from .reweight import ALGORITHMS, run_algorithm
# not called here; kept importable because tracing harnesses bind their
# spans to rwsparse.bench.constrained_weighted_l1
from .solvers import constrained_weighted_l1  # noqa: F401

__all__ = [
    "SweepConfig",
    "run_recovery_sweep",
    "run_noisy_improvement",
    "improvement_stats",
    "emit_csv",
]

logger = logging.getLogger(__name__)

_NOISY_ALGORITHMS = ("rw-lasso", "cwb-noisy")


@dataclass(frozen=True)
class SweepConfig:
    """What to run: algorithms, sparsity levels, trial count and seeds,
    outer budgets, problem dimensions, and worker count."""

    algorithms: Sequence[str] = ("rw-sub", "rw-cwb")
    s_values: Sequence[int] = (20, 30, 40, 50)
    trials: int = 50
    base_seed: int = 0
    rw_iters: Sequence[int] = (2,)
    n: int = 256
    m: int = 100
    parallelism: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if self.parallelism < 1:
            raise ConfigurationError("parallelism must be >= 1")
        if not self.s_values:
            raise ConfigurationError("s_values must be non-empty")
        for s in self.s_values:
            if not (0 < s <= self.m):
                raise ConfigurationError(f"sparsity {s} outside (0, m={self.m}]")
        if not (0 < self.m < self.n):
            raise ConfigurationError(f"require 0 < m < n, got m={self.m}, n={self.n}")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ConfigurationError(f"unknown algorithms: {sorted(unknown)}")


def _algo_keys(cfg: SweepConfig):
    """(result key, algorithm name, outer budget) triples for a sweep."""
    keys = [("l1", "l1", 0)]
    for name in cfg.algorithms:
        if name == "l1":
            continue
        for r in cfg.rw_iters:
            key = name if len(cfg.rw_iters) == 1 else f"{name}-rw{r}"
            keys.append((key, name, r))
    return keys


def _recovery_trial(args):
    cfg, solver_cfg, s, seed = args
    instance = gen_noiseless(EnsembleSpec(n=cfg.n, m=cfg.m, s=s, seed=seed))
    digest = instance.content_digest()
    outcomes = {}
    errors = []
    for key, name, budget in _algo_keys(cfg):
        try:
            x, _ = run_algorithm(name, instance, replace(solver_cfg, rw_iter=budget))
            ok = recovered(x, instance.x_star, solver_cfg.recovery_tol)
        except Exception as exc:  # count failures as non-recoveries
            errors.append(f"{key} failed on s={s} seed={seed}: {exc!r}")
            ok = False
        outcomes[key] = ok
    return digest, outcomes, errors


@functools.cache
def _blas_thread_controls():
    """(get, set) thread-count functions of each OpenBLAS loaded in this
    process; numpy and scipy wheels each bundle their own copy. Looked up
    once per process: both are loaded by the time this package is
    imported, and reading the memory map costs about as much as a short
    sweep call's own overhead."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted(
                {line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line.lower()}
            )
    except OSError:  # no /proc: BLAS threading is left as it is
        return ()
    controls = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for stem, suffix in itertools.product(("openblas", "scipy_openblas"), ("", "64_")):
            get = getattr(lib, f"{stem}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{stem}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                controls.append((get, set_))
                break
    return tuple(controls)


def _single_blas_thread():
    for _, set_threads in _blas_thread_controls():
        set_threads(1)


def _map_ordered(fn, items, workers: int):
    controls = _blas_thread_controls()
    previous = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(1)
    try:
        if workers <= 1:
            return [fn(item) for item in items]
        with ProcessPoolExecutor(max_workers=workers, initializer=_single_blas_thread) as pool:
            return list(pool.map(fn, items))
    finally:
        for (_, set_threads), count in zip(controls, previous):
            set_threads(count)


def run_recovery_sweep(
    cfg: SweepConfig, solver_cfg: SolverConfig = SolverConfig()
) -> SweepResult:
    """Recovery rate per (algorithm, sparsity level) over paired seeded
    trials, with plain l1 minimization always included as reference."""
    seeds = [cfg.base_seed + t for t in range(cfg.trials)]
    items = [(cfg, solver_cfg, s, seed) for s in cfg.s_values for seed in seeds]
    results = _map_ordered(_recovery_trial, items, cfg.parallelism)

    keys = [key for key, _, _ in _algo_keys(cfg)]
    rates = {key: [] for key in keys}
    idx = 0
    for s in cfg.s_values:
        hits = {key: 0 for key in keys}
        digests = set()
        for _ in seeds:
            digest, outcomes, errors = results[idx]
            idx += 1
            digests.add(digest)
            for err in errors:
                logger.warning("%s", err)
            for key in keys:
                hits[key] += bool(outcomes[key])
        if len(digests) != len(seeds):
            raise AssertionError("paired trials produced duplicate instances")
        for key in keys:
            rates[key].append(hits[key] / cfg.trials)
    return SweepResult(
        sparsity_levels=list(cfg.s_values),
        recovery_rate_per_algorithm=rates,
        trials=cfg.trials,
        seeds=seeds,
    )


def _improvement_trial(args):
    cfg, solver_cfg, sigma, seed, algos = args
    s = cfg.s_values[0]
    instance = gen_noisy(EnsembleSpec(n=cfg.n, m=cfg.m, s=s, sigma=sigma, seed=seed))
    errors = []
    pcts = {name: float("nan") for name in algos}
    try:
        # the constrained l1 solve at unit weights, which cwb-noisy's
        # unit-weight start then takes from the shared start cache
        baseline, _ = run_algorithm("l1", instance, solver_cfg)
    except Exception as exc:
        errors.append(f"l1 baseline failed on seed={seed}: {exc!r}")
        return seed, pcts, errors
    for name in algos:
        try:
            x, _ = run_algorithm(name, instance, solver_cfg)
            pcts[name] = improvement(x, baseline, instance.x_star)
        except DegenerateBaselineError:
            errors.append(f"seed={seed}: baseline hit ground truth, trial skipped")
        except Exception as exc:
            errors.append(f"{name} failed on seed={seed}: {exc!r}")
    return seed, pcts, errors


def run_noisy_improvement(
    cfg: SweepConfig, sigma: float, solver_cfg: SolverConfig = SolverConfig()
) -> SweepResult:
    """Per-trial improvement of the reweighted noisy solvers over the
    quadratically constrained l1 baseline, at a single sparsity level.

    Skipped trials (degenerate baseline or solver failure) appear as NaN
    in the per-algorithm lists, keeping alignment with ``seeds``.
    """
    if len(cfg.s_values) != 1:
        raise ConfigurationError("improvement benchmark uses a single sparsity level")
    if not sigma > 0:
        raise ConfigurationError("sigma must be > 0")
    bad = [a for a in cfg.algorithms if a not in _NOISY_ALGORITHMS and a != "l1"]
    if bad:
        raise ConfigurationError(f"not noisy-capable: {bad}")
    # l1 is the baseline every trial solves, so it has no column
    algos = [a for a in cfg.algorithms if a in _NOISY_ALGORITHMS] or list(
        _NOISY_ALGORITHMS
    )
    seeds = [cfg.base_seed + t for t in range(cfg.trials)]
    items = [(cfg, solver_cfg, sigma, seed, algos) for seed in seeds]
    results = _map_ordered(_improvement_trial, items, cfg.parallelism)
    improvements = {name: [] for name in algos}
    for seed, (_, pcts, errors) in zip(seeds, results):
        for err in errors:
            logger.warning("%s", err)
        for name in algos:
            improvements[name].append(pcts[name])
    return SweepResult(
        sparsity_levels=list(cfg.s_values),
        recovery_rate_per_algorithm={},
        trials=cfg.trials,
        seeds=seeds,
        improvements=improvements,
    )


def improvement_stats(result: SweepResult):
    """Mean and standard deviation of the non-skipped improvements."""
    if result.improvements is None:
        raise ValueError("result carries no improvements")
    stats = {}
    for name, pcts in sorted(result.improvements.items()):
        vals = np.asarray([p for p in pcts if not math.isnan(p)])
        if vals.size == 0:
            stats[name] = (float("nan"), float("nan"))
        else:
            stats[name] = (float(vals.mean()), float(vals.std()))
    return stats


def emit_csv(result: SweepResult, path) -> None:
    """Write a sweep as rate rows, or an improvement run as one row per
    (algorithm, trial); skipped trials are omitted."""
    try:
        if result.improvements is None:
            result.to_csv(path)
            return
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["algo", "seed", "improvement_pct"])
            for name in sorted(result.improvements):
                for seed, pct in zip(result.seeds, result.improvements[name]):
                    if math.isnan(pct):
                        continue
                    writer.writerow([name, seed, repr(float(pct))])
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
