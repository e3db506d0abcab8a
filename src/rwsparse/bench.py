"""Benchmark harness: recovery-rate sweeps over sparsity and the noisy
improvement benchmark, and the package's CSV writers (rates,
improvements, and the outer and inner rows of one run's trace).

Trials are independent work items; seeds are paired across algorithms
(seed = base_seed + trial index), so every algorithm sees the identical
instance and per-seed comparisons are meaningful. Workers > 1 dispatches
trials to a process pool; results are re-ordered by trial index before
aggregation, so the output is identical to a serial run. Serial and pooled
trials both run with one BLAS thread: the thread count then cannot change
the bits, and pool workers do not contend for the cores with BLAS threads.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import itertools
import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    ConfigurationError,
    DegenerateBaselineError,
    SolverConfig,
    SweepResult,
    _is_integer,
    improvement,
    recovered,
)
from .probgen import EnsembleSpec, gen_noiseless, gen_noisy
from .reweight import ALGORITHMS, RwTrace, run_algorithm
# not called here; kept importable because tracing harnesses bind their
# spans to rwsparse.bench.constrained_weighted_l1
from .solvers import constrained_weighted_l1  # noqa: F401

__all__ = [
    "SweepConfig",
    "run_recovery_sweep",
    "run_noisy_improvement",
    "improvement_stats",
    "emit_csv",
    "trace_to_csv",
    "inner_trace_to_csv",
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
        # a JSON config can give any field a value of the wrong type
        for name in ("trials", "base_seed", "n", "m", "parallelism"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if self.parallelism < 1:
            raise ConfigurationError("parallelism must be >= 1")
        # or a list field as a bare string or number; a string would be read
        # one character at a time
        for name in ("algorithms", "s_values", "rw_iters"):
            value = getattr(self, name)
            if isinstance(value, str) or not isinstance(value, Sequence):
                raise ConfigurationError(f"{name} must be a list, got {value!r}")
        if not self.s_values:
            raise ConfigurationError("s_values must be non-empty")
        for s in self.s_values:
            if not (_is_integer(s) and 0 < s <= self.m):
                raise ConfigurationError(f"sparsity {s!r} outside (0, m={self.m}]")
        if not (0 < self.m < self.n):
            raise ConfigurationError(f"require 0 < m < n, got m={self.m}, n={self.n}")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ConfigurationError(f"unknown algorithms: {sorted(unknown)}")
        # each algorithm and outer budget is one result key (``_algo_keys``)
        if len(set(self.algorithms)) < len(self.algorithms):
            raise ConfigurationError(f"duplicate algorithms: {list(self.algorithms)}")
        # and each sparsity level one slice of the sweep's trials
        if len(set(self.s_values)) < len(self.s_values):
            raise ConfigurationError(f"duplicate sparsity levels: {list(self.s_values)}")
        if not (self.rw_iters and all(_is_integer(r) and r >= 0 for r in self.rw_iters)
                and len(set(self.rw_iters)) == len(self.rw_iters)):
            raise ConfigurationError(f"rw_iters must be distinct integers >= 0: {self.rw_iters!r}")


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
    # the pairing check compares the digests of one s's trials; a single
    # trial has nothing to compare, so its instance is not hashed
    digest = instance.content_digest() if cfg.trials > 1 else None
    outcomes = {}
    errors = []
    for key, name, budget in _algo_keys(cfg):
        try:
            x, _ = run_algorithm(name, instance, replace(solver_cfg, rw_iter=budget))
            ok = recovered(x, instance.x_star)
        except (RuntimeError, ValueError) as exc:
            # a solver's failure (NoConvergenceError, ConfigurationError,
            # LinAlgError) is a non-recovery; a programming error propagates
            errors.append(f"{key} failed on s={s} seed={seed}: {exc!r}")
            ok = False
        outcomes[key] = ok
    return digest, outcomes, errors


@functools.cache
def _openblas_libraries():
    """(path, library) of each OpenBLAS loaded in this process; numpy and
    scipy wheels each bundle their own copy. Looked up once per process:
    both are loaded by the time this package is imported, and reading the
    memory map costs about as much as a short sweep call's own overhead."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted(
                {line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line.lower()}
            )
    except OSError:  # no /proc: BLAS threading is left as it is
        return ()
    return tuple((path, ctypes.CDLL(path)) for path in paths)


def _openblas_functions(lib, *names):
    """The functions ``names`` of an OpenBLAS library under the first
    symbol prefix and suffix that exports all of them (``openblas_`` or
    ``scipy_openblas_``, with or without the ``64_`` of 64-bit integer
    builds), or None."""
    for stem, suffix in itertools.product(("openblas", "scipy_openblas"), ("", "64_")):
        found = [getattr(lib, f"{stem}_{name}{suffix}", None) for name in names]
        if None not in found:
            return found
    return None


@functools.cache
def _blas_thread_controls():
    """(get, set) thread-count functions of each loaded OpenBLAS."""
    controls = []
    for _, lib in _openblas_libraries():
        pair = _openblas_functions(lib, "get_num_threads", "set_num_threads")
        if pair is not None:
            controls.append(tuple(pair))
    return tuple(controls)


def _openblas_cores():
    """(path, core name) of each loaded OpenBLAS: the kernels it
    dispatched to on this CPU, on which the pinned bits of the tests are
    checked."""
    cores = []
    for path, lib in _openblas_libraries():
        found = _openblas_functions(lib, "get_corename")
        if found is not None:
            found[0].restype = ctypes.c_char_p
            cores.append((path, found[0]().decode()))
    return cores


def _single_blas_thread():
    for _, set_threads in _blas_thread_controls():
        set_threads(1)


@contextlib.contextmanager
def _one_blas_thread():
    """Every loaded OpenBLAS at one thread inside the block, at its own
    count after it: the bits of ``solvers._Operator.gram_factor``, and so of
    the minimum-norm solution and rw-lasso's lambda0, depend on the count."""
    controls = _blas_thread_controls()
    previous = [get() for get, _ in controls]
    _single_blas_thread()
    try:
        yield
    finally:
        for (_, set_threads), count in zip(controls, previous):
            set_threads(count)


def _log_errors(results):
    """Log the failure lines of each trial, in trial order; the last item
    of every trial's result is its list of them."""
    for err in itertools.chain.from_iterable(result[-1] for result in results):
        logger.warning("%s", err)


def _map_ordered(fn, items, workers: int):
    with _one_blas_thread():
        if workers <= 1:
            return [fn(item) for item in items]
        # imported here: serial sweeps and ``solve`` need no multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=_single_blas_thread) as pool:
            return list(pool.map(fn, items))


def run_recovery_sweep(
    cfg: SweepConfig, solver_cfg: SolverConfig = SolverConfig()
) -> SweepResult:
    """Recovery rate per (algorithm, sparsity level) over paired seeded
    trials, with plain l1 minimization always included as reference."""
    seeds = [cfg.base_seed + t for t in range(cfg.trials)]
    items = [(cfg, solver_cfg, s, seed) for s in cfg.s_values for seed in seeds]
    results = _map_ordered(_recovery_trial, items, cfg.parallelism)
    _log_errors(results)

    # the trials of the i-th sparsity level, in seed order
    slices = [results[i * cfg.trials:(i + 1) * cfg.trials] for i in range(len(cfg.s_values))]
    for trials in slices:
        if len({digest for digest, _, _ in trials}) != cfg.trials:
            raise AssertionError("paired trials produced duplicate instances")
    rates = {
        key: [sum(outcomes[key] for _, outcomes, _ in trials) / cfg.trials for trials in slices]
        for key, _, _ in _algo_keys(cfg)
    }
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
    except (RuntimeError, ValueError) as exc:
        errors.append(f"l1 baseline failed on seed={seed}: {exc!r}")
        return pcts, errors
    for name in algos:
        try:
            x, _ = run_algorithm(name, instance, solver_cfg)
            pcts[name] = improvement(x, baseline, instance.x_star)
        except DegenerateBaselineError:
            errors.append(f"seed={seed}: baseline hit ground truth, trial skipped")
        except (RuntimeError, ValueError) as exc:
            errors.append(f"{name} failed on seed={seed}: {exc!r}")
    return pcts, errors


def run_noisy_improvement(
    cfg: SweepConfig, sigma: float, solver_cfg: SolverConfig = SolverConfig()
) -> SweepResult:
    """Per-trial improvement of the reweighted noisy solvers over the
    quadratically constrained l1 baseline, at a single sparsity level.

    Of ``cfg`` it reads ``algorithms`` (the noisy algorithms to compare;
    ``l1``, the baseline, may be listed too), ``s_values`` (one level),
    ``trials``, ``base_seed``, ``n``, ``m`` and ``parallelism``. The outer
    budget is ``solver_cfg.rw_iter``; ``cfg.rw_iters`` is not read.

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
    algos = [a for a in cfg.algorithms if a in _NOISY_ALGORITHMS]
    if not algos:
        raise ConfigurationError(
            f"no noisy algorithm to compare: algorithms must name one of {list(_NOISY_ALGORITHMS)}"
        )
    seeds = [cfg.base_seed + t for t in range(cfg.trials)]
    items = [(cfg, solver_cfg, sigma, seed, algos) for seed in seeds]
    results = _map_ordered(_improvement_trial, items, cfg.parallelism)
    _log_errors(results)
    improvements = {name: [pcts[name] for pcts, _ in results] for name in algos}
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
    """Write a sweep as ``algorithm,s,trials,recovered,rate`` rows, one per
    (algorithm, sparsity level), or an improvement run as
    ``algo,seed,improvement_pct`` rows, one per (algorithm, trial) that was
    not skipped. Algorithms are in name order."""
    if result.improvements is None:
        header = ["algorithm", "s", "trials", "recovered", "rate"]
        rows = [
            [name, s, result.trials, round(rate * result.trials), repr(float(rate))]
            for name, rates in sorted(result.recovery_rate_per_algorithm.items())
            for s, rate in zip(result.sparsity_levels, rates)
        ]
    else:
        header = ["algo", "seed", "improvement_pct"]
        rows = [
            [name, seed, repr(float(pct))]
            for name, pcts in sorted(result.improvements.items())
            for seed, pct in zip(result.seeds, pcts)
            if not math.isnan(pct)
        ]
    _write_rows(path, header, rows)


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


def _write_rows(path, header, rows) -> None:
    """The one CSV writer: ``header``, then ``rows``; an OSError names ``path``."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
