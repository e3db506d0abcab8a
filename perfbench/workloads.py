"""The benchmark's workloads, driven only through rwsparse's public API.

Each workload runs a fixed panel of trials. Per-trial cost on one
(n, m, s) spans about 40x (0.13 s to 6.5 s for a Fig-1 trial on a
2-core machine), so panels drawn afresh from every seed would move
throughput by 25-50% between seeds at the run lengths the benchmark can
afford. The panel is therefore the same for every seed, and the seed
fixes the order in which its trials run. Panels use instance seeds
0..K-1, the convention of the CLI's ``--seed 0``. The Fig-1 panel holds
no slow-convergence trial: over seeds 0-24, 6 of 100 trials took 2.4 s
to 6.5 s, and one such trial would dominate a 16-trial pass.
"""

from __future__ import annotations

import math
import random
import resource
import time

from rwsparse import bench
from rwsparse.model import SolverConfig

FIG1_S = (20, 30, 40, 50)
FIG1_ALGOS = ("l1", "rw-sub", "rw-cwb")
NOISY_S = 38
NOISY_SIGMA = 0.05
NOISY_ALGOS = ("rw-lasso", "cwb-noisy")
POOL_WORKERS = 2

# instance seeds of the full panels, and of the tiny ones the self-test uses
FIG1_SEEDS = {False: range(4), True: range(1)}
FIG1_SMOKE_S = (20, 30)
NOISY_SEEDS = {False: range(24), True: range(2)}


def _fig1_config(s_values, trials, base_seed, parallelism):
    return bench.SweepConfig(
        algorithms=FIG1_ALGOS,
        s_values=tuple(s_values),
        trials=trials,
        base_seed=base_seed,
        rw_iters=(2,),
        n=256,
        m=100,
        parallelism=parallelism,
    )


def fig1_trial(s, seed):
    """One Fig-1 trial: {algorithm: 1.0 if recovered else 0.0}."""
    res = bench.run_recovery_sweep(_fig1_config((s,), 1, seed, 1), SolverConfig())
    return {a: res.recovery_rate_per_algorithm[a][0] for a in FIG1_ALGOS}


def noisy_trial(seed):
    """One noisy-improvement trial: {algorithm: improvement in percent},
    NaN where the trial was skipped."""
    cfg = bench.SweepConfig(
        algorithms=NOISY_ALGOS, s_values=(NOISY_S,), trials=1, base_seed=seed, n=256, m=128
    )
    res = bench.run_noisy_improvement(cfg, NOISY_SIGMA, SolverConfig())
    return {a: res.improvements[a][0] for a in NOISY_ALGOS}


def _cpu_s():
    """CPU seconds of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _timed(fn, *args):
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0, _cpu_s() - cpu0


def rates_from_trials(outcomes):
    """Per-trial Fig-1 outcomes {(s, seed): {algo: 0/1}} as recovery
    rates {algo: {s: rate}}, computed as run_recovery_sweep does."""
    rates = {}
    for algo in FIG1_ALGOS:
        hits, counts = {}, {}
        for (s, _), out in outcomes.items():
            hits[s] = hits.get(s, 0) + bool(out[algo])
            counts[s] = counts.get(s, 0) + 1
        rates[algo] = {s: hits[s] / counts[s] for s in sorted(hits)}
    return rates


class _Panel:
    """A fixed panel of trials, each run by ``trial(key)``; ``summary``
    turns {key: outcome} into the workload's output."""

    panel: list

    def order(self, seed):
        order = list(self.panel)
        random.Random(seed).shuffle(order)
        return order

    def warm_up(self):
        self.trial(self.panel[0])

    def run_pass(self, order):
        """Run the panel once: (wall seconds and CPU seconds of each trial
        in ``order``, summary of the outcomes)."""
        walls, cpus, outcomes = [], [], {}
        for key in order:
            outcomes[key], wall, cpu = _timed(self.trial, key)
            walls.append(wall)
            cpus.append(cpu)
        return walls, cpus, self.summary(outcomes)

    def solve_panel(self):
        """The summary of one untimed pass in panel order."""
        return self.summary({key: self.trial(key) for key in self.panel})


class Fig1Serial(_Panel):
    """Noiseless recovery sweep of Fig 1, one public sweep call per trial."""

    name = "fig1-serial"
    runs_per_trial = len(FIG1_ALGOS)

    def __init__(self, smoke=False):
        s_values = FIG1_SMOKE_S if smoke else FIG1_S
        self.seeds = FIG1_SEEDS[smoke]
        self.panel = [(s, seed) for s in s_values for seed in self.seeds]

    @staticmethod
    def trial(key):
        return fig1_trial(*key)

    summary = staticmethod(rates_from_trials)


class Fig1Pool(Fig1Serial):
    """The Fig-1 panel as one public sweep call through the process pool.

    The program's public API gives no per-trial times in the pool, so each
    trial is charged the pass wall time times the worker count, and the
    pass CPU time, over the trial count.
    """

    name = "fig1-pool"

    def warm_up(self):
        s = self.panel[0][0]
        bench.run_recovery_sweep(_fig1_config((s,), POOL_WORKERS, 0, POOL_WORKERS))

    def order(self, seed):
        s_values = sorted({s for s, _ in self.panel})
        random.Random(seed).shuffle(s_values)
        return s_values

    def run_pass(self, order):
        cfg = _fig1_config(order, len(self.seeds), self.seeds[0], POOL_WORKERS)
        res, wall, cpu = _timed(bench.run_recovery_sweep, cfg, SolverConfig())
        n = len(self.panel)
        rates = {
            a: dict(sorted(zip(res.sparsity_levels, res.recovery_rate_per_algorithm[a])))
            for a in FIG1_ALGOS
        }
        return [wall * POOL_WORKERS / n] * n, [cpu / n] * n, rates


class NoisyImprove(_Panel):
    """Noisy improvement benchmark (criterion 7 as stated), one public
    call per trial."""

    name = "noisy-improve"
    runs_per_trial = 1 + len(NOISY_ALGOS)  # the l1 baseline is a solve too

    def __init__(self, smoke=False):
        self.panel = list(NOISY_SEEDS[smoke])

    trial = staticmethod(noisy_trial)

    @staticmethod
    def summary(outcomes):
        return dict(sorted(outcomes.items()))


WORKLOADS = {w.name: w for w in (Fig1Serial, NoisyImprove, Fig1Pool)}


def check_rates(rates):
    """Problems with a set of Fig-1 recovery rates."""
    return [
        f"recovery rate {algo} s={s}: {r!r} outside [0, 1]"
        for algo, per_s in rates.items()
        for s, r in per_s.items()
        if not 0.0 <= r <= 1.0
    ]


def check_improvements(improvements, skipped):
    """Problems with noisy-improvement outcomes: a NaN is allowed only for
    a trial the program reported as skipped."""
    nan = sum(math.isnan(v) for out in improvements.values() for v in out.values())
    infinite = sum(math.isinf(v) for out in improvements.values() for v in out.values())
    problems = []
    if nan > skipped:
        problems.append(f"{nan} improvements are NaN but only {skipped} skips were reported")
    if infinite:
        problems.append(f"{infinite} improvements are infinite")
    return problems


def recovery_metrics(rates):
    """recovery_rate.<algo>: mean over s of the per-s recovery rate."""
    return {
        f"recovery_rate.{a}": sum(rates[a].values()) / len(rates[a]) for a in FIG1_ALGOS
    }


def mean_improvements(improvements):
    """Mean improvement in percent per algorithm over the trials that were
    not skipped (NaN when every trial was)."""
    means = {}
    for a in NOISY_ALGOS:
        vals = [o[a] for o in improvements.values() if not math.isnan(o[a])]
        means[a] = sum(vals) / len(vals) if vals else float("nan")
    return means


def error_ratio_metrics(improvements):
    """l2_err_ratio.<algo>: mean over non-skipped trials of
    ||x - x*|| / ||x_l1 - x*||, which is 1 - improvement / 100."""
    return {
        f"l2_err_ratio.{a}": 1.0 - pct / 100.0 for a, pct in mean_improvements(improvements).items()
    }
