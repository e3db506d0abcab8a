"""rwsparse benchmark.

    python3 perfbench/run.py --workload fig1-serial --seed 1 --seconds 30 --trace 0

Builds nothing: it imports rwsparse from ``src/`` of the checkout it sits
in. A run repeats its workload's trial panel in whole passes until
``--seconds`` have elapsed, checks the program's outputs, and prints one
line per metric, then a JSON summary as the last line. With ``--trace 0``
the metrics are the end-to-end ones; ``--trace 1`` repeats the measurement
with spans bound around the package's public functions and prints the
per-module metrics. Details, and the spans of a traced run, are written
under ``.perfbench/`` in the checkout. The exit code is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 3
TAIL_PERCENTILE = 75

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_tail": "ms",
    "cpu_s_per_trial": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_frac": "fraction",
    "recovery_rate.l1": "fraction",
    "recovery_rate.rw-sub": "fraction",
    "recovery_rate.rw-cwb": "fraction",
    "l2_err_ratio.rw-lasso": "ratio",
    "l2_err_ratio.cwb-noisy": "ratio",
}


def _layer_units():
    units = {}
    for solver in ("solvers.weighted_basis_pursuit", "solvers.weighted_lasso_fista"):
        units.update(
            {
                f"{solver}.calls": "calls/trial",
                f"{solver}.self_s": "s/trial",
                f"{solver}.iters": "iters/trial",
                f"{solver}.us_per_iter": "us",
                f"{solver}.unconverged": "solves/trial",
            }
        )
    units.update(
        {
            "solvers.constrained_weighted_l1.calls": "calls/trial",
            "solvers.constrained_weighted_l1.self_s": "s/trial",
            "solvers.constrained_weighted_l1.lasso_per_call": "calls/call",
        }
    )
    for layer in ("solvers.min_l2_solution", "reweight.run_algorithm", "duality", "probgen.gen"):
        units[f"{layer}.calls"] = "calls/trial"
        units[f"{layer}.self_s"] = "s/trial"
    units["reweight.inner_solves_per_run"] = "solves/run"
    units["bench.self_s"] = "s/trial"
    units["bench.pool.child_cpu_s"] = "s/trial"
    return units


PER_LAYER_UNITS = _layer_units()


class FailureCounter(logging.Handler):
    """Counts what the harness logs: solver failures per algorithm, and
    trials skipped because the baseline hit the ground truth."""

    _FAILED = re.compile(r"^(\S+) (?:baseline )?failed on ")

    def __init__(self):
        super().__init__(logging.WARNING)
        self.failures = {}
        self.skipped = 0

    def emit(self, record):
        msg = record.getMessage()
        if "baseline hit ground truth" in msg:
            self.skipped += 1
            return
        match = self._FAILED.match(msg)
        algo = match.group(1) if match else "unparsed"
        self.failures[algo] = self.failures.get(algo, 0) + 1

    @property
    def failed(self):
        return sum(self.failures.values())


@dataclass
class Window:
    """One measured stretch of whole passes over the panel. ``walls`` and
    ``cpus`` hold one list per pass, aligned with the trial order."""

    wall: float = 0.0
    cpu_children: float = 0.0
    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)

    @property
    def trials(self):
        return sum(len(w) for w in self.walls)

    def per_trial(self, samples):
        """Each trial's least time over the passes: on a shared machine
        interference only adds time, and the least is the steadiest."""
        return [min(col) for col in zip(*samples)]

    def trials_per_s(self):
        walls = self.per_trial(self.walls)
        return len(walls) / sum(walls)


def measure(workload, order, seconds):
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    window = Window()
    while True:
        walls, cpus, outcome = workload.run_pass(order)
        window.walls.append(walls)
        window.cpus.append(cpus)
        window.outcomes.append(outcome)
        if time.perf_counter() - t0 >= seconds:
            break
    window.wall = time.perf_counter() - t0
    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    window.cpu_children = (children1.ru_utime - children0.ru_utime) + (
        children1.ru_stime - children0.ru_stime
    )
    return window


def setup_times(args):
    """Wall time of fresh interpreters that import the package and run one
    untimed warm-up trial."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", args.workload]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def _canonical(outcome):
    # NaN marks a skipped trial; compare outcomes by their JSON text so
    # that a skip equals itself.
    return json.dumps(outcome, sort_keys=True)


def tail(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny panels, for the self-test")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "rwsparse" / "__init__.py").is_file():
        print(f"rwsparse sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import envinfo
    import tracing
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload](args.smoke)
    if args.probe:
        workload.warm_up()
        return 0

    env = envinfo.environment(ROOT, SRC)
    setup = [] if args.trace else setup_times(args)
    workload.warm_up()
    counter = FailureCounter()
    logging.getLogger("rwsparse.bench").addHandler(counter)

    order = workload.order(args.seed)
    plain = measure(workload, order, args.seconds)
    traced = tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        # In the pool the solvers run in worker processes, whose spans
        # would be lost, so only the benchmark's own call is traced there.
        bindings = tracing.ROOT_BINDINGS
        if workload.name != "fig1-pool":
            bindings += tracing.MODULE_BINDINGS
        with tracer.bound(bindings):
            traced = measure(workload, order, args.seconds)
    attempted = workload.runs_per_trial * (plain.trials + (traced.trials if traced else 0))

    problems = []
    outcome = plain.outcomes[0]
    for other in plain.outcomes[1:] + (traced.outcomes if traced else []):
        if _canonical(other) != _canonical(outcome):
            problems.append("a repeated pass of the panel gave different outcomes")
            break

    details = {}
    quality = {}
    if workload.name == "noisy-improve":
        problems += wl.check_improvements(outcome, counter.skipped)
        quality.update(wl.error_ratio_metrics(outcome))
        details["improvement_pct_mean"] = wl.mean_improvements(outcome)
        if not args.trace:
            fig1 = wl.Fig1Serial(args.smoke)
            rates = fig1.solve_panel()
            attempted += fig1.runs_per_trial * len(fig1.panel)
            problems += wl.check_rates(rates)
            quality.update(wl.recovery_metrics(rates))
    else:
        problems += wl.check_rates(outcome)
        details["recovery_rates"] = outcome
        quality.update(wl.recovery_metrics(outcome))
        if workload.name == "fig1-pool":
            serial = workload.solve_panel()
            attempted += workload.runs_per_trial * len(workload.panel)
            if _canonical(serial) != _canonical(outcome):
                problems.append(
                    f"pool rates {_canonical(outcome)} differ from the per-trial "
                    f"serial outcomes {_canonical(serial)}"
                )
        if not args.trace:
            noisy = wl.NoisyImprove(args.smoke)
            improvements = noisy.solve_panel()
            attempted += noisy.runs_per_trial * len(noisy.panel)
            problems += wl.check_improvements(improvements, counter.skipped)
            quality.update(wl.error_ratio_metrics(improvements))

    if args.trace:
        units = PER_LAYER_UNITS
        metrics = tracer.layer_metrics(traced.trials, traced.cpu_children)
        self_sum = sum(tracer.self_times())
        coverage = self_sum / traced.wall
        if not 0.95 <= coverage <= 1.0 + 1e-9:
            problems.append(f"self times cover {coverage:.4f} of the traced wall time")
        plain_tps = plain.trials_per_s()
        traced_tps = traced.trials_per_s()
        details["tracing"] = {
            "trials_per_s_untraced": plain_tps,
            "trials_per_s_traced": traced_tps,
            "overhead_pct": 100.0 * (plain_tps / traced_tps - 1.0),
            "self_time_sum_s": self_sum,
            "traced_wall_s": traced.wall,
            "spans": len(tracer.spans),
        }
    else:
        units = END_TO_END_UNITS
        trial_ms = [1e3 * t for t in plain.per_trial(plain.walls)]
        peak_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        metrics = {
            "trials_per_s": plain.trials_per_s(),
            "trial_ms_p50": statistics.median(trial_ms),
            "trial_ms_tail": tail(trial_ms, TAIL_PERCENTILE),
            "cpu_s_per_trial": statistics.fmean(plain.per_trial(plain.cpus)),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_kb / 1024.0,
            "success_frac": 1.0 - counter.failed / attempted,
            **quality,
        }
        details["setup_s_samples"] = setup
        details["trial_ms_tail"] = {
            "percentile": TAIL_PERCENTILE,
            "trials": len(trial_ms),
            "beyond": sum(t > metrics["trial_ms_tail"] for t in trial_ms),
            "samples_per_trial": len(plain.walls),
        }
        details["raw"] = {
            "trial_order": order,
            "trial_wall_s_by_pass": plain.walls,
            "trial_cpu_s_by_pass": plain.cpus,
        }
    details["failures_per_algorithm"] = counter.failures
    details["skipped_degenerate_baseline"] = counter.skipped
    metrics = {name: metrics[name] for name in units}
    problems += [f"{name} is {value}" for name, value in metrics.items() if not math.isfinite(value)]

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    OUT.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.write(OUT / f"{label}-spans.jsonl")
    window = traced or plain
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "trials": window.trials,
        "passes": len(window.outcomes),
        "wall_s": window.wall,
        "env": env,
        "metrics": {
            k: {"value": v if math.isfinite(v) else None, "unit": units[k]}
            for k, v in metrics.items()
        },
        "details": details,
        "problems": problems,
    }
    (OUT / f"{label}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {window.trials} trials "
        f"in {len(window.outcomes)} passes, {window.wall:.2f} s"
    )
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    shown = {k: v for k, v in details.items() if k != "raw"}
    print("details " + json.dumps(shown, sort_keys=True))
    for problem in problems:
        print("CHECK FAILED: " + problem)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": counter.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
