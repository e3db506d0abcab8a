"""Command-line entry points: instance generation, single solves with
optional trace emission, recovery sweeps, and the noisy improvement
benchmark.

Exit codes: 0 on success, 1 on a configuration error (bad flags, bad
config file, unusable instance), 2 when a solver fails during ``solve``.
``solve`` runs with one BLAS thread, as sweeps do, so its output does not
depend on the thread count.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import fields

from .bench import (SweepConfig, _one_blas_thread, emit_csv, improvement_stats,
                    run_noisy_improvement, run_recovery_sweep)
from .model import ConfigurationError, ProblemInstance, SolverConfig, l0_norm, l0_reporting_tol, recovered
from .probgen import EnsembleSpec, gen_noiseless, gen_noisy
from .reweight import ALGORITHMS, inner_trace_to_csv, run_algorithm, trace_to_csv

logger = logging.getLogger(__name__)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rwsparse",
        description="Sparse recovery via re-weighted l1 with dual-ascent weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a random problem instance")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--s", type=int, required=True)
    p_gen.add_argument("--sigma", type=float, default=None)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)

    p_solve = sub.add_parser("solve", help="run one algorithm on a saved instance")
    p_solve.add_argument("--algo", choices=sorted(ALGORITHMS), required=True)
    p_solve.add_argument("--instance", required=True)
    p_solve.add_argument("--rw-iter", type=int, default=None)
    p_solve.add_argument("--trace", default=None, help="write outer-iteration CSV here "
                         "(inner-solve rows go to the same path with an .inner.csv suffix)")

    p_sweep = sub.add_parser("sweep", help="recovery-rate sweep over sparsity")
    p_sweep.add_argument("--algos", default=None, help="comma-separated algorithm names")
    p_sweep.add_argument("--s-min", type=int, default=None)
    p_sweep.add_argument("--s-max", type=int, default=None)
    p_sweep.add_argument("--s-step", type=int, default=None)
    p_sweep.add_argument("--trials", type=int, default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--rw-iter", type=int, default=None)
    p_sweep.add_argument("--n", type=int, default=None)
    p_sweep.add_argument("--m", type=int, default=None)
    p_sweep.add_argument("--workers", type=int, default=None)
    p_sweep.add_argument("--config", default=None, help="JSON file mirroring SweepConfig fields")
    p_sweep.add_argument("--out", required=True)

    p_noisy = sub.add_parser("noisy-bench", help="improvement benchmark on noisy instances")
    p_noisy.add_argument("--s", type=int, default=None)
    p_noisy.add_argument("--trials", type=int, default=None)
    p_noisy.add_argument("--sigma", type=float, default=0.05)
    p_noisy.add_argument("--seed", type=int, default=None)
    p_noisy.add_argument("--n", type=int, default=None)
    p_noisy.add_argument("--m", type=int, default=None)
    p_noisy.add_argument("--workers", type=int, default=None)
    p_noisy.add_argument("--config", default=None, help="JSON file mirroring SweepConfig fields")
    p_noisy.add_argument("--out", required=True)

    return parser


def _load_sweep_config(path) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    known = {f.name for f in fields(SweepConfig)}
    unknown = set(doc) - known
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    return doc


def _merge_sweep_config(args, defaults: SweepConfig) -> SweepConfig:
    values = {}
    if args.config:
        values.update(_load_sweep_config(args.config))

    if getattr(args, "algos", None) is not None:
        values["algorithms"] = [a.strip() for a in args.algos.split(",") if a.strip()]
    if getattr(args, "s", None) is not None:
        values["s_values"] = [args.s]
    if getattr(args, "s_min", None) is not None or getattr(args, "s_max", None) is not None:
        if args.s_min is None or args.s_max is None:
            raise ConfigurationError("--s-min and --s-max must be given together")
        step = args.s_step if args.s_step is not None else 10
        if step < 1:
            raise ConfigurationError(f"--s-step must be at least 1, got {step}")
        values["s_values"] = list(range(args.s_min, args.s_max + 1, step))
    if args.trials is not None:
        values["trials"] = args.trials
    if args.seed is not None:
        values["base_seed"] = args.seed
    if getattr(args, "rw_iter", None) is not None:
        values["rw_iters"] = [args.rw_iter]
    if args.n is not None:
        values["n"] = args.n
    if args.m is not None:
        values["m"] = args.m
    if args.workers is not None:
        values["parallelism"] = args.workers

    merged = {f.name: getattr(defaults, f.name) for f in fields(SweepConfig)}
    merged.update(values)
    return SweepConfig(**merged)


def _cmd_gen(args) -> int:
    spec = EnsembleSpec(n=args.n, m=args.m, s=args.s, sigma=args.sigma, seed=args.seed)
    instance = gen_noisy(spec) if args.sigma is not None else gen_noiseless(spec)
    instance.save(args.out)
    print(f"wrote instance n={args.n} m={args.m} s={args.s} seed={args.seed} to {args.out}")
    return 0


def _cmd_solve(args) -> int:
    try:
        instance = ProblemInstance.load(args.instance)
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigurationError(f"cannot load instance {args.instance}: {exc}") from exc
    cfg = SolverConfig() if args.rw_iter is None else SolverConfig(rw_iter=args.rw_iter)
    try:
        with _one_blas_thread():
            x, trace = run_algorithm(args.algo, instance, cfg)
    except ConfigurationError:
        raise
    except Exception as exc:
        print(f"solver failure: {exc!r}", file=sys.stderr)
        return 2
    if args.trace:
        trace_to_csv(trace, args.trace)
        inner_trace_to_csv(trace, str(args.trace) + ".inner.csv")
    summary = (
        f"algo={args.algo} n={instance.n} m={instance.m} "
        f"l0={l0_norm(x, l0_reporting_tol(x))} "
        f"objective={trace.rows[-1].objective:.6e} exit={trace.exit_reason}"
    )
    if instance.x_star is not None:
        summary += f" recovered={recovered(x, instance.x_star, cfg.recovery_tol)}"
    print(summary)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _merge_sweep_config(args, SweepConfig())
    result = run_recovery_sweep(cfg)
    emit_csv(result, args.out)
    for name in sorted(result.recovery_rate_per_algorithm):
        rates = result.recovery_rate_per_algorithm[name]
        pairs = " ".join(f"s={s}:{r:.2f}" for s, r in zip(result.sparsity_levels, rates))
        print(f"{name}: {pairs}")
    print(f"wrote {args.out}")
    return 0


def _cmd_noisy_bench(args) -> int:
    defaults = SweepConfig(
        algorithms=("rw-lasso", "cwb-noisy"), s_values=(38,), trials=30, m=128
    )
    cfg = _merge_sweep_config(args, defaults)
    result = run_noisy_improvement(cfg, sigma=args.sigma)
    emit_csv(result, args.out)
    for name, (mean, std) in improvement_stats(result).items():
        print(f"{name}: mean improvement {mean:.1f}% (std {std:.1f})")
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "noisy-bench": _cmd_noisy_bench,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # ConfigurationError is a ValueError
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
