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
from dataclasses import fields, replace

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

    # the flags that set a SweepConfig field store under its name, and only
    # when given, so _merge_sweep_config layers them over the config file
    shared = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    shared.add_argument("--trials", type=int)
    shared.add_argument("--seed", dest="base_seed", type=int)
    shared.add_argument("--n", type=int)
    shared.add_argument("--m", type=int)
    shared.add_argument("--workers", dest="parallelism", type=int)
    shared.add_argument("--config", default=None, help="JSON file mirroring SweepConfig fields")
    shared.add_argument("--out", required=True)

    p_sweep = sub.add_parser("sweep", parents=[shared], help="recovery-rate sweep over sparsity",
                             argument_default=argparse.SUPPRESS)
    p_sweep.add_argument("--algos", dest="algorithms", help="comma-separated algorithm names",
                         type=lambda text: [a.strip() for a in text.split(",") if a.strip()])
    p_sweep.add_argument("--s-min", type=int)
    p_sweep.add_argument("--s-max", type=int)
    p_sweep.add_argument("--s-step", type=int, default=10)
    p_sweep.add_argument("--rw-iter", dest="rw_iters", type=int, nargs=1)

    p_noisy = sub.add_parser("noisy-bench", parents=[shared], help="improvement benchmark on "
                             "noisy instances", argument_default=argparse.SUPPRESS)
    p_noisy.add_argument("--s", dest="s_values", type=int, nargs=1)
    p_noisy.add_argument("--sigma", type=float, default=0.05)

    return parser


def _merge_sweep_config(args, defaults: SweepConfig) -> SweepConfig:
    """``defaults`` overridden by three layers, later ones winning: the
    ``--config`` file's fields, the flags that were given, and the sparsity
    range ``--s-min/--s-max/--s-step`` as ``s_values``. The merged config
    is validated once, by ``SweepConfig``."""
    names = {f.name for f in fields(SweepConfig)}
    values = {}
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ConfigurationError(f"config must be a JSON object, got {type(doc).__name__}")
        unknown = set(doc) - names
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        values.update(doc)
    flags = vars(args)
    values.update({name: value for name, value in flags.items() if name in names})
    s_min, s_max = flags.get("s_min"), flags.get("s_max")
    if s_min is not None or s_max is not None:
        if s_min is None or s_max is None:
            raise ConfigurationError("--s-min and --s-max must be given together")
        if args.s_step < 1:
            raise ConfigurationError(f"--s-step must be at least 1, got {args.s_step}")
        values["s_values"] = list(range(s_min, s_max + 1, args.s_step))
    return replace(defaults, **values)


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
    except (RuntimeError, ValueError) as exc:
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
        summary += f" recovered={recovered(x, instance.x_star)}"
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
    budget = SolverConfig().rw_iter  # the outer budget the benchmark runs
    defaults = SweepConfig(
        algorithms=("rw-lasso", "cwb-noisy"), s_values=(38,), trials=30, m=128, rw_iters=(budget,)
    )
    cfg = _merge_sweep_config(args, defaults)
    if list(cfg.rw_iters) != [budget]:
        raise ConfigurationError(f"noisy-bench runs rw_iter={budget}; rw_iters must be "
                                 f"[{budget}], got {list(cfg.rw_iters)}")
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
