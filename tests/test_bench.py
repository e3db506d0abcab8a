import csv
import dataclasses
import hashlib
import importlib.util
import logging
import math
import sys
from pathlib import Path

import pytest

import rwsparse.bench as bench
import rwsparse.reweight as reweight
import rwsparse.solvers as solvers
from rwsparse.bench import (
    SweepConfig,
    emit_csv,
    improvement_stats,
    run_noisy_improvement,
    run_recovery_sweep,
)
from rwsparse.model import (
    ConfigurationError,
    DegenerateBaselineError,
    ProblemInstance,
    SolverConfig,
    SweepResult,
)
from rwsparse.probgen import EnsembleSpec, gen_noiseless, gen_noisy

TINY = SweepConfig(
    algorithms=("rw-sub", "rw-cwb"),
    s_values=(3, 6),
    trials=4,
    base_seed=100,
    rw_iters=(1,),
    n=32,
    m=16,
)


def _blas_threads(_item=None):
    return [get() for get, _ in bench._blas_thread_controls()]


NOISY_TINY = SweepConfig(
    algorithms=("rw-lasso", "cwb-noisy"),
    s_values=(4,),
    trials=3,
    base_seed=5,
    rw_iters=(2,),
    n=32,
    m=16,
)


class TestSweepConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SweepConfig(trials=0)
        with pytest.raises(ConfigurationError):
            SweepConfig(s_values=())
        with pytest.raises(ConfigurationError):
            SweepConfig(s_values=(200,), m=100)
        with pytest.raises(ConfigurationError):
            SweepConfig(algorithms=("nope",))
        with pytest.raises(ConfigurationError):
            SweepConfig(n=100, m=100)
        with pytest.raises(ConfigurationError):
            SweepConfig(parallelism=0)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"rw_iters": (-1,)}, "rw_iters must be distinct integers >= 0"),
            ({"rw_iters": ()}, "rw_iters must be distinct integers >= 0"),
            ({"rw_iters": (2, 2)}, "rw_iters must be distinct integers >= 0"),
            ({"rw_iters": (1.5,)}, "rw_iters must be distinct integers >= 0"),
            ({"algorithms": ("rw-sub", "rw-sub")}, "duplicate algorithms"),
            ({"algorithms": ("rw-lasso", "rw-lasso")}, "duplicate algorithms"),
            ({"algorithms": "rw-sub"}, "algorithms must be a list"),
            ({"s_values": 5}, "s_values must be a list"),
            ({"s_values": ("5",)}, "sparsity '5' outside"),
            ({"s_values": (3, 3)}, "duplicate sparsity levels"),
            ({"trials": "2"}, "trials must be an integer, got '2'"),
            ({"parallelism": 1.5}, "parallelism must be an integer, got 1.5"),
            ({"trials": True}, "trials must be an integer, got True"),
            ({"base_seed": False}, "base_seed must be an integer, got False"),
            ({"m": True}, "m must be an integer, got True"),
            ({"parallelism": True}, "parallelism must be an integer, got True"),
            ({"s_values": (True,)}, "sparsity True outside"),
            ({"rw_iters": (True,)}, "rw_iters must be distinct integers >= 0"),
        ],
    )
    def test_rejects_sweeps_it_cannot_run(self, fields, message):
        # each of these once passed and then failed per trial, failed after
        # solving every trial, misaligned the improvements or raised a raw
        # TypeError; a bool once passed as the integer it equals
        with pytest.raises(ConfigurationError, match=message):
            SweepConfig(**fields)


class TestRecoverySweep:
    def test_reference_l1_always_included(self):
        res = run_recovery_sweep(TINY)
        assert "l1" in res.recovery_rate_per_algorithm
        assert set(res.recovery_rate_per_algorithm) == {"l1", "rw-sub", "rw-cwb"}
        assert res.sparsity_levels == [3, 6]
        assert res.seeds == [100, 101, 102, 103]

    def test_deterministic_rerun(self):
        assert run_recovery_sweep(TINY) == run_recovery_sweep(TINY)

    def test_parallel_matches_serial(self):
        import dataclasses

        parallel = dataclasses.replace(TINY, parallelism=2)
        assert run_recovery_sweep(TINY) == run_recovery_sweep(parallel)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_trials_run_with_one_blas_thread(self, workers):
        before = _blas_threads()
        assert bench._map_ordered(_blas_threads, range(3), workers) == [[1] * len(before)] * 3
        assert _blas_threads() == before

    def test_blas_controls_are_looked_up_once(self, monkeypatch):
        # the OpenBLAS copies are loaded with the package, so sweeps read the
        # process memory map for their thread controls at most once
        reads = []

        def logged_open(path, *args, **kwargs):
            reads.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(bench, "open", logged_open, raising=False)
        tiny = dataclasses.replace(TINY, trials=1, s_values=(3,))
        assert run_recovery_sweep(tiny) == run_recovery_sweep(tiny)
        assert reads.count("/proc/self/maps") <= 1

    def test_each_openblas_with_thread_controls_names_its_core(self):
        # the core names the CI log prints: one per OpenBLAS copy that the
        # sweeps pin to one thread
        cores = bench._openblas_cores()
        assert len(cores) == len(bench._blas_thread_controls())
        assert all(path and name for path, name in cores)

    def test_single_trial_rate_binary(self):
        import dataclasses

        cfg = dataclasses.replace(TINY, trials=1, s_values=(3,))
        res = run_recovery_sweep(cfg)
        for rates in res.recovery_rate_per_algorithm.values():
            assert rates[0] in (0.0, 1.0)

    def test_multi_budget_keys(self):
        import dataclasses

        cfg = dataclasses.replace(TINY, rw_iters=(0, 2), s_values=(3,), trials=2)
        res = run_recovery_sweep(cfg)
        assert set(res.recovery_rate_per_algorithm) == {
            "l1",
            "rw-sub-rw0",
            "rw-sub-rw2",
            "rw-cwb-rw0",
            "rw-cwb-rw2",
        }

    def test_duplicate_instances_fail_the_pairing_check(self, monkeypatch):
        # a generator that ignores the seed gives both trials of an s the
        # same instance, which the sweep's pairing check refuses
        gen = bench.gen_noiseless
        monkeypatch.setattr(
            bench, "gen_noiseless", lambda spec: gen(dataclasses.replace(spec, seed=0))
        )
        cfg = dataclasses.replace(TINY, trials=2, s_values=(3,))
        with pytest.raises(AssertionError, match="paired trials produced duplicate instances"):
            run_recovery_sweep(cfg)

    def test_single_trial_sweep_does_not_hash_its_instances(self, monkeypatch):
        # with one trial per s the pairing check cannot fail, so no
        # instance is hashed for it
        def refuse(self):
            raise RuntimeError("content_digest called")

        monkeypatch.setattr(ProblemInstance, "content_digest", refuse)
        res = run_recovery_sweep(dataclasses.replace(TINY, trials=1))
        assert set(res.recovery_rate_per_algorithm) == {"l1", "rw-sub", "rw-cwb"}

    def test_solver_failure_counts_as_miss(self, monkeypatch, caplog):
        def boom(name, instance, cfg):
            raise RuntimeError("inner solver exploded")

        monkeypatch.setattr(bench, "run_algorithm", boom)
        with caplog.at_level("WARNING", logger="rwsparse.bench"):
            res = run_recovery_sweep(TINY)
        assert all(r == 0.0 for rates in res.recovery_rate_per_algorithm.values() for r in rates)
        assert "exploded" in caplog.text

    @pytest.mark.parametrize(
        "sweep",
        [lambda: run_recovery_sweep(TINY), lambda: run_noisy_improvement(NOISY_TINY, sigma=0.02)],
        ids=["recovery", "noisy"],
    )
    def test_programming_error_propagates(self, monkeypatch, sweep):
        # a solver failure is a non-recovery; a bug in the program is not
        def broken(name, instance, cfg):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(bench, "run_algorithm", broken)
        with pytest.raises(TypeError, match="unsupported operand"):
            sweep()


class TestNoisyImprovement:
    def test_shapes_and_alignment(self):
        res = run_noisy_improvement(NOISY_TINY, sigma=0.02)
        assert set(res.improvements) == {"rw-lasso", "cwb-noisy"}
        for pcts in res.improvements.values():
            assert len(pcts) == NOISY_TINY.trials
        stats = improvement_stats(res)
        for mean, std in stats.values():
            assert math.isfinite(mean) and math.isfinite(std)

    def test_deterministic(self):
        a = run_noisy_improvement(NOISY_TINY, sigma=0.02)
        b = run_noisy_improvement(NOISY_TINY, sigma=0.02)
        assert a == b

    def test_requires_single_sparsity(self):
        import dataclasses

        cfg = dataclasses.replace(NOISY_TINY, s_values=(3, 5))
        with pytest.raises(ConfigurationError):
            run_noisy_improvement(cfg, sigma=0.02)

    def test_requires_positive_sigma(self):
        with pytest.raises(ConfigurationError):
            run_noisy_improvement(NOISY_TINY, sigma=0.0)

    def test_rejects_noiseless_algorithms(self):
        import dataclasses

        cfg = dataclasses.replace(NOISY_TINY, algorithms=("rw-sub",))
        with pytest.raises(ConfigurationError):
            run_noisy_improvement(cfg, sigma=0.02)

    @pytest.mark.parametrize("algorithms", [("l1",), ()])
    def test_requires_a_noisy_algorithm(self, algorithms):
        # l1 is the baseline, not a column: nothing would be compared
        cfg = dataclasses.replace(NOISY_TINY, algorithms=algorithms)
        with pytest.raises(ConfigurationError, match="must name one of .'rw-lasso', 'cwb-noisy'."):
            run_noisy_improvement(cfg, sigma=0.02)

    def test_baseline_is_the_shared_cwb_noisy_start(self, monkeypatch):
        # the l1 baseline and cwb-noisy's unit-weight start are one
        # constrained solve: 1 start + 4 re-solves, not 1 + (1 + 4)
        calls = []
        for module in (bench, reweight):
            solve = module.constrained_weighted_l1

            def counted(*args, _solve=solve, **kwargs):
                calls.append(args)
                return _solve(*args, **kwargs)

            monkeypatch.setattr(module, "constrained_weighted_l1", counted)
        cfg = dataclasses.replace(NOISY_TINY, trials=1)
        res = run_noisy_improvement(cfg, sigma=0.02)
        assert len(calls) == 1 + SolverConfig().rw_iter
        assert all(math.isfinite(p) for pcts in res.improvements.values() for p in pcts)

    def test_degenerate_baseline_skipped_and_logged(self, monkeypatch, caplog):
        def fake_improvement(x_rw, x_l1, x_star):
            raise DegenerateBaselineError("baseline hit ground truth")

        monkeypatch.setattr(bench, "improvement", fake_improvement)
        with caplog.at_level("WARNING", logger="rwsparse.bench"):
            res = run_noisy_improvement(NOISY_TINY, sigma=0.02)
        assert all(math.isnan(p) for pcts in res.improvements.values() for p in pcts)
        assert "skipped" in caplog.text


class TestEmitCsv:
    def test_csv_roundtrip(self, tmp_path):
        res = SweepResult(
            sparsity_levels=[10, 20],
            recovery_rate_per_algorithm={"l1": [1.0, 0.5], "rw-sub": [1.0, 0.75]},
            trials=4,
            seeds=[0, 1, 2, 3],
        )
        path = tmp_path / "rates.csv"
        emit_csv(res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "algorithm,s,trials,recovered,rate"
        assert len(lines) == 5
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        rates = {}
        for row in rows:
            rates.setdefault(row["algorithm"], []).append(float(row["rate"]))
        assert rates == res.recovery_rate_per_algorithm
        assert list(dict.fromkeys(int(row["s"]) for row in rows)) == res.sparsity_levels

    def test_sweep_csv(self, tmp_path):
        res = run_recovery_sweep(TINY)
        path = tmp_path / "sweep.csv"
        emit_csv(res, path)
        rates = {}
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                rates.setdefault(row["algorithm"], []).append(float(row["rate"]))
        assert rates == res.recovery_rate_per_algorithm

    def test_improvement_csv_row_count(self, tmp_path):
        res = run_noisy_improvement(NOISY_TINY, sigma=0.02)
        path = tmp_path / "imp.csv"
        emit_csv(res, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["algo", "seed", "improvement_pct"]
        assert len(rows) == 1 + 2 * NOISY_TINY.trials

    def test_empty_result_header_only(self, tmp_path):
        res = SweepResult(sparsity_levels=[5], recovery_rate_per_algorithm={}, trials=1, seeds=[0])
        path = tmp_path / "empty.csv"
        emit_csv(res, path)
        assert path.read_text().splitlines() == ["algorithm,s,trials,recovered,rate"]

    def test_unwritable_path_raises_with_context(self, tmp_path):
        res = SweepResult(sparsity_levels=[5], recovery_rate_per_algorithm={}, trials=1, seeds=[0])
        with pytest.raises(OSError, match="no/such"):
            emit_csv(res, tmp_path / "no" / "such" / "dir.csv")

    @pytest.mark.parametrize("write", ["trace_to_csv", "inner_trace_to_csv"])
    def test_the_trace_writers_name_an_unwritable_path(self, tmp_path, write):
        # the trace formats go through emit_csv's writer, which names the path
        _, trace = reweight.run_algorithm("l1", gen_noiseless(EnsembleSpec(n=12, m=6, s=2)))
        path = tmp_path / "no" / "such" / "trace.csv"
        with pytest.raises(OSError, match=f"cannot write results to {path}"):
            getattr(bench, write)(trace, path)


def _failure_counter(monkeypatch):
    """perfbench's FailureCounter, loaded unchanged from perfbench/run.py:
    it turns the benchmarks' warning lines into per-algorithm failure
    counts and the skipped-trial count of its success_frac."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    # the module's dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.FailureCounter()


class TestFailureLines:
    def test_each_failure_is_counted_once_per_algorithm(self, monkeypatch, tmp_path):
        # rw-lasso and rw-sub always fail, and so does the l1 baseline of
        # noisy seed 1, which then solves neither noisy algorithm
        bad_baseline = gen_noisy(EnsembleSpec(n=32, m=16, s=4, sigma=0.02, seed=1)).content_digest()
        run = bench.run_algorithm

        def failing(name, instance, cfg):
            if name in ("rw-lasso", "rw-sub") or (
                name == "l1" and instance.content_digest() == bad_baseline
            ):
                raise solvers.NoConvergenceError(f"{name} did not converge")
            return run(name, instance, cfg)

        monkeypatch.setattr(bench, "run_algorithm", failing)
        counter = _failure_counter(monkeypatch)
        log = logging.getLogger("rwsparse.bench")
        log.addHandler(counter)
        try:
            noisy = run_noisy_improvement(
                dataclasses.replace(NOISY_TINY, base_seed=0), sigma=0.02
            )
            sweep = run_recovery_sweep(
                dataclasses.replace(TINY, algorithms=("l1", "rw-sub"), s_values=(3,), trials=2)
            )
        finally:
            log.removeHandler(counter)
        assert counter.failures == {"rw-lasso": 2, "l1": 1, "rw-sub": 2}
        assert counter.skipped == 0
        assert all(math.isnan(p) for p in noisy.improvements["rw-lasso"])
        assert [math.isnan(p) for p in noisy.improvements["cwb-noisy"]] == [False, True, False]
        # l1 is listed and is the reference: one key, so one row
        assert sweep.recovery_rate_per_algorithm["rw-sub"] == [0.0]
        path = tmp_path / "sweep.csv"
        emit_csv(sweep, path)
        with open(path, newline="") as fh:
            assert [row["algorithm"] for row in csv.DictReader(fh)] == ["l1", "rw-sub"]


def _fig1_panel():
    """(instance, algorithm, config) of the Fig-1 panel in (s, seed,
    algorithm) order: n=256, m=100, s in 20..50, seeds 0-3, l1 and the two
    basis pursuit reweightings at rw_iter=2."""
    for s in (20, 30, 40, 50):
        for seed in range(4):
            inst = gen_noiseless(EnsembleSpec(n=256, m=100, s=s, seed=seed))
            for algo in ("l1", "rw-sub", "rw-cwb"):
                yield inst, algo, SolverConfig(rw_iter=2)


def _noisy_panel():
    """The noisy improvement panel: n=256, m=128, s=38, sigma=0.05, seeds
    0-23, the constrained l1 baseline and the two noisy reweightings."""
    for seed in range(24):
        inst = gen_noisy(EnsembleSpec(n=256, m=128, s=38, sigma=0.05, seed=seed))
        for algo in ("l1", "rw-lasso", "cwb-noisy"):
            yield inst, algo, SolverConfig()


class TestFinalIterateDigests:
    @pytest.mark.parametrize(
        "panel, digest, breakpoints",
        [(_fig1_panel, "9b921adde28f322b", 5078), (_noisy_panel, "183d7d3c20909088", 4141)],
        ids=["fig1", "noisy"],
    )
    def test_panel_iterates_keep_their_bits(self, monkeypatch, panel, digest, breakpoints):
        # the SHA-256 of every run's final iterate, in panel order, and the
        # path breakpoints walked: a solver change that claims to keep the
        # answers keeps both. The panel runs as a sweep does, under one BLAS
        # thread (bench._map_ordered); the bits hold only under that pinning
        walked = []
        path = solvers._path

        def counted(*args, **kwargs):
            found = path(*args, **kwargs)
            walked.append(0 if found is None else found[2])
            return found

        def run(_):
            h = hashlib.sha256()
            for inst, algo, cfg in panel():
                h.update(reweight.run_algorithm(algo, inst, cfg)[0].tobytes())
            return h.hexdigest()[:16]

        monkeypatch.setattr(solvers, "_path", counted)
        assert bench._map_ordered(run, [None], 1) == [digest]
        assert sum(walked) == breakpoints

    @pytest.mark.parametrize(
        "panel, digest",
        [(_fig1_panel, "68b908d1d1bd32fe"), (_noisy_panel, "fc616e5ca2c27e85")],
        ids=["fig1", "noisy"],
    )
    def test_panel_reports_keep_their_bits(self, monkeypatch, panel, digest):
        # the SHA-256 of every field of every inner report the panel's runs
        # make, in call order: x, iterations, primal_residual, objective,
        # exit, degenerate, multiplier and lasso_point. The re-solve rules
        # look the solvers up in reweight's globals, so wrappers there see
        # every solve; scalars are hashed by their repr, exact for floats
        h = hashlib.sha256()

        def hashed(solve):
            def wrapper(*args, **kwargs):
                report = solve(*args, **kwargs)
                lasso = report.lasso_point
                fields = (
                    int(report.iterations),
                    float(report.primal_residual),
                    float(report.objective),
                    report.exit,
                    bool(report.degenerate),
                    float(report.multiplier),
                    None if lasso is None else float(lasso[1]),
                )
                h.update(report.x.tobytes() + repr(fields).encode())
                if lasso is not None:
                    h.update(lasso[0].tobytes())
                return report

            return wrapper

        for name in ("weighted_basis_pursuit", "weighted_lasso_fista", "constrained_weighted_l1"):
            monkeypatch.setattr(reweight, name, hashed(getattr(reweight, name)))

        def run(_):
            for inst, algo, cfg in panel():
                reweight.run_algorithm(algo, inst, cfg)
            return h.hexdigest()[:16]

        assert bench._map_ordered(run, [None], 1) == [digest]
