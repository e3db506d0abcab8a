import csv
import dataclasses
import math

import numpy as np
import pytest

import rwsparse.bench as bench
import rwsparse.reweight as reweight
from rwsparse.bench import (
    SweepConfig,
    emit_csv,
    improvement_stats,
    run_noisy_improvement,
    run_recovery_sweep,
)
from rwsparse.model import ConfigurationError, DegenerateBaselineError, SolverConfig, SweepResult

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

    def test_single_trial_rate_binary(self):
        import dataclasses

        cfg = dataclasses.replace(TINY, trials=1, s_values=(3,))
        res = run_recovery_sweep(cfg)
        for rates in res.recovery_rate_per_algorithm.values():
            assert rates[0] in (0.0, 1.0)

    def test_rates_monotone_in_recovery_tol(self):
        loose = run_recovery_sweep(TINY, SolverConfig(recovery_tol=1e-2))
        tight = run_recovery_sweep(TINY, SolverConfig(recovery_tol=1e-3))
        for name, rates in tight.recovery_rate_per_algorithm.items():
            for r_tight, r_loose in zip(rates, loose.recovery_rate_per_algorithm[name]):
                assert r_loose >= r_tight

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

    def test_solver_failure_counts_as_miss(self, monkeypatch, caplog):
        def boom(name, instance, cfg):
            raise RuntimeError("inner solver exploded")

        monkeypatch.setattr(bench, "run_algorithm", boom)
        with caplog.at_level("WARNING", logger="rwsparse.bench"):
            res = run_recovery_sweep(TINY)
        assert all(r == 0.0 for rates in res.recovery_rate_per_algorithm.values() for r in rates)
        assert "exploded" in caplog.text


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
