import csv
import dataclasses
import gc
import inspect
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

import rwsparse.reweight as reweight
import rwsparse.solvers as solvers
from rwsparse.duality import (
    polyak_step_nonoracle,
    polyak_step_oracle,
    subgradient_nonoracle,
)
from rwsparse.model import (
    ConfigurationError,
    OracleRequiredError,
    ProblemInstance,
    SolverConfig,
    l0_norm,
    l0_reporting_tol,
    recovered,
)
from rwsparse.probgen import EnsembleSpec, gen_noiseless, gen_noisy
from rwsparse.reweight import (
    ALGORITHMS,
    cwb_rw_l1,
    cwb_rw_l1_noisy,
    inner_trace_to_csv,
    l1_baseline,
    run_algorithm,
    rw_l1_oracle,
    rw_l1_subgradient,
    rw_lasso_subgradient,
    trace_to_csv,
)
from rwsparse.solvers import RankDeficientError, constrained_weighted_l1, weighted_basis_pursuit

CFG = SolverConfig()


def _exact_instance():
    """Instance whose l1 minimizer is hit exactly: x = (3, 4, 0)."""
    phi = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    x = np.array([3.0, 4.0, 0.0])
    return ProblemInstance(phi=phi, b=phi @ x, x_star=x)


class TestOracleAlgorithm:
    @pytest.mark.parametrize("algo", ["l1", "oracle", "rw-sub", "rw-cwb"])
    def test_zero_budget_is_plain_l1(self, algo):
        # every noiseless algorithm starts from the same unit-weight solve
        inst = gen_noiseless(EnsembleSpec(n=24, m=12, s=3, seed=0))
        x, trace = run_algorithm(algo, inst, SolverConfig(rw_iter=0))
        plain = weighted_basis_pursuit(inst, np.ones(24))
        assert np.array_equal(x, plain.x)
        assert len(trace.rows) == 1
        assert trace.rows[-1].k == 0

    def test_early_exit_on_zero_subgradient(self):
        x, trace = rw_l1_oracle(_exact_instance(), SolverConfig(rw_iter=5))
        assert trace.exit_reason == "zero_subgradient"
        assert len(trace.rows) == 1
        assert np.array_equal(x, [3.0, 4.0, 0.0])

    def test_requires_ground_truth(self):
        inst = ProblemInstance(phi=np.array([[1.0, 1.0]]), b=np.array([1.0]))
        with pytest.raises(OracleRequiredError):
            rw_l1_oracle(inst, CFG)

    def test_zero_step_ends_run(self, inner_solves):
        # the zero-target step clamps to zero at k = 3: the weights cannot
        # move, so the run stops instead of re-solving the same problem
        inst = gen_noiseless(EnsembleSpec(n=64, m=32, s=10, seed=7))
        x, trace = rw_l1_oracle(inst, SolverConfig(rw_iter=3))
        assert trace.exit_reason == "zero_step"
        assert len(trace.rows) == len(inner_solves) == 3
        assert all(row.alpha > 0.0 for row in trace.rows[1:])
        assert trace.rows[-1].k == 2 and np.array_equal(inner_solves[-1][2], x)
        assert polyak_step_oracle(trace.w, x, inst.x_star) == 0.0

    def test_small_ensemble_recovery(self):
        # the zero-target step often lands exactly on the dual optimal set
        # after one move and then parks on a tie face whose returned vertex
        # need not be the ground truth, so recovery saturates on this
        # ensemble (77 of 100 here; it does not improve with a larger budget)
        hits = 0
        for seed in range(100):
            inst = gen_noiseless(EnsembleSpec(n=20, m=10, s=4, seed=seed))
            x, _ = rw_l1_oracle(inst, SolverConfig(rw_iter=4))
            hits += recovered(x, inst.x_star)
        assert hits >= 68

    def test_criterion_5_outcomes_per_seed(self):
        # the l0 and exit of each of criterion 5's 100 oracle runs (n=12,
        # m=8, s=1..3, rw_iter=4), pinned, so that a change that moves a
        # seed names it; the criterion itself counts only the l0 matches,
        # and needs 95. Its three misses (seeds 38, 65, 95) end on an
        # 8-coordinate vertex of a tied optimal face, and which vertex basis
        # pursuit returns there depends on rounding (applying the support
        # QR's Q from its reflectors moved seeds 83 and 98 onto x*). Like the final-iterate
        # digests, the pins hold on the BLAS kernels and SIMD paths they were
        # recorded on (CI prints its dispatch before the tests); another
        # dispatch may move a seed
        path = Path(__file__).parent / "data" / "criterion5_oracle_outcomes.json"
        pinned = json.loads(path.read_text())
        moved = []
        for rec in pinned:
            inst = gen_noiseless(EnsembleSpec(n=12, m=8, s=rec["s"], seed=rec["seed"]))
            x, trace = rw_l1_oracle(inst, SolverConfig(rw_iter=4))
            got = {**rec, "l0": l0_norm(x, l0_reporting_tol(x)), "exit": trace.exit_reason}
            if got != rec:
                moved.append((rec, got))
        assert len(pinned) == 100 and sum(rec["exit"] != "zero_subgradient" for rec in pinned) == 3
        assert not moved, f"seeds moved (pinned, now): {moved}"

    def test_exit_does_not_depend_on_the_last_bits_of_the_start(self, monkeypatch):
        # the start recovers x* to rounding error, so its supergradient
        # counts as zero: a Polyak step over it, about 1e15, would set the
        # next weights, and so the exit, from the start's last bits. Row 0's
        # l_inf error is measured on the shifted start itself
        bp = reweight.weighted_basis_pursuit
        runs = []
        for ulps in (0, 1):
            def solve(instance, w, warm, _ulps=ulps):
                rep = bp(instance, w, warm)
                if _ulps and warm is None:
                    rep = dataclasses.replace(rep, x=np.nextafter(rep.x, np.inf))
                return rep

            monkeypatch.setattr(reweight, "weighted_basis_pursuit", solve)
            inst = gen_noiseless(EnsembleSpec(n=256, m=100, s=30, seed=2))
            runs.append(rw_l1_oracle(inst, SolverConfig(rw_iter=2))[1])
        plain, shifted = runs
        assert plain.exit_reason == shifted.exit_reason == "zero_subgradient"
        assert len(plain.rows) == len(shifted.rows) == 1
        ulp = np.finfo(float).eps * np.max(np.abs(inst.x_star))
        for a, b in zip(plain.rows, shifted.rows):
            a, b = dataclasses.asdict(a), dataclasses.asdict(b)
            assert abs(a.pop("linf_err") - b.pop("linf_err")) <= ulp
            assert a == b

    def test_weights_stay_nonnegative(self, inner_solves):
        inst = gen_noiseless(EnsembleSpec(n=24, m=12, s=4, seed=5))
        _, trace = rw_l1_oracle(inst, SolverConfig(rw_iter=3))
        assert all(np.all(w >= 0.0) for w, _, _ in inner_solves)
        assert np.all(trace.w >= 0.0)


class TestSubgradientAlgorithm:
    def test_zero_budget_is_plain_l1(self):
        inst = gen_noiseless(EnsembleSpec(n=24, m=12, s=3, seed=1))
        x, trace = rw_l1_subgradient(inst, SolverConfig(rw_iter=0))
        plain = weighted_basis_pursuit(inst, np.ones(24))
        assert np.array_equal(x, plain.x)

    def test_eps_invariance_of_final_iterate(self):
        for seed in (0, 3):
            inst = gen_noiseless(EnsembleSpec(n=40, m=20, s=6, seed=seed))
            x1, _ = rw_l1_subgradient(inst, SolverConfig(rw_iter=3, eps_k=1.0))
            x7, _ = rw_l1_subgradient(inst, SolverConfig(rw_iter=3, eps_k=7.0))
            assert np.max(np.abs(x1 - x7)) <= 1e-9

    def test_weight_update_matches_direct_formula(self):
        # before projection: w - (||W x||_1 / ||x||_2^2) |x|
        rng = np.random.default_rng(8)
        for _ in range(20):
            w = rng.uniform(0.0, 3.0, size=12)
            x = rng.standard_normal(12)
            eps = float(rng.uniform(0.1, 5.0))
            alpha = polyak_step_nonoracle(w, x, eps)
            two_step = w + alpha * subgradient_nonoracle(x, eps)
            direct = w - (w @ np.abs(x) / (x @ x)) * np.abs(x)
            assert np.allclose(two_step, direct, rtol=1e-12, atol=1e-12 * (1 + np.max(w)))

    def test_zero_iterate_early_exit(self):
        phi = np.array([[1.0, 1.0, 0.0]])
        inst = ProblemInstance(phi=phi, b=np.array([0.0]))
        x, trace = rw_l1_subgradient(inst, SolverConfig(rw_iter=3))
        assert trace.exit_reason == "zero_iterate"
        assert np.all(x == 0.0)

    def test_paired_recovery_dominates_l1(self):
        wins = ties = losses = 0
        cfg = SolverConfig(rw_iter=2)
        for seed in range(15):
            inst = gen_noiseless(EnsembleSpec(n=64, m=32, s=10, seed=seed))
            x_l1, _ = l1_baseline(inst, cfg)
            x_rw, _ = rw_l1_subgradient(inst, cfg)
            r_l1 = recovered(x_l1, inst.x_star)
            r_rw = recovered(x_rw, inst.x_star)
            wins += r_rw and not r_l1
            losses += r_l1 and not r_rw
        assert wins >= losses


class TestCwbAlgorithm:
    def test_weight_formula_zero_iterate(self):
        phi = np.array([[1.0, 1.0, 0.0]])
        inst = ProblemInstance(phi=phi, b=np.array([0.0]))
        _, trace = cwb_rw_l1(inst, SolverConfig(rw_iter=1))
        assert np.allclose(trace.w, 10.0 * np.ones(3))

    def test_weight_formula_exact_magnitudes(self):
        _, trace = cwb_rw_l1(_exact_instance(), SolverConfig(rw_iter=1))
        assert np.allclose(trace.w, [1 / 3.1, 1 / 4.1, 10.0])

    def test_unit_magnitude_weight(self):
        phi = np.array([[1.0, 0.0, 0.0]])
        x = np.array([0.9, 0.0, 0.0])
        inst = ProblemInstance(phi=phi, b=phi @ x, x_star=x)
        _, trace = cwb_rw_l1(inst, SolverConfig(rw_iter=1))
        assert trace.w[0] == pytest.approx(1.0)

    def test_eps_schedule_override(self):
        _, trace = cwb_rw_l1(_exact_instance(), SolverConfig(rw_iter=1, eps_k=0.5))
        assert np.allclose(trace.w, [1 / 3.5, 1 / 4.5, 2.0])

    def test_comparable_to_subgradient_single_iteration(self):
        # one reweighting pass: both algorithms land within 10 points
        cfg = SolverConfig(rw_iter=1)
        rates = {"rw-sub": 0, "rw-cwb": 0}
        seeds = range(25)
        for s in (30, 40):
            for seed in seeds:
                inst = gen_noiseless(EnsembleSpec(n=256, m=100, s=s, seed=seed))
                for name in rates:
                    x, _ = run_algorithm(name, inst, cfg)
                    rates[name] += recovered(x, inst.x_star)
        total = 2 * len(seeds)
        diff = abs(rates["rw-sub"] - rates["rw-cwb"]) / total
        assert diff <= 0.10


class TestRwLasso:
    def test_zero_budget_is_plain_weighted_lasso(self):
        inst = gen_noisy(EnsembleSpec(n=24, m=12, s=3, sigma=0.02, seed=2))
        x, trace = rw_lasso_subgradient(inst, SolverConfig(rw_iter=0))
        from rwsparse.solvers import min_l2_solution, weighted_lasso_fista

        lam0 = inst.n / np.abs(min_l2_solution(inst)).sum()
        plain = weighted_lasso_fista(inst, np.ones(24), lam0)
        assert np.allclose(x, plain.x, atol=1e-10)
        assert trace.lam == pytest.approx(lam0)

    def test_requires_eta(self):
        inst = gen_noiseless(EnsembleSpec(n=24, m=12, s=3, seed=2))
        with pytest.raises(ConfigurationError):
            rw_lasso_subgradient(inst, CFG)

    @pytest.mark.parametrize("eta", [0.0, 0.1])
    def test_zero_observation_rejected(self, eta):
        # b = 0 makes the minimum-l2 solution z zero, so n / ||z||_1 has no value
        phi = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        inst = ProblemInstance(phi=phi, b=np.zeros(2), eta=eta)
        with pytest.raises(ConfigurationError, match="b != 0"):
            rw_lasso_subgradient(inst, CFG)

    def test_residual_decreases_on_zero_budget_embedding(self):
        # noiseless system declared noisy with a zero budget: the data-fit
        # multiplier ascends and the residual shrinks across iterations
        # (determinism makes the budget-k run return the k-th iterate)
        base = gen_noiseless(EnsembleSpec(n=32, m=16, s=4, seed=5))
        inst = ProblemInstance(phi=base.phi, b=base.b, x_star=base.x_star, eta=0.0, seed=5)
        residuals = []
        for budget in range(5):
            x, _ = rw_lasso_subgradient(inst, SolverConfig(rw_iter=budget))
            residuals.append(np.linalg.norm(inst.phi @ x - inst.b))
        assert all(later <= earlier + 1e-12 for earlier, later in zip(residuals, residuals[1:]))

    def test_lambda_stays_nonnegative(self):
        inst = gen_noisy(EnsembleSpec(n=24, m=12, s=3, sigma=0.05, seed=3))
        _, trace = rw_lasso_subgradient(inst, SolverConfig(rw_iter=4))
        assert trace.lam >= 0.0


class TestCwbNoisy:
    def test_zero_budget_is_constrained_baseline(self):
        inst = gen_noisy(EnsembleSpec(n=24, m=12, s=3, sigma=0.02, seed=5))
        x, _ = cwb_rw_l1_noisy(inst, SolverConfig(rw_iter=0))
        base = constrained_weighted_l1(inst, np.ones(24), inst.eta)
        assert np.array_equal(x, base.x)

    def test_huge_budget_keeps_zero(self):
        phi = np.array([[1.0, 1.0, 0.0]])
        inst = ProblemInstance(phi=phi, b=np.array([1.0]), eta=5.0)
        x, trace = cwb_rw_l1_noisy(inst, SolverConfig(rw_iter=3))
        assert np.all(x == 0.0)
        assert all(row.l0 == 0 for row in trace.rows)

    def test_requires_eta(self):
        inst = gen_noiseless(EnsembleSpec(n=24, m=12, s=3, seed=6))
        with pytest.raises(ConfigurationError):
            cwb_rw_l1_noisy(inst, CFG)


class TestRegistryAndTraces:
    def test_unknown_algorithm(self):
        inst = _exact_instance()
        with pytest.raises(ConfigurationError):
            run_algorithm("does-not-exist", inst, CFG)

    def test_l1_baseline_dispatch(self):
        noisy = gen_noisy(EnsembleSpec(n=24, m=12, s=3, sigma=0.02, seed=7))
        x, trace = l1_baseline(noisy, CFG)
        base = constrained_weighted_l1(noisy, np.ones(24), noisy.eta)
        assert np.array_equal(x, base.x)
        assert trace.algo == "l1"

    def test_a_trace_stores_each_quantity_once(self):
        # the run returns its iterate and the last row holds its k and
        # stepsize, so the trace adds only the final multipliers
        fields = [f.name for f in dataclasses.fields(reweight.RwTrace)]
        assert fields == ["algo", "seed", "rows", "exit_reason", "w", "lam"]
        assert [f.name for f in dataclasses.fields(reweight.RwTraceRow)] == [
            "k", "alpha", "objective", "l0", "linf_err", "inner_iterations", "residual"]

    def test_trace_length_bound(self):
        inst = gen_noiseless(EnsembleSpec(n=24, m=12, s=3, seed=8))
        for budget in (0, 1, 3):
            _, trace = cwb_rw_l1(inst, SolverConfig(rw_iter=budget))
            assert len(trace.rows) <= budget + 1

    def test_trace_csv_schema(self, tmp_path):
        inst = gen_noiseless(EnsembleSpec(n=24, m=12, s=3, seed=9))
        _, trace = rw_l1_subgradient(inst, SolverConfig(rw_iter=2))
        outer = tmp_path / "trace.csv"
        inner = tmp_path / "trace_inner.csv"
        trace_to_csv(trace, outer)
        inner_trace_to_csv(trace, inner)
        with open(outer, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["algo", "seed", "k", "alpha", "obj", "l0", "linf_err"]
        assert len(rows) == 1 + len(trace.rows)
        assert rows[1][0] == "rw-sub" and rows[1][1] == "9"
        with open(inner, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "inner_iters", "objective", "residual"]
        assert len(rows) == 1 + len(trace.rows)

    def test_warm_restart_chain_matches_cold_objectives(self):
        # re-solving at the final weights from scratch reproduces the
        # final inner objective
        for seed in range(5):
            inst = gen_noiseless(EnsembleSpec(n=32, m=16, s=4, seed=seed))
            _, trace = rw_l1_subgradient(inst, SolverConfig(rw_iter=2))
            w_final = trace.w
            cold = weighted_basis_pursuit(inst, w_final)
            warm_obj = trace.rows[-1].objective
            assert abs(cold.objective - warm_obj) <= 10 * solvers._INNER_TOL * (1 + abs(warm_obj))


def _same(a, b):
    """Exact equality, with NaN equal to NaN."""
    return a == b or (a != a and b != b)


@pytest.fixture()
def inner_solves(monkeypatch):
    """Log (w, lam, x) of every inner solve an outer run makes, through the
    module globals the outer loop calls the solvers by."""
    log = []

    def logged(fn):
        sig = inspect.signature(fn)

        def solve(*args, **kwargs):
            report = fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs).arguments
            log.append((np.array(bound["w"]), bound.get("lam"), report.x))
            return report

        return solve

    for name in ("weighted_basis_pursuit", "weighted_lasso_fista", "constrained_weighted_l1"):
        monkeypatch.setattr(reweight, name, logged(getattr(reweight, name)))
    return log


_PREFIX_INSTANCES = {
    "noiseless": lambda: gen_noiseless(EnsembleSpec(n=32, m=16, s=5, seed=11)),
    "noisy": lambda: gen_noisy(EnsembleSpec(n=32, m=16, s=4, sigma=0.05, seed=11)),
    "exact": _exact_instance,  # oracle: zero subgradient at k = 1
    "zero-b": lambda: ProblemInstance(phi=np.array([[1.0, 1.0, 0.0]]), b=np.array([0.0])),
    "zero-step": lambda: gen_noiseless(EnsembleSpec(n=64, m=32, s=10, seed=7)),  # oracle at k = 3
}


class TestBudgetPrefixes:
    @pytest.mark.parametrize(
        "algo,kind",
        [(algo, "noiseless") for algo in ("l1", "oracle", "rw-sub", "rw-cwb")]
        + [(algo, "noisy") for algo in sorted(ALGORITHMS)]
        + [("oracle", "exact"), ("rw-sub", "zero-b"), ("oracle", "zero-step")],
    )
    def test_smaller_budget_is_prefix_of_largest(self, algo, kind, inner_solves):
        # a run at budget r makes exactly the first solves of the run at
        # budget 3: same rows, iterate, weights, multiplier and solve count
        # (each run gets a fresh copy of the instance, so that none of them
        # reuses another's unit-weight start)
        _, full = run_algorithm(algo, _PREFIX_INSTANCES[kind](), SolverConfig(rw_iter=3))
        states = list(inner_solves)
        assert len(states) == len(full.rows)
        for r in range(3):
            inner_solves.clear()
            x, trace = run_algorithm(algo, _PREFIX_INSTANCES[kind](), SolverConfig(rw_iter=r))
            n_rows = min(r + 1, len(full.rows))
            assert len(trace.rows) == len(inner_solves) == n_rows
            for row, ref in zip(trace.rows, full.rows):
                assert all(_same(a, b) for a, b in zip(vars(row).values(), vars(ref).values()))
            w, lam, x_r = states[n_rows - 1]
            assert np.array_equal(x, x_r)
            assert np.array_equal(trace.w, w)
            assert np.array_equal(trace.lam, lam)
            assert trace.rows[-1].k == n_rows - 1
            assert trace.exit_reason == (full.exit_reason if r >= len(full.rows) else "budget")


def _small_instance():
    return gen_noiseless(EnsembleSpec(n=64, m=32, s=10, seed=0))


def _assert_same_run(a, b):
    (x_a, tr_a), (x_b, tr_b) = a, b
    assert np.array_equal(x_a, x_b)
    assert tr_a.exit_reason == tr_b.exit_reason and len(tr_a.rows) == len(tr_b.rows)
    for row, ref in zip(tr_a.rows, tr_b.rows):
        assert all(_same(u, v) for u, v in zip(vars(row).values(), vars(ref).values()))
    assert np.array_equal(tr_a.w, tr_b.w) and np.array_equal(tr_a.lam, tr_b.lam)


_FIG1_RUNS = (("l1", 0), ("rw-sub", 2), ("rw-cwb", 2))


@pytest.fixture()
def bp_calls(monkeypatch):
    """Arguments of every basis pursuit solve the outer loop makes."""
    calls = []
    bp = reweight.weighted_basis_pursuit

    def counted(*args, **kwargs):
        calls.append(args)
        return bp(*args, **kwargs)

    monkeypatch.setattr(reweight, "weighted_basis_pursuit", counted)
    return calls


class TestSharedStart:
    def test_one_start_solve_per_instance(self, bp_calls):
        # l1, rw-sub and rw-cwb on one instance share the unit-weight solve:
        # 1 + 2 + 2 solves instead of 1 + 3 + 3, with unchanged results
        inst = _small_instance()
        shared = [run_algorithm(a, inst, SolverConfig(rw_iter=r)) for a, r in _FIG1_RUNS]
        assert len(bp_calls) == 5
        for (algo, r), run in zip(_FIG1_RUNS, shared):
            _assert_same_run(run, run_algorithm(algo, _small_instance(), SolverConfig(rw_iter=r)))

    def test_outer_loop_settings_do_not_split_the_start(self, bp_calls):
        # eps only steers the updates
        inst = _small_instance()
        for eps_k in (None, 7.0):
            run_algorithm("rw-cwb", inst, SolverConfig(rw_iter=1, eps_k=eps_k))
        assert len(bp_calls) == 1 + 2  # the shared start and one re-solve per run

    def test_callers_cannot_change_the_shared_start(self):
        inst = _small_instance()
        x, _ = l1_baseline(inst, CFG)
        x += 1.0
        _assert_same_run(
            rw_l1_subgradient(inst, SolverConfig(rw_iter=2)),
            rw_l1_subgradient(_small_instance(), SolverConfig(rw_iter=2)),
        )


    def test_the_cache_lives_and_dies_with_its_instance(self, monkeypatch):
        # the instance's operator holds its start reports, and only the
        # instance keeps the operator: both go with it, and a new instance
        # of equal content makes its own start solve
        starts = []
        bp = reweight.weighted_basis_pursuit

        def counted(instance, w, warm):
            starts.append(warm is None)  # no reference to the instance
            return bp(instance, w, warm)

        monkeypatch.setattr(reweight, "weighted_basis_pursuit", counted)
        inst = _small_instance()
        for algo in ("l1", "rw-sub"):
            run_algorithm(algo, inst, SolverConfig(rw_iter=1))
        op = solvers._operator(inst)
        refs = [weakref.ref(op)] + [weakref.ref(rep) for rep in op.starts.values()]
        assert len(refs) == 2 and starts == [True, False]
        del inst, op
        gc.collect()
        assert all(ref() is None for ref in refs)
        run_algorithm("l1", _small_instance(), CFG)
        assert starts == [True, False, True]


def _noisy_panel_instance(seed):
    return gen_noisy(EnsembleSpec(n=256, m=128, s=38, sigma=0.05, seed=seed))


class TestNoisyStart:
    def test_rw_lasso_start_continues_the_constrained_start(self):
        # after l1, rw-lasso's unit-weight LASSO runs warm from l1's
        # constrained start: the same bits, fewer breakpoints
        for seed in range(3):
            x_cold, cold = run_algorithm("rw-lasso", _noisy_panel_instance(seed), SolverConfig(rw_iter=0))
            inst = _noisy_panel_instance(seed)
            run_algorithm("l1", inst, CFG)
            x_warm, warm = run_algorithm("rw-lasso", inst, SolverConfig(rw_iter=0))
            assert np.array_equal(x_warm, x_cold)
            assert warm.rows[0].inner_iterations < cold.rows[0].inner_iterations

    def test_final_iterates_do_not_depend_on_the_order_of_the_algorithms(self):
        # every certified noisy answer is a pure function of its support, so
        # rw-lasso's and cwb-noisy's final iterates keep their bits after the
        # other algorithms ran on the instance, whose path workspace and
        # cached starts their paths then begin from
        for seed in range(3):
            for algo in ("rw-lasso", "cwb-noisy"):
                fresh, _ = run_algorithm(algo, _noisy_panel_instance(seed), CFG)
                inst = _noisy_panel_instance(seed)
                for other in ("l1", "rw-lasso", "cwb-noisy"):
                    if other != algo:
                        run_algorithm(other, inst, CFG)
                after, _ = run_algorithm(algo, inst, CFG)
                assert after.tobytes() == fresh.tobytes()

    def test_standalone_rw_lasso_makes_no_constrained_solve(self, monkeypatch):
        monkeypatch.setattr(reweight, "constrained_weighted_l1", None)
        x, trace = run_algorithm("rw-lasso", _noisy_panel_instance(0), CFG)
        assert len(trace.rows) == CFG.rw_iter + 1 and np.any(x)

    def test_path_breakpoints_on_the_noisy_seeds(self):
        # a count, not a time: with one BLAS thread the breakpoints are
        # deterministic, and the bound (the count when the warm rw-lasso
        # start landed, 604, plus a small margin) fails if that start
        # silently walks from x = 0 again (705 breakpoints)
        total = 0
        for seed in range(3):
            inst = _noisy_panel_instance(seed)
            for algo in ("l1", "rw-lasso", "cwb-noisy"):
                _, trace = run_algorithm(algo, inst, CFG)
                total += sum(row.inner_iterations for row in trace.rows)
        assert total <= 620

    def test_start_inversions_on_the_noisy_seeds(self, monkeypatch):
        # a count: each warm LASSO path of these runs starts on the support
        # the path before it on the instance ended on, and continues from
        # that path's inverse Gram; the bound fails if warm starts border
        # their columns afresh again (a border made while the workspace
        # holds no support is a start's). Cold paths from no support have
        # no column to border
        borders = []
        border = solvers._border

        def counted(op, k, i, pad):
            if op.path_size is None:
                borders.append(i)
            return border(op, k, i, pad)

        monkeypatch.setattr(solvers, "_border", counted)
        for seed in range(3):
            inst = _noisy_panel_instance(seed)
            for algo in ("l1", "rw-lasso", "cwb-noisy"):
                run_algorithm(algo, inst, CFG)
        assert not borders


class TestFig1Counts:
    def test_bp_iterations_on_the_fig1_serial_panel(self, monkeypatch):
        # a count, not a time, over the benchmark's Fig-1 panel: 5 basis
        # pursuit solves per trial, all certified, and a bound on the path's
        # breakpoints (5 147 when basis pursuit moved onto the path, plus a
        # small margin), which a warm re-solve that walks from x = 0 again or
        # a path that certifies later exceeds. No warm path starts from a
        # square carried support (|S| = m): each of the 28 such re-solves
        # gave up before its first breakpoint, some after refactoring an
        # m x m Gram matrix, and then walked the cold path anyway
        reports, square = [], []
        bp, path = reweight.weighted_basis_pursuit, solvers._path

        def counted(*args, **kwargs):
            reports.append(bp(*args, **kwargs))
            return reports[-1]

        def path_logged(instance, c, warm=None, eta=None):
            if warm is not None and np.count_nonzero(warm) == instance.m:
                square.append(warm)
            return path(instance, c, warm, eta)

        monkeypatch.setattr(reweight, "weighted_basis_pursuit", counted)
        monkeypatch.setattr(solvers, "_path", path_logged)
        for s in (20, 30, 40, 50):
            for seed in range(4):
                inst = gen_noiseless(EnsembleSpec(n=256, m=100, s=s, seed=seed))
                for algo in ("l1", "rw-sub", "rw-cwb"):
                    run_algorithm(algo, inst, SolverConfig(rw_iter=2))
        assert len(reports) == 80
        assert all(rep.exit == "certified" for rep in reports)
        assert sum(rep.iterations for rep in reports) <= 5_250
        assert not square

    @pytest.mark.parametrize("s", [30, 40])
    def test_oracle_resolves_of_seed_11_end_certified(self, s, monkeypatch):
        # one re-solve of each of these oracle runs used to run the
        # splitting's 50 000 iterations and end at max_iter, its iterate
        # holding 101 > m nonzeros; the path certifies it
        reports = []
        bp = reweight.weighted_basis_pursuit

        def counted(*args, **kwargs):
            reports.append(bp(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(reweight, "weighted_basis_pursuit", counted)
        inst = gen_noiseless(EnsembleSpec(n=256, m=100, s=s, seed=11))
        _, trace = run_algorithm("oracle", inst, SolverConfig(rw_iter=2))
        assert len(reports) == len(trace.rows) == 3
        assert all(rep.exit == "certified" for rep in reports)


def _duplicated_row_instance():
    """A consistent 10x30 system whose last row repeats the first."""
    rng = np.random.default_rng(0)
    phi = rng.standard_normal((10, 30))
    phi[9] = phi[0]
    x = np.zeros(30)
    x[[2, 11, 25]] = [1.0, -2.0, 0.5]
    return ProblemInstance(phi=phi, b=phi @ x, x_star=x)


class TestRankDeficientPhi:
    @pytest.mark.parametrize("algo", ["l1", "rw-sub"])
    def test_typed_configuration_error(self, algo):
        with pytest.raises(RankDeficientError, match="rank deficient") as info:
            run_algorithm(algo, _duplicated_row_instance(), SolverConfig(rw_iter=2))
        assert isinstance(info.value, ConfigurationError)
