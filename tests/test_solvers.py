import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import linprog, minimize

from rwsparse import reweight, solvers
from rwsparse.model import ConfigurationError, ProblemInstance, SolverConfig, recovered
from rwsparse.probgen import EnsembleSpec, gen_noiseless, gen_noisy
from rwsparse.reweight import run_algorithm
from rwsparse.solvers import (
    _CERT_TOL,
    NoConvergenceError,
    RankDeficientError,
    _bp_candidate,
    _bp_certified,
    _operator,
    constrained_weighted_l1,
    min_l2_solution,
    weighted_basis_pursuit,
    weighted_lasso_fista,
)

CFG = SolverConfig()


def soft_threshold(v, t):
    """Shrink toward zero: sign(v) * max(|v| - t, 0), elementwise."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def fista_reference(phi, b, w, lam, iters=1000):
    """The weighted LASSO by the textbook accelerated proximal-gradient
    loop from x = 0: step 1 / (lam ||phi||_2^2), the gradient computed
    afresh at the extrapolated point, and the momentum restarted whenever
    the objective rises. Returns (x, objective)."""

    def objective(x):
        r = phi @ x - b
        return 0.5 * lam * r @ r + w @ np.abs(x)

    lip = lam * np.linalg.norm(phi, 2) ** 2
    x_prev = y = np.zeros(phi.shape[1])
    obj_prev, t = objective(x_prev), 1.0
    for _ in range(iters):
        x = soft_threshold(y - lam * (phi.T @ (phi @ y - b)) / lip, w / lip)
        obj = objective(x)
        if obj > obj_prev:
            t, y = 1.0, x
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = x + ((t - 1.0) / t_next) * (x - x_prev)
            t = t_next
        x_prev, obj_prev = x, obj
    return x, obj_prev


def lp_basis_pursuit(phi, b, w):
    """Independent LP oracle: min w^T t s.t. -t <= x <= t, phi x = b."""
    m, n = phi.shape
    c = np.concatenate([np.zeros(n), w])
    a_eq = np.hstack([phi, np.zeros((m, n))])
    eye = np.eye(n)
    a_ub = np.vstack([np.hstack([eye, -eye]), np.hstack([-eye, -eye])])
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(2 * n),
        A_eq=a_eq,
        b_eq=b,
        bounds=[(None, None)] * n + [(0, None)] * n,
        method="highs",
    )
    assert res.status == 0
    return res.fun


class TestSoftThreshold:
    def test_examples(self):
        assert soft_threshold(3.0, 1.0) == pytest.approx(2.0)
        assert soft_threshold(-0.5, 1.0) == 0.0
        assert soft_threshold(-4.0, 0.0) == -4.0

    def test_vectorized(self):
        out = soft_threshold(np.array([3.0, -0.5, 0.0]), np.array([1.0, 1.0, 2.0]))
        assert np.allclose(out, [2.0, 0.0, 0.0])

    @given(st.floats(-1e9, 1e9), st.floats(0, 1e9))
    def test_shrinks_toward_zero(self, v, t):
        out = soft_threshold(v, t)
        assert abs(out) == pytest.approx(max(abs(v) - t, 0.0))
        assert out * v >= 0.0

    @given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(0.0, allow_infinity=False)), min_size=1))
    def test_is_the_remainder_of_a_clip(self, pairs):
        # t - clip(t, -theta, theta) has the bits of soft_threshold(t, theta),
        # up to the sign of a zero
        t, theta = np.array(pairs).T
        clipped = t - np.minimum(np.maximum(t, -theta), theta)
        ref = soft_threshold(t, theta)
        assert np.array_equal(clipped, ref)
        nonzero = ref != 0.0
        assert clipped[nonzero].tobytes() == ref[nonzero].tobytes()


class TestMinL2Solution:
    def test_symmetric_split(self):
        inst = ProblemInstance(phi=np.array([[1.0, 1.0]]), b=np.array([2.0]))
        assert np.allclose(min_l2_solution(inst), [1.0, 1.0])

    def test_free_coordinate_zero(self):
        inst = ProblemInstance(phi=np.array([[1.0, 0.0]]), b=np.array([5.0]))
        assert np.allclose(min_l2_solution(inst), [5.0, 0.0])

    def test_closed_form(self):
        # phi^T (phi phi^T)^{-1} b = (3, 4) for phi = [[3, 4]], b = [25]
        inst = ProblemInstance(phi=np.array([[3.0, 4.0]]), b=np.array([25.0]))
        assert np.allclose(min_l2_solution(inst), [3.0, 4.0], atol=1e-12)

    def test_residual_and_nullspace_orthogonality(self):
        rng = np.random.default_rng(3)
        phi = rng.standard_normal((6, 15))
        b = rng.standard_normal(6)
        inst = ProblemInstance(phi=phi, b=b)
        z = min_l2_solution(inst)
        assert np.linalg.norm(phi @ z - b) <= 1e-10 * (1 + np.linalg.norm(b))
        # z has no component in null(phi)
        proj = z - phi.T @ np.linalg.solve(phi @ phi.T, phi @ z)
        assert np.linalg.norm(proj) <= 1e-8

    def test_singular_gram_raises(self):
        phi = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        inst = ProblemInstance(phi=phi, b=np.array([1.0, 2.0]))
        with pytest.raises(np.linalg.LinAlgError):
            min_l2_solution(inst)

    def test_duplicated_row_is_typed_configuration_error(self):
        # a consistent 10x30 system whose last row repeats the first
        rng = np.random.default_rng(0)
        phi = rng.standard_normal((10, 30))
        phi[9] = phi[0]
        inst = ProblemInstance(phi=phi, b=phi @ np.eye(30)[2])
        with pytest.raises(RankDeficientError, match="rank deficient") as info:
            min_l2_solution(inst)
        assert isinstance(info.value, ConfigurationError)


class TestGramPivotRatio:
    def test_duplicated_row_raises_even_when_cholesky_finishes(self):
        # a duplicated row often leaves cho_factor with a rounding-level
        # pivot instead of a breakdown; both cases are rank deficient
        finished = 0
        for seed in range(2000):
            rng = np.random.default_rng(seed)
            phi = rng.standard_normal((10, 30))
            phi[9] = phi[0]
            x = np.zeros(30)
            x[rng.choice(30, 3, replace=False)] = rng.standard_normal(3)
            try:
                cho_factor(phi @ phi.T)
                finished += 1
            except np.linalg.LinAlgError:
                pass
            with pytest.raises(RankDeficientError, match="rank deficient"):
                run_algorithm("l1", ProblemInstance(phi=phi, b=phi @ x, x_star=x))
            with pytest.raises(RankDeficientError, match="rank deficient"):
                min_l2_solution(ProblemInstance(phi=phi, b=phi @ x))
        assert finished >= 500


def lstsq_polish(instance, w, support, tol):
    """Reference polish: the candidate and the minimum-norm multiplier
    from two SVD least-squares solves."""
    phi, b = instance.phi, instance.b
    m, n = phi.shape
    if support.size == 0 or support.size > m:
        return None
    phi_s = phi[:, support]
    x_s, *_ = np.linalg.lstsq(phi_s, b, rcond=None)
    x = np.zeros(n)
    x[support] = x_s
    if np.linalg.norm(phi @ x - b) > tol * (1.0 + np.linalg.norm(b)):
        return None
    target = w[support] * np.sign(x_s)
    nu, *_ = np.linalg.lstsq(phi_s.T, target, rcond=None)
    corr = phi.T @ nu
    slack = _CERT_TOL * (1.0 + float(np.max(w, initial=0.0)))
    if np.max(np.abs(corr[support] - target), initial=0.0) > slack:
        return None
    off = np.ones(n, dtype=bool)
    off[support] = False
    if np.max(np.abs(corr[off]) - w[off], initial=0.0) > slack:
        return None
    return x


def min_norm_polish(instance, w, support, tol):
    """The polish with the minimum-norm multiplier: the certificate seeded
    with the multiplier estimate nu = 0."""
    candidate = _bp_candidate(instance, support, tol)
    if candidate is None:
        return None
    if not _bp_certified(_operator(instance), w, support, candidate, np.zeros(instance.m)):
        return None
    return candidate[2]


@pytest.fixture
def path_ends(monkeypatch):
    """The (eta, result) of every weighted-LASSO path call of a test; eta
    is None except on a cold basis pursuit path."""
    ends = []
    path = solvers._path

    def logged(*args, **kwargs):
        ends.append((kwargs.get("eta"), path(*args, **kwargs)))
        return ends[-1][1]

    monkeypatch.setattr(solvers, "_path", logged)
    return ends


class TestBpPolish:
    @pytest.mark.parametrize("k", [5, 20, 60, 100])
    def test_matches_least_squares_reference(self, k):
        # full-column-rank supports; b in or out of their range, and weights
        # that make the certificate hold or fail
        m, n = 100, 256
        accepted = rejected = 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            phi = rng.standard_normal((m, n)) / np.sqrt(m)
            support = np.sort(rng.choice(n, k, replace=False))
            x0 = np.zeros(n)
            x0[support] = rng.standard_normal(k)
            heavy_off = np.full(n, 1e3)
            heavy_off[support] = 1.0
            for b, w in (
                (phi @ x0, heavy_off),
                (phi @ x0, np.ones(n)),
                (rng.standard_normal(m), np.ones(n)),
            ):
                inst = ProblemInstance(phi=phi, b=b)
                ref = lstsq_polish(inst, w, support, CFG.inner_tol)
                got = min_norm_polish(inst, w, support, CFG.inner_tol)
                assert (got is None) == (ref is None)
                if got is None:
                    rejected += 1
                else:
                    accepted += 1
                    assert np.max(np.abs(got - ref)) <= 1e-12
        assert accepted >= 8 and rejected >= 8

    def test_duplicated_column_is_rejected(self):
        # columns 3 and 5 coincide: least squares certifies the min-norm
        # split of x_3 between them, the QR polish rejects the support, and
        # the path still reaches the optimum
        rng = np.random.default_rng(0)
        phi = rng.standard_normal((20, 40))
        phi[:, 5] = phi[:, 3]
        x = np.zeros(40)
        x[[3, 7, 11]] = [1.0, -2.0, 0.5]
        inst = ProblemInstance(phi=phi, b=phi @ x)
        support = np.array([3, 5, 7, 11])
        w = np.full(40, 1e3)
        w[support] = 1.0
        assert lstsq_polish(inst, w, support, CFG.inner_tol) is not None
        assert _bp_candidate(inst, support, CFG.inner_tol) is None
        rep = weighted_basis_pursuit(inst, w, None, CFG)
        assert rep.converged
        oracle = lp_basis_pursuit(phi, inst.b, w)
        assert rep.objective == pytest.approx(oracle, rel=1e-6)

    def test_rounding_level_coordinates_leave_the_support(self, path_ends):
        # the unit-weight start of a Fig-1 instance: the LASSO support at a
        # small residual is the basis pursuit support plus coordinates that
        # vanish in the limit; the answer keeps none of them
        inst = gen_noiseless(EnsembleSpec(n=256, m=100, s=20, seed=0))
        rep = weighted_basis_pursuit(inst, np.ones(inst.n), None, CFG)
        assert rep.exit == "certified" and len(path_ends) == 1
        support = np.flatnonzero(rep.x)
        assert set(support) < set(path_ends[0][1][0])
        mags = np.abs(rep.x[support])
        assert mags.min() > solvers._BP_PRUNE * mags.max()
        assert np.array_equal(support, np.flatnonzero(inst.x_star))


class TestOperator:
    def test_min_norm_solution_is_the_refined_cholesky_formula(self):
        inst = gen_noiseless(EnsembleSpec(n=256, m=100, s=30, seed=3))
        phi, b = inst.phi, inst.b
        chol = cho_factor(phi @ phi.T)
        y = cho_solve(chol, b)
        y += cho_solve(chol, b - phi @ (phi.T @ y))
        assert np.array_equal(min_l2_solution(inst), phi.T @ y)

    def test_lasso_runs_never_build_the_row_basis(self, monkeypatch):
        # noisy runs and basis pursuit never build the QR of phi^T; every QR
        # they make is of a support of at most m columns
        shapes = []
        real_qr = solvers.qr

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real_qr(a, *args, **kwargs)

        monkeypatch.setattr(solvers, "qr", counted)
        inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.05, seed=0))
        for algo in ("l1", "rw-lasso", "cwb-noisy"):
            run_algorithm(algo, inst, SolverConfig(rw_iter=2))
        noisy = len(shapes)
        assert weighted_basis_pursuit(inst, np.ones(inst.n), None, CFG).exit == "certified"
        assert len(shapes) > noisy
        assert all(rows == inst.m and cols <= inst.m for rows, cols in shapes)


class TestDualSeededCertificate:
    def test_path_dual_certifies_what_the_minimum_norm_multiplier_rejects(self):
        # the unit-weight start of a Fig-1 instance: the minimum-norm
        # multiplier of the answer's support does not certify it, while the
        # path's own multiplier does
        inst = gen_noiseless(EnsembleSpec(n=256, m=100, s=20, seed=0))
        w = np.ones(inst.n)
        rep = weighted_basis_pursuit(inst, w, None, CFG)
        assert rep.exit == "certified" and rep.converged
        support = np.flatnonzero(rep.x)
        candidate = _bp_candidate(inst, support, CFG.inner_tol)
        assert candidate[2].tobytes() == rep.x.tobytes()
        assert not _bp_certified(_operator(inst), w, support, candidate, np.zeros(inst.m))

    def test_square_support_certificate_ignores_the_dual_estimate(self):
        # with |S| = m the support factor q is square, so the corrected
        # multiplier is q r^-T (w_S sign x_S) whatever nu seeds it: on every
        # square support of the LP-oracle instances, random multiplier
        # estimates give the decision of nu = 0
        accepted = rejected = 0
        for seed in range(3):
            rng = np.random.default_rng(seed)
            phi = rng.standard_normal((4, 9))
            inst = ProblemInstance(phi=phi, b=rng.standard_normal(4))
            w = rng.uniform(0.1, 2.0, size=9)
            op = _operator(inst)
            probe = np.random.default_rng(100 + seed)
            for support in itertools.combinations(range(9), 4):
                support = np.array(support)
                candidate = _bp_candidate(inst, support, CFG.inner_tol)
                decision = _bp_certified(op, w, support, candidate, np.zeros(4))
                accepted += decision
                rejected += not decision
                for scale in (0.1, 1.0, 10.0):
                    for _ in range(10):
                        nu = scale * probe.standard_normal(4)
                        assert _bp_certified(op, w, support, candidate, nu) == decision
        assert accepted >= 3 and rejected >= 100

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_dual_estimate_certifies_a_suboptimal_point(self, seed):
        # a certificate is a proof whatever multiplier seeds it: on every
        # support of the LP-oracle instances, random dual estimates accept
        # no candidate whose objective is above the LP optimum
        rng = np.random.default_rng(seed)
        phi = rng.standard_normal((4, 9))
        b = rng.standard_normal(4)
        w = rng.uniform(0.1, 2.0, size=9)
        inst = ProblemInstance(phi=phi, b=b)
        op = _operator(inst)
        oracle = lp_basis_pursuit(phi, b, w)
        probe = np.random.default_rng(100 + seed)
        accepted = suboptimal = 0
        for k in range(1, 5):
            for support in itertools.combinations(range(9), k):
                support = np.array(support)
                candidate = _bp_candidate(inst, support, CFG.inner_tol)
                if candidate is None:
                    continue
                objective = w @ np.abs(candidate[2])
                suboptimal += objective > oracle + 1e-6 * (1 + oracle)
                for scale in (0.0, 0.1, 1.0, 10.0):
                    for _ in range(10):
                        nu = scale * probe.standard_normal(4)
                        if _bp_certified(op, w, support, candidate, nu):
                            accepted += 1
                            assert objective <= oracle + 1e-9 * (1 + oracle)
        assert accepted >= 1 and suboptimal >= 10


class TestWeightedBasisPursuit:
    def test_two_vertex_enumeration(self):
        # Feasible segment of x1 + x2 = 1 has vertices (1,0) and (0,1);
        # the cheaper one under w = (1, 2) is (1, 0).
        w = np.array([1.0, 2.0])
        vertices = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        best = min(vertices, key=lambda v: w @ np.abs(v))
        inst = ProblemInstance(phi=np.array([[1.0, 1.0]]), b=np.array([1.0]))
        rep = weighted_basis_pursuit(inst, w, None, CFG)
        assert rep.converged
        assert np.allclose(rep.x, best, atol=1e-6)

    def test_zero_weights_any_feasible(self):
        inst = ProblemInstance(phi=np.array([[1.0, 1.0]]), b=np.array([1.0]))
        rep = weighted_basis_pursuit(inst, np.zeros(2), None, CFG)
        assert rep.converged
        assert rep.objective == 0.0
        assert abs(rep.x.sum() - 1.0) <= CFG.inner_tol * (1 + 1.0)

    def test_unconstrained_coordinate_zeroed(self):
        phi = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        inst = ProblemInstance(phi=phi, b=np.array([3.0, 4.0]))
        rep = weighted_basis_pursuit(inst, np.ones(3), None, CFG)
        assert np.allclose(rep.x, [3.0, 4.0, 0.0], atol=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_lp_oracle(self, seed):
        rng = np.random.default_rng(seed)
        phi = rng.standard_normal((4, 9))
        b = rng.standard_normal(4)
        w = rng.uniform(0.1, 2.0, size=9)
        inst = ProblemInstance(phi=phi, b=b)
        rep = weighted_basis_pursuit(inst, w, None, CFG)
        oracle = lp_basis_pursuit(phi, b, w)
        assert rep.converged
        assert rep.objective <= oracle + 1e-6 * (1 + abs(oracle))
        assert rep.objective >= oracle - 1e-6 * (1 + abs(oracle))

    def test_objective_below_feasible_points(self):
        inst = gen_noiseless(EnsembleSpec(n=40, m=20, s=5, seed=9))
        w = np.random.default_rng(1).uniform(0.0, 2.0, size=40)
        rep = weighted_basis_pursuit(inst, w, None, CFG)
        assert rep.converged
        obj_star = w @ np.abs(inst.x_star)
        assert rep.objective <= obj_star + CFG.inner_tol * (1 + obj_star)
        # random feasible points: ground truth plus null-space directions
        rng = np.random.default_rng(2)
        _, _, vt = np.linalg.svd(inst.phi)
        null = vt[20:].T
        for _ in range(5):
            feas = inst.x_star + null @ rng.standard_normal(20)
            obj = w @ np.abs(feas)
            assert rep.objective <= obj + CFG.inner_tol * (1 + obj)

    def test_residual_contract(self):
        inst = gen_noiseless(EnsembleSpec(n=64, m=24, s=6, seed=4))
        rep = weighted_basis_pursuit(inst, np.ones(64), None, CFG)
        assert rep.converged
        r = np.linalg.norm(inst.phi @ rep.x - inst.b)
        assert r <= CFG.inner_tol * (1 + np.linalg.norm(inst.b))
        assert rep.primal_residual <= CFG.inner_tol

    def test_warm_matches_cold(self):
        # a re-solve warm from an earlier answer's report
        inst = gen_noiseless(EnsembleSpec(n=48, m=20, s=5, seed=11))
        first = weighted_basis_pursuit(inst, np.ones(48), None, CFG)
        w = 1.0 / (np.abs(inst.x_star) + 0.1)
        cold = weighted_basis_pursuit(inst, w, None, CFG)
        warm = weighted_basis_pursuit(inst, w, first, CFG)
        assert cold.exit == warm.exit == "certified"
        assert abs(cold.objective - warm.objective) <= 10 * CFG.inner_tol * (1 + cold.objective)

    def test_warm_restart_at_unchanged_weights_takes_no_breakpoint(self):
        # the splitting re-solved these weights from the previous answer in
        # 2 200 iterations after a 1 380-iteration cold solve; the path
        # continues from the carried LASSO point, which already solves them
        inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.05, seed=1))
        cold = weighted_basis_pursuit(inst, np.ones(64), None, CFG)
        again = weighted_basis_pursuit(inst, np.ones(64), cold, CFG)
        assert cold.exit == again.exit == "certified"
        assert again.iterations == 0 and again.x.tobytes() == cold.x.tobytes()
        # the carried support is square: at unchanged weights its warm path
        # still runs, as nothing enters
        assert np.count_nonzero(cold.lasso_point[0]) == inst.m

    def test_answers_are_the_exact_solve_on_their_support(self, monkeypatch):
        # a certified answer is the exact solve on its support, a pure
        # function of the support, on the cold starts and warm re-solves of
        # Fig-1 runs
        calls = []
        bp = reweight.weighted_basis_pursuit

        def recorded(instance, w, warm, cfg):
            calls.append((instance, w.copy(), warm))
            return bp(instance, w, warm, cfg)

        monkeypatch.setattr(reweight, "weighted_basis_pursuit", recorded)
        for s, seed in itertools.product((20, 30, 40, 50), (0, 1)):
            inst = gen_noiseless(EnsembleSpec(n=256, m=100, s=s, seed=seed))
            for algo in ("l1", "rw-sub", "rw-cwb"):
                run_algorithm(algo, inst, SolverConfig(rw_iter=2))
        assert len(calls) == 40
        assert sum(warm is None for _, _, warm in calls) == 8
        for inst, w, warm in calls:
            rep = weighted_basis_pursuit(inst, w, warm, CFG)
            assert rep.exit == "certified"
            exact = _bp_candidate(inst, np.flatnonzero(rep.x), CFG.inner_tol)[2]
            assert rep.x.tobytes() == exact.tobytes()

    def test_iteration_cap_reports_nonconverged(self):
        inst = gen_noiseless(EnsembleSpec(n=64, m=24, s=20, seed=1))
        cfg = SolverConfig(inner_max_iter=3)
        rep = weighted_basis_pursuit(inst, np.ones(64), None, cfg)
        assert not rep.converged
        assert rep.iterations == 3
        assert rep.exit == "max_iter"

    def test_exit_says_how_the_solve_stopped(self, monkeypatch):
        # a certified answer on the path, or the breakpoint budget run out
        # on a cold path; a path that cannot certify raises instead
        inst = gen_noiseless(EnsembleSpec(n=64, m=24, s=6, seed=4))
        certified = weighted_basis_pursuit(inst, np.ones(64), None, CFG)
        assert certified.exit == "certified" and certified.converged
        assert certified.primal_residual <= CFG.inner_tol
        capped = weighted_basis_pursuit(inst, np.ones(64), None, SolverConfig(inner_max_iter=2))
        assert capped.exit == "max_iter" and not capped.converged
        assert capped.iterations == 2 < certified.iterations
        assert capped.primal_residual > CFG.inner_tol and capped.lasso_point is None
        monkeypatch.setattr(solvers, "_path", lambda *args, **kwargs: None)
        with pytest.raises(NoConvergenceError, match="no basis pursuit path certifies"):
            weighted_basis_pursuit(inst, np.ones(64), None, CFG)

    @pytest.mark.parametrize(
        "warm", [np.ones(1), np.full(64, np.nan), np.ones((64, 1)), np.ones(65), np.ones(64)]
    )
    def test_malformed_warm_start_is_rejected(self, warm):
        # a length that broadcasts, NaN entries, a column, one entry too
        # many, and a vector: only None or a report is a warm start
        inst = gen_noiseless(EnsembleSpec(n=64, m=32, s=6, seed=0))
        with pytest.raises(ConfigurationError, match="warm start"):
            weighted_basis_pursuit(inst, np.ones(64), warm, CFG)

    def test_warm_start_is_not_modified(self):
        inst = gen_noiseless(EnsembleSpec(n=64, m=32, s=6, seed=0))
        warm = weighted_basis_pursuit(inst, np.ones(64), None, CFG)
        x, (x_l, t) = warm.x.copy(), warm.lasso_point
        x_l = x_l.copy()
        w = 1.0 / (np.abs(warm.x) + 0.1)
        for cfg in (CFG, SolverConfig(inner_max_iter=3)):
            rep = weighted_basis_pursuit(inst, w, warm, cfg)
            assert np.array_equal(warm.x, x) and rep.x is not warm.x
            assert np.array_equal(warm.lasso_point[0], x_l) and warm.lasso_point[1] == t


def recorded_resolves():
    """Basis pursuit inputs recorded from reweighting runs, as
    (source, instance, w): the tied-weight re-solves of four oracle runs and
    the rw-cwb re-solve of criterion 6's sweep that the first cold budget
    does not certify."""
    path = Path(__file__).parent / "data" / "bp_resolve_weights.json"
    for rec in json.loads(path.read_text()):
        spec = EnsembleSpec(n=rec["n"], m=rec["m"], s=rec["s"], seed=rec["seed"])
        yield rec["source"], gen_noiseless(spec), np.array(rec["w"])


def assert_lp_optimal(rep, inst, w):
    """A certified answer whose objective is the LP optimum."""
    oracle = lp_basis_pursuit(inst.phi, inst.b, w)
    assert rep.exit == "certified"
    assert abs(rep.objective - oracle) <= 1e-9 * (1.0 + oracle)
    assert rep.primal_residual <= CFG.inner_tol


class TestEveryInputOnThePath:
    """Inputs that the path's start does not reach, or that tie."""

    def test_zero_observation(self):
        rng = np.random.default_rng(0)
        inst = ProblemInstance(phi=rng.standard_normal((10, 30)), b=np.zeros(10))
        w = rng.uniform(0.1, 2.0, 30)
        rep = weighted_basis_pursuit(inst, w, None, CFG)
        assert_lp_optimal(rep, inst, w)
        assert np.all(rep.x == 0.0) and rep.iterations == 0 and not rep.degenerate

    def test_all_zero_weights_with_more_columns_than_rows(self):
        rng = np.random.default_rng(1)
        inst = ProblemInstance(phi=rng.standard_normal((10, 30)), b=rng.standard_normal(10))
        rep = weighted_basis_pursuit(inst, np.zeros(30), None, CFG)
        assert_lp_optimal(rep, inst, np.zeros(30))
        assert rep.objective == 0.0 and rep.iterations == 0 and rep.degenerate

    @pytest.mark.parametrize("duplicated", [False, True], ids=["independent", "dependent"])
    def test_zero_weights_whose_fit_meets_b(self, duplicated):
        # zero weights on the support of x*, and on a copy of one of its
        # columns: only then do those columns have a null space
        inst = gen_noiseless(EnsembleSpec(n=40, m=20, s=5, seed=3))
        support = np.flatnonzero(inst.x_star)
        phi = inst.phi.copy()
        w = np.ones(40)
        w[support] = 0.0
        if duplicated:
            spare = np.flatnonzero(w)[0]
            phi[:, spare] = phi[:, support[0]]
            w[spare] = 0.0
        inst = ProblemInstance(phi=phi, b=inst.b, x_star=inst.x_star)
        rep = weighted_basis_pursuit(inst, w, None, CFG)
        assert_lp_optimal(rep, inst, w)
        assert rep.objective == 0.0 and rep.iterations == 0
        assert rep.degenerate == duplicated

    @pytest.mark.parametrize(
        "inst, w", [pytest.param(inst, w, id=source) for source, inst, w in recorded_resolves()]
    )
    def test_recorded_resolves(self, inst, w):
        # the oracle re-solves tie many weights at 1; their cold paths hold
        # a tied column off a square support, or certify only at the second
        # budget
        assert_lp_optimal(weighted_basis_pursuit(inst, w, None, CFG), inst, w)

    @pytest.mark.parametrize(
        "phi, b, w",
        [
            pytest.param(
                [[-2, -2, 1, -2, -1], [-2, -2, -1, -2, -1], [1, 1, 0, 1, -1]],
                [0.45229631, 0.64420313, -0.56103192],
                [1.49324088, 1.0, 1.0, 1.0, 1.12821309],
                id="three-equal-columns",
            ),
            pytest.param(
                [
                    [2, 0, 2, 0, 2, -1],
                    [2, -2, 2, 2, 1, 1],
                    [0, -1, -2, 1, -1, 1],
                    [1, 1, 0, -1, 2, -1],
                    [1, -2, 1, 2, -2, -2],
                ],
                [0.76482455, -0.78722982, -2.59499657, -0.58690549, -0.23424255],
                [1.0] * 6,
                id="opposite-columns",
            ),
        ],
    )
    def test_columns_in_the_span_of_the_support(self, phi, b, w):
        # a column due to enter in the span of a support smaller than m, at
        # a weight tied to the support's, is held off it: columns 0, 1 and 3
        # of the first system are equal, columns 1 and 3 of the second
        # opposite
        inst = ProblemInstance(phi=np.array(phi, dtype=float), b=np.array(b))
        w = np.array(w)
        rep = weighted_basis_pursuit(inst, w, None, CFG)
        assert_lp_optimal(rep, inst, w)
        assert np.count_nonzero(rep.x[[1, 3]]) == 1

    def test_square_support_with_a_coordinate_that_crosses_zero(self, path_ends):
        # the first cold path ends on a square support whose exact solve has
        # a coordinate of -1.5e-8 where the path's sign is +1: it crosses
        # zero on the way to the limit, and the other 9 coordinates certify.
        # Their span lies 3e-9 from b, so the answer meets phi x = b within
        # inner_tol and its objective sits that far below the LP optimum
        inst = gen_noiseless(EnsembleSpec(n=20, m=10, s=4, seed=209))
        w = np.ones(20)
        rep = weighted_basis_pursuit(inst, w, None, CFG)
        oracle = lp_basis_pursuit(inst.phi, inst.b, w)
        assert rep.exit == "certified" and rep.primal_residual <= CFG.inner_tol
        assert 0.0 < oracle - rep.objective <= CFG.inner_tol * (1.0 + oracle)
        (_, (support, sigma, _, _)), = path_ends
        assert support.size == inst.m and np.count_nonzero(rep.x) == inst.m - 1
        crossed = support[np.sign(rep.x[support]) != sigma]
        assert crossed.size == 1 and rep.x[crossed[0]] == 0.0
        # every basis pursuit solve of the four noiseless algorithms answers
        for algo in ("l1", "rw-sub", "rw-cwb", "oracle"):
            x, _ = run_algorithm(algo, inst, SolverConfig(rw_iter=4))
            assert recovered(x, inst.x_star, CFG.recovery_tol), algo

    def test_criterion_6_resolve_certifies_at_the_second_budget(self, path_ends):
        # the cold path to the first budget ends on a square support that is
        # not the basis pursuit support; the one to the second certifies
        (source, inst, w), = [rec for rec in recorded_resolves() if rec[0].startswith("rw-cwb")]
        rep = weighted_basis_pursuit(inst, w, None, CFG)
        assert_lp_optimal(rep, inst, w)
        etas = [eta / np.linalg.norm(inst.b) for eta, _ in path_ends]
        assert etas == pytest.approx(list(solvers._BP_ETAS), rel=1e-12)
        (_, first), (_, second) = path_ends
        assert first[0].size == inst.m
        assert rep.iterations == first[2] + second[2]

    def test_max_iter_exit(self, path_ends):
        # a cold path that runs out of breakpoints ends the solve with the
        # minimizer at the weights it reached
        inst = gen_noiseless(EnsembleSpec(n=64, m=24, s=20, seed=1))
        w = np.ones(64)
        rep = weighted_basis_pursuit(inst, w, None, SolverConfig(inner_max_iter=5))
        assert rep.exit == "max_iter" and rep.iterations == 5 and len(path_ends) == 1
        assert rep.x.tobytes() == path_ends[0][1][3].tobytes()
        assert rep.objective == w @ np.abs(rep.x) and rep.lasso_point is None
        resid = np.linalg.norm(inst.phi @ rep.x - inst.b) / (1.0 + np.linalg.norm(inst.b))
        assert rep.primal_residual == pytest.approx(resid, rel=1e-15) and resid > CFG.inner_tol


class TestWeightedLassoFista:
    def _scalar(self):
        return ProblemInstance(phi=np.array([[1.0]]), b=np.array([3.0]))

    def test_scalar_prox(self):
        rep = weighted_lasso_fista(self._scalar(), np.array([1.0]), 1.0, None, CFG)
        assert rep.x[0] == pytest.approx(2.0, abs=1e-8)

    def test_threshold_exceeds_observation(self):
        rep = weighted_lasso_fista(self._scalar(), np.array([4.0]), 1.0, None, CFG)
        assert rep.x[0] == 0.0

    def test_large_multiplier(self):
        rep = weighted_lasso_fista(self._scalar(), np.array([1.0]), 100.0, None, CFG)
        assert rep.x[0] == pytest.approx(2.99, abs=1e-8)
        assert rep.multiplier == 100.0

    def test_lam_zero_returns_zero(self):
        rep = weighted_lasso_fista(self._scalar(), np.array([1.0]), 0.0, None, CFG)
        assert np.all(rep.x == 0.0) and rep.converged and not rep.degenerate
        assert rep.multiplier == 0.0

    def test_lam_zero_with_zero_weight_flagged(self):
        rep = weighted_lasso_fista(self._scalar(), np.array([0.0]), 0.0, None, CFG)
        assert rep.degenerate

    def test_negative_lam_rejected(self):
        with pytest.raises(ValueError):
            weighted_lasso_fista(self._scalar(), np.array([1.0]), -1.0, None, CFG)

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_optimality_conditions(self, seed):
        rng = np.random.default_rng(seed)
        m, n = 12, 30
        phi = rng.standard_normal((m, n)) / np.sqrt(m)
        b = rng.standard_normal(m)
        w = rng.uniform(0.05, 1.5, size=n)
        lam = float(rng.uniform(1.0, 30.0))
        inst = ProblemInstance(phi=phi, b=b)
        rep = weighted_lasso_fista(inst, w, lam, None, CFG)
        assert rep.converged
        grad = lam * (phi.T @ (phi @ rep.x - b))
        tol = CFG.inner_tol
        for i in range(n):
            if rep.x[i] != 0.0:
                assert abs(grad[i] + w[i] * np.sign(rep.x[i])) <= tol * (1 + w[i])
            else:
                assert abs(grad[i]) <= w[i] + tol

    @pytest.mark.parametrize("max_iter", [7, 25, 5000])
    def test_reported_violation_matches_a_fresh_gradient(self, max_iter):
        inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.05, seed=1))
        w = np.random.default_rng(4).uniform(0.5, 2.0, 64)
        lam = 40.0
        rep = weighted_lasso_fista(inst, w, lam, None, SolverConfig(inner_max_iter=max_iter))
        grad = lam * (inst.phi.T @ (inst.phi @ rep.x - inst.b))
        fresh = solvers._lasso_optimality(w, grad, rep.x)
        assert rep.primal_residual == pytest.approx(fresh, rel=1e-12, abs=1e-15)
        resid = inst.phi @ rep.x - inst.b
        assert rep.objective == pytest.approx(0.5 * lam * resid @ resid + w @ np.abs(rep.x), rel=1e-14)

    def test_zero_is_returned_below_the_first_breakpoint(self):
        inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.05, seed=1))
        w = np.random.default_rng(4).uniform(0.5, 2.0, 64)
        corr = np.abs(inst.phi.T @ inst.b)
        lam_zero = float(np.min(w / corr))  # x = 0 is optimal up to here
        below = weighted_lasso_fista(inst, w, lam_zero * (1.0 - 1e-9), np.ones(64), CFG)
        assert np.all(below.x == 0.0) and below.iterations == 0
        assert below.exit == "certified" and not below.degenerate
        assert below.objective == pytest.approx(0.5 * lam_zero * (1.0 - 1e-9) * inst.b @ inst.b)
        above = weighted_lasso_fista(inst, w, lam_zero * 1.01, None, CFG)
        assert above.iterations > 0 and np.count_nonzero(above.x) > 0
        # a zero weight where phi^T b vanishes: x = 0 is the unique minimizer
        inst = ProblemInstance(phi=np.eye(2), b=np.array([1.0, 0.0]))
        rep = weighted_lasso_fista(inst, np.array([2.0, 0.0]), 1.0, None, CFG)
        assert np.all(rep.x == 0.0) and rep.iterations == 0 and not rep.degenerate

    @pytest.mark.parametrize("warm", [np.ones(1), np.full(64, np.inf), np.ones((64, 1)), np.ones(65)])
    def test_malformed_warm_start_is_rejected(self, warm):
        inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.05, seed=0))
        with pytest.raises(ConfigurationError, match="warm start"):
            weighted_lasso_fista(inst, np.ones(64), 10.0, warm, CFG)

    def test_warm_start_converges_fast(self):
        inst = gen_noiseless(EnsembleSpec(n=40, m=20, s=5, seed=2))
        w = np.ones(40)
        first = weighted_lasso_fista(inst, w, 20.0, None, CFG)
        again = weighted_lasso_fista(inst, w, 20.0, first.x, CFG)
        assert again.iterations <= first.iterations
        assert again.objective == pytest.approx(first.objective, rel=1e-9)


def slsqp_constrained_l1(phi, b, w, eta):
    """Independent oracle via the positive-part split x = p - q."""
    m, n = phi.shape

    def objective(pq):
        return w @ (pq[:n] + pq[n:])

    def constraint(pq):
        r = phi @ (pq[:n] - pq[n:]) - b
        return 0.5 * eta**2 - 0.5 * (r @ r)

    res = minimize(
        objective,
        np.zeros(2 * n),
        method="SLSQP",
        bounds=[(0, None)] * 2 * n,
        constraints=[{"type": "ineq", "fun": constraint}],
        options={"maxiter": 500, "ftol": 1e-12},
    )
    assert res.success
    return res.fun


class TestConstrainedWeightedL1:
    def test_large_budget_returns_zero(self):
        inst = ProblemInstance(phi=np.array([[1.0, 2.0]]), b=np.array([1.0]))
        rep = constrained_weighted_l1(inst, np.array([1.0, 1.0]), 2.0, CFG)
        assert np.all(rep.x == 0.0) and rep.converged
        assert rep.multiplier == 0.0  # the budget is inactive

    def test_zero_budget_delegates_to_equality(self):
        inst = ProblemInstance(phi=np.array([[1.0, 1.0]]), b=np.array([1.0]))
        w = np.array([1.0, 2.0])
        rep = constrained_weighted_l1(inst, w, 0.0, CFG)
        eq = weighted_basis_pursuit(inst, w, None, CFG)
        assert np.allclose(rep.x, eq.x, atol=1e-8)

    def test_scalar_analytic(self):
        # min |x| s.t. |x - 3| <= 1 has solution x = 2
        inst = ProblemInstance(phi=np.array([[1.0]]), b=np.array([3.0]))
        rep = constrained_weighted_l1(inst, np.array([1.0]), 1.0, CFG)
        assert rep.x[0] == pytest.approx(2.0, abs=1e-12)
        assert rep.converged

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_slsqp_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        phi = rng.standard_normal((2, n))
        b = rng.standard_normal(2)
        eta = 0.4 * np.linalg.norm(b)
        inst = ProblemInstance(phi=phi, b=b)
        oracle = slsqp_constrained_l1(phi, b, np.ones(n), float(eta))
        rep = constrained_weighted_l1(inst, np.ones(n), float(eta), CFG)
        assert rep.objective == pytest.approx(oracle, abs=1e-6)

    def test_negative_budget_rejected(self):
        inst = ProblemInstance(phi=np.array([[1.0, 1.0]]), b=np.array([1.0]))
        with pytest.raises(ValueError):
            constrained_weighted_l1(inst, np.ones(2), -0.5, CFG)

    def test_residual_lands_in_band(self):
        inst = gen_noiseless(EnsembleSpec(n=32, m=16, s=4, seed=8))
        eta = 0.3 * np.linalg.norm(inst.b)
        rep = constrained_weighted_l1(inst, np.ones(32), float(eta), CFG)
        res = np.linalg.norm(inst.phi @ rep.x - inst.b)
        assert abs(res - eta) <= 1e-12 * eta

    def test_multiplier_satisfies_lasso_conditions(self):
        # the reported multiplier lam makes x a LASSO minimizer, and the
        # budget is met with equality (complementary slackness, lam > 0)
        inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.05, seed=1))
        w = np.random.default_rng(3).uniform(0.5, 2.0, 64)
        rep = constrained_weighted_l1(inst, w, inst.eta, CFG)
        assert rep.exit == "certified"
        lam = rep.multiplier
        assert 0.0 < lam < np.inf
        resid = inst.phi @ rep.x - inst.b
        assert abs(np.linalg.norm(resid) - inst.eta) <= 1e-12 * inst.eta
        grad = lam * (inst.phi.T @ resid)
        on = rep.x != 0.0
        assert np.all(np.abs(grad[on] + w[on] * np.sign(rep.x[on])) <= CFG.inner_tol * (1 + w[on]))
        assert np.all(np.abs(grad[~on]) <= w[~on] + CFG.inner_tol)


def criterion_9_problems():
    """The 100 random weighted-LASSO problems of acceptance criterion 9, in
    its order: (instance, w, lam)."""
    rng = np.random.default_rng(99)
    sizes = [5, 6, 7, 8, 9, 10] + [int(rng.integers(11, 51)) for _ in range(94)]
    for n in sizes:
        m = int(rng.integers(max(2, n // 2), n + 1))
        phi = rng.standard_normal((m, n)) / np.sqrt(m)
        b = rng.standard_normal(m)
        w = rng.uniform(0.05, 1.5, size=n)
        lam = float(rng.uniform(0.5, 30.0))
        yield ProblemInstance(phi=phi, b=b), w, lam


class TestLassoPath:
    """The weighted-LASSO homotopy behind both noisy solvers."""

    def test_exit_and_breakpoints(self):
        # one breakpoint for a scalar, a certified support solve, and a cap
        # below the breakpoint count: the minimizer at the weights the path
        # reached, not converged
        scalar = ProblemInstance(phi=np.array([[1.0]]), b=np.array([3.0]))
        rep = weighted_lasso_fista(scalar, np.array([1.0]), 1.0, None, CFG)
        assert rep.exit == "certified" and rep.iterations == 1 and rep.x[0] == 2.0
        rng = np.random.default_rng(0)
        phi = rng.standard_normal((12, 30)) / np.sqrt(12)
        inst = ProblemInstance(phi=phi, b=rng.standard_normal(12))
        rep = weighted_lasso_fista(inst, np.ones(30), 10.0, None, CFG)
        assert rep.exit == "certified" and rep.iterations > 3
        capped = weighted_lasso_fista(inst, np.ones(30), 10.0, None, SolverConfig(inner_max_iter=3))
        assert capped.exit == "max_iter" and not capped.converged
        assert capped.iterations == 3 and capped.primal_residual > CFG.inner_tol
        # three breakpoints enter three coordinates; on them x solves the
        # LASSO at the weights reached, which are uniform
        support = np.flatnonzero(capped.x)
        assert support.size == 3
        corr = phi.T @ (inst.b - phi @ capped.x)
        assert np.allclose(np.abs(corr[support]), np.abs(corr[support[0]]), rtol=1e-12)
        assert np.all(np.sign(corr[support]) == np.sign(capped.x[support]))

    def test_constrained_exit_and_breakpoints(self):
        # a cap below the breakpoint count ends the constrained path before
        # the budget: the LASSO minimizer there, its residual above eta
        inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.05, seed=1))
        rep = constrained_weighted_l1(inst, np.ones(64), inst.eta, CFG)
        assert rep.exit == "certified" and rep.iterations > 3
        capped = constrained_weighted_l1(inst, np.ones(64), inst.eta, SolverConfig(inner_max_iter=3))
        assert capped.exit == "max_iter" and not capped.converged
        assert capped.iterations == 3 and np.isnan(capped.multiplier)
        res = np.linalg.norm(inst.phi @ capped.x - inst.b)
        assert res > inst.eta
        assert capped.primal_residual == abs(res - inst.eta) / inst.eta
        assert np.count_nonzero(capped.x) == 3

    def test_first_breakpoint_is_one_entry(self):
        # the path side of the test on x = 0 below the first breakpoint:
        # just above it, the first entry is the only breakpoint
        inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.05, seed=1))
        w = np.random.default_rng(4).uniform(0.5, 2.0, 64)
        corr = inst.phi.T @ inst.b
        first = int(np.argmin(w / np.abs(corr)))
        lam_zero = float(w[first] / abs(corr[first]))
        above = weighted_lasso_fista(inst, w, lam_zero * 1.01, None, CFG)
        assert above.exit == "certified" and above.iterations == 1
        assert np.flatnonzero(above.x).tolist() == [first]
        assert np.sign(above.x[first]) == np.sign(corr[first])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cold_answers_match_the_reference_solvers(self, seed):
        # the proximal-gradient reference: the LASSO at lam, and the LASSO
        # at the reported multiplier, whose minimizer meets the budget and
        # so solves the constrained problem
        inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.05, seed=seed))
        phi, b = inst.phi, inst.b
        w = np.random.default_rng(seed).uniform(0.2, 2.0, 64)
        w[:3] = 0.0  # free coordinates, active from the start
        lasso = weighted_lasso_fista(inst, w, 30.0, None, CFG)
        assert lasso.exit == "certified"
        assert lasso.objective == pytest.approx(fista_reference(phi, b, w, 30.0)[1], rel=1e-9)
        constrained = constrained_weighted_l1(inst, w + 0.1, inst.eta, CFG)
        assert constrained.exit == "certified"
        x, _ = fista_reference(phi, b, w + 0.1, constrained.multiplier)
        assert abs(np.linalg.norm(phi @ x - b) - inst.eta) <= 1e-9 * inst.eta
        assert constrained.objective == pytest.approx((w + 0.1) @ np.abs(x), rel=1e-6)

    def test_warm_start_from_an_exact_point(self):
        inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.05, seed=1))
        w = np.random.default_rng(4).uniform(0.5, 2.0, 64)
        cold = weighted_lasso_fista(inst, w, 40.0, None, CFG)
        again = weighted_lasso_fista(inst, w, 40.0, cold.x, CFG)
        assert again.iterations == 0 and np.array_equal(again.x, cold.x)
        # at new weights and multiplier the warm path moves from the weights
        # cold.x solves, and ends where a cold path does
        w2, lam2 = w * np.random.default_rng(5).uniform(0.5, 1.0, 64), 60.0
        resolve = weighted_lasso_fista(inst, w2, lam2, cold.x, CFG)
        fresh = weighted_lasso_fista(inst, w2, lam2, None, CFG)
        assert resolve.exit == "certified" and np.array_equal(resolve.x, fresh.x)
        assert resolve.iterations < fresh.iterations

    def test_warm_start_from_a_non_optimal_point_takes_the_cold_path(self):
        inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.05, seed=1))
        w = np.random.default_rng(4).uniform(0.5, 2.0, 64)
        cold = weighted_lasso_fista(inst, w, 40.0, None, CFG)
        flipped = cold.x.copy()
        i = np.flatnonzero(flipped)[0]
        flipped[i] = -flipped[i]  # no weights make this point optimal
        for warm in (flipped, np.ones(64)):  # |S| = 64 > m as well
            rep = weighted_lasso_fista(inst, w, 40.0, warm, CFG)
            assert np.array_equal(rep.x, cold.x) and rep.iterations == cold.iterations

    def test_constrained_path_makes_no_lasso_solve(self, monkeypatch):
        # the path runs cold in 1/lam, at unit and at reweighted weights
        inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.05, seed=1))
        monkeypatch.setattr(solvers, "weighted_lasso_fista", None)
        first = constrained_weighted_l1(inst, np.ones(64), inst.eta, CFG)
        w = 1.0 / (np.abs(first.x) + 0.1)
        rep = constrained_weighted_l1(inst, w, inst.eta, CFG)
        assert first.exit == rep.exit == "certified" and rep.iterations > 0

    def test_constrained_path_meets_the_budget(self):
        # a unit-weight start of the noisy panel whose budget root lies just
        # past a support breakpoint
        inst = gen_noisy(EnsembleSpec(n=256, m=128, s=38, sigma=0.05, seed=2))
        phi, b = inst.phi, inst.b
        rep = constrained_weighted_l1(inst, np.ones(256), inst.eta, CFG)
        assert rep.exit == "certified"
        res = np.linalg.norm(phi @ rep.x - b)
        assert abs(res - inst.eta) <= 1e-12 * inst.eta
        x, _ = fista_reference(phi, b, np.ones(256), rep.multiplier)
        assert abs(np.linalg.norm(phi @ x - b) - inst.eta) <= 1e-9 * inst.eta
        assert rep.objective == pytest.approx(np.abs(x).sum(), rel=1e-6)

    def test_every_solve_is_certified_on_the_noisy_seeds_and_criterion_9(self, monkeypatch):
        # an exit census: every inner solve of the noisy algorithms, and
        # each of criterion 9's LASSO problems
        reports = []
        for name in ("weighted_lasso_fista", "constrained_weighted_l1"):
            def logged(*args, _solve=getattr(reweight, name)):
                reports.append(_solve(*args))
                return reports[-1]

            monkeypatch.setattr(reweight, name, logged)
        for seed in range(3):
            inst = gen_noisy(EnsembleSpec(n=256, m=128, s=38, sigma=0.05, seed=seed))
            for algo in ("l1", "rw-lasso", "cwb-noisy"):
                run_algorithm(algo, inst, CFG)
        assert len(reports) >= 3 * (1 + 2 * CFG.rw_iter)
        for inst, w, lam in criterion_9_problems():
            reports.append(weighted_lasso_fista(inst, w, lam, None, CFG))
        assert {rep.exit for rep in reports} == {"certified"}

    def test_warm_path_from_uniform_weights_continues_the_cold_path(self):
        # a point solved at uniform weights 1/lam1 starts the warm path at
        # those weights, so it walks only the cold path's breakpoints
        # between 1/lam1 and 1/lam2, and ends where the cold path ends
        for seed in range(3):
            inst = gen_noisy(EnsembleSpec(n=256, m=128, s=38, sigma=0.05, seed=seed))
            for lam1, lam2 in ((5.0, 20.0), (20.0, 80.0)):
                first = weighted_lasso_fista(inst, np.ones(256), lam1, None, CFG)
                cold = weighted_lasso_fista(inst, np.ones(256), lam2, None, CFG)
                warm = weighted_lasso_fista(inst, np.ones(256), lam2, first.x, CFG)
                assert warm.exit == cold.exit == "certified"
                assert np.array_equal(warm.x, cold.x)
                assert warm.iterations == cold.iterations - first.iterations

    def test_gram_rows_are_computed_once_per_instance(self, monkeypatch):
        # each row is computed once, and a warm re-solve continues from the
        # workspace the previous path call on the instance left, so no warm
        # LASSO path re-inverts (or re-reads the rows of) its start
        inst = gen_noisy(EnsembleSpec(n=256, m=128, s=38, sigma=0.05, seed=0))
        rows, warm_calls, warm_inverses = {}, [], []
        gram_row, path, start_inverse = solvers._Operator.gram_row, solvers._path, solvers._start_inverse

        def logged(op, i):
            row = gram_row(op, i)
            assert rows.setdefault(i, row) is row  # never computed again
            return row

        def path_logged(instance, c, max_breakpoints, warm=None, eta=None):
            warm_calls.append(warm is not None)
            return path(instance, c, max_breakpoints, warm, eta)

        def inverse_logged(*args):
            warm_inverses.append(warm_calls[-1])
            return start_inverse(*args)

        monkeypatch.setattr(solvers._Operator, "gram_row", logged)
        monkeypatch.setattr(solvers, "_path", path_logged)
        monkeypatch.setattr(solvers, "_start_inverse", inverse_logged)
        for algo in ("l1", "rw-lasso", "cwb-noisy"):
            run_algorithm(algo, inst, CFG)
        memo = solvers._operator(inst).gram_rows
        assert memo.keys() == rows.keys() and len(memo) < inst.n // 2
        for i, row in memo.items():
            assert np.array_equal(row, inst.phi[:, i] @ inst.phi)
        assert warm_calls.count(True) == 1 + CFG.rw_iter
        assert not any(warm_inverses)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_warm_paths_from_the_workspace_match_cleared_ones(self, monkeypatch, seed):
        # the l1 baseline, then rw-lasso, whose warm LASSO paths each start
        # on the support the path before it ended on, on two copies of one
        # instance: on the first they continue from the workspace, on the
        # second it is cleared before each of them
        clear, warm_paths, inverted = False, [], []
        path, start_inverse = solvers._path, solvers._start_inverse

        def path_logged(instance, c, max_breakpoints, warm=None, eta=None):
            if warm is not None and clear:
                solvers._operator(instance).path_size = None
            found = path(instance, c, max_breakpoints, warm, eta)
            if warm is not None:
                warm_paths.append(found)
            return found

        def inverse_logged(*args):
            inverted.append(clear)
            return start_inverse(*args)

        monkeypatch.setattr(solvers, "_path", path_logged)
        monkeypatch.setattr(solvers, "_start_inverse", inverse_logged)
        answers, ops = [], []
        for clear in (False, True):
            inst = gen_noisy(EnsembleSpec(n=256, m=128, s=38, sigma=0.05, seed=seed))
            run_algorithm("l1", inst, CFG)
            answers.append(run_algorithm("rw-lasso", inst, CFG)[0])
            ops.append(solvers._operator(inst))
        assert answers[0].tobytes() == answers[1].tobytes()
        calls = 1 + CFG.rw_iter
        assert len(warm_paths) == 2 * calls and inverted == [True] * calls
        for carried, fresh in zip(warm_paths[:calls], warm_paths[calls:]):
            assert carried[3] is None and fresh[3] is None
            assert np.array_equal(carried[0], fresh[0]) and np.array_equal(carried[1], fresh[1])
            assert carried[2] == fresh[2]
        # the inverse Gram the workspace carried through all of the first
        # copy's paths, in its order of entry, against one computed afresh
        idx, ginv, _ = ops[0].path_buffers
        k = ops[0].path_size
        support = idx[:k]
        assert np.array_equal(np.sort(support), warm_paths[calls - 1][0])
        ref = np.linalg.inv(inst.phi[:, support].T @ inst.phi[:, support])
        assert np.linalg.norm(ginv[:k, :k] - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_tie_at_step_zero_enters_the_lowest_flat_index_first(self):
        # |a_0| / c_0 = |a_2| / c_2 = 2 exactly: coordinate 2 entering with
        # sign +1 (flat index 2, row 0) comes before coordinate 0 entering
        # with sign -1 (flat index n + 0, row 1), as argmin over the steps
        # picks the first of equal ones
        inst = ProblemInstance(phi=np.array([[-1.0, 0.3, 0.0], [0.0, 0.0, 1.0]]), b=np.array([1.0, 1.0]))
        support, sigma, breakpoints, x = solvers._path(inst, np.full(3, 0.5), 100)
        assert x is None and breakpoints == 2
        assert support.tolist() == [0, 2] and sigma.tolist() == [-1.0, 1.0]
        op = _operator(inst)
        assert op.path_size == 2 and op.path_buffers[0][:2].tolist() == [2, 0]

    def test_zero_gap_at_zero_speed_never_enters(self):
        # a warm start on {0}: the zero-weight coordinate 2 (a zero column)
        # has gap 0 closing at speed 0, a rate 0 / 0; it neither enters nor
        # keeps coordinate 1, whose gap is 0 and closing, from entering
        inst = ProblemInstance(phi=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), b=np.array([2.0, 1.0]))
        c = np.array([0.25, 0.25, 0.0])
        support, sigma, breakpoints, x = solvers._path(inst, c, 100, warm=np.array([1.5, 0.0, 0.0]))
        assert x is None and breakpoints == 1
        assert support.tolist() == [0, 1] and sigma.tolist() == [1.0, 1.0]

    def test_a_coordinate_that_just_left_does_not_reenter_with_its_sign(self):
        # on this path a coordinate leaves and, by rounding, its gap on the
        # side it left from closes again at once (speed 4.4e-16 over gap 0);
        # were it let back in with the same sign, the path would leave and
        # enter it at step 0 until the breakpoint budget ran out
        phi = np.array(
            [
                [-2.0, -1.0, -1.0, 0.0, 1.0, -1.0],
                [1.0, -1.0, -2.0, 1.0, 0.0, 2.0],
                [0.0, -1.0, -2.0, -2.0, -1.0, -2.0],
                [-1.0, 2.0, 1.0, -2.0, 0.0, 1.0],
            ]
        )
        inst = ProblemInstance(phi=phi, b=np.array([-3.0, 1.0, 0.0, -1.0]))
        w = np.array([1.0, 1.0, 1.0, 1.5, 1.5, 0.5])
        support, sigma, breakpoints, x = solvers._path(inst, w / 20.0, 200)
        assert x is None and breakpoints == 6
        assert support.tolist() == [0, 1, 3, 5] and sigma.tolist() == [1.0, 1.0, -1.0, -1.0]
        rep = weighted_lasso_fista(inst, w, 20.0, None, CFG)
        assert rep.exit == "certified" and rep.iterations == 6

    def test_basis_pursuit_on_the_path_builds_no_row_basis(self):
        # Fig-1 runs solve basis pursuit on the path alone: they build Gram
        # rows, each the row it stands for, and never the row QR
        inst = gen_noiseless(EnsembleSpec(n=256, m=100, s=30, seed=0))
        for algo in ("l1", "rw-sub", "rw-cwb"):
            run_algorithm(algo, inst, SolverConfig(rw_iter=2))
        op = solvers._operator(inst)
        assert "row_qr" not in vars(op) and op.gram_rows
        for i, row in op.gram_rows.items():
            assert np.array_equal(row, inst.phi[:, i] @ inst.phi)

    def test_tie_ends_certified_or_in_the_fallback(self):
        # phi^T b ties all three coordinates, and two columns are equal
        inst = ProblemInstance(phi=np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), b=np.array([1.0, 1.0]))
        rep = weighted_lasso_fista(inst, np.ones(3), 5.0, None, CFG)
        assert rep.exit == "certified"
        # every minimizer has x_0 + x_1 = x_2 = 0.8
        assert rep.objective == pytest.approx(1.8, rel=1e-12)
        assert rep.x[0] + rep.x[1] == pytest.approx(0.8) and rep.x[2] == pytest.approx(0.8)

    @pytest.mark.parametrize(
        "zero_weights, zero_pair",
        [([], False), ([3, 5], False), ([3, 5], True)],
        ids=["unit", "zero-weight-pair", "zero-weight-zero-pair"],
    )
    def test_duplicated_column_ends_certified_or_in_the_fallback(self, zero_weights, zero_pair):
        # the path ends certified; the references are proximal gradient
        # and SLSQP. With zero weights on both equal columns, only their sum
        # is fixed, so the solution set is unbounded; when both columns are
        # zero, no zero-weight column starts on the path
        rng = np.random.default_rng(3)
        phi = rng.standard_normal((8, 16))
        phi[:, 5] = phi[:, 3]
        if zero_pair:
            phi[:, [3, 5]] = 0.0
        inst = ProblemInstance(phi=phi, b=rng.standard_normal(8))
        w = np.ones(16)
        w[zero_weights] = 0.0
        lasso = weighted_lasso_fista(inst, w, 20.0, None, CFG)
        constrained = constrained_weighted_l1(inst, w, 0.3, CFG)
        assert lasso.exit == constrained.exit == "certified"
        assert lasso.degenerate == constrained.degenerate == bool(zero_weights)
        assert lasso.objective == pytest.approx(
            fista_reference(phi, inst.b, w, 20.0)[1], rel=1e-9
        )
        assert constrained.objective == pytest.approx(
            slsqp_constrained_l1(phi, inst.b, w, 0.3), rel=1e-6
        )

    def test_equal_columns_at_tied_weights(self):
        # columns 3, 5 and 7 agree up to sign at unit weights: once one of
        # them enters, the others are tied to it and held off the support
        rng = np.random.default_rng(0)
        phi = rng.standard_normal((8, 16))
        phi[:, 5] = phi[:, 3]
        phi[:, 7] = -phi[:, 3]
        b = phi[:, [0, 3, 9]] @ np.array([1.0, 2.0, -1.5]) + 0.1 * rng.standard_normal(8)
        inst = ProblemInstance(phi=phi, b=b)
        w = np.ones(16)
        lasso = weighted_lasso_fista(inst, w, 20.0, None, CFG)
        constrained = constrained_weighted_l1(inst, w, 0.3, CFG)
        assert lasso.exit == constrained.exit == "certified"
        assert lasso.objective == pytest.approx(fista_reference(phi, b, w, 20.0)[1], rel=1e-9)
        assert constrained.objective == pytest.approx(
            slsqp_constrained_l1(phi, b, w, 0.3), rel=1e-6
        )
        for x in (lasso.x, constrained.x):
            assert np.count_nonzero(x[[3, 5, 7]]) == 1

    @pytest.mark.parametrize("algo", ["l1", "cwb-noisy"])
    def test_rank_deficient_consistent_phi_with_a_budget(self, algo):
        rng = np.random.default_rng(3)
        phi = rng.standard_normal((8, 20))
        phi[7] = phi[6]  # a repeated measurement
        x_star = np.zeros(20)
        x_star[[1, 4, 9]] = [1.0, -2.0, 0.5]
        inst = ProblemInstance(phi=phi, b=phi @ x_star, x_star=x_star, sigma=0.01, eta=0.1)
        x, trace = run_algorithm(algo, inst, CFG)
        assert np.linalg.norm(phi @ x - inst.b) <= inst.eta * (1.0 + 1e-9)
        assert len(trace.rows) == (1 if algo == "l1" else CFG.rw_iter + 1)

    def test_zero_weights_on_m_or_more_coordinates(self):
        rng = np.random.default_rng(3)
        inst = ProblemInstance(phi=rng.standard_normal((6, 12)), b=rng.standard_normal(6))
        w = np.ones(12)
        w[:6] = 0.0  # m free coordinates solve phi x = b at zero cost
        rep = weighted_lasso_fista(inst, w, 3.0, None, CFG)
        assert rep.exit == "certified" and rep.iterations == 0
        assert np.linalg.norm(inst.phi @ rep.x - inst.b) < 1e-12
        # the budget is met at zero cost: the least-squares point is the
        # answer, at multiplier 0
        rep = constrained_weighted_l1(inst, w, 0.5, CFG)
        assert rep.exit == "certified" and not rep.degenerate
        assert np.linalg.norm(inst.phi @ rep.x - inst.b) <= 0.5
        assert rep.objective == 0.0 and rep.multiplier == 0.0
        w[6] = 0.0  # more than m, more than the path holds: the
        # least-squares point on their columns, one of an unbounded set
        rep = weighted_lasso_fista(inst, w, 3.0, None, CFG)
        assert rep.exit == "certified" and rep.degenerate and rep.iterations == 0
        assert rep.objective == pytest.approx(0.0, abs=1e-24)
        assert rep.primal_residual <= CFG.inner_tol
        # the constrained answer is a least-squares point again
        rep = constrained_weighted_l1(inst, w, 0.5, CFG)
        assert rep.exit == "certified" and rep.degenerate
        assert np.linalg.norm(inst.phi @ rep.x - inst.b) <= 0.5
        assert rep.objective == 0.0 and rep.multiplier == 0.0

    @pytest.mark.parametrize("broken", ["_path", "_lasso_polish", "_constrained_root"])
    def test_a_failed_path_or_certificate_raises(self, monkeypatch, broken):
        # a path that cannot be followed fails both solvers; a support solve
        # or a root that does not certify fails the solver it serves
        inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.05, seed=1))
        monkeypatch.setattr(solvers, broken, lambda *args, **kwargs: None)
        cause = "cannot be followed" if broken == "_path" else "does not certify"
        for solve, fails in (
            (lambda: weighted_lasso_fista(inst, np.ones(64), 10.0, None, CFG), broken != "_constrained_root"),
            (lambda: constrained_weighted_l1(inst, np.ones(64), inst.eta, CFG), broken != "_lasso_polish"),
        ):
            if fails:
                with pytest.raises(NoConvergenceError, match=cause):
                    solve()
            else:
                assert solve().exit == "certified"
