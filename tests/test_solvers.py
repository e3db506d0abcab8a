import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve, qr, solve_triangular
from scipy.linalg.lapack import dgeqrf, dormqr
from scipy.optimize import linprog

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

    def test_overflowing_gram_matrix_is_rank_deficient(self):
        # phi phi^T overflows to inf, on which LAPACK potrf reports no
        # breakdown; the pivot-ratio guard (NaN fails it) rejects it
        rng = np.random.default_rng(0)
        phi = rng.standard_normal((5, 9))
        phi[2, 3] = 1e200
        inst = ProblemInstance(phi=phi, b=np.ones(5))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RankDeficientError, match="rank deficient"):
                min_l2_solution(inst)


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
    slack = _CERT_TOL * float(np.max(w, initial=0.0))
    if np.max(np.abs(corr[support] - target), initial=0.0) > slack:
        return None
    off = np.ones(n, dtype=bool)
    off[support] = False
    if np.max(np.abs(corr[off]) - w[off], initial=0.0) > slack:
        return None
    return x


def min_norm_polish(instance, w, support):
    """The polish with the minimum-norm multiplier: the certificate seeded
    with the multiplier estimate nu = 0."""
    candidate = _bp_candidate(_operator(instance), support)
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
                ref = lstsq_polish(inst, w, support, solvers._INNER_TOL)
                got = min_norm_polish(inst, w, support)
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
        assert lstsq_polish(inst, w, support, solvers._INNER_TOL) is not None
        assert _bp_candidate(_operator(inst), support) is None
        rep = weighted_basis_pursuit(inst, w)
        assert rep.converged
        oracle = lp_basis_pursuit(phi, inst.b, w)
        assert rep.objective == pytest.approx(oracle, rel=1e-6)

    def test_rounding_level_coordinates_leave_the_support(self, path_ends):
        # the unit-weight start of a Fig-1 instance: the LASSO support at a
        # small residual is the basis pursuit support plus coordinates that
        # vanish in the limit; the answer keeps none of them
        inst = gen_noiseless(EnsembleSpec(n=256, m=100, s=20, seed=0))
        rep = weighted_basis_pursuit(inst, np.ones(inst.n))
        assert rep.exit == "certified" and len(path_ends) == 1
        support = np.flatnonzero(rep.x)
        assert set(support) < set(path_ends[0][1][0])
        mags = np.abs(rep.x[support])
        assert mags.min() > solvers._BP_PRUNE * mags.max()
        assert np.array_equal(support, np.flatnonzero(inst.x_star))


class TestTriangularSolve:
    @pytest.mark.parametrize("k", [1, 20, 100])
    @pytest.mark.parametrize("trans", [0, 1])
    def test_matches_solve_triangular_bit_for_bit(self, k, trans):
        # the QR factor of a support, C-ordered (and, at k = 1, Fortran-
        # ordered as well): the same LAPACK solve as scipy's wrapper
        inst = gen_noiseless(EnsembleSpec(n=256, m=100, s=20, seed=k))
        support = np.sort(np.random.default_rng(k).choice(inst.n, k, replace=False))
        _, r, c = solvers._support_fit(_operator(inst), support)
        assert r.shape == (k, k) and r.flags.c_contiguous
        got = solvers._triangular_solve(r, c, trans)
        assert np.array_equal(got, solve_triangular(r, c, trans=trans, check_finite=False))

    @pytest.mark.parametrize("trans", [0, 1])
    def test_zero_pivot_raises(self, trans):
        r = np.triu(np.ones((3, 3)))
        r[1, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            solve_triangular(r, np.ones(3), trans=trans)
        with pytest.raises(np.linalg.LinAlgError):
            solvers._triangular_solve(r, np.ones(3), trans)


class TestSupportFit:
    @pytest.mark.parametrize("k", [1, 20, 100])
    def test_matches_scipy_economic_qr_bit_for_bit(self, k):
        # R is scipy's economic factor bit for bit (the same geqrf), on the
        # first call of a shape (which queries the workspace size) and on the
        # second (which reads it from the cache). Q is never formed: c is
        # Q_1^T b applied from the reflectors, the bits of a direct ormqr
        # call, and it and both products with Q match scipy's explicit Q
        # within rounding. phi itself is left as it was
        solvers._qr_lwork.cache_clear()
        inst = gen_noiseless(EnsembleSpec(n=256, m=100, s=20, seed=k))
        phi, b, m = inst.phi, inst.b, inst.m
        before = phi.copy()
        rng = np.random.default_rng(k)
        support = np.sort(rng.choice(inst.n, k, replace=False))
        y, nu = rng.standard_normal(k), rng.standard_normal(m)
        q_ref, r_ref = qr(phi[:, support], mode="economic", check_finite=False)
        for _ in range(2):
            qf, r, c = solvers._support_fit(_operator(inst), support)
            assert np.array_equal(r, r_ref)
            # _triangular_solve reads r as the transpose of a Fortran array
            assert r.flags.c_contiguous
            packed, tau = qf
            assert packed.shape == (m, k) and tau.shape == (k,)
            direct = dormqr("L", "T", packed, tau, b[:, None], 1)[0][:k, 0]
            assert c.tobytes() == direct.tobytes()
            assert np.abs(c - q_ref.T @ b).max() <= 1e-13 * np.linalg.norm(b)
            # Q [y; 0] = Q_1 y, and the first k entries of Q^T nu are Q_1^T nu
            qy = solvers._apply_q(qf, y, "N")
            assert qy.shape == (m,)
            assert np.abs(qy - q_ref @ y).max() <= 1e-13 * np.linalg.norm(y)
            qtnu = solvers._apply_q(qf, nu, "T")
            assert np.abs(qtnu[:k] - q_ref.T @ nu).max() <= 1e-13 * np.linalg.norm(nu)
            # Q is orthogonal: applying Q^T, then Q, gives nu back
            back = solvers._apply_q(qf, qtnu, "N")
            assert np.abs(back - nu).max() <= 1e-13 * np.linalg.norm(nu)
        assert solvers._qr_lwork.cache_info()[:2] == (1, 1)  # hits, misses
        assert np.array_equal(phi, before)

    @pytest.mark.parametrize("k", [1, 20, 100])
    def test_r_is_the_upper_triangle_of_the_packed_factor(self, k):
        # r is np.triu of geqrf's packed factor bit for bit (the sign of
        # every zero included), C-ordered, with a strict lower triangle of
        # +0.0 only, at one column, a few and m
        inst = gen_noiseless(EnsembleSpec(n=256, m=100, s=20, seed=k))
        support = np.sort(np.random.default_rng(k).choice(inst.n, k, replace=False))
        lwork = solvers._qr_lwork(inst.m, k)
        packed = dgeqrf(np.asfortranarray(inst.phi[:, support]), lwork=lwork)[0]
        _, r, _ = solvers._support_fit(_operator(inst), support)
        assert r.tobytes() == np.triu(packed[:k]).tobytes()
        assert r.flags.c_contiguous
        assert not r[np.tril_indices(k, -1)].view(np.uint64).any()

    def test_empty_oversized_and_dependent_supports_give_none(self):
        inst = gen_noiseless(EnsembleSpec(n=256, m=100, s=20, seed=0))
        assert solvers._support_fit(_operator(inst), np.array([], dtype=np.intp)) is None
        assert solvers._support_fit(_operator(inst), np.arange(inst.m + 1)) is None
        assert solvers._support_fit(_operator(inst), np.array([3, 7, 3])) is None


class TestOperator:
    def test_min_norm_solution_is_the_refined_cholesky_formula(self):
        inst = gen_noiseless(EnsembleSpec(n=256, m=100, s=30, seed=3))
        phi, b = inst.phi, inst.b
        chol = cho_factor(phi @ phi.T)
        y = cho_solve(chol, b)
        y += cho_solve(chol, b - phi @ (phi.T @ y))
        assert np.array_equal(min_l2_solution(inst), phi.T @ y)

    def test_basis_pursuit_applies_the_rank_guard_without_the_minimum_norm_solve(self):
        # the guard is the Gram matrix's Cholesky factor; the minimum-norm
        # solution is solved from that factor only when it is asked for, and
        # is then the refined formula above
        inst = gen_noiseless(EnsembleSpec(n=256, m=100, s=30, seed=3))
        assert weighted_basis_pursuit(inst, np.ones(inst.n)).converged
        op = _operator(inst)
        assert "gram_factor" in vars(op) and "x0" not in vars(op)
        phi, b = inst.phi, inst.b
        chol = cho_factor(phi @ phi.T)
        y = cho_solve(chol, b)
        y += cho_solve(chol, b - phi @ (phi.T @ y))
        assert np.array_equal(min_l2_solution(inst), phi.T @ y)
        assert "x0" in vars(op)

    def test_gram_factor_is_cho_factor(self):
        # the rank guard calls LAPACK potrf directly: the factor cho_factor
        # returns (upper), bit for bit
        inst = gen_noiseless(EnsembleSpec(n=256, m=100, s=30, seed=3))
        chol = _operator(inst).gram_factor
        ref, ref_lower = cho_factor(inst.phi @ inst.phi.T)
        assert ref_lower is False
        assert chol.flags.f_contiguous and chol.tobytes("F") == ref.tobytes("F")

    def test_lasso_runs_never_build_the_row_basis(self, monkeypatch):
        # noisy runs and basis pursuit never build the QR of phi^T; every QR
        # they make (``_support_fit``'s LAPACK geqrf) is of a support of at
        # most m columns
        shapes = []
        real_geqrf = solvers.dgeqrf

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real_geqrf(a, *args, **kwargs)

        monkeypatch.setattr(solvers, "dgeqrf", counted)
        inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.05, seed=0))
        for algo in ("l1", "rw-lasso", "cwb-noisy"):
            run_algorithm(algo, inst, SolverConfig(rw_iter=2))
        noisy = len(shapes)
        assert weighted_basis_pursuit(inst, np.ones(inst.n)).exit == "certified"
        assert len(shapes) > noisy
        assert all(rows == inst.m and cols <= inst.m for rows, cols in shapes)


class TestDualSeededCertificate:
    def test_path_dual_certifies_what_the_minimum_norm_multiplier_rejects(self):
        # the unit-weight start of a Fig-1 instance: the minimum-norm
        # multiplier of the answer's support does not certify it, while the
        # path's own multiplier does
        inst = gen_noiseless(EnsembleSpec(n=256, m=100, s=20, seed=0))
        w = np.ones(inst.n)
        rep = weighted_basis_pursuit(inst, w)
        assert rep.exit == "certified" and rep.converged
        support = np.flatnonzero(rep.x)
        candidate = _bp_candidate(_operator(inst), support)
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
                candidate = _bp_candidate(_operator(inst), support)
                decision = _bp_certified(op, w, support, candidate, np.zeros(4))
                accepted += decision
                rejected += not decision
                for scale in (0.1, 1.0, 10.0):
                    for _ in range(10):
                        nu = scale * probe.standard_normal(4)
                        assert _bp_certified(op, w, support, candidate, nu) == decision
                # nor on the weights' scale, as the minimizer does not: the
                # slack scales with max w, so tiny weights certify no more
                for scale in (1e-12, 1e12):
                    assert _bp_certified(op, scale * w, support, candidate, np.zeros(4)) == decision
        assert accepted >= 3 and rejected >= 100

    def test_a_seed_far_above_the_weights_is_refused_on_the_support(self):
        # the correction cancels the seed on the support only to the seed's
        # own rounding, about eps ||nu||: above the slack (1e-9 max w), the
        # support's equality fails and the certificate is refused, on a
        # square support that nu = 0 and every small seed certify
        rng = np.random.default_rng(0)
        phi = rng.standard_normal((4, 9))
        inst = ProblemInstance(phi=phi, b=rng.standard_normal(4))
        w = rng.uniform(0.1, 2.0, size=9)
        rep = weighted_basis_pursuit(inst, w)
        support = np.flatnonzero(rep.x)
        assert rep.exit == "certified" and support.size == inst.m
        op = _operator(inst)
        candidate = _bp_candidate(op, support)
        direction = np.random.default_rng(1).standard_normal(4)
        for scale in (0.0, 1e2, 1e4):
            assert _bp_certified(op, w, support, candidate, scale * direction)
        for scale in (1e8, 1e12):
            assert not _bp_certified(op, w, support, candidate, scale * direction)

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
                candidate = _bp_candidate(_operator(inst), support)
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
        rep = weighted_basis_pursuit(inst, w)
        assert rep.converged
        assert np.allclose(rep.x, best, atol=1e-6)

    def test_zero_weights_any_feasible(self):
        inst = ProblemInstance(phi=np.array([[1.0, 1.0]]), b=np.array([1.0]))
        rep = weighted_basis_pursuit(inst, np.zeros(2))
        assert rep.converged
        assert rep.objective == 0.0
        assert abs(rep.x.sum() - 1.0) <= solvers._INNER_TOL * (1 + 1.0)

    def test_unconstrained_coordinate_zeroed(self):
        phi = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        inst = ProblemInstance(phi=phi, b=np.array([3.0, 4.0]))
        rep = weighted_basis_pursuit(inst, np.ones(3))
        assert np.allclose(rep.x, [3.0, 4.0, 0.0], atol=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_lp_oracle(self, seed):
        rng = np.random.default_rng(seed)
        phi = rng.standard_normal((4, 9))
        b = rng.standard_normal(4)
        w = rng.uniform(0.1, 2.0, size=9)
        inst = ProblemInstance(phi=phi, b=b)
        rep = weighted_basis_pursuit(inst, w)
        oracle = lp_basis_pursuit(phi, b, w)
        assert rep.converged
        assert rep.objective <= oracle + 1e-6 * (1 + abs(oracle))
        assert rep.objective >= oracle - 1e-6 * (1 + abs(oracle))

    def test_objective_below_feasible_points(self):
        inst = gen_noiseless(EnsembleSpec(n=40, m=20, s=5, seed=9))
        w = np.random.default_rng(1).uniform(0.0, 2.0, size=40)
        rep = weighted_basis_pursuit(inst, w)
        assert rep.converged
        obj_star = w @ np.abs(inst.x_star)
        assert rep.objective <= obj_star + solvers._INNER_TOL * (1 + obj_star)
        # random feasible points: ground truth plus null-space directions
        rng = np.random.default_rng(2)
        _, _, vt = np.linalg.svd(inst.phi)
        null = vt[20:].T
        for _ in range(5):
            feas = inst.x_star + null @ rng.standard_normal(20)
            obj = w @ np.abs(feas)
            assert rep.objective <= obj + solvers._INNER_TOL * (1 + obj)

    def test_residual_contract(self):
        inst = gen_noiseless(EnsembleSpec(n=64, m=24, s=6, seed=4))
        rep = weighted_basis_pursuit(inst, np.ones(64))
        assert rep.converged
        r = np.linalg.norm(inst.phi @ rep.x - inst.b)
        assert r <= solvers._INNER_TOL * (1 + np.linalg.norm(inst.b))
        assert rep.primal_residual <= solvers._INNER_TOL

    def test_warm_matches_cold(self):
        # a re-solve warm from an earlier answer's report
        inst = gen_noiseless(EnsembleSpec(n=48, m=20, s=5, seed=11))
        first = weighted_basis_pursuit(inst, np.ones(48))
        w = 1.0 / (np.abs(inst.x_star) + 0.1)
        cold = weighted_basis_pursuit(inst, w)
        warm = weighted_basis_pursuit(inst, w, first)
        assert cold.exit == warm.exit == "certified"
        assert abs(cold.objective - warm.objective) <= 10 * solvers._INNER_TOL * (1 + cold.objective)

    def test_warm_restart_at_unchanged_weights_takes_no_breakpoint(self):
        # the splitting re-solved these weights from the previous answer in
        # 2 200 iterations after a 1 380-iteration cold solve; the path
        # continues from the carried LASSO point, which already solves them
        inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.05, seed=1))
        cold = weighted_basis_pursuit(inst, np.ones(64))
        again = weighted_basis_pursuit(inst, np.ones(64), cold)
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

        def recorded(instance, w, warm):
            calls.append((instance, w.copy(), warm))
            return bp(instance, w, warm)

        monkeypatch.setattr(reweight, "weighted_basis_pursuit", recorded)
        for s, seed in itertools.product((20, 30, 40, 50), (0, 1)):
            inst = gen_noiseless(EnsembleSpec(n=256, m=100, s=s, seed=seed))
            for algo in ("l1", "rw-sub", "rw-cwb"):
                run_algorithm(algo, inst, SolverConfig(rw_iter=2))
        assert len(calls) == 40
        assert sum(warm is None for _, _, warm in calls) == 8
        for inst, w, warm in calls:
            rep = weighted_basis_pursuit(inst, w, warm)
            assert rep.exit == "certified"
            exact = _bp_candidate(_operator(inst), np.flatnonzero(rep.x))[2]
            assert rep.x.tobytes() == exact.tobytes()

    def test_a_warm_resolve_is_not_turned_cold_by_rounding(self, monkeypatch, path_ends):
        # rw-sub's second re-solve on this Fig-1 instance starts from a LASSO
        # point whose a_S rounds a few 1e-16 below zero on zero-weight
        # coordinates, past a sign-test slack of _CERT_TOL max |a| alone
        # (max |a| is about 1e-7): the warm path gave up there and the solve
        # walked a cold one. It walks warm and ends on the cold path's
        # answer, bit for bit
        resolves = []
        bp = reweight.weighted_basis_pursuit

        def recorded(instance, w, warm):
            first = len(path_ends)
            rep = bp(instance, w, warm)
            resolves.append((w.copy(), warm, rep, path_ends[first:]))
            return rep

        monkeypatch.setattr(reweight, "weighted_basis_pursuit", recorded)
        inst = gen_noiseless(EnsembleSpec(n=256, m=100, s=20, seed=2))
        run_algorithm("rw-sub", inst, SolverConfig(rw_iter=2))
        assert len(resolves) == 3
        w, warm, rep, ends = resolves[-1]
        assert warm.lasso_point is not None
        assert [eta for eta, _ in ends] == [None] and ends[0][1] is not None
        cold = weighted_basis_pursuit(inst, w)
        assert rep.exit == cold.exit == "certified"
        assert rep.x.tobytes() == cold.x.tobytes()

    def test_iteration_cap_reports_nonconverged(self, monkeypatch):
        inst = gen_noiseless(EnsembleSpec(n=64, m=24, s=20, seed=1))
        monkeypatch.setattr(solvers, "_MAX_BREAKPOINTS", 3)
        rep = weighted_basis_pursuit(inst, np.ones(64))
        assert not rep.converged
        assert rep.iterations == 3
        assert rep.exit == "max_iter"

    def test_exit_says_how_the_solve_stopped(self, monkeypatch):
        # a certified answer on the path, or the breakpoint budget run out
        # on a cold path; a path that cannot certify raises instead
        inst = gen_noiseless(EnsembleSpec(n=64, m=24, s=6, seed=4))
        certified = weighted_basis_pursuit(inst, np.ones(64))
        assert certified.exit == "certified" and certified.converged
        assert certified.primal_residual <= solvers._INNER_TOL
        monkeypatch.setattr(solvers, "_MAX_BREAKPOINTS", 2)
        capped = weighted_basis_pursuit(inst, np.ones(64))
        assert capped.exit == "max_iter" and not capped.converged
        assert capped.iterations == 2 < certified.iterations
        assert capped.primal_residual > solvers._INNER_TOL and capped.lasso_point is None
        monkeypatch.setattr(solvers, "_path", lambda *args, **kwargs: None)
        with pytest.raises(NoConvergenceError, match="no basis pursuit path certifies"):
            weighted_basis_pursuit(inst, np.ones(64))

    def test_a_warm_path_out_of_breakpoints_is_followed_by_the_cold_ones(self, monkeypatch):
        # at these weights the warm path from the unit-weight answer walks 9
        # breakpoints and the cold one 3: under a budget of 5 the warm path
        # runs out, its breakpoints count, and the cold path answers
        inst = gen_noiseless(EnsembleSpec(n=24, m=12, s=3, seed=0))
        warm = weighted_basis_pursuit(inst, np.ones(24))
        w = np.random.default_rng(0).uniform(0.1, 10.0, (3, 24))[2]
        cold = weighted_basis_pursuit(inst, w)
        assert cold.iterations == 3 and weighted_basis_pursuit(inst, w, warm).iterations == 9
        monkeypatch.setattr(solvers, "_MAX_BREAKPOINTS", 5)
        rep = weighted_basis_pursuit(inst, w, warm)
        assert rep.exit == "certified" and rep.iterations == 5 + cold.iterations
        assert rep.x.tobytes() == cold.x.tobytes()

    @pytest.mark.parametrize(
        "warm", [np.ones(1), np.full(64, np.nan), np.ones((64, 1)), np.ones(65), np.ones(64)]
    )
    def test_malformed_warm_start_is_rejected(self, warm):
        # a length that broadcasts, NaN entries, a column, one entry too
        # many, and a vector: only None or a report is a warm start
        inst = gen_noiseless(EnsembleSpec(n=64, m=32, s=6, seed=0))
        with pytest.raises(ConfigurationError, match="warm start"):
            weighted_basis_pursuit(inst, np.ones(64), warm)

    def test_warm_start_is_not_modified(self, monkeypatch):
        inst = gen_noiseless(EnsembleSpec(n=64, m=32, s=6, seed=0))
        warm = weighted_basis_pursuit(inst, np.ones(64))
        x, (x_l, t) = warm.x.copy(), warm.lasso_point
        x_l = x_l.copy()
        w = 1.0 / (np.abs(warm.x) + 0.1)
        for budget in (solvers._MAX_BREAKPOINTS, 3):
            monkeypatch.setattr(solvers, "_MAX_BREAKPOINTS", budget)
            rep = weighted_basis_pursuit(inst, w, warm)
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
    assert rep.primal_residual <= solvers._INNER_TOL


class TestEveryInputOnThePath:
    """Inputs that the path's start does not reach, or that tie."""

    def test_zero_observation(self):
        rng = np.random.default_rng(0)
        inst = ProblemInstance(phi=rng.standard_normal((10, 30)), b=np.zeros(10))
        w = rng.uniform(0.1, 2.0, 30)
        rep = weighted_basis_pursuit(inst, w)
        assert_lp_optimal(rep, inst, w)
        assert np.all(rep.x == 0.0) and rep.iterations == 0 and not rep.degenerate

    def test_all_zero_weights_with_more_columns_than_rows(self):
        rng = np.random.default_rng(1)
        inst = ProblemInstance(phi=rng.standard_normal((10, 30)), b=rng.standard_normal(10))
        rep = weighted_basis_pursuit(inst, np.zeros(30))
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
        rep = weighted_basis_pursuit(inst, w)
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
        assert_lp_optimal(weighted_basis_pursuit(inst, w), inst, w)

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
        rep = weighted_basis_pursuit(inst, w)
        assert_lp_optimal(rep, inst, w)
        assert np.count_nonzero(rep.x[[1, 3]]) == 1

    def test_square_support_with_a_coordinate_that_crosses_zero(self, path_ends):
        # the first cold path ends on a square support whose exact solve has
        # a coordinate of -1.5e-8 where the path's sign is +1: it crosses
        # zero on the way to the limit, and the other 9 coordinates certify.
        # Their span lies 3e-9 from b, so the answer meets phi x = b within
        # _INNER_TOL and its objective sits that far below the LP optimum
        inst = gen_noiseless(EnsembleSpec(n=20, m=10, s=4, seed=209))
        w = np.ones(20)
        rep = weighted_basis_pursuit(inst, w)
        oracle = lp_basis_pursuit(inst.phi, inst.b, w)
        assert rep.exit == "certified" and rep.primal_residual <= solvers._INNER_TOL
        assert 0.0 < oracle - rep.objective <= solvers._INNER_TOL * (1.0 + oracle)
        (_, (support, sigma, _, _)), = path_ends
        assert support.size == inst.m and np.count_nonzero(rep.x) == inst.m - 1
        crossed = support[np.sign(rep.x[support]) != sigma]
        assert crossed.size == 1 and rep.x[crossed[0]] == 0.0
        # every basis pursuit solve of the four noiseless algorithms answers
        for algo in ("l1", "rw-sub", "rw-cwb", "oracle"):
            x, _ = run_algorithm(algo, inst, SolverConfig(rw_iter=4))
            assert recovered(x, inst.x_star), algo

    def test_criterion_6_resolve_certifies_at_the_second_budget(self, path_ends):
        # the cold path to the first budget ends on a square support that is
        # not the basis pursuit support; the one to the second certifies
        (source, inst, w), = [rec for rec in recorded_resolves() if rec[0].startswith("rw-cwb")]
        rep = weighted_basis_pursuit(inst, w)
        assert_lp_optimal(rep, inst, w)
        etas = [eta / np.linalg.norm(inst.b) for eta, _ in path_ends]
        assert etas == pytest.approx(list(solvers._BP_ETAS), rel=1e-12)
        (_, first), (_, second) = path_ends
        assert first[0].size == inst.m
        assert rep.iterations == first[2] + second[2]

    def test_max_iter_exit(self, monkeypatch, path_ends):
        # a cold path that runs out of breakpoints ends the solve with the
        # minimizer at the weights it reached
        inst = gen_noiseless(EnsembleSpec(n=64, m=24, s=20, seed=1))
        w = np.ones(64)
        monkeypatch.setattr(solvers, "_MAX_BREAKPOINTS", 5)
        rep = weighted_basis_pursuit(inst, w)
        assert rep.exit == "max_iter" and rep.iterations == 5 and len(path_ends) == 1
        assert rep.x.tobytes() == path_ends[0][1][3].tobytes()
        assert rep.objective == w @ np.abs(rep.x) and rep.lasso_point is None
        resid = np.linalg.norm(inst.phi @ rep.x - inst.b) / (1.0 + np.linalg.norm(inst.b))
        assert rep.primal_residual == pytest.approx(resid, rel=1e-15) and resid > solvers._INNER_TOL


class TestWeightedLassoFista:
    def _scalar(self):
        return ProblemInstance(phi=np.array([[1.0]]), b=np.array([3.0]))

    def test_scalar_prox(self):
        rep = weighted_lasso_fista(self._scalar(), np.array([1.0]), 1.0)
        assert rep.x[0] == pytest.approx(2.0, abs=1e-8)

    def test_threshold_exceeds_observation(self):
        rep = weighted_lasso_fista(self._scalar(), np.array([4.0]), 1.0)
        assert rep.x[0] == 0.0

    def test_large_multiplier(self):
        rep = weighted_lasso_fista(self._scalar(), np.array([1.0]), 100.0)
        assert rep.x[0] == pytest.approx(2.99, abs=1e-8)
        assert rep.multiplier == 100.0

    def test_lam_zero_returns_zero(self):
        rep = weighted_lasso_fista(self._scalar(), np.array([1.0]), 0.0)
        assert np.all(rep.x == 0.0) and rep.converged and not rep.degenerate
        assert rep.multiplier == 0.0

    def test_lam_zero_with_zero_weight_flagged(self):
        rep = weighted_lasso_fista(self._scalar(), np.array([0.0]), 0.0)
        assert rep.degenerate

    def test_negative_lam_rejected(self):
        with pytest.raises(ValueError):
            weighted_lasso_fista(self._scalar(), np.array([1.0]), -1.0)

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_optimality_conditions(self, seed):
        rng = np.random.default_rng(seed)
        m, n = 12, 30
        phi = rng.standard_normal((m, n)) / np.sqrt(m)
        b = rng.standard_normal(m)
        w = rng.uniform(0.05, 1.5, size=n)
        lam = float(rng.uniform(1.0, 30.0))
        inst = ProblemInstance(phi=phi, b=b)
        rep = weighted_lasso_fista(inst, w, lam)
        assert rep.converged
        grad = lam * (phi.T @ (phi @ rep.x - b))
        tol = solvers._INNER_TOL
        for i in range(n):
            if rep.x[i] != 0.0:
                assert abs(grad[i] + w[i] * np.sign(rep.x[i])) <= tol * (1 + w[i])
            else:
                assert abs(grad[i]) <= w[i] + tol

    @pytest.mark.parametrize("max_iter", [7, 25, 5000])
    def test_reported_violation_matches_a_fresh_gradient(self, monkeypatch, max_iter):
        inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.05, seed=1))
        w = np.random.default_rng(4).uniform(0.5, 2.0, 64)
        lam = 40.0
        monkeypatch.setattr(solvers, "_MAX_BREAKPOINTS", max_iter)
        rep = weighted_lasso_fista(inst, w, lam)
        grad = lam * (inst.phi.T @ (inst.phi @ rep.x - inst.b))
        on = rep.x != 0.0
        fresh = max(
            np.max(np.abs(grad[on] + w[on] * np.sign(rep.x[on])) / (1.0 + w[on]), initial=0.0),
            np.max(np.maximum(np.abs(grad[~on]) - w[~on], 0.0), initial=0.0),
        )
        assert rep.primal_residual == pytest.approx(fresh, rel=1e-12, abs=1e-15)
        resid = inst.phi @ rep.x - inst.b
        assert rep.objective == pytest.approx(0.5 * lam * resid @ resid + w @ np.abs(rep.x), rel=1e-14)

    def test_zero_is_returned_below_the_first_breakpoint(self):
        inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.05, seed=1))
        w = np.random.default_rng(4).uniform(0.5, 2.0, 64)
        corr = np.abs(inst.phi.T @ inst.b)
        lam_zero = float(np.min(w / corr))  # x = 0 is optimal up to here
        below = weighted_lasso_fista(inst, w, lam_zero * (1.0 - 1e-9), np.ones(64))
        assert np.all(below.x == 0.0) and below.iterations == 0
        assert below.exit == "certified" and not below.degenerate
        assert below.objective == pytest.approx(0.5 * lam_zero * (1.0 - 1e-9) * inst.b @ inst.b)
        above = weighted_lasso_fista(inst, w, lam_zero * 1.01)
        assert above.iterations > 0 and np.count_nonzero(above.x) > 0
        # a zero weight where phi^T b vanishes: x = 0 is the unique minimizer
        inst = ProblemInstance(phi=np.eye(2), b=np.array([1.0, 0.0]))
        rep = weighted_lasso_fista(inst, np.array([2.0, 0.0]), 1.0)
        assert np.all(rep.x == 0.0) and rep.iterations == 0 and not rep.degenerate

    @pytest.mark.parametrize("warm", [np.ones(1), np.full(64, np.inf), np.ones((64, 1)), np.ones(65)])
    def test_malformed_warm_start_is_rejected(self, warm):
        inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.05, seed=0))
        with pytest.raises(ConfigurationError, match="warm start"):
            weighted_lasso_fista(inst, np.ones(64), 10.0, warm)

    def test_a_warm_start_on_a_column_in_the_span_walks_cold(self):
        # splitting a coefficient over a column and its copy gives another
        # minimizer, but the path cannot border the copy onto the column:
        # the warm path gives up at its start and the cold path answers
        base = gen_noiseless(EnsembleSpec(n=24, m=12, s=3, seed=0))
        x = weighted_lasso_fista(base, np.ones(24), 20.0).x
        i, j = int(np.flatnonzero(x)[0]), int(np.flatnonzero(x == 0.0)[0])
        phi = base.phi.copy()
        phi[:, j] = phi[:, i]
        inst = ProblemInstance(phi=phi, b=base.b)
        cold = weighted_lasso_fista(inst, np.ones(24), 20.0)
        assert cold.exit == "certified" and cold.x[i] != 0.0 and cold.x[j] == 0.0
        split = cold.x.copy()
        split[[i, j]] = cold.x[i] / 2
        rep = weighted_lasso_fista(inst, np.ones(24), 20.0, split)
        assert rep.x.tobytes() == cold.x.tobytes() and rep.iterations == cold.iterations

    def test_more_zero_weights_than_rows_on_columns_that_miss_b_do_not_certify(self):
        # four zero weights on copies of e1 with m = 3: their least-squares
        # fit leaves phi x - b = (0, -1, -1), a gradient of magnitude 10 on
        # e2 and e3 above their unit weights, so the fit is not the minimizer
        phi = np.array([[1.0, 1.0, 1.0, 1.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
                        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]])
        inst = ProblemInstance(phi=phi, b=np.ones(3))
        w = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0])
        with pytest.raises(NoConvergenceError, match="zero-weight least-squares fit does not certify"):
            weighted_lasso_fista(inst, w, 10.0)

    def test_warm_start_converges_fast(self):
        inst = gen_noiseless(EnsembleSpec(n=40, m=20, s=5, seed=2))
        w = np.ones(40)
        first = weighted_lasso_fista(inst, w, 20.0)
        again = weighted_lasso_fista(inst, w, 20.0, first.x)
        assert again.iterations <= first.iterations
        assert again.objective == pytest.approx(first.objective, rel=1e-9)


def assert_constrained_minimizer(inst, w, eta, rep):
    """The census's check of a certified constrained answer: it lies on
    its budget within 1e-9 eta, and its LASSO objective at its own
    multiplier is within 1e-9 (relative) of ``fista_reference`` there,
    which by duality makes it the constrained minimizer."""
    assert rep.exit == "certified"
    resid = inst.phi @ rep.x - inst.b
    assert abs(np.linalg.norm(resid) - eta) <= 1e-9 * eta
    value = 0.5 * rep.multiplier * (resid @ resid) + w @ np.abs(rep.x)
    reference = fista_reference(inst.phi, inst.b, w, rep.multiplier)[1]
    assert value == pytest.approx(reference, rel=1e-9)


@pytest.mark.parametrize(
    "solve, name",
    [
        (lambda inst: weighted_lasso_fista(inst, np.ones(2), np.nan), "lam"),
        (lambda inst: weighted_lasso_fista(inst, np.ones(2), np.inf), "lam"),
        (lambda inst: constrained_weighted_l1(inst, np.ones(2), np.nan), "eta"),
    ],
    ids=["lam-nan", "lam-inf", "eta-nan"],
)
def test_a_multiplier_or_budget_that_is_nan_or_infinite_is_rejected(solve, name):
    inst = ProblemInstance(phi=np.array([[1.0, 2.0]]), b=np.array([1.0]))
    with pytest.raises(ValueError, match=name):
        solve(inst)


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-156, 1e155, 1e300])
def test_a_uniform_weight_scale_keeps_every_answer(scale):
    # the basis pursuit and constrained minimizers do not depend on a
    # positive weight scale, nor the LASSO's when lam scales with it; the
    # budget's closed form takes ||g|| for g = R^{-T} w_S sigma, whose
    # square overflows or underflows at these scales
    inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.05, seed=1))
    w = np.ones(64)
    for solve in (
        lambda w, lam: weighted_basis_pursuit(inst, w),
        lambda w, lam: weighted_lasso_fista(inst, w, lam),
        lambda w, lam: constrained_weighted_l1(inst, w, inst.eta),
    ):
        unit, scaled = solve(w, 10.0), solve(scale * w, 10.0 * scale)
        assert unit.exit == scaled.exit == "certified"
        assert np.abs(scaled.x - unit.x).max() <= 1e-14 * np.abs(unit.x).max()


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_the_lasso_certificate_reads_the_same_at_every_weight_scale(scale):
    # (w, lam) and (c w, c lam) have one minimizer: it certifies at every
    # scale, and x = 0 and half the minimizer fail at every scale. Read at
    # (w, lam) itself, both would certify at 1e-12 (x = 0 reads 3.1e-12
    # there, against the tolerance 1e-9)
    inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.05, seed=1))
    w = np.ones(64)
    x = weighted_lasso_fista(inst, w, 10.0).x

    def violation(x):
        return solvers._lasso_certificate(inst, scale * w, 10.0 * scale, x)[1]

    assert violation(x) <= solvers._INNER_TOL
    assert violation(np.zeros(64)) > 1.0
    assert violation(x / 2) > 1.0
    rep = weighted_lasso_fista(inst, scale * w, 10.0 * scale)
    assert rep.exit == "certified" and rep.primal_residual <= solvers._INNER_TOL


@pytest.mark.parametrize("lam", [1e-12, 1.0, 1e6, 1e12])
def test_the_lasso_certificate_at_zero_weights_reads_the_gradient_scale(lam):
    # at all-zero weights the minimizer is the least-squares fit at every
    # lam > 0, and the certificate is read at lam / s with
    # s = lam ||phi^T b||_inf: x = 0 reads 1 at every lam (read at lam
    # itself, lam ||phi^T b||_inf, which certifies at 1e-12), and so does
    # the fit with one coordinate moved by 1e-3 (above 1e-6), while the
    # solver's least-squares fit certifies (read at lam itself, its
    # rounding grew with lam and failed at 1e12); at b = 0, s is 1
    inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.05, seed=1))
    zeros = np.zeros(64)
    assert solvers._lasso_certificate(inst, zeros, lam, zeros)[1] == 1.0
    rep = weighted_lasso_fista(inst, zeros, lam)
    assert rep.exit == "certified" and rep.degenerate and np.any(rep.x)
    assert rep.primal_residual <= solvers._INNER_TOL
    moved = rep.x.copy()
    moved[np.flatnonzero(moved)[0]] += 1e-3
    assert solvers._lasso_certificate(inst, zeros, lam, moved)[1] > 1e-6
    still = ProblemInstance(phi=inst.phi, b=np.zeros(32))
    assert solvers._lasso_certificate(still, zeros, lam, zeros)[1] == 0.0


def _where_certificate(instance, w, lam, x):
    """The LASSO certificate with both conditions over every coordinate
    (np.where), scaled as ``_lasso_certificate`` scales it."""
    s = min(1.0, float(w.max(initial=0.0)))
    if not s:
        s = lam * float(np.abs(instance.phi.T @ instance.b).max()) or 1.0
    w, lam = w / s, lam / s
    resid = instance.phi @ x - instance.b
    grad = lam * (instance.phi.T @ resid)
    viol = np.where(
        x != 0.0,
        np.abs(grad + w * np.sign(x)) / (1.0 + w),
        np.maximum(np.abs(grad) - w, 0.0),
    )
    return resid, float(np.max(viol, initial=0.0))


def test_the_lasso_certificate_keeps_the_bits_of_the_where_form(monkeypatch):
    # the certificate evaluates the support's conditions on the support
    # only: on every certificate of three noisy-panel seeds' runs (n=256,
    # m=128, s=38), the residual and the violation are those of both
    # conditions over every coordinate, bit for bit
    seen = []
    certificate = solvers._lasso_certificate

    def recorded(instance, w, lam, x):
        got = certificate(instance, w, lam, x)
        seen.append((got, _where_certificate(instance, w, lam, x)))
        return got

    monkeypatch.setattr(solvers, "_lasso_certificate", recorded)
    for seed in range(3):
        inst = gen_noisy(EnsembleSpec(n=256, m=128, s=38, sigma=0.05, seed=seed))
        for algo in ("l1", "rw-lasso", "cwb-noisy"):
            run_algorithm(algo, inst, CFG)
    assert len(seen) >= 20
    for (resid, viol), (ref_resid, ref_viol) in seen:
        assert resid.tobytes() == ref_resid.tobytes()
        assert np.float64(viol).tobytes() == np.float64(ref_viol).tobytes()


class TestConstrainedWeightedL1:
    def test_large_budget_returns_zero(self):
        inst = ProblemInstance(phi=np.array([[1.0, 2.0]]), b=np.array([1.0]))
        rep = constrained_weighted_l1(inst, np.array([1.0, 1.0]), 2.0)
        assert np.all(rep.x == 0.0) and rep.converged
        assert rep.multiplier == 0.0  # the budget is inactive

    def test_zero_budget_delegates_to_equality(self):
        inst = ProblemInstance(phi=np.array([[1.0, 1.0]]), b=np.array([1.0]))
        w = np.array([1.0, 2.0])
        rep = constrained_weighted_l1(inst, w, 0.0)
        eq = weighted_basis_pursuit(inst, w)
        assert np.allclose(rep.x, eq.x, atol=1e-8)

    def test_scalar_analytic(self):
        # min |x| s.t. |x - 3| <= 1 has solution x = 2
        inst = ProblemInstance(phi=np.array([[1.0]]), b=np.array([3.0]))
        rep = constrained_weighted_l1(inst, np.array([1.0]), 1.0)
        assert rep.x[0] == pytest.approx(2.0, abs=1e-12)
        assert rep.converged

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_the_reference_at_its_multiplier(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        phi = rng.standard_normal((2, n))
        b = rng.standard_normal(2)
        eta = float(0.4 * np.linalg.norm(b))
        inst = ProblemInstance(phi=phi, b=b)
        rep = constrained_weighted_l1(inst, np.ones(n), eta)
        assert_constrained_minimizer(inst, np.ones(n), eta, rep)

    def test_negative_budget_rejected(self):
        inst = ProblemInstance(phi=np.array([[1.0, 1.0]]), b=np.array([1.0]))
        with pytest.raises(ValueError):
            constrained_weighted_l1(inst, np.ones(2), -0.5)

    def test_residual_lands_in_band(self):
        inst = gen_noiseless(EnsembleSpec(n=32, m=16, s=4, seed=8))
        eta = 0.3 * np.linalg.norm(inst.b)
        rep = constrained_weighted_l1(inst, np.ones(32), float(eta))
        res = np.linalg.norm(inst.phi @ rep.x - inst.b)
        assert abs(res - eta) <= 1e-12 * eta

    def test_multiplier_satisfies_lasso_conditions(self):
        # the reported multiplier lam makes x a LASSO minimizer, and the
        # budget is met with equality (complementary slackness, lam > 0)
        inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.05, seed=1))
        w = np.random.default_rng(3).uniform(0.5, 2.0, 64)
        rep = constrained_weighted_l1(inst, w, inst.eta)
        assert rep.exit == "certified"
        lam = rep.multiplier
        assert 0.0 < lam < np.inf
        resid = inst.phi @ rep.x - inst.b
        assert abs(np.linalg.norm(resid) - inst.eta) <= 1e-12 * inst.eta
        grad = lam * (inst.phi.T @ resid)
        on = rep.x != 0.0
        assert np.all(np.abs(grad[on] + w[on] * np.sign(rep.x[on])) <= solvers._INNER_TOL * (1 + w[on]))
        assert np.all(np.abs(grad[~on]) <= w[~on] + solvers._INNER_TOL)


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

    def test_exit_and_breakpoints(self, monkeypatch):
        # one breakpoint for a scalar, a certified support solve, and a cap
        # below the breakpoint count: the minimizer at the weights the path
        # reached, not converged
        scalar = ProblemInstance(phi=np.array([[1.0]]), b=np.array([3.0]))
        rep = weighted_lasso_fista(scalar, np.array([1.0]), 1.0)
        assert rep.exit == "certified" and rep.iterations == 1 and rep.x[0] == 2.0
        rng = np.random.default_rng(0)
        phi = rng.standard_normal((12, 30)) / np.sqrt(12)
        inst = ProblemInstance(phi=phi, b=rng.standard_normal(12))
        rep = weighted_lasso_fista(inst, np.ones(30), 10.0)
        assert rep.exit == "certified" and rep.iterations > 3
        monkeypatch.setattr(solvers, "_MAX_BREAKPOINTS", 3)
        capped = weighted_lasso_fista(inst, np.ones(30), 10.0)
        assert capped.exit == "max_iter" and not capped.converged
        assert capped.iterations == 3 and capped.primal_residual > solvers._INNER_TOL
        # three breakpoints enter three coordinates; on them x solves the
        # LASSO at the weights reached, which are uniform
        support = np.flatnonzero(capped.x)
        assert support.size == 3
        corr = phi.T @ (inst.b - phi @ capped.x)
        assert np.allclose(np.abs(corr[support]), np.abs(corr[support[0]]), rtol=1e-12)
        assert np.all(np.sign(corr[support]) == np.sign(capped.x[support]))

    def test_constrained_exit_and_breakpoints(self, monkeypatch):
        # a cap below the breakpoint count ends the constrained path before
        # the budget: the LASSO minimizer there, its residual above eta
        inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.05, seed=1))
        rep = constrained_weighted_l1(inst, np.ones(64), inst.eta)
        assert rep.exit == "certified" and rep.iterations > 3
        monkeypatch.setattr(solvers, "_MAX_BREAKPOINTS", 3)
        capped = constrained_weighted_l1(inst, np.ones(64), inst.eta)
        assert capped.exit == "max_iter" and not capped.converged
        assert capped.iterations == 3 and np.isnan(capped.multiplier)
        res = np.linalg.norm(inst.phi @ capped.x - inst.b)
        assert res > inst.eta
        assert capped.primal_residual == abs(res - inst.eta) / inst.eta
        assert np.count_nonzero(capped.x) == 3

    def test_a_budget_the_running_residual_drifts_past_ends_on_the_fit(self):
        # at a budget of 1e-10 ||b||, far below the rounding of the running
        # ||phi x - b||^2 (about eps ||b||^2), that running value reaches
        # t = 1 above eta^2 on this instance; the least-squares fit on the
        # final support (c = 0 there) meets the budget, so the path returns
        # that support, basis pursuit's, instead of None
        inst = gen_noiseless(EnsembleSpec(n=16, m=8, s=4, seed=24))
        eta = 1e-10 * np.linalg.norm(inst.b)
        found = solvers._path(inst, np.ones(16), eta=eta)
        assert found is not None and found[3] is None
        support, sigma = found[0], found[1]
        bp = weighted_basis_pursuit(inst, np.ones(16))
        assert support.tolist() == np.flatnonzero(bp.x).tolist() and support.size == inst.m
        assert sigma.tolist() == np.sign(bp.x[support]).tolist()
        fit = np.linalg.lstsq(inst.phi[:, support], inst.b, rcond=None)[0]
        assert np.linalg.norm(inst.b - inst.phi[:, support] @ fit) <= eta

    def test_first_breakpoint_is_one_entry(self):
        # the path side of the test on x = 0 below the first breakpoint:
        # just above it, the first entry is the only breakpoint
        inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.05, seed=1))
        w = np.random.default_rng(4).uniform(0.5, 2.0, 64)
        corr = inst.phi.T @ inst.b
        first = int(np.argmin(w / np.abs(corr)))
        lam_zero = float(w[first] / abs(corr[first]))
        above = weighted_lasso_fista(inst, w, lam_zero * 1.01)
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
        lasso = weighted_lasso_fista(inst, w, 30.0)
        assert lasso.exit == "certified"
        assert lasso.objective == pytest.approx(fista_reference(phi, b, w, 30.0)[1], rel=1e-9)
        constrained = constrained_weighted_l1(inst, w + 0.1, inst.eta)
        assert constrained.exit == "certified"
        x, _ = fista_reference(phi, b, w + 0.1, constrained.multiplier)
        assert abs(np.linalg.norm(phi @ x - b) - inst.eta) <= 1e-9 * inst.eta
        assert constrained.objective == pytest.approx((w + 0.1) @ np.abs(x), rel=1e-6)

    def test_warm_start_from_an_exact_point(self):
        inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.05, seed=1))
        w = np.random.default_rng(4).uniform(0.5, 2.0, 64)
        cold = weighted_lasso_fista(inst, w, 40.0)
        again = weighted_lasso_fista(inst, w, 40.0, cold.x)
        assert again.iterations == 0 and np.array_equal(again.x, cold.x)
        # at new weights and multiplier the warm path moves from the weights
        # cold.x solves, and ends where a cold path does
        w2, lam2 = w * np.random.default_rng(5).uniform(0.5, 1.0, 64), 60.0
        resolve = weighted_lasso_fista(inst, w2, lam2, cold.x)
        fresh = weighted_lasso_fista(inst, w2, lam2)
        assert resolve.exit == "certified" and np.array_equal(resolve.x, fresh.x)
        assert resolve.iterations < fresh.iterations

    def test_warm_start_from_a_non_optimal_point_takes_the_cold_path(self):
        inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.05, seed=1))
        w = np.random.default_rng(4).uniform(0.5, 2.0, 64)
        cold = weighted_lasso_fista(inst, w, 40.0)
        flipped = cold.x.copy()
        i = np.flatnonzero(flipped)[0]
        flipped[i] = -flipped[i]  # no weights make this point optimal
        for warm in (flipped, np.ones(64)):  # |S| = 64 > m as well
            rep = weighted_lasso_fista(inst, w, 40.0, warm)
            assert np.array_equal(rep.x, cold.x) and rep.iterations == cold.iterations

    def test_constrained_path_makes_no_lasso_solve(self, monkeypatch):
        # the path runs cold in 1/lam, at unit and at reweighted weights
        inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.05, seed=1))
        monkeypatch.setattr(solvers, "weighted_lasso_fista", None)
        first = constrained_weighted_l1(inst, np.ones(64), inst.eta)
        w = 1.0 / (np.abs(first.x) + 0.1)
        rep = constrained_weighted_l1(inst, w, inst.eta)
        assert first.exit == rep.exit == "certified" and rep.iterations > 0

    def test_constrained_path_meets_the_budget(self):
        # a unit-weight start of the noisy panel whose budget root lies just
        # past a support breakpoint
        inst = gen_noisy(EnsembleSpec(n=256, m=128, s=38, sigma=0.05, seed=2))
        phi, b = inst.phi, inst.b
        rep = constrained_weighted_l1(inst, np.ones(256), inst.eta)
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
            reports.append(weighted_lasso_fista(inst, w, lam))
        assert {rep.exit for rep in reports} == {"certified"}

    def test_warm_path_from_uniform_weights_continues_the_cold_path(self):
        # a point solved at uniform weights 1/lam1 starts the warm path at
        # those weights, so it walks only the cold path's breakpoints
        # between 1/lam1 and 1/lam2, and ends where the cold path ends
        for seed in range(3):
            inst = gen_noisy(EnsembleSpec(n=256, m=128, s=38, sigma=0.05, seed=seed))
            for lam1, lam2 in ((5.0, 20.0), (20.0, 80.0)):
                first = weighted_lasso_fista(inst, np.ones(256), lam1)
                cold = weighted_lasso_fista(inst, np.ones(256), lam2)
                warm = weighted_lasso_fista(inst, np.ones(256), lam2, first.x)
                assert warm.exit == cold.exit == "certified"
                assert np.array_equal(warm.x, cold.x)
                assert warm.iterations == cold.iterations - first.iterations

    def test_gram_rows_are_computed_once_per_instance(self, monkeypatch):
        # each row is computed once, and a warm re-solve continues from the
        # workspace the previous path call on the instance left, so no warm
        # LASSO path borders (or re-reads the rows of) its start again: a
        # border made while the workspace holds no support is a start's
        inst = gen_noisy(EnsembleSpec(n=256, m=128, s=38, sigma=0.05, seed=0))
        rows, warm_calls, warm_borders = {}, [], []
        gram_row, path, border = solvers._Operator.gram_row, solvers._path, solvers._border

        def logged(op, i):
            row = gram_row(op, i)
            assert rows.setdefault(i, row) is row  # never computed again
            return row

        def path_logged(instance, c, warm=None, eta=None):
            warm_calls.append(warm is not None)
            return path(instance, c, warm, eta)

        def border_logged(op, *args):
            if op.path_size is None:
                warm_borders.append(warm_calls[-1])
            return border(op, *args)

        monkeypatch.setattr(solvers._Operator, "gram_row", logged)
        monkeypatch.setattr(solvers, "_path", path_logged)
        monkeypatch.setattr(solvers, "_border", border_logged)
        for algo in ("l1", "rw-lasso", "cwb-noisy"):
            run_algorithm(algo, inst, CFG)
        memo = solvers._operator(inst).gram_rows
        assert memo.keys() == rows.keys() and len(memo) < inst.n // 2
        for i, row in memo.items():
            assert np.array_equal(row, inst.phi[:, i] @ inst.phi)
        assert warm_calls.count(True) == 1 + CFG.rw_iter
        assert not any(warm_borders)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_warm_paths_from_the_workspace_match_cleared_ones(self, monkeypatch, seed):
        # the l1 baseline, then rw-lasso, whose warm LASSO paths each start
        # on the support the path before it ended on, on two copies of one
        # instance: on the first they continue from the workspace, on the
        # second it is cleared before each of them, so that they border
        # every column of their start
        clear, warm_paths, starts, bordered, expected = False, [], [], [], []
        path, border = solvers._path, solvers._border

        def path_logged(instance, c, warm=None, eta=None):
            if warm is not None and clear:
                solvers._operator(instance).path_size = None
            starts.clear()
            found = path(instance, c, warm, eta)
            if warm is not None:
                warm_paths.append(found)
                bordered.append(len(starts))
                expected.append(np.count_nonzero(warm) if clear else 0)
            return found

        def border_logged(op, k, i, pad):
            if op.path_size is None:  # a start's border
                starts.append(i)
            return border(op, k, i, pad)

        monkeypatch.setattr(solvers, "_path", path_logged)
        monkeypatch.setattr(solvers, "_border", border_logged)
        answers, ops = [], []
        for clear in (False, True):
            inst = gen_noisy(EnsembleSpec(n=256, m=128, s=38, sigma=0.05, seed=seed))
            run_algorithm("l1", inst, CFG)
            answers.append(run_algorithm("rw-lasso", inst, CFG)[0])
            ops.append(solvers._operator(inst))
        assert answers[0].tobytes() == answers[1].tobytes()
        calls = 1 + CFG.rw_iter
        assert len(warm_paths) == 2 * calls and bordered == expected and all(expected[calls:])
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

    def test_a_warm_start_around_the_workspace_borders_only_its_new_columns(self, monkeypatch):
        # rw-cwb's first re-solve on a Fig-1 instance (s = 20, seed 0) starts
        # from the unit-weight LASSO point, on 31 columns, while the
        # workspace holds the 20 that rw-sub's last re-solve ended on, all
        # among them. It keeps that block and borders only the other 11 onto
        # it, in index order, and walks the path the same start walks on a
        # cleared workspace, to the same answer bytes. The inverse Gram it
        # starts from is that of the start's columns
        path, border = solvers._path, solvers._border
        runs = []

        def path_logged(instance, c, warm=None, eta=None):
            run = runs[-1]
            if warm is None or "found" in run:
                return path(instance, c, warm, eta)
            op = _operator(instance)
            run["workspace"] = set(op.path_buffers[0][: op.path_size].tolist())
            if run["clear"]:
                op.path_size = None
            run["start"] = warm.nonzero()[0]
            run["found"] = path(instance, c, warm, eta)
            return run["found"]

        def border_logged(op, k, i, pad):
            delta = border(op, k, i, pad)
            run = runs[-1]
            if op.path_size is None and "found" not in run:  # the start's borders
                run["bordered"].append(i)
                if k + 1 == run["start"].size:
                    idx, ginv, _ = op.path_buffers
                    sub = op.phi[:, idx[: k + 1]]
                    ref = np.linalg.inv(sub.T @ sub)
                    run["error"] = np.linalg.norm(ginv[: k + 1, : k + 1] - ref) / np.linalg.norm(ref)
            return delta

        cfg, answers = SolverConfig(rw_iter=2), []
        for clear in (False, True):
            inst = gen_noiseless(EnsembleSpec(n=256, m=100, s=20, seed=0))
            run_algorithm("l1", inst, cfg)
            run_algorithm("rw-sub", inst, cfg)
            runs.append({"clear": clear, "bordered": []})
            monkeypatch.setattr(solvers, "_path", path_logged)
            monkeypatch.setattr(solvers, "_border", border_logged)
            answers.append(run_algorithm("rw-cwb", inst, cfg)[0])
            monkeypatch.setattr(solvers, "_path", path)
            monkeypatch.setattr(solvers, "_border", border)
        kept, cleared = runs
        start = kept["start"].tolist()
        assert len(kept["workspace"]) == 20 and kept["workspace"] < set(start) and len(start) == 31
        assert kept["bordered"] == [i for i in start if i not in kept["workspace"]]
        assert cleared["bordered"] == start == cleared["start"].tolist()
        assert kept["found"][3] is None and cleared["found"][3] is None
        for got, ref in zip(kept["found"][:2], cleared["found"][:2]):
            assert got.tobytes() == ref.tobytes()
        assert kept["found"][2] == cleared["found"][2]
        assert answers[0].tobytes() == answers[1].tobytes()
        assert kept["error"] <= 1e-12 and cleared["error"] <= 1e-12

    def test_a_cold_start_holds_its_dependent_zero_weights_in_index_order(self, monkeypatch):
        # zero weights on columns 2, 3, 5, 7, 9 and 11, where column 5 is a
        # copy of column 3 and column 9 is zero: the cold path borders them
        # in index order and holds exactly the two in the span of the columns
        # before them, 5 and 9, at 0 off the support. Its start is the
        # least-squares fit on the other four
        base = gen_noiseless(EnsembleSpec(n=40, m=20, s=5, seed=3))
        phi = base.phi.copy()
        phi[:, 5] = phi[:, 3]
        phi[:, 9] = 0.0
        inst = ProblemInstance(phi=phi, b=base.b)
        w = np.full(inst.n, 1e-3)  # small enough for the path to have an entry
        w[[2, 3, 5, 7, 9, 11]] = 0.0
        border, log = solvers._border, []

        def logged(op, k, i, pad):
            delta = border(op, k, i, pad)
            if op.path_size is None:
                log.append((i, delta is None))
            return delta

        monkeypatch.setattr(solvers, "_border", logged)
        monkeypatch.setattr(solvers, "_MAX_BREAKPOINTS", 0)
        found = solvers._path(inst, w)
        assert found[:3] == (None, None, 0)
        held = [i for i, dependent in log if dependent]
        assert [i for i, _ in log] == [2, 3, 5, 7, 9, 11] and held == [5, 9]
        op = _operator(inst)
        assert op.path_buffers[0][: op.path_size].tolist() == [2, 3, 7, 11]
        x = found[3]
        fit = np.linalg.lstsq(phi[:, [2, 3, 7, 11]], inst.b, rcond=None)[0]
        assert not x[held].any() and np.count_nonzero(x) == 4
        assert np.allclose(x[[2, 3, 7, 11]], fit, rtol=1e-10, atol=1e-12)

    def test_cold_paths_with_many_exits_keep_the_workspace(self, monkeypatch):
        # Fig-1 runs at s = 50, whose basis pursuit solves (the unit-weight
        # starts and the re-solves, which leave square supports) are all
        # cold paths to |S| = m = 100: on a path from no support,
        # breakpoints - |S| is twice the exits plus the holds, 552 here in
        # all. After each path the workspace holds the support it returned,
        # in the order of entry the exits keep (pinned by digest), and the
        # inverse Gram matrix of those columns in that order
        digest, excess = hashlib.sha256(), 0
        path = solvers._path

        def checked(instance, c, warm=None, eta=None):
            nonlocal excess
            found = path(instance, c, warm, eta)
            assert warm is None and eta is not None and found[3] is None
            op = _operator(instance)
            idx, ginv, _ = op.path_buffers
            k = op.path_size
            assert np.array_equal(np.sort(idx[:k]), found[0])
            digest.update(idx[:k].astype(np.int64).tobytes())
            excess += found[2] - k
            # the bordered and downdated inverse sits up to 3e-11 from a
            # fresh one on these supports (Gram condition numbers up to 1e5),
            # a fresh inverse within 1e-12 of one refined in extended
            # precision; a slip in the exit bookkeeping shows at O(1)
            sub = instance.phi[:, idx[:k]]
            ref = np.linalg.inv(sub.T @ sub)
            assert np.linalg.norm(ginv[:k, :k] - ref) <= 1e-10 * np.linalg.norm(ref)
            return found

        monkeypatch.setattr(solvers, "_path", checked)
        for seed in range(4):
            inst = gen_noiseless(EnsembleSpec(n=256, m=100, s=50, seed=seed))
            for algo in ("l1", "rw-sub", "rw-cwb"):
                run_algorithm(algo, inst, SolverConfig(rw_iter=2))
        assert excess == 552
        assert digest.hexdigest()[:16] == "92e8dc083574ac43"

    def test_signs_and_direction_are_zero_past_the_support(self, monkeypatch):
        # the path takes -d|x_S|/dt as the product of the signs and the
        # direction over the whole buffer, which holds only while both are
        # zero past the support: setup clears them, and an exit clears the
        # slot it frees. Checked after every path call of Fig-1 and noisy
        # runs, some of whose paths end below the support size they reached
        def checked(instance, *args, **kwargs):
            found = path(instance, *args, **kwargs)
            op = _operator(instance)
            if op.path_size is not None:
                sig_xb = op.path_vectors[4][:2]
                assert not sig_xb[:, op.path_size :].any()
            return found

        path = solvers._path
        monkeypatch.setattr(solvers, "_path", checked)
        inst = gen_noiseless(EnsembleSpec(n=256, m=100, s=20, seed=0))
        for algo in ("l1", "rw-sub", "rw-cwb"):
            run_algorithm(algo, inst, SolverConfig(rw_iter=2))
        inst = gen_noisy(EnsembleSpec(n=256, m=128, s=38, sigma=0.05, seed=0))
        for algo in ("l1", "rw-lasso", "cwb-noisy"):
            run_algorithm(algo, inst, SolverConfig())

    def test_inverse_is_zero_outside_the_support_block(self, monkeypatch):
        # an entry borders the inverse Gram matrix with one rank-one update
        # onto the zeros of its row and column k, so ginv must be zero
        # outside ginv[:k, :k] after every path call: a fresh start clears
        # it, and an exit clears the slot it frees, down to the last one
        inst = gen_noisy(EnsembleSpec(n=256, m=128, s=38, sigma=0.05, seed=0))
        op, w = _operator(inst), np.ones(inst.n)

        def check():
            k = op.path_size
            outside = op.path_buffers[1].copy()
            outside[:k, :k] = 0.0
            assert not outside.any()
            return k

        cold = weighted_lasso_fista(inst, w, 20.0)
        assert cold.exit == "certified" and check() == np.count_nonzero(cold.x)
        warm = weighted_lasso_fista(inst, w, 80.0, cold.x)
        assert warm.exit == "certified" and check() == np.count_nonzero(warm.x) > 20
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_MAX_BREAKPOINTS", 5)
            capped = solvers._path(inst, w, eta=inst.eta)
        assert capped[:3] == (None, None, 5) and check() == 5
        # weights at which x = 0 is optimal: from the warm answer, every
        # coordinate leaves
        lam = 0.5 / np.abs(op.corr_b).max()
        support, _, breakpoints, x = solvers._path(inst, w / lam, warm=warm.x)
        assert x is None and support.size == 0
        assert breakpoints >= np.count_nonzero(warm.x) and check() == 0

    def test_per_call_buffers_are_reused_and_carry_nothing(self, monkeypatch):
        # every path call on an instance runs in the operator's one set of
        # per-call buffers. A call made after a warm path that gave up (from
        # a square LASSO point, at its first entry) or after one that ran out
        # of breakpoints returns the bits of the same call on a fresh
        # operator, and leaves the same workspace
        def instance():
            return gen_noiseless(EnsembleSpec(n=256, m=100, s=50, seed=0))

        inst = instance()
        first = weighted_basis_pursuit(inst, np.ones(inst.n))
        x_l, t = first.lasso_point
        assert np.count_nonzero(x_l) == inst.m
        op = _operator(inst)
        vectors, buffers = op.path_vectors, op.path_buffers
        ids = [id(buf) for buf in vectors + buffers]
        w = 1.0 / (np.abs(first.x) + 0.1)
        eta = 1e-6 * np.linalg.norm(inst.b)
        calls = [(solvers._MAX_BREAKPOINTS, w, eta), (solvers._MAX_BREAKPOINTS, w / 50.0, None)]

        def same_as_fresh(capped=None):
            for budget, c, budget_eta in calls + ([] if capped is None else [capped]):
                monkeypatch.setattr(solvers, "_MAX_BREAKPOINTS", budget)
                fresh_inst = instance()
                got = solvers._path(inst, c, eta=budget_eta)
                ref = solvers._path(fresh_inst, c, eta=budget_eta)
                assert got[2] == ref[2]
                for a, b in (got[0], ref[0]), (got[1], ref[1]), (got[3], ref[3]):
                    assert (a is None) == (b is None)
                    assert a is None or a.tobytes() == b.tobytes()
                (idx, ginv, _), k = op.path_buffers, op.path_size
                fresh = _operator(fresh_inst)
                assert k == fresh.path_size
                assert idx[:k].tobytes() == fresh.path_buffers[0][:k].tobytes()
                assert ginv[:k, :k].tobytes() == fresh.path_buffers[1][:k, :k].tobytes()

        assert solvers._path(inst, t * w, warm=x_l) is None
        same_as_fresh()
        capped = (5, w, eta)
        monkeypatch.setattr(solvers, "_MAX_BREAKPOINTS", 5)
        assert solvers._path(inst, w, eta=eta)[:3] == (None, None, 5)
        same_as_fresh(capped)
        assert op.path_vectors is vectors and op.path_buffers is buffers
        assert [id(buf) for buf in op.path_vectors + op.path_buffers] == ids

    def test_tie_at_step_zero_enters_the_lowest_flat_index_first(self):
        # |a_0| / c_0 = |a_2| / c_2 = 2 exactly: coordinate 2 entering with
        # sign +1 (flat index 2, row 0) comes before coordinate 0 entering
        # with sign -1 (flat index n + 0, row 1), as argmin over the steps
        # picks the first of equal ones
        inst = ProblemInstance(phi=np.array([[-1.0, 0.3, 0.0], [0.0, 0.0, 1.0]]), b=np.array([1.0, 1.0]))
        support, sigma, breakpoints, x = solvers._path(inst, np.full(3, 0.5))
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
        support, sigma, breakpoints, x = solvers._path(inst, c, warm=np.array([1.5, 0.0, 0.0]))
        assert x is None and breakpoints == 1
        assert support.tolist() == [0, 1] and sigma.tolist() == [1.0, 1.0]

    def test_a_coordinate_that_just_left_does_not_reenter_with_its_sign(self, monkeypatch):
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
        monkeypatch.setattr(solvers, "_MAX_BREAKPOINTS", 200)
        support, sigma, breakpoints, x = solvers._path(inst, w / 20.0)
        assert x is None and breakpoints == 6
        assert support.tolist() == [0, 1, 3, 5] and sigma.tolist() == [1.0, 1.0, -1.0, -1.0]
        rep = weighted_lasso_fista(inst, w, 20.0)
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
        rep = weighted_lasso_fista(inst, np.ones(3), 5.0)
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
        # the path ends certified; the reference is proximal gradient, for
        # the constrained answer at its multiplier. With zero weights on both equal columns, only their sum
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
        lasso = weighted_lasso_fista(inst, w, 20.0)
        constrained = constrained_weighted_l1(inst, w, 0.3)
        assert lasso.exit == constrained.exit == "certified"
        assert lasso.degenerate == constrained.degenerate == bool(zero_weights)
        assert lasso.objective == pytest.approx(
            fista_reference(phi, inst.b, w, 20.0)[1], rel=1e-9
        )
        assert_constrained_minimizer(inst, w, 0.3, constrained)

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
        lasso = weighted_lasso_fista(inst, w, 20.0)
        constrained = constrained_weighted_l1(inst, w, 0.3)
        assert lasso.exit == constrained.exit == "certified"
        assert lasso.objective == pytest.approx(fista_reference(phi, b, w, 20.0)[1], rel=1e-9)
        assert_constrained_minimizer(inst, w, 0.3, constrained)
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
        rep = weighted_lasso_fista(inst, w, 3.0)
        assert rep.exit == "certified" and rep.iterations == 0
        assert np.linalg.norm(inst.phi @ rep.x - inst.b) < 1e-12
        # the budget is met at zero cost: the least-squares point is the
        # answer, at multiplier 0
        rep = constrained_weighted_l1(inst, w, 0.5)
        assert rep.exit == "certified" and not rep.degenerate
        assert np.linalg.norm(inst.phi @ rep.x - inst.b) <= 0.5
        assert rep.objective == 0.0 and rep.multiplier == 0.0
        w[6] = 0.0  # more than m, more than the path holds: the
        # least-squares point on their columns, one of an unbounded set
        rep = weighted_lasso_fista(inst, w, 3.0)
        assert rep.exit == "certified" and rep.degenerate and rep.iterations == 0
        assert rep.objective == pytest.approx(0.0, abs=1e-24)
        assert rep.primal_residual <= solvers._INNER_TOL
        # the constrained answer is a least-squares point again
        rep = constrained_weighted_l1(inst, w, 0.5)
        assert rep.exit == "certified" and rep.degenerate
        assert np.linalg.norm(inst.phi @ rep.x - inst.b) <= 0.5
        assert rep.objective == 0.0 and rep.multiplier == 0.0

    @pytest.mark.parametrize("broken", ["_path", "_support_fit", "_support_lasso"])
    def test_a_failed_path_or_certificate_raises(self, monkeypatch, broken):
        # a path that cannot be followed fails both solvers, and so does a
        # support without a usable QR or a closed form that finds no answer:
        # both answers come from the one support solve
        inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.05, seed=1))
        monkeypatch.setattr(solvers, broken, lambda *args, **kwargs: None)
        cause = "cannot be followed" if broken == "_path" else "does not certify"
        with pytest.raises(NoConvergenceError, match=cause):
            weighted_lasso_fista(inst, np.ones(64), 10.0)
        with pytest.raises(NoConvergenceError, match=cause):
            constrained_weighted_l1(inst, np.ones(64), inst.eta)

    def test_noisy_answers_are_the_closed_form_on_their_support(self, monkeypatch):
        # every certified LASSO and constrained answer of noisy runs is the
        # closed form of _support_lasso on its own support and signs, at its
        # lam or at its budget: a pure function of the support, as basis
        # pursuit's answers are of _bp_candidate's
        calls = []
        for name in ("weighted_lasso_fista", "constrained_weighted_l1"):

            def recorded(instance, w, arg, *rest, solve=getattr(reweight, name)):
                rep = solve(instance, w, arg, *rest)
                calls.append((solve, instance, w.copy(), arg, rep))
                return rep

            monkeypatch.setattr(reweight, name, recorded)
        for seed in range(3):
            inst = gen_noisy(EnsembleSpec(n=256, m=128, s=38, sigma=0.05, seed=seed))
            for algo in ("l1", "rw-lasso", "cwb-noisy"):
                run_algorithm(algo, inst, CFG)
        assert {solve for solve, *_ in calls} == {weighted_lasso_fista, constrained_weighted_l1}
        for solve, inst, w, arg, rep in calls:
            assert rep.exit == "certified"
            support = np.flatnonzero(rep.x)
            sigma = np.sign(rep.x[support])
            if solve is weighted_lasso_fista:
                lam = arg
                x_s = solvers._support_lasso(_operator(inst), w, support, sigma, t=1.0 / lam)[2]
            else:
                _, _, x_s, t = solvers._support_lasso(_operator(inst), w, support, sigma, eta=arg)
                lam = 1.0 / t
            exact = np.zeros(inst.n)
            exact[support] = x_s
            assert rep.x.tobytes() == exact.tobytes() and rep.multiplier == lam

    def test_a_sign_change_on_the_support_fails_both_solvers(self, monkeypatch):
        # the one sign check, handed the opposite of the path's signs,
        # rejects the LASSO's support solve and the constrained closed form
        inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.05, seed=1))
        signed = solvers._signed
        monkeypatch.setattr(
            solvers, "_signed", lambda n, w, support, sigma, x_s: signed(n, w, support, -sigma, x_s)
        )
        with pytest.raises(NoConvergenceError, match="does not certify"):
            weighted_lasso_fista(inst, np.ones(64), 10.0)
        with pytest.raises(NoConvergenceError, match="does not certify"):
            constrained_weighted_l1(inst, np.ones(64), inst.eta)
