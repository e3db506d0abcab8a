import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwsparse.duality import (
    ZeroIterateError,
    ZeroSubgradientError,
    dual_function_oracle,
    lambda_subgradient,
    polyak_step_lasso,
    polyak_step_nonoracle,
    polyak_step_oracle,
    project_nonneg,
    subgradient_nonoracle,
    subgradient_oracle,
)
from rwsparse.model import (
    ConfigurationError,
    OracleRequiredError,
    ProblemInstance,
    l0_norm,
    l0_reporting_tol,
)
from rwsparse.probgen import EnsembleSpec, gen_noiseless


def _pos_floats(lo=1e-3, hi=1e3):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _vec(n, lo=-100.0, hi=100.0):
    return st.lists(st.floats(lo, hi, allow_nan=False), min_size=n, max_size=n).map(np.array)


class TestSubgradients:
    def test_oracle_identity_case(self):
        x = np.array([1.0, -2.0])
        assert np.array_equal(subgradient_oracle(x, x), np.zeros(2))

    def test_oracle_direct(self):
        g = subgradient_oracle(np.array([2.0, 0.0]), np.array([1.0, 1.0]))
        assert np.array_equal(g, [1.0, -1.0])

    def test_oracle_zero_iterate(self):
        g = subgradient_oracle(np.zeros(2), np.array([3.0, -4.0]))
        assert np.array_equal(g, [-3.0, -4.0])

    def test_oracle_length_mismatch(self):
        with pytest.raises(ValueError):
            subgradient_oracle(np.zeros(2), np.zeros(3))

    def test_nonoracle_zero(self):
        assert np.array_equal(subgradient_nonoracle(np.zeros(3), 1.0), np.zeros(3))

    def test_nonoracle_direct(self):
        g = subgradient_nonoracle(np.array([2.0, -3.0]), 1.0)
        assert np.array_equal(g, [-2.0, -3.0])

    def test_nonoracle_eps_scaling(self):
        g = subgradient_nonoracle(np.array([2.0, -3.0]), 0.5)
        assert np.array_equal(g, [-1.0, -1.5])

    def test_nonoracle_eps_positive(self):
        with pytest.raises(ValueError):
            subgradient_nonoracle(np.ones(2), 0.0)


class TestPolyakOracle:
    def test_numerator_cancels(self):
        alpha = polyak_step_oracle(np.ones(2), np.array([2.0, 0.0]), np.array([1.0, 1.0]))
        assert alpha == 0.0

    def test_negative_clamped(self):
        # -w.g / g.g = -1/2, clamped to zero
        alpha = polyak_step_oracle(np.array([1.0, 0.0]), np.array([2.0, 0.0]), np.array([1.0, 1.0]))
        assert alpha == 0.0 and type(alpha) is float

    def test_positive_direct(self):
        alpha = polyak_step_oracle(np.array([0.0, 1.0]), np.array([2.0, 0.0]), np.array([1.0, 1.0]))
        assert alpha == pytest.approx(0.5)

    def test_zero_subgradient_signals(self):
        x = np.array([1.0, 2.0])
        with pytest.raises(ZeroSubgradientError):
            polyak_step_oracle(np.ones(2), x, x)

    def test_rounding_level_subgradient_signals(self):
        # an iterate one ulp off x*: its supergradient is rounding error,
        # whose Polyak step would be about 1e15
        x_star = np.array([1.5, -2.0, 0.0, 0.25])
        with pytest.raises(ZeroSubgradientError, match="rounding"):
            polyak_step_oracle(np.ones(4), np.nextafter(x_star, np.inf), x_star)
        alpha = polyak_step_oracle(np.ones(4), x_star * (1.0 - 1e-9), x_star)
        assert 0.0 < alpha < np.inf


class TestPolyakNonoracle:
    def test_direct(self):
        assert polyak_step_nonoracle(np.ones(2), np.array([2.0, 0.0]), 1.0) == pytest.approx(0.5)

    def test_zero_weights(self):
        assert polyak_step_nonoracle(np.zeros(2), np.array([2.0, 0.0]), 1.0) == 0.0

    def test_eps_scaling(self):
        assert polyak_step_nonoracle(np.ones(2), np.array([2.0, 0.0]), 2.0) == pytest.approx(0.25)

    def test_zero_iterate_signals(self):
        with pytest.raises(ZeroIterateError):
            polyak_step_nonoracle(np.ones(2), np.zeros(2), 1.0)

    @given(_vec(4, 0.0, 50.0), _vec(4), _pos_floats())
    @settings(max_examples=100)
    def test_always_nonnegative(self, w, x, eps):
        if float(x @ x) == 0.0:
            return
        assert polyak_step_nonoracle(w, x, eps) >= 0.0


class TestProjectNonneg:
    def test_mixed(self):
        out = project_nonneg(np.array([1.0, -2.0, 0.0]))
        assert isinstance(out, np.ndarray) and out.dtype == float
        assert np.array_equal(out, [1.0, 0.0, 0.0])

    def test_identity_on_feasible(self):
        v = np.array([0.5, 0.0, 3.0])
        assert np.array_equal(project_nonneg(v), v)

    def test_all_negative(self):
        assert np.array_equal(project_nonneg(np.array([-1.0, -2.0])), np.zeros(2))

    @given(_vec(6))
    def test_idempotent(self, v):
        once = project_nonneg(v)
        assert np.array_equal(project_nonneg(once), once)


class TestLambdaSubgradient:
    def test_zero_at_exact_fit_zero_budget(self):
        phi = np.array([[1.0, 1.0]])
        inst = ProblemInstance(phi=phi, b=np.array([2.0]), eta=0.0)
        assert lambda_subgradient(np.array([1.0, 1.0]), inst) == 0.0

    def test_scalar_direct(self):
        inst = ProblemInstance(phi=np.array([[1.0]]), b=np.array([3.0]), eta=1.0)
        assert lambda_subgradient(np.array([1.0]), inst) == pytest.approx(1.5)

    def test_interior_is_negative(self):
        inst = ProblemInstance(phi=np.array([[1.0]]), b=np.array([3.0]), eta=1.0)
        assert lambda_subgradient(np.array([2.5]), inst) < 0.0

    def test_missing_eta(self):
        inst = ProblemInstance(phi=np.array([[1.0]]), b=np.array([3.0]))
        with pytest.raises(ConfigurationError):
            lambda_subgradient(np.array([1.0]), inst)


class TestPolyakLasso:
    def test_reduces_to_nonoracle_when_boundary(self):
        # residual exactly eta = 0 at x, so the data-fit supergradient vanishes
        inst = ProblemInstance(phi=np.array([[1.0, 1.0]]), b=np.array([2.0]), eta=0.0)
        x = np.array([2.0, 0.0])
        w = np.ones(2)
        for eps in (0.5, 1.0, 3.0):
            joint = polyak_step_lasso(w, 7.0, x, eps, inst)
            assert joint == pytest.approx(polyak_step_nonoracle(w, x, eps), rel=1e-12)

    def test_zero_iterate_zero_multiplier(self):
        inst = ProblemInstance(phi=np.array([[1.0, 1.0]]), b=np.array([4.0]), eta=1.0)
        assert polyak_step_lasso(np.ones(2), 0.0, np.zeros(2), 1.0, inst) == 0.0

    def test_direct_value(self):
        # g_lam = ((2 - 4)^2 - 1) / 2 = 1.5, alpha = (2 - 1.5) / (4 + 2.25)
        inst = ProblemInstance(phi=np.array([[1.0, 1.0]]), b=np.array([4.0]), eta=1.0)
        alpha = polyak_step_lasso(np.ones(2), 1.0, np.array([2.0, 0.0]), 1.0, inst)
        assert alpha == pytest.approx(0.08)

    def test_numerator_clamped(self):
        # large multiplier against a positive data-fit supergradient
        inst = ProblemInstance(phi=np.array([[1.0, 1.0]]), b=np.array([4.0]), eta=1.0)
        alpha = polyak_step_lasso(np.ones(2), 100.0, np.array([2.0, 0.0]), 1.0, inst)
        assert alpha == 0.0

    def test_vanishing_denominator_signals(self):
        inst = ProblemInstance(phi=np.array([[1.0, 1.0]]), b=np.array([0.0]), eta=0.0)
        with pytest.raises(ZeroSubgradientError):
            polyak_step_lasso(np.ones(2), 1.0, np.zeros(2), 1.0, inst)


_NOISY = ProblemInstance(phi=np.array([[1.0, 1.0]]), b=np.array([4.0]), eta=1.0)


@pytest.mark.parametrize(
    "step, name",
    [
        (lambda: subgradient_nonoracle(np.ones(2), np.nan), "eps"),
        (lambda: polyak_step_nonoracle(np.ones(2), np.ones(2), np.nan), "eps"),
        (lambda: polyak_step_lasso(np.ones(2), 1.0, np.ones(2), np.nan, _NOISY), "eps"),
        (lambda: polyak_step_lasso(np.ones(2), np.nan, np.ones(2), 1.0, _NOISY), "lambda_k"),
    ],
    ids=["subgradient_nonoracle", "polyak_step_nonoracle", "polyak_step_lasso-eps", "lambda_k"],
)
def test_nan_eps_or_multiplier_is_rejected(step, name):
    with pytest.raises(ValueError, match=name):
        step()


class TestDualFunctionOracle:
    def test_zero_weights_give_zero_exactly(self):
        inst = gen_noiseless(EnsembleSpec(n=24, m=10, s=3, seed=0))
        ev = dual_function_oracle(np.zeros(24), inst)
        assert ev.value == 0.0

    def test_useful_weights_value_zero_support_nested(self):
        inst = gen_noiseless(EnsembleSpec(n=24, m=10, s=3, seed=1))
        support = np.flatnonzero(inst.x_star)
        w_hat = np.ones(24)
        w_hat[support] = 0.0
        ev = dual_function_oracle(w_hat, inst)
        assert ev.value == pytest.approx(0.0, abs=1e-7)
        x = ev.minimizer
        assert l0_norm(x, l0_reporting_tol(x)) <= l0_norm(inst.x_star, 0.0)
        live = np.flatnonzero(np.abs(x) > l0_reporting_tol(x))
        assert set(live) <= set(support)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_weak_duality(self, seed):
        inst = gen_noiseless(EnsembleSpec(n=16, m=8, s=3, seed=seed))
        rng = np.random.default_rng(seed + 100)
        w = rng.uniform(0.0, 3.0, size=16)
        ev = dual_function_oracle(w, inst)
        assert ev.value <= 1e-8 * (1 + w.sum())

    def test_subgradient_matches_minimizer(self):
        inst = gen_noiseless(EnsembleSpec(n=16, m=8, s=3, seed=7))
        w = np.full(16, 0.5)
        ev = dual_function_oracle(w, inst)
        assert np.allclose(ev.subgradient, np.abs(ev.minimizer) - np.abs(inst.x_star))
        assert ev.value == pytest.approx(float(w @ ev.subgradient))

    def test_requires_ground_truth(self):
        inst = ProblemInstance(phi=np.array([[1.0, 1.0]]), b=np.array([1.0]))
        with pytest.raises(OracleRequiredError):
            dual_function_oracle(np.ones(2), inst)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_supergradient_inequality(self, seed):
        # concavity: d(w') <= d(w) + g(w)^T (w' - w) + tolerance
        rng = np.random.default_rng(seed)
        n, m = rng.integers(6, 11), rng.integers(3, 6)
        n, m = int(n), int(min(m, n - 1))
        s = int(min(2, m))
        inst = gen_noiseless(EnsembleSpec(n=n, m=m, s=s, seed=seed))
        w = rng.uniform(0.0, 2.0, size=n)
        w_prime = rng.uniform(0.0, 2.0, size=n)
        ev = dual_function_oracle(w, inst)
        ev_prime = dual_function_oracle(w_prime, inst)
        bound = ev.value + ev.subgradient @ (w_prime - w) + 1e-6
        assert ev_prime.value <= bound


class TestEpsIndependence:
    @given(
        _vec(5, 0.0, 100.0),
        _vec(5, -100.0, 100.0),
        _pos_floats(1e-3, 1e3),
        _pos_floats(1e-3, 1e3),
    )
    @settings(max_examples=200)
    def test_projected_update_identical(self, w, x, eps1, eps2):
        if float(x @ x) == 0.0:
            return
        updates = []
        moved = 0.0
        for eps in (eps1, eps2):
            alpha = polyak_step_nonoracle(w, x, eps)
            g = subgradient_nonoracle(x, eps)
            moved = max(moved, float(np.max(np.abs(alpha * g), initial=0.0)))
            updates.append(project_nonneg(w + alpha * g))
        a, b = updates
        # coordinates ending at the projection boundary can differ by one
        # rounding of the pre-projection value, hence the absolute fuzz
        fuzz = 4e-16 * (1.0 + float(np.max(w, initial=0.0)) + moved)
        assert np.allclose(a, b, rtol=1e-15, atol=fuzz)
