import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwsparse.model import (
    DegenerateBaselineError,
    ProblemInstance,
    SolverConfig,
    SweepResult,
    as_weight_array,
    improvement,
    l0_norm,
    l0_reporting_tol,
    recovered,
)
from rwsparse.solvers import min_l2_solution


def _vectors(n=None, maxval=1e6):
    elems = st.floats(-maxval, maxval, allow_nan=False, allow_infinity=False)
    size = st.just(n) if n else st.integers(1, 12)
    return size.flatmap(lambda k: st.lists(elems, min_size=k, max_size=k)).map(np.array)


class TestL0Norm:
    def test_zero_vector(self):
        assert l0_norm([0.0, 0.0, 0.0], tol=0.0) == 0

    def test_direct_count(self):
        assert l0_norm([1.0, -2.0, 0.0], tol=0.0) == 2

    def test_below_threshold_ignored(self):
        assert l0_norm([1e-9, 0.5], tol=1e-6) == 1

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            l0_norm([1.0], tol=-1.0)

    @given(_vectors())
    def test_complement_identity(self, x):
        n_zero = int(np.count_nonzero(x == 0.0))
        assert l0_norm(x, 0.0) + n_zero == x.size

    def test_reporting_tol_is_scale_aware(self):
        x = np.array([2.0, 1e-7, 0.0])
        assert l0_reporting_tol(x) == pytest.approx(2e-6)
        assert l0_norm(x, l0_reporting_tol(x)) == 1
        assert l0_reporting_tol(np.zeros(3)) == 0.0


class TestRecovered:
    def test_identical(self):
        x = np.array([1.0, -2.0, 0.5])
        assert recovered(x, x, tol=1e-3)

    def test_one_coordinate_exceeds(self):
        x_star = np.array([1.0, 0.0, 0.0])
        x = x_star.copy()
        x[0] += 2e-3
        assert not recovered(x, x_star, tol=1e-3)
        assert not recovered(x, x_star)

    def test_uniform_subthreshold_shift(self):
        x_star = np.array([1.0, -1.0, 2.0])
        assert recovered(x_star + 5e-4, x_star, tol=1e-3)
        assert recovered(x_star + 5e-4, x_star)  # the default, 1e-3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            recovered([1.0, 2.0], [1.0], tol=1e-3)

    @given(_vectors(), st.floats(1e-12, 1e3))
    def test_reflexive(self, x, tol):
        assert recovered(x, x, tol)


class TestImprovement:
    def test_perfect_recovery(self):
        x_star = np.array([1.0, 2.0])
        assert improvement(x_star, x_star + 1.0, x_star) == pytest.approx(100.0)

    def test_no_improvement(self):
        x_star = np.array([1.0, 2.0])
        x_l1 = x_star + 0.5
        assert improvement(x_l1, x_l1, x_star) == pytest.approx(0.0)

    def test_twice_the_error(self):
        x_star = np.zeros(2)
        x_l1 = np.array([1.0, 0.0])
        x_rw = np.array([2.0, 0.0])
        assert improvement(x_rw, x_l1, x_star) == pytest.approx(-100.0)

    def test_degenerate_baseline(self):
        x_star = np.array([1.0, 2.0])
        with pytest.raises(DegenerateBaselineError):
            improvement(x_star + 0.1, x_star, x_star)

    @given(_vectors(4, 1e3), _vectors(4, 1e3), _vectors(4, 1e3), st.floats(-1e3, 1e3))
    @settings(max_examples=50)
    def test_shift_invariance(self, x_rw, x_l1, x_star, c):
        if np.linalg.norm(x_l1 - x_star) < 1e-3:
            return
        base = improvement(x_rw, x_l1, x_star)
        shifted = improvement(x_rw + c, x_l1 + c, x_star + c)
        assert shifted == pytest.approx(base, rel=1e-6, abs=1e-6)


class TestProblemInstance:
    def test_noiseless_consistency_enforced(self):
        phi = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="inconsistent"):
            ProblemInstance(phi=phi, b=np.array([1.0, 1.0]), x_star=np.array([1.0, 0.0, 0.0]))

    def test_consistent_ground_truth_accepted(self):
        phi = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        x = np.array([3.0, 4.0, 0.0])
        inst = ProblemInstance(phi=phi, b=phi @ x, x_star=x)
        assert inst.m == 2 and inst.n == 3

    def test_noisy_instance_skips_consistency(self):
        phi = np.array([[1.0, 0.0], [0.0, 1.0]])
        ProblemInstance(phi=phi, b=np.array([1.0, 1.0]), x_star=np.array([0.9, 1.1]), eta=0.5)

    def test_overdetermined_rejected(self):
        with pytest.raises(ValueError):
            ProblemInstance(phi=np.zeros((3, 2)), b=np.zeros(3))

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            ProblemInstance(phi=np.ones((1, 2)), b=np.ones(1), eta=-1.0)

    def test_nonfinite_rejected(self):
        phi = np.array([[1.0, np.nan]])
        with pytest.raises(ValueError):
            ProblemInstance(phi=phi, b=np.ones(1))

    def test_json_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        phi = rng.standard_normal((3, 7))
        x = np.zeros(7)
        x[[1, 4]] = rng.standard_normal(2)
        inst = ProblemInstance(phi=phi, b=phi @ x, x_star=x, seed=42)
        back = ProblemInstance.from_json(inst.to_json())
        assert np.array_equal(back.phi, inst.phi)
        assert np.array_equal(back.b, inst.b)
        assert np.array_equal(back.x_star, inst.x_star)
        assert back.seed == 42
        assert back.content_digest() == inst.content_digest()

    def test_save_load(self, tmp_path):
        phi = np.array([[1.0, 2.0, 3.0]])
        inst = ProblemInstance(phi=phi, b=np.array([1.0]), sigma=0.1, eta=0.2)
        path = tmp_path / "inst.json"
        inst.save(path)
        doc = json.loads(path.read_text())
        assert doc["sigma"] == 0.1 and doc["x_star"] is None
        back = ProblemInstance.load(path)
        assert back.content_digest() == inst.content_digest()

    def test_arrays_are_read_only_copies(self):
        # the solvers cache per instance, so the caller's arrays must not be
        # able to move phi and b under a cached minimum-norm solution
        rng = np.random.default_rng(0)
        phi, b = rng.standard_normal((5, 12)), rng.standard_normal(5)
        inst = ProblemInstance(phi=phi, b=b)
        min_l2_solution(inst)
        phi *= 2.0
        b += 1.0
        x0 = min_l2_solution(inst)
        assert np.linalg.norm(inst.phi @ x0 - inst.b) <= 1e-12
        for arr in (inst.phi, inst.b):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    def test_digest_distinguishes(self):
        phi = np.array([[1.0, 2.0]])
        a = ProblemInstance(phi=phi, b=np.array([1.0]))
        b = ProblemInstance(phi=phi, b=np.array([2.0]))
        assert a.content_digest() != b.content_digest()


class TestWeightsAndState:
    def test_weights_validated(self):
        with pytest.raises(ValueError):
            as_weight_array(np.array([1.0, -0.1]))
        with pytest.raises(ValueError):
            as_weight_array(np.array([np.inf, 1.0]))
        with pytest.raises(ValueError):
            as_weight_array(np.ones(4), 3)
        assert as_weight_array(np.ones(4), 4).shape == (4,)


class TestSolverConfig:
    def test_defaults_valid(self):
        # the outer loop's two settings; the inner solves have none
        assert [f.name for f in dataclasses.fields(SolverConfig)] == ["rw_iter", "eps_k"]
        cfg = SolverConfig()
        assert cfg.rw_iter == 4 and cfg.eps_k is None

    def test_eps_resolution(self):
        assert SolverConfig().eps_at(1.0) == 1.0
        assert SolverConfig(eps_k=0.3).eps_at(1.0) == 0.3

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(rw_iter=-1)
        with pytest.raises(ValueError):
            SolverConfig(eps_k=-0.5)

    @pytest.mark.parametrize("rw_iter", [2.5, "2", None, True, False])
    def test_rw_iter_must_be_an_integer(self, rw_iter):
        # a float budget would reach range() mid-run as a raw TypeError; a
        # bool once passed as the budget it equals
        with pytest.raises(ValueError, match="rw_iter must be an integer"):
            SolverConfig(rw_iter=rw_iter)

    @pytest.mark.parametrize("eps_k", [lambda k: 0.5, "0.5"])
    def test_eps_k_must_be_a_number(self, eps_k):
        # one eps for every update: a schedule (a callable) is not one
        with pytest.raises(ValueError, match="eps_k must be a number"):
            SolverConfig(eps_k=eps_k)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ProblemInstance(phi=np.ones((1, 2)), b=np.ones(1), sigma=np.nan),
        lambda: ProblemInstance(phi=np.ones((1, 2)), b=np.ones(1), eta=np.nan),
        lambda: SolverConfig(eps_k=np.nan),
        lambda: SolverConfig().eps_at(np.nan),
        lambda: l0_norm(np.array([1.0, 2.0]), np.nan),
        lambda: recovered(np.zeros(2), np.zeros(2), tol=np.nan),
    ],
    ids=[
        "sigma",
        "eta",
        "eps_k",
        "eps-default",
        "l0_norm-tol",
        "recovered-tol",
    ],
)
def test_nan_fails_every_numeric_guard(make):
    # every comparison with NaN is false: a guard written as x <= 0 lets it through
    with pytest.raises(ValueError):
        make()


class TestSweepResult:
    def test_invariants(self):
        with pytest.raises(ValueError):
            SweepResult([10], {"l1": [1.5]}, 1, [0])
        with pytest.raises(ValueError):
            SweepResult([10, 20], {"l1": [1.0]}, 1, [0])
        with pytest.raises(ValueError):
            SweepResult([10], {"l1": [1.0]}, 2, [0])

    def test_improvements_have_one_entry_per_seed(self):
        # emit_csv pairs them with the seeds, so a longer list mislabels them
        with pytest.raises(ValueError, match="improvements for rw-lasso do not match seeds"):
            SweepResult([10], {}, 2, [0, 1], improvements={"rw-lasso": [1.0, 2.0, 3.0]})
