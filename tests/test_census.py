"""A differential census of the inner solvers on seeded small systems.

Each system is answered by weighted basis pursuit, the weighted LASSO and
the constrained problem, and each answer is checked against an
independent reference: the HiGHS linear program for basis pursuit, and
the textbook proximal-gradient loop of ``fista_reference`` for the LASSO
and, at the reported multiplier, for the constrained problem. The systems
are small, often integer, and hold copied or negated columns and zero
weights, so ties, dependent columns and the zero-weight fit all occur.

The default run answers 300 systems; the ``census`` marker selects the
2 000-system run, which the default configuration deselects.
"""

import numpy as np
import pytest
from test_solvers import fista_reference, lp_basis_pursuit

from rwsparse import solvers
from rwsparse.model import ConfigurationError, ProblemInstance
from rwsparse.solvers import (
    RankDeficientError,
    constrained_weighted_l1,
    weighted_basis_pursuit,
    weighted_lasso_fista,
)

# every system fits in this shape: m <= 8 and n <= 3m
_M, _N = 8, 24
# a cap on the batched reference's iterations, which stops earlier once
# every objective has settled (the default census stops after 3 000)
_REFERENCE_ITERS = 20_000


def census_system(seed):
    """System ``seed`` of the census, as (phi, b, b_noisy, w, eta, lam).

    m is 2 to 8 and n is m + 1 to 3m. phi is Gaussian (60%) or has integer
    entries in {-2..2}, and up to two of its columns are replaced by a copy
    or the negation of another. b = phi x for an x with 1 to m Gaussian
    nonzeros (b = 0 when they all fall on zero columns), and b_noisy adds
    Gaussian noise of norm about 0.1 max(||b||, 1), so eta > 0. A
    weight is 1 (70%), exactly 0 (10%) or uniform in [0.2, 2]. The budget
    eta is 5% to 50% of ||b_noisy||, and lam is log-uniform in [0.1, 30].
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, _M + 1))
    n = int(rng.integers(m + 1, 3 * m + 1))
    if rng.random() < 0.6:
        phi = rng.standard_normal((m, n))
    else:
        phi = rng.integers(-2, 3, size=(m, n)).astype(float)
    for _ in range(int(rng.integers(0, 3))):
        i, j = rng.choice(n, 2, replace=False)
        phi[:, i] = rng.choice([-1.0, 1.0]) * phi[:, j]
    x = np.zeros(n)
    s = int(rng.integers(1, m + 1))
    x[rng.choice(n, s, replace=False)] = rng.standard_normal(s)
    u = rng.random(n)
    w = np.where(u < 0.7, 1.0, np.where(u < 0.8, 0.0, rng.uniform(0.2, 2.0, n)))
    b = phi @ x
    noise = 0.1 * max(float(np.linalg.norm(b)), 1.0) / np.sqrt(m)
    b_noisy = b + noise * rng.standard_normal(m)
    eta = float(rng.uniform(0.05, 0.5) * np.linalg.norm(b_noisy))
    lam = float(10 ** rng.uniform(-1.0, 1.5))
    return phi, b, b_noisy, w, eta, lam


def batched_fista(problems, iters=_REFERENCE_ITERS):
    """The iteration of ``fista_reference`` (step 1 / (lam ||phi||_2^2),
    the gradient at the extrapolated point, the momentum restarted when
    the objective rises) run on a list of (phi, b, w, lam) problems at
    once, each padded to ``_M`` x ``_N`` with zero rows and zero columns of
    unit weight, which stay at 0. It stops after ``iters`` iterations, or
    earlier once 500 iterations move no objective by more than 1e-15
    (relative). Returns the objectives."""
    k = len(problems)
    phi, b, w = np.zeros((k, _M, _N)), np.zeros((k, _M, 1)), np.ones((k, _N, 1))
    lam = np.array([p[3] for p in problems])[:, None, None]
    for j, (a, y, v, _) in enumerate(problems):
        phi[j, : a.shape[0], : a.shape[1]], b[j, : y.size, 0], w[j, : v.size, 0] = a, y, v
    phi_t = phi.transpose(0, 2, 1)
    step = 1.0 / (lam * np.linalg.norm(phi, 2, axis=(1, 2))[:, None, None] ** 2)

    def objective(x):
        r = phi @ x - b
        fit = np.sum(r * r, axis=1, keepdims=True)
        return 0.5 * lam * fit + np.sum(w * np.abs(x), axis=1, keepdims=True)

    x_prev = y = np.zeros((k, _N, 1))
    obj_prev, t = objective(x_prev), np.ones((k, 1, 1))
    checkpoint = obj_prev
    for i in range(1, iters + 1):
        v = y - step * lam * (phi_t @ (phi @ y - b))
        x = np.sign(v) * np.maximum(np.abs(v) - step * w, 0.0)
        obj = objective(x)
        rose = obj > obj_prev
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = np.where(rose, x, x + ((t - 1.0) / t_next) * (x - x_prev))
        t = np.where(rose, 1.0, t_next)
        x_prev, obj_prev = x, obj
        if i % 500 == 0:
            if np.all(np.abs(obj - checkpoint) <= 1e-15 * (1.0 + np.abs(obj))):
                break
            checkpoint = obj
    return obj_prev.ravel()


def test_batched_reference_is_fista_reference():
    problems = []
    for seed in range(4):
        phi, _, b_noisy, w, _, lam = census_system(seed)
        problems.append((phi, b_noisy, w, lam))
    for (phi, b, w, lam), obj in zip(problems, batched_fista(problems, iters=1000)):
        assert obj == pytest.approx(fista_reference(phi, b, w, lam)[1], rel=1e-12, abs=1e-15)


def _gap(value, reference):
    return abs(value - reference) / (1.0 + abs(reference))


def _lasso_objective(phi, b, w, lam, x):
    r = phi @ x - b
    return 0.5 * lam * (r @ r) + w @ np.abs(x)


def _check_basis_pursuit(seed, phi, b, w, failures):
    bp = weighted_basis_pursuit(ProblemInstance(phi=phi, b=b), w)
    optimum = lp_basis_pursuit(phi, b, w)
    if bp.exit != "certified" or bp.primal_residual > solvers._INNER_TOL:
        failures.append(f"{seed}: basis pursuit {bp.exit}, residual {bp.primal_residual:.1e}")
    elif bp.objective - optimum > 1e-9 * (1.0 + optimum):
        failures.append(f"{seed}: basis pursuit {_gap(bp.objective, optimum):.1e} above the LP")


def _check_constrained(seed, phi, b_noisy, w, eta, failures, references, counts):
    inst = ProblemInstance(phi=phi, b=b_noisy)
    fit = np.linalg.lstsq(phi, b_noisy, rcond=None)[0]
    if np.linalg.norm(phi @ fit - b_noisy) > eta:  # no point meets the budget
        counts["infeasible"] += 1
        with pytest.raises(ConfigurationError, match="least-squares residual"):
            constrained_weighted_l1(inst, w, eta)
        return
    constrained = constrained_weighted_l1(inst, w, eta)
    counts["degenerate"] += constrained.degenerate
    residual = np.linalg.norm(phi @ constrained.x - b_noisy)
    if constrained.exit != "certified":
        failures.append(f"{seed}: constrained {constrained.exit}")
    elif constrained.multiplier == 0.0:
        counts["zero_weight_fit"] += 1
        if constrained.objective != 0.0 or residual > eta:
            failures.append(f"{seed}: zero-weight fit at objective {constrained.objective}")
    elif abs(residual - eta) > 1e-9 * eta:
        failures.append(f"{seed}: constrained answer off the budget")
    else:
        problem = (phi, b_noisy, w, constrained.multiplier)
        value = _lasso_objective(*problem, constrained.x)
        references.append((f"{seed}: constrained", value, problem))


@pytest.mark.parametrize("systems", [300, pytest.param(2000, marks=pytest.mark.census)])
def test_every_solver_matches_its_reference(systems):
    """Every LASSO solve ends certified, at the reference objective within
    1e-9. On a phi without full row rank, basis pursuit raises
    ``RankDeficientError``, and the constrained problem raises
    ``ConfigurationError`` when its budget lies below the least-squares
    residual ||b - phi phi^+ b||. No other solve raises. Basis pursuit
    ends certified, feasible within ``solvers._INNER_TOL`` and at most 1e-9
    (relative) above the LP optimum. The constrained answer ends
    certified: either the zero-weight fit, at objective 0 and multiplier
    0, inside the budget, or a point on the budget (within 1e-9 eta) whose
    LASSO objective at its multiplier matches the reference within 1e-9,
    which by duality makes it the constrained minimizer."""
    failures, references = [], []
    counts = dict(rank_deficient=0, infeasible=0, zero_weight_fit=0, degenerate=0)
    for seed in range(systems):
        phi, b, b_noisy, w, eta, lam = census_system(seed)
        lasso = weighted_lasso_fista(ProblemInstance(phi=phi, b=b_noisy), w, lam)
        if lasso.exit != "certified":
            failures.append(f"{seed}: LASSO {lasso.exit}")
        references.append((f"{seed}: LASSO", lasso.objective, (phi, b_noisy, w, lam)))
        try:
            if np.linalg.matrix_rank(phi) < phi.shape[0]:
                counts["rank_deficient"] += 1
                with pytest.raises(RankDeficientError):
                    weighted_basis_pursuit(ProblemInstance(phi=phi, b=b), w)
            else:
                _check_basis_pursuit(seed, phi, b, w, failures)
            _check_constrained(seed, phi, b_noisy, w, eta, failures, references, counts)
        except Exception as exc:  # no other solve raises
            raise AssertionError(f"census system {seed} raised") from exc

    objectives = batched_fista([problem for *_, problem in references])
    for (label, value, _), reference in zip(references, objectives):
        if _gap(value, reference) > 1e-9:
            failures.append(f"{label} objective {_gap(value, reference):.1e} off the reference")
    assert not failures, failures
    # the census reaches the rank guard, an infeasible budget, the
    # zero-weight fit and its null space
    assert all(counts.values()), counts
