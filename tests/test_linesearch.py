"""Armijo backtracking from the unit step of the generalized Cauchy direction."""

import numpy as np
import pytest

import rlbfgsb as rb
from rlbfgsb import (
    BoxBounds,
    Geometry,
    LineSearchError,
    ProductPoint,
    ProductTangent,
    armijo_capped,
)
from rlbfgsb.linesearch import ARMIJO_C1, MAX_EVALS


def quad_cost(p):
    return 0.5 * float(p.euclidean[0] ** 2)


GEOM = Geometry(BoxBounds.unbounded(1))


def test_unit_step_on_quadratic():
    p = ProductPoint([1.0])
    d = ProductTangent([-1.0])
    alpha, f_new, evals, _ = armijo_capped(quad_cost, GEOM, p, d, 0.5, -1.0, np.inf)
    assert alpha == 1.0
    assert f_new == 0.0
    assert evals >= 1


def test_linear_decrease_capped_at_one():
    cost = lambda p: float(p.euclidean[0])
    p = ProductPoint([0.0])
    d = ProductTangent([-1.0])
    alpha, f_new, _, _ = armijo_capped(cost, GEOM, p, d, 0.0, -1.0, 1.0)
    assert alpha == 1.0
    assert f_new == -1.0


def test_steep_valley_contracts():
    cost = lambda p: 100.0 * float(p.euclidean[0] ** 2)
    p = ProductPoint([1.0])
    d = ProductTangent([-2.0])  # overshoots the valley floor at unit step
    f0, slope = 100.0, -400.0
    alpha, f_new, _, _ = armijo_capped(cost, GEOM, p, d, f0, slope, np.inf)
    assert 0.0 < alpha < 1.0
    assert f_new <= f0 + ARMIJO_C1 * alpha * slope


def test_passing_unit_step_is_not_expanded():
    # the minimizer lies far out at 10, but a passing unit step is returned at once
    cost = lambda p: 0.5 * float((p.euclidean[0] - 10.0) ** 2)
    p = ProductPoint([0.0])
    d = ProductTangent([1.0])
    alpha, f_new, evals, p_new = armijo_capped(cost, GEOM, p, d, 50.0, -10.0, np.inf)
    assert (alpha, f_new, evals) == (1.0, 40.5, 1)
    assert p_new.euclidean[0] == 1.0


def test_first_trial_is_capped_unit_step():
    cost = lambda p: 0.5 * float((p.euclidean[0] - 10.0) ** 2)
    p = ProductPoint([0.0])
    d = ProductTangent([1.0])
    for cap, want in ((1.0, 1.0), (3.0, 1.0), (np.inf, 1.0), (0.25, 0.25)):
        alpha, _, evals, _ = armijo_capped(cost, GEOM, p, d, 50.0, -10.0, cap)
        assert (alpha, evals) == (want, 1)


def test_alpha_never_exceeds_t_max(rng):
    for _ in range(50):
        target = rng.uniform(-5, 5)
        cost = lambda p: 0.5 * float((p.euclidean[0] - target) ** 2)
        x0 = rng.uniform(-5, 5)
        p = ProductPoint([x0])
        grad = x0 - target
        if grad == 0:
            continue
        d = ProductTangent([-grad])
        t_max = float(rng.choice([1.0, 2.0, 8.0, np.inf]))
        f0 = cost(p)
        slope = -(grad**2)
        alpha, f_new, _, _ = armijo_capped(cost, GEOM, p, d, f0, slope, t_max)
        assert alpha <= min(1.0, t_max)
        assert f_new <= f0 + 1e-4 * alpha * slope
        assert f_new < f0


def test_nonnegative_slope_raises():
    p = ProductPoint([0.0])
    d = ProductTangent([1.0])
    with pytest.raises(LineSearchError):
        armijo_capped(quad_cost, GEOM, p, d, 0.0, 0.0, np.inf)


def test_exhausted_budget_raises():
    # cost rises at every nonzero step along d: slope lies about the landscape
    cost = lambda p: 1.0 + float(p.euclidean[0] != 0.0)
    p = ProductPoint([0.0])
    d = ProductTangent([1.0])
    evals = []
    with pytest.raises(LineSearchError) as err:
        armijo_capped(lambda q: evals.append(1) or cost(q), GEOM, p, d, 1.0, -1.0, np.inf)
    assert len(evals) == err.value.evaluations == MAX_EVALS


def test_nan_cost_keeps_contracting():
    def cost(p):
        x = float(p.euclidean[0])
        return np.nan if x < 0.9 else 0.5 * x**2

    p = ProductPoint([1.0])
    d = ProductTangent([-1.0])
    alpha, f_new, _, _ = armijo_capped(cost, GEOM, p, d, 0.5, -1.0, np.inf)
    assert np.isfinite(f_new)
    assert alpha <= 0.0625
    assert f_new < 0.5


def test_minus_inf_cost_is_accepted_at_once():
    # -inf passes the Armijo inequality, so the unit step is returned unchanged
    cost = lambda p: -np.inf if p.euclidean[0] > 0.5 else -float(p.euclidean[0])
    p = ProductPoint([0.0])
    d = ProductTangent([1.0])
    alpha, f_new, evals, p_new = armijo_capped(cost, GEOM, p, d, 0.0, -1.0, np.inf)
    assert (alpha, f_new, evals) == (1.0, -np.inf, 1)
    assert p_new.euclidean[0] == 1.0


def test_returns_the_accepted_point():
    sph = rb.Sphere(3)
    geom = Geometry(BoxBounds.empty(), sph)
    p = ProductPoint(np.zeros(0), np.array([1.0, 0.0, 0.0]))
    d = ProductTangent(np.zeros(0), np.array([0.0, -0.5, 0.0]))
    cost = lambda q: float(q.manifold[1])
    alpha, f_new, _, p_new = armijo_capped(cost, geom, p, d, 0.0, -0.5, np.inf)
    want = geom.retract(p, alpha * d)
    np.testing.assert_array_equal(p_new.manifold, want.manifold)
    assert f_new == cost(want)
