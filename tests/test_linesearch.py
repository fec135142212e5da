"""Armijo line search behavior within the generalized Cauchy step interval."""

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


def test_expansion_when_unlimited():
    # minimizer far out: expansion should grow the step beyond 1
    cost = lambda p: 0.5 * float((p.euclidean[0] - 10.0) ** 2)
    p = ProductPoint([0.0])
    d = ProductTangent([1.0])
    alpha, f_new, _, _ = armijo_capped(cost, GEOM, p, d, 50.0, -10.0, np.inf)
    assert alpha > 1.0
    assert f_new < 50.0


def test_expansion_stops_at_cap():
    # the minimizer at 10 lies past every cap: doubling stops at the cap
    cost = lambda p: 0.5 * float((p.euclidean[0] - 10.0) ** 2)
    p = ProductPoint([0.0])
    d = ProductTangent([1.0])
    for cap, want in ((1.0, 1.0), (3.0, 2.0), (4.0, 4.0), (0.25, 0.25)):
        alpha, _, evals, _ = armijo_capped(cost, GEOM, p, d, 50.0, -10.0, cap)
        assert alpha == want
        assert evals == 1 + int(np.log2(want / min(1.0, cap)))


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
        assert alpha <= t_max
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
    with pytest.raises(LineSearchError):
        armijo_capped(lambda q: evals.append(1) or cost(q), GEOM, p, d, 1.0, -1.0, np.inf)
    assert len(evals) == MAX_EVALS


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


def test_minus_inf_cost_ends_the_expansion():
    # -inf passes the Armijo inequality; the search hands it back at once
    # instead of doubling the step until the evaluation budget runs out
    cost = lambda p: -np.inf if p.euclidean[0] > 2.0 else -float(p.euclidean[0])
    p = ProductPoint([0.0])
    d = ProductTangent([1.0])
    alpha, f_new, evals, p_new = armijo_capped(cost, GEOM, p, d, 0.0, -1.0, np.inf)
    assert (alpha, f_new, evals) == (4.0, -np.inf, 3)
    assert p_new.euclidean[0] == 4.0


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
