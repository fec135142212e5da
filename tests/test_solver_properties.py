"""Property tests of whole solves over random boxes and manifolds.

Each case is a random box, with finite and infinite bounds and some start
coordinates exactly on a bound, times no manifold, a sphere or a Stiefel
manifold.  The cost is a convex quadratic in the box coordinates plus a
Rayleigh quotient (sphere) or a Brockett cost (Stiefel) on the manifold
part.  The callback checks every iterate: the box violation is exactly 0,
the manifold membership residual is at most 1e-8, and the cost never
increases.  A spy on the retraction checks that no line-search trial moves
the manifold part farther than its maximum step length.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rlbfgsb as rb
from rlbfgsb import BoxBounds, Geometry, Problem, ProductTangent, SolverOptions, solve

MEMBERSHIP_TOL = 1e-8
# The Cauchy sentinel stops the path at time max_stepsize / |d_M|, and the
# direction is that time times d, so its manifold length can round a few ulps
# above max_stepsize.
RADIUS_SLACK = 4.0 * np.finfo(float).eps


@st.composite
def problems(draw):
    """(problem, start point) with a random box and manifold term."""
    kind = draw(st.sampled_from(["box", "sphere", "stiefel"]))
    n = draw(st.integers(1 if kind == "box" else 0, 6))
    lower = np.array([draw(st.sampled_from([-np.inf, -1.0, -0.25, 0.0])) for _ in range(n)])
    upper = np.array([draw(st.sampled_from([0.0, 0.25, 1.0, np.inf])) for _ in range(n)])
    manifold = None
    if kind == "sphere":
        manifold = rb.Sphere(draw(st.integers(2, 5)))
    elif kind == "stiefel":
        r = draw(st.integers(2, 4))
        manifold = rb.Stiefel(draw(st.integers(1, r)), r)
    geom = Geometry(BoxBounds(lower, upper), manifold)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    m = rng.standard_normal((n, n))
    a = m @ m.T + 0.1 * np.eye(n)
    center = 2.0 * rng.standard_normal(n)  # often outside the box: active bounds
    weights = None
    if manifold is not None:
        dim = manifold.shape[-1]
        b = rng.standard_normal((dim, dim))
        b = (b + b.T) / 2.0
        # Sphere: x^T B x.  Stiefel: tr(W B W^T N), N = diag(1, ..., k).
        weights = np.arange(1.0, manifold.shape[0] + 1.0) if kind == "stiefel" else None

    def manifold_cost(w):
        if weights is None:
            return float(w @ b @ w)
        return float(np.sum(weights * np.einsum("ij,jk,ik->i", w, b, w)))

    def manifold_grad(w):
        egrad = 2.0 * (b @ w) if weights is None else 2.0 * weights[:, None] * (w @ b)
        return manifold.project_tangent(w, egrad)

    def cost(p):
        z = p.euclidean - center
        f = 0.5 * float(z @ a @ z)
        return f if manifold is None else f + manifold_cost(p.manifold)

    def gradient(p):
        g = a @ (p.euclidean - center)
        return ProductTangent(g, None if manifold is None else manifold_grad(p.manifold))

    p0 = geom.random_point(rng)
    on_bound = rng.random(n) < 0.3
    p0.euclidean = np.where(on_bound & np.isfinite(lower), lower, p0.euclidean)
    return Problem(geometry=geom, cost=cost, gradient=gradient, name=kind), p0


@settings(max_examples=100, deadline=None)
@given(problems())
def test_iterates_feasible_and_cost_monotone(case):
    problem, p0 = case
    geom = problem.geometry
    costs = []

    def check(k, point, cost, pg):
        assert geom.box.violation(point.euclidean) == 0.0
        if geom.manifold is not None:
            assert geom.manifold.membership_residual(point.manifold) <= MEMBERSHIP_TOL
        assert not costs or cost <= costs[-1]
        costs.append(cost)

    result = solve(problem, p0, SolverOptions(max_iterations=60), callback=check)
    assert len(costs) == result.iterations + 1


@settings(max_examples=100, deadline=None)
@given(problems())
def test_no_trial_longer_than_the_radius(case):
    problem, p0 = case
    radius = problem.geometry.max_stepsize(p0)
    lengths = []
    retract = Geometry.retract

    def spy(geom, p, x):
        if x.manifold is not None:
            lengths.append(float(np.linalg.norm(x.manifold)))
        return retract(geom, p, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Geometry, "retract", spy)
        solve(problem, p0, SolverOptions(max_iterations=60))
    assert max(lengths, default=0.0) <= radius * (1.0 + RADIUS_SLACK)
