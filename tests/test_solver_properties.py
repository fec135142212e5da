"""Property tests of whole solves over random boxes and manifolds.

Each case is a random box, with finite and infinite bounds and some start
coordinates exactly on a bound, times no manifold, a sphere, a Stiefel
manifold or a special orthogonal group.  The cost is a convex quadratic in
the box coordinates plus a Rayleigh quotient (sphere) or a Brockett cost
(Stiefel, SO(r)) on the manifold part.  The callback checks every iterate:
the box violation is exactly 0, the manifold membership residual is at most
1e-8, and the cost never increases.  A spy on the retraction checks that no
line-search trial moves the manifold part farther than its maximum step
length.  The first iterations are stepped against the dense reference
iteration of ``conftest.dense_step``.
"""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import rlbfgsb as rb
from rlbfgsb import BoxBounds, Geometry, Problem, ProductTangent, SolverOptions, solve
from rlbfgsb.solver import init_state, step

from conftest import dense_step

MEMBERSHIP_TOL = 1e-8
# The Cauchy sentinel stops the path at time max_stepsize / |d_M|, and the
# direction is that time times d, so its manifold length can round a few ulps
# above max_stepsize.
RADIUS_SLACK = 4.0 * np.finfo(float).eps


@st.composite
def problems(draw):
    """(problem, start point) with a random box and manifold term."""
    kind = draw(st.sampled_from(["box", "sphere", "stiefel", "so"]))
    n = draw(st.integers(1 if kind == "box" else 0, 6))
    lower = np.array([draw(st.sampled_from([-np.inf, -1.0, -0.25, 0.0])) for _ in range(n)])
    upper = np.array([draw(st.sampled_from([0.0, 0.25, 1.0, np.inf])) for _ in range(n)])
    manifold = None
    if kind == "sphere":
        manifold = rb.Sphere(draw(st.integers(2, 5)))
    elif kind == "stiefel":
        r = draw(st.integers(2, 4))
        manifold = rb.Stiefel(draw(st.integers(1, r)), r)
    elif kind == "so":
        manifold = rb.SpecialOrthogonal(draw(st.integers(2, 4)))
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
        # Sphere: x^T B x.  Stiefel and SO(r): tr(W B W^T N), N = diag(1, ..., k).
        weights = None if kind == "sphere" else np.arange(1.0, manifold.shape[0] + 1.0)

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


def assert_close(got, want, floor):
    """``got`` equals ``want`` to 1e-8 of its norm, or to ``floor`` where that is larger.

    ``floor`` is a roundoff level: differences of positions or gradients
    near an optimum are themselves roundoff of their operands.
    """
    assert np.linalg.norm(got - want) <= max(1e-8 * np.linalg.norm(want), floor)


@settings(max_examples=100, deadline=None)
@given(problems())
def test_steps_match_the_dense_reference_iteration(case):
    # From the same state, the solver's step and the dense reference step
    # (face solve, cone projection, Cauchy path with the length sentinel,
    # Armijo search, per-vector transport) give the same direction, accepted
    # point, pairs and scaling, for the first iterations of a solve.
    problem, p0 = case
    geom, opts = problem.geometry, SolverOptions()
    state = init_state(problem, p0, opts)
    directions, masked = [], []
    armijo = rb.solver.armijo_capped

    def spy(cost, geom, p, d, *rest):
        directions.append(d.copy())
        return armijo(cost, geom, p, d, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rb.solver, "armijo_capped", spy)
        for _ in range(8):
            if geom.norm(state.point, state.steepest) <= opts.pg_tolerance:
                break
            before = dataclasses.replace(
                state, point=state.point.copy(), memory=copy.deepcopy(state.memory)
            )
            report = step(state, problem, opts)
            if report.stop is not None:
                break
            masked.append(not np.array_equal(before.steepest.euclidean, -before.grad.euclidean))
            want = dense_step(problem, before, reset=report.memory_resets > 0)
            assert want is not None
            direction, point, pairs, theta = want
            # roundoff of the iterate and of the gradient
            floor = 1e-13 * (1.0 + np.linalg.norm(before.point.euclidean)
                             + np.linalg.norm(before.grad.data))
            assert_close(directions[-1].data, direction.data, floor)
            assert_close(state.point.euclidean, point.euclidean, floor)
            if geom.manifold is not None:
                assert_close(state.point.manifold, point.manifold, floor)
            assert state.memory.size == len(pairs)
            for pr, (s, y) in zip(state.memory.pairs, pairs):
                assert_close(pr.s.data, s.data, floor)
                assert_close(pr.y.data, y.data, floor)
            assert abs(state.memory.theta - theta) <= 1e-8 * theta
    event("a masked face stepped" if any(masked) else "free faces only")
