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

The bound faces a state records once per iterate, and the projections the
step makes from them, must give the bits of the full-width masks they
replace, on fixed coordinates, infinite bounds, points exactly on a bound
and signed zero gradient entries.
"""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import rlbfgsb as rb
from rlbfgsb import BoxBounds, Geometry, LbfgsMemory, Problem, ProductTangent, SolverOptions, solve
from rlbfgsb.solver import SolverState, _cauchy_direction, init_state, step

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


def full_width_projection(geom, p, v):
    """``v`` with the components leaving the box at ``p`` zeroed by full-width masks, and those."""
    out = v.copy()
    eu, x = out.euclidean, p.euclidean
    leaves = ((x == geom.box.lower) & (eu < 0)) | ((x == geom.box.upper) & (eu > 0))
    eu[leaves] = 0.0
    return out, np.flatnonzero(leaves)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@st.composite
def faces_cases(draw):
    """(geometry, point, gradient, memory): fixed, one-sided and free coordinates, some on a bound.

    Gradient entries include both signed zeros, so a projection that zeroes
    a zero component, or keeps ``-0.0`` where the masks write ``0.0``,
    changes the bits.
    """
    n = draw(st.integers(0, 6))
    lower, upper, x = [], [], []
    for _ in range(n):
        kind = draw(st.sampled_from(["fixed", "both", "lower", "upper", "free"]))
        lo = {"fixed": 0.5, "both": -1.0, "lower": -1.0}.get(kind, -np.inf)
        up = {"fixed": 0.5, "both": 1.0, "upper": 1.0}.get(kind, np.inf)
        at = draw(st.sampled_from([lo, up, 0.5]))  # on a bound, or inside
        x.append(at if np.isfinite(at) else 0.5)
        lower.append(lo)
        upper.append(up)
    manifold = draw(st.sampled_from([None, rb.Sphere(3)])) if n else rb.Sphere(3)
    geom = Geometry(BoxBounds(np.array(lower), np.array(upper)), manifold)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = geom.random_point(rng)
    p.euclidean = np.array(x, dtype=float)
    grad = geom.random_tangent(p, rng)
    for i in range(n):
        grad.euclidean[i] = draw(st.sampled_from([0.0, -0.0, 1.5, -1.5, float(grad.euclidean[i])]))
    mem = LbfgsMemory(3)
    for _ in range(draw(st.integers(0, 3))):
        s = geom.random_tangent(p, rng)
        mem.push(geom, p, s, s + 0.1 * geom.random_tangent(p, rng))
    return geom, p, grad, mem


@settings(max_examples=300)
@given(faces_cases())
def test_faces_give_the_bits_of_the_full_width_projections(case):
    # The state's steepest direction and active set, and the cone
    # projection of B q the step hands the Cauchy search, are those of the
    # full-width masks, bit for bit; the search is handed H[d] = q exactly
    # when that projection zeroes nothing.
    geom, p, grad, mem = case
    state = SolverState(p, grad, 0.0, mem).locate(geom)
    want, active = full_width_projection(geom, p, -grad)
    assert np.array_equal(bits(state.steepest.data), bits(want.data))
    assert np.array_equal(bits(geom.project_tangent_cone(p, -grad).data), bits(want.data))
    assert np.array_equal(state.active, active)  # sorted, as the face gather expects
    lower, upper = state.faces
    assert np.array_equal(lower, np.flatnonzero(p.euclidean == geom.box.lower))
    assert np.array_equal(upper, np.flatnonzero(p.euclidean == geom.box.upper))

    seen = []
    search = rb.solver.generalized_cauchy_direction

    def spy(geom, p, grad, d, mem, *rest, hd=None, xd=None):
        seen.append((d.copy(), hd))
        return search(geom, p, grad, d, mem, *rest, hd=hd, xd=xd)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rb.solver, "generalized_cauchy_direction", spy)
        try:
            _cauchy_direction(state, geom, reset=False)
        except rb.SingularMiddleMatrix:
            pass
    if not seen:  # the face system was singular
        return
    d, hd = seen[0]
    bq = mem.apply_inverse(geom, p, state.steepest, active=active)
    want, zeroed = full_width_projection(geom, p, bq)
    assert np.array_equal(bits(d.data), bits(want.data))
    assert np.array_equal(bits(geom.project_tangent_cone(p, bq).data), bits(want.data))
    assert (hd is None) == (zeroed.size > 0)
    assert hd is None or hd is state.steepest
    event(f"active {active.size > 0}, B q projected {zeroed.size > 0}")
