"""Box-constrained basics: solving, active bounds, and the Cauchy direction.

A guided tour of the solver on two tiny problems: a quadratic whose minimum
is interior, and a linear objective whose minimum sits on a bound.  The
second half peeks under the hood at the generalized Cauchy direction that
drives every iteration.
"""

import numpy as np

import rlbfgsb as rb

# ---------------------------------------------------------------------------
# A one-dimensional quadratic on [-1, 1]: the unconstrained minimum x = 0 is
# feasible, so the solver should find it in essentially one Newton-like step.

geom = rb.Geometry(rb.BoxBounds(np.array([-1.0]), np.array([1.0])))
quadratic = rb.Problem(
    geometry=geom,
    cost=lambda p: float(p.euclidean[0] ** 2),
    gradient=lambda p: rb.ProductTangent(2.0 * p.euclidean),
    name="x^2 on [-1, 1]",
)
result = rb.solve(quadratic, rb.ProductPoint(np.array([0.5])))
print(f"{quadratic.name}: x* = {result.point.euclidean[0]:.2e}, "
      f"f* = {result.cost:.2e}, {result.iterations} iterations")

# ---------------------------------------------------------------------------
# A linear objective on [0, 1]: the minimum is at the lower bound.  The
# generalized Cauchy step clamps the coordinate exactly onto the bound and
# the projected gradient at the solution is exactly zero.

linear = rb.Problem(
    geometry=rb.Geometry(rb.BoxBounds(np.array([0.0]), np.array([1.0]))),
    cost=lambda p: float(p.euclidean[0]),
    gradient=lambda p: rb.ProductTangent(np.array([1.0])),
    name="x on [0, 1]",
)
result = rb.solve(linear, rb.ProductPoint(np.array([0.5])))
print(f"{linear.name}: x* = {result.point.euclidean[0]} (exactly on the bound), "
      f"projected gradient = {result.pg_norm}")

# ---------------------------------------------------------------------------
# Under the hood: the search direction is turned into a piecewise-linear
# path that stops coordinates at their bounds, and the first minimizer of
# the model along that path becomes the step.

geom = rb.Geometry(rb.BoxBounds(np.array([-1.0, 0.0]), np.array([1.0, 1.0])))
p = rb.ProductPoint(np.array([0.5, 0.9]))
grad = rb.ProductTangent(np.array([1.0, -2.0]))
d = rb.ProductTangent(np.array([-1.0, 2.0]))  # descent direction

bps = rb.compute_breakpoints(geom.box, p.euclidean, d.euclidean)
print("\nbreakpoint times per coordinate:", bps.times)

outcome = rb.generalized_cauchy_direction(geom, p, grad, d, rb.LbfgsMemory(), np.inf)
print("Cauchy direction:", outcome.direction.euclidean)
# The direction ends at the first bound it would cross, so the line search
# backtracks from its unit step and never tries a longer one.
print("status:", outcome.status.value)
print("coordinate 2 stops exactly at its bound:",
      p.euclidean[1] + outcome.direction.euclidean[1])
