"""Outer bound-constrained limited-memory quasi-Newton iteration.

Each step: apply the inverse compact operator to the negative gradient,
project the result onto the tangent cone, run the generalized Cauchy search
along it, and backtrack from the unit step of the Cauchy direction to an
Armijo step, at the point the line search retracted to; one batched
transport carries the memory, step and old gradient there, and the new
update pair is admitted.

The state keeps the projected steepest-descent direction of its iterate,
the tangent-cone projection of the negative gradient: the quasi-Newton
direction starts from it, its norm is the stationarity measure, and it is
the fallback direction.  A missing Cauchy direction or a failed line search
discards the curvature memory and retries the iteration once along that
fallback before giving up; a singular middle matrix discards the memory
after the step.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .gcd import GcdStatus, generalized_cauchy_direction
from .geometry import Geometry, ProductPoint, ProductTangent
from .linesearch import LineSearchError, armijo_capped
from .memory import LbfgsMemory, SingularMiddleMatrix, make_pair
from .problems import Problem

__all__ = [
    "SolverOptions",
    "SolverResult",
    "SolverState",
    "StepReport",
    "Termination",
    "init_state",
    "solve",
    "step",
]


class Termination(Enum):
    PG_TOLERANCE = "pg_tolerance"
    COST_STAGNATION = "cost_stagnation"
    MAX_ITERATIONS = "max_iterations"
    LINE_SEARCH_FAILURE = "line_search_failure"
    NON_FINITE = "non_finite"


@dataclass
class SolverOptions:
    memory_capacity: int = 10
    pg_tolerance: float = 1e-6
    cost_change_factor: float = 1000.0
    max_iterations: int = 1000

    def __post_init__(self):
        if self.memory_capacity < 1:
            raise ValueError("memory_capacity must be >= 1")
        if self.pg_tolerance <= 0 or self.cost_change_factor <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class SolverResult:
    point: ProductPoint
    cost: float
    pg_norm: float
    iterations: int
    cost_evals: int
    grad_evals: int
    termination: Termination


@dataclass
class SolverState:
    """The current iterate; ``steepest`` is the cone projection of ``-grad`` there."""

    point: ProductPoint
    grad: ProductTangent
    steepest: ProductTangent
    cost: float
    memory: LbfgsMemory
    iteration: int = 0


@dataclass
class StepReport:
    """What one iteration did; consumed by :func:`solve` and by tests.

    ``pairs_dropped`` counts the stored pairs whose curvature the transport
    destroyed; ``pair_rejected`` says the curvature test refused the new
    pair.  A pair lost to a singular middle matrix counts under
    ``memory_resets`` instead.  ``ls_evals`` counts the line-search cost
    evaluations, those of a search that failed before a reset included.
    ``stop`` is the termination the step calls for, if any.
    """

    alpha: float = 0.0
    cost: float = np.nan
    gcd_status: GcdStatus = GcdStatus.NOT_FOUND
    memory_resets: int = 0
    ls_evals: int = 0
    pairs_dropped: int = 0
    pair_rejected: bool = False
    stop: Optional[Termination] = None


def init_state(problem: Problem, p0: ProductPoint, options: SolverOptions) -> SolverState:
    geom = problem.geometry
    if not geom.is_feasible(p0):
        raise ValueError("initial point is infeasible; clamp it into the box first")
    cost = float(problem.cost(p0))
    if not np.isfinite(cost):
        raise ValueError(f"cost at the initial point is not finite: {cost}")
    grad = problem.gradient(p0)
    if not np.isfinite(grad.data).all():
        raise ValueError("gradient at the initial point is not finite")
    memory = LbfgsMemory(options.memory_capacity)
    steepest = geom.project_tangent_cone(p0, -grad)
    return SolverState(p0.copy(), grad, steepest, cost, memory)


def _cauchy_direction(state: SolverState, geom: Geometry, reset: bool):
    """Projected search direction and its Cauchy outcome.

    The quasi-Newton direction applies the inverse operator to the projected
    negative gradient within the tangent space of the active boundary face
    (see :meth:`LbfgsMemory.apply_inverse`); applied to the raw gradient
    instead, the operator couples the large gradient components of the
    active bounds into the free coordinates and routinely emits ascent
    directions near bound-active optima.  With ``reset`` (the memory has
    just been reset) the projected negative gradient is used directly.
    """
    p, d = state.point, state.steepest
    if not reset:
        # The projection zeroes exactly the active components, which are
        # nonzero in the finite -g, and leaves every free one as it was.
        free = d.euclidean == -state.grad.euclidean
        d = state.memory.apply_inverse(geom, p, d, free_mask=free)
        d = geom.project_tangent_cone(p, d)
    return generalized_cauchy_direction(geom, p, state.grad, d, state.memory)


def step(state: SolverState, problem: Problem, options: SolverOptions) -> StepReport:
    """Advance the state by one iteration.

    ``report.stop`` names the termination, and the state is left as it was,
    when no descent direction is left even after a memory reset (the
    projected gradient vanishes), when the line search fails for good, or
    when the accepted cost or gradient is not finite.  Otherwise the state
    holds the accepted point with its gradient, projected steepest-descent
    direction and cost, and the moved memory.
    """
    geom = problem.geometry
    report = StepReport()

    reset = False
    while True:
        outcome = _cauchy_direction(state, geom, reset)
        if outcome.status is GcdStatus.NOT_FOUND:
            failure = Termination.PG_TOLERANCE
        else:
            slope = geom.inner(state.point, state.grad, outcome.direction)
            try:
                alpha, f_new, evals, p_new = armijo_capped(
                    problem.cost, geom, state.point, outcome.direction, state.cost, slope, 1.0
                )
                report.ls_evals += evals
                break
            except LineSearchError as err:
                report.ls_evals += err.evaluations
                failure = Termination.LINE_SEARCH_FAILURE
        if reset:
            report.stop = failure
            return report
        state.memory.reset()
        report.memory_resets += 1
        reset = True

    grad_new = problem.gradient(p_new) if math.isfinite(f_new) else None
    if grad_new is None or not np.isfinite(grad_new.data).all():
        report.stop = Termination.NON_FINITE
        return report

    step_vec = alpha * outcome.direction
    try:
        report.pairs_dropped = state.memory.transport(
            geom, state.point, step_vec, state.grad, p_new
        )
        s, y = make_pair(geom, state.memory, grad_new)
        report.pair_rejected = not state.memory.push(geom, p_new, s, y)
    except SingularMiddleMatrix:
        state.memory.reset()
        report.memory_resets += 1

    state.point = p_new
    state.grad = grad_new
    state.steepest = geom.project_tangent_cone(p_new, -grad_new)
    state.cost = f_new
    state.iteration += 1

    report.alpha = alpha
    report.cost = f_new
    report.gcd_status = outcome.status
    return report


def solve(
    problem: Problem,
    p0: ProductPoint,
    options: SolverOptions | None = None,
    callback: Optional[Callable[[int, ProductPoint, float, float], None]] = None,
) -> SolverResult:
    """Minimize ``problem`` from the feasible point ``p0``.

    Stops when the projected gradient norm falls below ``pg_tolerance``, when
    the cost decrease drops below ``cost_change_factor * machine_eps``
    relative to ``max(|f_prev|, |f|, 1)``, or after ``max_iterations``; a
    non-finite cost or gradient at an accepted point stops it at the last
    finite iterate with :attr:`Termination.NON_FINITE`.  Every cost and
    gradient evaluation is counted, line-search trials included.
    ``callback(k, point, cost, pg_norm)`` runs once per iterate.
    """
    opts = options or SolverOptions()
    counts = {"cost": 0, "grad": 0}
    base_cost, base_grad = problem.cost, problem.gradient

    def counted_cost(p):
        counts["cost"] += 1
        return base_cost(p)

    def counted_grad(p):
        counts["grad"] += 1
        return base_grad(p)

    counted = dataclasses.replace(problem, cost=counted_cost, gradient=counted_grad)
    state = init_state(counted, p0, opts)
    geom = problem.geometry

    pg = geom.norm(state.point, state.steepest)
    if callback is not None:
        callback(0, state.point, state.cost, pg)

    termination = Termination.MAX_ITERATIONS
    eps = np.finfo(float).eps
    for _ in range(opts.max_iterations):
        if pg <= opts.pg_tolerance:
            break
        prev_cost = state.cost
        report = step(state, counted, opts)
        if report.stop is not None:
            termination = report.stop
            break
        pg = geom.norm(state.point, state.steepest)
        if callback is not None:
            callback(state.iteration, state.point, state.cost, pg)
        decrease = prev_cost - state.cost
        scale = max(abs(prev_cost), abs(state.cost), 1.0)
        if decrease <= opts.cost_change_factor * eps * scale:
            termination = Termination.COST_STAGNATION
            break
    # A step that stops the solve leaves pg as it was, above the tolerance.
    if pg <= opts.pg_tolerance:
        termination = Termination.PG_TOLERANCE

    return SolverResult(
        point=state.point,
        cost=state.cost,
        pg_norm=pg,
        iterations=state.iteration,
        cost_evals=counts["cost"],
        grad_evals=counts["grad"],
        termination=termination,
    )
