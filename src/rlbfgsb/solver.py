"""Outer bound-constrained limited-memory quasi-Newton iteration.

Each step: apply the inverse compact operator to the negative gradient,
project the result onto the tangent cone, run the generalized Cauchy search
along it, take an Armijo step within the interval the search allows, retract,
carry the memory to the new tangent space, and admit the new update pair.

Degenerate situations (no Cauchy direction, failed line search, singular
middle matrix) discard the curvature memory and retry the iteration once
along the projected steepest-descent direction before giving up.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .gcd import GcdStatus, generalized_cauchy_direction
from .geometry import Geometry, ProductPoint, ProductTangent
from .linesearch import LineSearchConfig, LineSearchError, armijo_capped
from .memory import LbfgsMemory, SingularMiddleMatrix, make_pair
from .problems import Problem

__all__ = [
    "SolverOptions",
    "SolverResult",
    "SolverState",
    "StepReport",
    "Termination",
    "init_state",
    "projected_gradient_norm",
    "solve",
    "step",
]


class Termination(Enum):
    PG_TOLERANCE = "pg_tolerance"
    COST_STAGNATION = "cost_stagnation"
    MAX_ITERATIONS = "max_iterations"
    LINE_SEARCH_FAILURE = "line_search_failure"


@dataclass
class SolverOptions:
    memory_capacity: int = 10
    pg_tolerance: float = 1e-6
    cost_change_factor: float = 1000.0
    max_iterations: int = 1000
    curvature_eps: float = 1e-8
    line_search: LineSearchConfig = field(default_factory=LineSearchConfig)

    def __post_init__(self):
        if self.memory_capacity < 1:
            raise ValueError("memory_capacity must be >= 1")
        if self.pg_tolerance <= 0 or self.cost_change_factor <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.curvature_eps <= 0:
            raise ValueError("curvature_eps must be positive")


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
    point: ProductPoint
    grad: ProductTangent
    cost: float
    memory: LbfgsMemory
    iteration: int = 0
    prev_cost: Optional[float] = None


@dataclass
class StepReport:
    """What one iteration did; consumed by :func:`solve` and by tests.

    ``pairs_dropped`` counts the stored pairs whose curvature the transport
    destroyed; ``pair_rejected`` says the curvature test refused the new
    pair.  A pair lost to a singular middle matrix counts under
    ``memory_resets`` instead.
    """

    alpha: float = 0.0
    cost: float = np.nan
    gcd_status: GcdStatus = GcdStatus.NOT_FOUND
    memory_resets: int = 0
    pairs_dropped: int = 0
    pair_rejected: bool = False
    stationary: bool = False
    line_search_failed: bool = False


def projected_gradient_norm(geom: Geometry, p: ProductPoint, grad: ProductTangent) -> float:
    """Norm of the tangent-cone projection of the negative gradient."""
    return geom.norm(p, geom.project_tangent_cone(p, -grad))


def init_state(problem: Problem, p0: ProductPoint, options: SolverOptions) -> SolverState:
    geom = problem.geometry
    if not geom.is_feasible(p0):
        raise ValueError("initial point is infeasible; clamp it into the box first")
    cost = float(problem.cost(p0))
    if not np.isfinite(cost):
        raise ValueError(f"cost at the initial point is not finite: {cost}")
    grad = problem.gradient(p0)
    if not np.all(np.isfinite(grad.euclidean)) or (
        grad.manifold is not None and not np.all(np.isfinite(grad.manifold))
    ):
        raise ValueError("gradient at the initial point is not finite")
    memory = LbfgsMemory(options.memory_capacity, options.curvature_eps)
    return SolverState(point=p0.copy(), grad=grad, cost=cost, memory=memory)


def _free_mask(geom: Geometry, p: ProductPoint, grad: ProductTangent) -> np.ndarray:
    """Box coordinates not pinned at a bound by the gradient sign.

    A coordinate is active when it sits exactly on a bound and the negative
    gradient points out of the box there; those are the components the
    tangent-cone projection of ``-grad`` zeroes.
    """
    eu = p.euclidean
    g = grad.euclidean
    active = ((eu == geom.box.lower) & (g > 0)) | ((eu == geom.box.upper) & (g < 0))
    return ~active


def _cauchy_direction(state: SolverState, geom: Geometry, steepest: bool):
    """Projected search direction and its Cauchy outcome.

    The quasi-Newton direction applies the inverse operator to the projected
    negative gradient within the tangent space of the active boundary face
    (see :meth:`LbfgsMemory.apply_inverse`); applied to the raw gradient
    instead, the operator couples the large gradient components of the
    active bounds into the free coordinates and routinely emits ascent
    directions near bound-active optima.  With ``steepest`` the memory is
    bypassed and the projected negative gradient is used directly (the
    memory has just been reset then).
    """
    p, g = state.point, state.grad
    v = geom.project_tangent_cone(p, -g)
    if steepest:
        d = v
    else:
        mask = _free_mask(geom, p, g)
        d = state.memory.apply_inverse(geom, p, v, free_mask=mask)
        d = geom.project_tangent_cone(p, d)
    outcome = generalized_cauchy_direction(geom, p, g, d, state.memory)
    return outcome


def step(state: SolverState, problem: Problem, options: SolverOptions) -> StepReport:
    """Advance the state by one iteration.

    The report flags stationarity (no usable descent direction even after a
    memory reset: the projected gradient vanishes) and unrecoverable line
    search failure; on success the state holds the new point, gradient, cost
    and transported memory.
    """
    geom = problem.geometry
    report = StepReport()

    outcome = _cauchy_direction(state, geom, steepest=False)
    if outcome.status is GcdStatus.NOT_FOUND:
        state.memory.reset()
        report.memory_resets += 1
        outcome = _cauchy_direction(state, geom, steepest=True)
        if outcome.status is GcdStatus.NOT_FOUND:
            report.stationary = True
            return report

    alpha = f_new = None
    for attempt in range(2):
        slope = geom.inner(state.point, state.grad, outcome.direction)
        try:
            alpha, f_new, _ = armijo_capped(
                problem.cost,
                geom,
                state.point,
                outcome.direction,
                state.cost,
                slope,
                outcome.t_max,
                options.line_search,
            )
            break
        except LineSearchError:
            if attempt == 1 or report.memory_resets > 0:
                report.line_search_failed = True
                return report
            state.memory.reset()
            report.memory_resets += 1
            outcome = _cauchy_direction(state, geom, steepest=True)
            if outcome.status is GcdStatus.NOT_FOUND:
                report.stationary = True
                return report
    if alpha is None:
        report.line_search_failed = True
        return report

    step_vec = alpha * outcome.direction
    p_new = geom.retract(state.point, step_vec)
    grad_new = problem.gradient(p_new)

    try:
        report.pairs_dropped = state.memory.transport(geom, state.point, step_vec)
        s, y = make_pair(geom, state.point, step_vec, state.grad, grad_new)
        report.pair_rejected = not state.memory.push(geom, p_new, s, y)
    except SingularMiddleMatrix:
        state.memory.reset()
        report.memory_resets += 1

    state.prev_cost = state.cost
    state.point = p_new
    state.grad = grad_new
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
    relative to ``max(|f_prev|, |f|, 1)``, or after ``max_iterations``.
    Every cost and gradient evaluation is counted, line-search trials
    included.  ``callback(k, point, cost, pg_norm)`` runs once per iterate.
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

    pg = projected_gradient_norm(geom, state.point, state.grad)
    if callback is not None:
        callback(0, state.point, state.cost, pg)

    termination = Termination.MAX_ITERATIONS
    eps = np.finfo(float).eps
    for _ in range(opts.max_iterations):
        if pg <= opts.pg_tolerance:
            termination = Termination.PG_TOLERANCE
            break
        report = step(state, counted, opts)
        if report.stationary:
            pg = projected_gradient_norm(geom, state.point, state.grad)
            termination = Termination.PG_TOLERANCE
            break
        if report.line_search_failed:
            termination = Termination.LINE_SEARCH_FAILURE
            break
        pg = projected_gradient_norm(geom, state.point, state.grad)
        if callback is not None:
            callback(state.iteration, state.point, state.cost, pg)
        assert state.prev_cost is not None
        decrease = state.prev_cost - state.cost
        scale = max(abs(state.prev_cost), abs(state.cost), 1.0)
        if decrease <= opts.cost_change_factor * eps * scale:
            if pg <= opts.pg_tolerance:
                termination = Termination.PG_TOLERANCE
            else:
                termination = Termination.COST_STAGNATION
            break
    else:
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
