"""Outer bound-constrained limited-memory quasi-Newton iteration.

Each step: apply the inverse compact operator to the negative gradient,
project the result onto the tangent cone, run the generalized Cauchy search
along it, and backtrack from the unit step of the Cauchy direction to an
Armijo step, at the point the line search retracted to; one batched
transport carries the memory, step and old gradient there, and the new
update pair is admitted.

The state keeps its iterate's bound faces, found once and read by every
phase of the step, and the projected steepest-descent direction: the
quasi-Newton direction starts from it, its norm is the stationarity measure,
and it is the fallback direction.  A missing Cauchy direction, a singular
face system of the inverse operator, a singular middle matrix met by the
Cauchy search (the only reader of that matrix) or a failed line search
discards the curvature memory and retries the iteration once along that
fallback before giving up.
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
        if not (0 < self.pg_tolerance < math.inf and 0 < self.cost_change_factor < math.inf):
            raise ValueError("tolerances must be finite and positive")
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
    """The current iterate, with the bound faces and directions that :meth:`locate` sets."""

    point: ProductPoint
    grad: ProductTangent
    cost: float
    memory: LbfgsMemory
    iteration: int = 0
    faces: tuple[np.ndarray, np.ndarray] | None = None
    active: np.ndarray | None = None
    steepest: ProductTangent | None = None

    def locate(self, geom: Geometry) -> "SolverState":
        """Set ``faces``, the sorted ``active`` ones where ``-grad`` leaves, and ``steepest``."""
        self.faces = geom.bound_faces(self.point)
        self.steepest = -self.grad
        self.active = geom.outward(self.faces, self.steepest)
        if self.active.size:
            self.steepest.euclidean[self.active] = 0.0
        return self


@dataclass
class StepReport:
    """What one iteration did; consumed by :func:`solve` and by tests.

    ``pairs_dropped`` counts the stored pairs whose curvature the transport
    destroyed; ``pair_rejected`` says the curvature test refused the new
    pair.  ``memory_resets`` counts the resets before the retry, a singular
    middle matrix or face system among their causes.  ``ls_evals`` counts
    the line-search cost evaluations, those of a search that failed before a
    reset included.
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
    return SolverState(p0.copy(), grad, cost, LbfgsMemory(options.memory_capacity)).locate(geom)


def _cauchy_direction(state: SolverState, geom: Geometry, reset: bool):
    """Projected search direction and its Cauchy outcome.

    The quasi-Newton direction ``d = B q`` applies the inverse operator to
    the projected negative gradient ``q`` on the face without the active set
    (see :meth:`LbfgsMemory.apply_inverse`); applied to the raw gradient, the
    operator couples the large gradient components of the active bounds into
    the free coordinates and routinely emits ascent directions near
    bound-active optima.  ``d`` is projected onto the tangent cone in place,
    on the state's faces.  With ``reset`` ``q`` is used directly.  The search
    is handed ``q`` as ``H[d]`` after a reset and whenever the projection
    zeroes nothing: on a masked face ``H[d]`` equals ``q`` on the face, and
    ``d`` is zero off it.  It is handed ``X d`` too, the inverse's ``X B q``
    less the columns the projection zeroes.  A singular face system raises
    :class:`SingularMiddleMatrix`, as a singular middle matrix does in the search.
    """
    p, d, mem = state.point, state.steepest, state.memory
    hd, xd = d, None  # H = I while the memory is empty
    if not reset:
        d = mem.apply_inverse(geom, p, d, active=state.active)
        xd = mem.inverse_coefficients
        out = geom.outward(state.faces, d)
        if out.size:
            xd = xd - mem.basis_coefficients(out) @ d.euclidean[out]
            d.euclidean[out] = 0.0
            hd = None
    return generalized_cauchy_direction(geom, p, state.grad, d, mem, hd=hd, xd=xd)


def step(state: SolverState, problem: Problem, options: SolverOptions) -> StepReport:
    """Advance the state by one iteration.

    ``report.stop`` names the termination, and the state is left as it was,
    when no descent direction is left even after a memory reset (the
    projected gradient vanishes), when the line search fails for good, or
    when the accepted cost or gradient is not finite.  Otherwise the state
    holds the accepted point with its gradient, bound faces, projected
    steepest-descent direction and cost, and the moved memory.
    """
    geom = problem.geometry
    report = StepReport()

    reset = False
    while True:
        try:
            outcome = _cauchy_direction(state, geom, reset)
        except SingularMiddleMatrix:  # never with the empty memory of a reset
            outcome = None
        if outcome is None or outcome.status is GcdStatus.NOT_FOUND:
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
    report.pairs_dropped = state.memory.transport(geom, state.point, step_vec, state.grad, p_new)
    s, y = make_pair(geom, state.memory, grad_new)
    report.pair_rejected = not state.memory.push(geom, p_new, s, y)

    state.point, state.grad, state.cost = p_new, grad_new, f_new
    state.locate(geom)
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
