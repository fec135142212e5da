"""Bound-constrained limited-memory BFGS on products of a box and a manifold.

Quick start::

    import numpy as np
    from rlbfgsb import BoxBounds, Geometry, Problem, ProductPoint, ProductTangent, solve

    geom = Geometry(BoxBounds(np.array([-1.0]), np.array([1.0])))
    prob = Problem(
        geometry=geom,
        cost=lambda p: float(p.euclidean[0] ** 2),
        gradient=lambda p: ProductTangent(2.0 * p.euclidean),
    )
    result = solve(prob, ProductPoint(np.array([0.5])))
"""

from .baseline import projected_gradient
from .gcd import (
    BreakpointSet,
    GcdOutcome,
    GcdStatus,
    SegmentState,
    compute_breakpoints,
    generalized_cauchy_direction,
    segment_values,
    surrogate_init,
)
from .geometry import (
    BoxBounds,
    Geometry,
    GeometryError,
    Manifold,
    ProductPoint,
    ProductTangent,
    SpecialOrthogonal,
    Sphere,
    Stiefel,
)
from .linesearch import LineSearchError, armijo_capped
from .memory import LbfgsMemory, MemoryPair, SingularMiddleMatrix, make_pair
from .problems import (
    BssInstance,
    CpcInstance,
    Problem,
    bss_problem,
    cpc_problem,
    euclidean_suite,
    load_class_csv,
    synth_bss,
    synth_cpc,
)
from .solver import (
    SolverOptions,
    SolverResult,
    SolverState,
    StepReport,
    Termination,
    init_state,
    solve,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "BoxBounds",
    "BreakpointSet",
    "BssInstance",
    "CpcInstance",
    "GcdOutcome",
    "GcdStatus",
    "Geometry",
    "GeometryError",
    "LbfgsMemory",
    "LineSearchError",
    "Manifold",
    "MemoryPair",
    "Problem",
    "ProductPoint",
    "ProductTangent",
    "SegmentState",
    "SingularMiddleMatrix",
    "SolverOptions",
    "SolverResult",
    "SolverState",
    "SpecialOrthogonal",
    "Sphere",
    "StepReport",
    "Stiefel",
    "Termination",
    "armijo_capped",
    "bss_problem",
    "compute_breakpoints",
    "cpc_problem",
    "euclidean_suite",
    "generalized_cauchy_direction",
    "init_state",
    "load_class_csv",
    "make_pair",
    "projected_gradient",
    "segment_values",
    "solve",
    "step",
    "surrogate_init",
    "synth_bss",
    "synth_cpc",
]
