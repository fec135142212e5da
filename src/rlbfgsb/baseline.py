"""Projected gradient descent baseline for benchmark comparisons.

Steepest descent projected onto the tangent cone, with Armijo backtracking
and a retraction step; the box part stays feasible because the cone
projection removes outward components and the retraction clips
floating-point drift.  Deliberately simple: it is the reference point the
quasi-Newton solver is measured against.
"""

from __future__ import annotations

import time

import numpy as np

from .geometry import ProductPoint
from .linesearch import ARMIJO_C1, CONTRACTION
from .problems import Problem

__all__ = ["projected_gradient"]


def projected_gradient(
    problem: Problem,
    p0: ProductPoint,
    max_iterations: int = 100_000,
    pg_tolerance: float = 1e-6,
    time_budget_s: float | None = None,
) -> tuple[ProductPoint, float, int]:
    """Minimize by projected steepest descent; returns (point, cost, iterations).

    Stops at the projected-gradient tolerance, the iteration cap, or once the
    wall-clock budget (if given) is spent.  Backtracking uses the line-search
    module's sufficient-decrease constant and contraction factor.
    """
    geom = problem.geometry
    p = p0.copy()
    f = float(problem.cost(p))
    alpha = 1.0
    start = time.perf_counter()
    it = 0
    for it in range(1, max_iterations + 1):
        if time_budget_s is not None and time.perf_counter() - start >= time_budget_s:
            break
        g = problem.gradient(p)
        d = geom.project_tangent_cone(p, -g)
        slope = -geom.inner(p, d, d)
        if np.sqrt(-slope) <= pg_tolerance:
            break
        # Warm-started backtracking: try growing the last accepted step first.
        alpha = min(alpha * 2.0, 1e6)
        accepted = False
        for _ in range(60):
            cand = geom.retract(p, alpha * d)
            f_cand = float(problem.cost(cand))
            if f_cand <= f + ARMIJO_C1 * alpha * slope:
                p, f = cand, f_cand
                accepted = True
                break
            alpha *= CONTRACTION
        if not accepted:
            break
    return p, f, it
