"""Armijo backtracking line search, confined to a prescribed step interval.

The search direction produced by the generalized Cauchy step is already a
model minimizer, so the unit step is tried first, or the cap when it is
smaller.  When that step satisfies the sufficient-decrease condition, the
step is expanded geometrically while the condition keeps holding and the
next trial stays within the cap (a cap of 1 allows no expansion);
otherwise it is contracted.  The curvature side of the Wolfe conditions is
unnecessary here because the memory module rejects update pairs with bad
curvature on admission.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .geometry import Geometry, ProductPoint, ProductTangent

__all__ = ["LineSearchError", "armijo_capped"]

ARMIJO_C1 = 1e-4  # sufficient-decrease constant
CONTRACTION = 0.5
EXPANSION = 2.0
MAX_EVALS = 60  # cost evaluations per search


class LineSearchError(RuntimeError):
    """No acceptable step found within the evaluation budget."""


def armijo_capped(
    cost_fn: Callable[[ProductPoint], float],
    geom: Geometry,
    p: ProductPoint,
    d: ProductTangent,
    f0: float,
    slope: float,
    t_max: float,
) -> tuple[float, float, int, ProductPoint]:
    """Step length in ``(0, t_max]`` with sufficient decrease along ``d``.

    ``slope`` is the directional derivative ``<grad f(p), d>`` and must be
    negative; ``t_max > 0`` is the largest multiplier of ``d`` the search may
    try.  Returns ``(alpha, f_new, evaluations, p_new)`` with the accepted
    point ``p_new = geom.retract(p, alpha * d)``; a cost of ``-inf`` is
    accepted at once.  Raises :class:`LineSearchError` once ``MAX_EVALS``
    cost evaluations fail the Armijo inequality.
    """
    if not slope < 0.0:
        raise LineSearchError(f"need a descent direction, slope={slope}")

    evals = 0

    def phi(a: float) -> tuple[float, ProductPoint]:
        nonlocal evals
        evals += 1
        q = geom.retract(p, a * d)
        return float(cost_fn(q)), q

    def armijo(a: float, fa: float) -> bool:
        # NaN costs fail the comparison and keep the contraction going.
        return fa <= f0 + ARMIJO_C1 * a * slope

    alpha = min(1.0, t_max)
    f_alpha, p_alpha = phi(alpha)
    if armijo(alpha, f_alpha):
        while evals < MAX_EVALS and f_alpha > -np.inf and alpha * EXPANSION <= t_max:
            cand = alpha * EXPANSION
            f_cand, p_cand = phi(cand)
            if not armijo(cand, f_cand):
                break
            alpha, f_alpha, p_alpha = cand, f_cand, p_cand
        return alpha, f_alpha, evals, p_alpha

    while evals < MAX_EVALS:
        alpha *= CONTRACTION
        f_alpha, p_alpha = phi(alpha)
        if armijo(alpha, f_alpha):
            return alpha, f_alpha, evals, p_alpha
    raise LineSearchError(f"no Armijo step after {evals} evaluations")
