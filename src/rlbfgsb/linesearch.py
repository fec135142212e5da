"""Armijo backtracking line search from the unit step.

The search direction produced by the generalized Cauchy step is already a
model minimizer that ends at or before the next bound it would cross and
within the manifold's step-size radius, so the unit step is tried first and
contracted until the sufficient-decrease condition holds, as in L-BFGS-B.
The curvature side of the Wolfe conditions is unnecessary here because the
memory module rejects update pairs with bad curvature on admission.
"""

from __future__ import annotations

from typing import Callable

from .geometry import Geometry, ProductPoint, ProductTangent

__all__ = ["LineSearchError", "armijo_capped"]

ARMIJO_C1 = 1e-4  # sufficient-decrease constant
CONTRACTION = 0.5
MAX_EVALS = 60  # cost evaluations per search


class LineSearchError(RuntimeError):
    """No acceptable step found; ``evaluations`` is the cost evaluations spent."""

    def __init__(self, message: str, evaluations: int = 0):
        super().__init__(message)
        self.evaluations = evaluations


def armijo_capped(
    cost_fn: Callable[[ProductPoint], float],
    geom: Geometry,
    p: ProductPoint,
    d: ProductTangent,
    f0: float,
    slope: float,
    cap: float,
) -> tuple[float, float, int, ProductPoint]:
    """Step length in ``(0, min(1, cap)]`` with sufficient decrease along ``d``.

    ``slope`` is the directional derivative ``<grad f(p), d>`` and must be
    negative.  The first trial is ``min(1, cap)``, and each failed trial
    halves the step.  Returns ``(alpha, f_new, evaluations, p_new)`` with the
    accepted point ``p_new = geom.retract(p, alpha * d)``; a cost of ``-inf``
    passes at once and a NaN cost fails.  Raises :class:`LineSearchError`
    once ``MAX_EVALS`` cost evaluations fail the Armijo inequality.  The
    solver passes ``cap = 1``; the argument stays while the benchmark tracer
    reads it by position, until an in-solver trace replaces that tracer.
    """
    if not slope < 0.0:
        raise LineSearchError(f"need a descent direction, slope={slope}")

    alpha = min(1.0, cap)
    for evals in range(1, MAX_EVALS + 1):
        q = geom.retract(p, alpha * d)
        f = float(cost_fn(q))
        if f <= f0 + ARMIJO_C1 * alpha * slope:
            return alpha, f, evals, q
        alpha *= CONTRACTION
    raise LineSearchError(f"no Armijo step after {MAX_EVALS} evaluations", MAX_EVALS)
