"""Armijo backtracking line search, confined to a prescribed step interval.

The search direction produced by the generalized Cauchy step is already a
model minimizer, so the unit step is tried first.  When the step interval is
unbounded (no finite box breakpoint limited the direction) and the unit step
already satisfies the sufficient-decrease condition, the step is expanded
geometrically while the condition keeps holding; otherwise it is contracted.
The curvature side of the Wolfe conditions is unnecessary here because the
memory module rejects update pairs with bad curvature on admission.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import Geometry, ProductPoint, ProductTangent

__all__ = ["LineSearchConfig", "LineSearchError", "armijo_capped"]


class LineSearchError(RuntimeError):
    """No acceptable step found within the evaluation budget."""


@dataclass(frozen=True)
class LineSearchConfig:
    armijo_c1: float = 1e-4
    contraction: float = 0.5
    expansion: float = 2.0
    max_evals: int = 60

    def __post_init__(self):
        if not 0.0 < self.armijo_c1 < 1.0:
            raise ValueError("armijo_c1 must lie in (0, 1)")
        if not 0.0 < self.contraction < 1.0:
            raise ValueError("contraction must lie in (0, 1)")
        if self.expansion <= 1.0:
            raise ValueError("expansion must exceed 1")
        if self.max_evals < 1:
            raise ValueError("max_evals must be positive")


def armijo_capped(
    cost_fn: Callable[[ProductPoint], float],
    geom: Geometry,
    p: ProductPoint,
    d: ProductTangent,
    f0: float,
    slope: float,
    t_max: float,
    config: LineSearchConfig | None = None,
) -> tuple[float, float, int, ProductPoint]:
    """Step length in ``(0, t_max]`` with sufficient decrease along ``d``.

    ``slope`` is the directional derivative ``<grad f(p), d>`` and must be
    negative.  Returns ``(alpha, f_new, evaluations, p_new)`` with the
    accepted point ``p_new = geom.retract(p, alpha * d)``; a cost of ``-inf``
    is accepted at once.  Raises :class:`LineSearchError` once
    ``config.max_evals`` cost evaluations fail the Armijo inequality.
    """
    cfg = config or LineSearchConfig()
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
        return fa <= f0 + cfg.armijo_c1 * a * slope

    alpha = min(1.0, t_max)
    f_alpha, p_alpha = phi(alpha)
    if armijo(alpha, f_alpha):
        if np.isinf(t_max):
            while evals < cfg.max_evals and f_alpha > -np.inf:
                cand = alpha * cfg.expansion
                f_cand, p_cand = phi(cand)
                if not armijo(cand, f_cand):
                    break
                alpha, f_alpha, p_alpha = cand, f_cand, p_cand
        return alpha, f_alpha, evals, p_alpha

    while evals < cfg.max_evals:
        alpha *= cfg.contraction
        f_alpha, p_alpha = phi(alpha)
        if armijo(alpha, f_alpha):
            return alpha, f_alpha, evals, p_alpha
    raise LineSearchError(f"no Armijo step after {evals} evaluations")
