"""Generalized Cauchy direction along the projected piecewise-linear path.

Given a descent direction ``d`` at a feasible point, the box coordinates of
the ray ``p + t d`` successively hit their bounds at breakpoint times ``t_i``.
Projecting the ray onto the box yields a piecewise-linear path ``d_PL(t)``
(the manifold part simply scales, ``t * d_M``).  The quadratic model

    q(t) = f(p) + <grad, d_PL(t)> + 1/2 <d_PL(t), H[d_PL(t)]>

is piecewise quadratic in ``t``; this module locates its first local
minimizer ``t_*`` by walking the breakpoints in a min-heap and updating the
segment slope ``f'`` and curvature ``f''`` incrementally.  Each breakpoint
crossing needs only three Hessian values, all cheap in the compact
limited-memory representation; the running coefficient vectors live in
:class:`SegmentState`.

The search is capped by a sentinel breakpoint at the manifold's maximum
step size.  The returned direction is ``t_* d`` with every coordinate whose
bound was passed clamped to the exact bound offset, together with a status
flag and the largest multiplier the subsequent line search may apply.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import BoxBounds, Geometry, ProductPoint, ProductTangent
from .memory import LbfgsMemory

__all__ = [
    "BreakpointSet",
    "GcdOutcome",
    "GcdStatus",
    "SegmentState",
    "compute_breakpoints",
    "generalized_cauchy_direction",
    "segment_values",
    "surrogate_init",
]


class GcdStatus(Enum):
    FOUND_LIMITED = "found_limited"
    FOUND_UNLIMITED = "found_unlimited"
    NOT_FOUND = "not_found"


@dataclass
class GcdOutcome:
    """Result of the search: direction, status, and the line-search cap.

    ``t_max`` is ``-1`` when nothing was found, ``+inf`` when no finite box
    breakpoint exists, and at least ``1`` otherwise (the unit step is always
    admissible).
    """

    direction: ProductTangent
    status: GcdStatus
    t_max: float


@dataclass
class BreakpointSet:
    """Per-coordinate travel times plus the heap driving the segment walk.

    ``times[i]`` is the positive time at which box coordinate ``i`` meets the
    bound it moves towards (``+inf`` for a zero direction component or an
    infinite facing bound; ``0`` for a component sitting on its bound and
    moving into it).  The heap holds the strictly positive finite entries and
    one sentinel ``(t_manifold_max, -1)``.
    """

    times: np.ndarray
    heap: list[tuple[float, int]]


def compute_breakpoints(
    bounds: BoxBounds,
    p_d: np.ndarray,
    d_d: np.ndarray,
    t_manifold_max: float = np.inf,
) -> BreakpointSet:
    """Travel times to the facing bounds, as a min-heap with sentinel.

    Zero-time entries (a coordinate exactly on its bound moving outward) are
    kept out of the heap; callers avoid them entirely by projecting ``d``
    onto the tangent cone first.
    """
    n = bounds.n
    times = np.full(n, np.inf)
    with np.errstate(invalid="ignore"):
        neg = d_d < 0
        times[neg] = (bounds.lower[neg] - p_d[neg]) / d_d[neg]
        pos = d_d > 0
        times[pos] = (bounds.upper[pos] - p_d[pos]) / d_d[pos]
    times[times == 0.0] = 0.0  # normalize -0.0
    heap = [(float(t), i) for i, t in enumerate(times) if 0.0 < t < np.inf]
    heap.append((float(t_manifold_max), -1))
    heapq.heapify(heap)
    return BreakpointSet(times=times, heap=heap)


@dataclass
class SegmentState:
    """Coefficient vectors carried across segments.

    ``p_y/p_s`` are the coefficients of the still-moving direction, and
    ``c_y/c_s`` those of the accumulated path point; both against the stored
    memory pairs (``c`` starts at zero, ``p`` at the coefficients of ``d``).
    """

    c_y: np.ndarray
    c_s: np.ndarray
    p_y: np.ndarray
    p_s: np.ndarray


def surrogate_init(
    mem: LbfgsMemory, geom: Geometry, p: ProductPoint, d: ProductTangent
) -> SegmentState:
    """Start-of-path coefficient vectors for the segment walk."""
    mu = mem.size
    if not mu:  # a memory that never stored a pair does not know the tangent width
        return SegmentState(*(np.zeros(0) for _ in range(4)))
    v = geom.pack(d)
    return SegmentState(
        c_y=np.zeros(mu),
        c_s=np.zeros(mu),
        p_y=mem.Y @ v,
        p_s=mem.theta * (mem.S @ v),
    )


def segment_values(
    state: SegmentState,
    mem: LbfgsMemory,
    t: float,
    dt: float,
    b: int,
    d_b: float,
) -> tuple[float, float]:
    """Hessian values needed when coordinate ``b`` reaches its bound at time ``t``.

    Mutates ``state`` for the next segment and returns
    ``v1 = <e_b, H[Z]>`` (``Z`` the path point at ``t``) and
    ``v2 = <e_b, H[dhat]>`` (``dhat`` the direction active on the segment of
    length ``dt`` that just ended).
    """
    state.c_y += dt * state.p_y
    state.c_s += dt * state.p_s
    theta = mem.theta
    xi_y, xi_s = (mem.Y[:, b], theta * mem.S[:, b]) if mem.size else (np.zeros(0),) * 2
    v1 = theta * t * d_b - mem.m_bilinear(xi_y, xi_s, state.c_y, state.c_s)
    v2 = theta * d_b - mem.m_bilinear(xi_y, xi_s, state.p_y, state.p_s)
    state.p_y -= d_b * xi_y
    state.p_s -= d_b * xi_s
    return v1, v2


def generalized_cauchy_direction(
    geom: Geometry,
    p: ProductPoint,
    grad: ProductTangent,
    d: ProductTangent,
    mem: LbfgsMemory,
    t_manifold_max: float | None = None,
) -> GcdOutcome:
    """First local minimizer of the model along the projected path of ``d``.

    ``d`` may be any descent direction; ``p`` must be feasible, with ``d``
    already projected onto the tangent cone so that no coordinate sits on a
    bound pointing outward.  Degenerate data (zero slope or curvature, or a
    nonpositive minimizer) yields ``NOT_FOUND`` with the zero direction and
    ``t_max = -1``; the caller is then expected to discard its curvature
    memory and retry along the projected steepest descent direction.
    """
    if t_manifold_max is None:
        t_manifold_max = geom.max_stepsize(p)
    bounds = geom.box
    bps = compute_breakpoints(bounds, p.euclidean, d.euclidean, t_manifold_max)
    tms = bps.times
    finite_breakpoint = bool(np.any((tms > 0.0) & np.isfinite(tms)))

    not_found = GcdOutcome(geom.zero_tangent(p), GcdStatus.NOT_FOUND, -1.0)

    f1 = geom.inner(p, grad, d)
    f2 = mem.pairing(geom, p, d, d)
    if f1 == 0.0 or f2 == 0.0:
        return not_found
    dt_min = -f1 / f2

    heap = bps.heap
    t_old = 0.0
    t, b = heapq.heappop(heap)
    dt = t
    qs = surrogate_init(mem, geom, p, d)

    while True:
        if not dt_min > dt:
            # Minimizer lies within the current segment.
            break
        if b == -1:
            # Manifold step-size sentinel: never search past it.
            dt_min = min(dt_min, dt)
            break
        d_b = float(d.euclidean[b])
        g_b = float(grad.euclidean[b])
        v1, v2 = segment_values(qs, mem, t, dt, b, d_b)
        f1 = f1 + dt * f2 - d_b * (g_b + v1)
        f2 = f2 - 2.0 * d_b * v2 + d_b * d_b * mem.basis_diag(b)
        t_old = t
        if f1 == 0.0 or f2 == 0.0:
            dt_min = 0.0
            break
        dt_min = -f1 / f2
        if not heap:  # unreachable while the sentinel is unpopped; defensive
            break
        t, b = heapq.heappop(heap)
        dt = t - t_old

    t_star = t_old + max(0.0, dt_min)
    if t_star <= 0.0:
        return not_found

    direction = t_star * d
    passed = tms < t  # components fixed at their bound before the last pop
    eu = direction.euclidean
    if np.any(passed):
        idx = np.nonzero(passed)[0]
        up = d.euclidean[idx] > 0
        eu[idx] = np.where(
            up,
            bounds.upper[idx] - p.euclidean[idx],
            bounds.lower[idx] - p.euclidean[idx],
        )
    # p + direction must lie in the box exactly; rounding in the offsets can
    # overshoot by an ulp, so nudge offending components back in.
    if bounds.n:
        over = p.euclidean + eu > bounds.upper
        while np.any(over):
            eu[over] = np.nextafter(eu[over], -np.inf)
            over = p.euclidean + eu > bounds.upper
        under = p.euclidean + eu < bounds.lower
        while np.any(under):
            eu[under] = np.nextafter(eu[under], np.inf)
            under = p.euclidean + eu < bounds.lower

    if finite_breakpoint:
        positive = tms[tms > 0.0]
        t_nearest = min(float(t_manifold_max), float(np.min(positive)))
        return GcdOutcome(direction, GcdStatus.FOUND_LIMITED, max(1.0, t_nearest / t_star))
    return GcdOutcome(direction, GcdStatus.FOUND_UNLIMITED, np.inf)
