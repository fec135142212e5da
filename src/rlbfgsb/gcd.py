"""Generalized Cauchy direction along the projected piecewise-linear path.

Given a descent direction ``d`` at a feasible point, the box coordinates of
the ray ``p + t d`` successively hit their bounds at breakpoint times ``t_i``.
Projecting the ray onto the box yields a piecewise-linear path ``d_PL(t)``
(the manifold part simply scales, ``t * d_M``).  The quadratic model

    q(t) = f(p) + <grad, d_PL(t)> + 1/2 <d_PL(t), H[d_PL(t)]>

is piecewise quadratic in ``t``; its first local minimizer ``t_*`` is found
as in Algorithm CP of Byrd, Lu, Nocedal and Zhu (1995), by walking the
breakpoints in time order and updating the segment slope ``f'`` and curvature
``f''`` incrementally.  With the memory's ``H = theta I - X^T M X`` over its
stored rows ``X``, the initial ``f'' = <d, H[d]>`` takes ``X d`` and one
product with ``M``, unless the caller passes ``H[d]``: ``q`` for ``d = B q``,
with ``B`` the inverse of ``H`` on a face that holds ``d``, free or masked;
then ``X d`` waits for the first crossing.  A crossing of coordinate ``b``
takes the column ``w_b = X[:, b]`` and one product ``M w_b``; its three
Hessian values are dot products with them.  :class:`SegmentState` carries
the coefficient vectors of the path point and of the moving direction.  The
walk starts only when the minimizer passes the first breakpoint, found by
one masked minimum; then it partitions off the next few smallest breakpoint
times and sorts only those, doubling the chunk when it runs out, so its cost
follows the breakpoints crossed rather than the box dimension.

The search is capped by a sentinel breakpoint at the time
``max_stepsize / |d_M|`` at which the manifold part of the path reaches the
manifold's maximum step length; a search that stops before the first box
breakpoint, and every search without a box, never walks.  The returned
direction is ``t_* d`` with every coordinate whose bound was passed clamped
to the exact bound offset.  It ends at or before the next bound it would
cross, and its manifold part is no longer than the maximum step length, so
the line search never needs a multiple of it above 1.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import BoxBounds, Geometry, ProductPoint, ProductTangent
from .memory import LbfgsMemory

__all__ = [
    "BreakpointSet", "GcdOutcome", "GcdStatus", "SegmentState", "compute_breakpoints",
    "generalized_cauchy_direction", "segment_values", "surrogate_init",
]


class GcdStatus(Enum):
    FOUND = "found"
    NOT_FOUND = "not_found"


@dataclass
class GcdOutcome:
    """Result of the search: the direction and whether one was found."""

    direction: ProductTangent
    status: GcdStatus


# Breakpoints sorted by the first chunk of the walk; later chunks double it.
FIRST_CHUNK = 16


@dataclass
class BreakpointSet:
    """Per-coordinate travel times plus the ordered walk over them.

    ``times[i]`` is the positive time at which box coordinate ``i`` meets the
    bound it moves towards (``+inf`` for a zero direction component or an
    infinite facing bound; ``0`` for a component sitting on its bound and
    moving into it).  :meth:`walk` visits the strictly positive finite
    times, and one sentinel ``(t_manifold_max, -1)``; it finds them when run.
    """

    times: np.ndarray
    t_manifold_max: float

    def walk(self) -> Iterator[tuple[float, int]]:
        """Yield the breakpoints as ``(t, i)`` in ascending order.

        The sentinel comes ahead of any box breakpoint with the same time.
        Each chunk holds every remaining candidate up to the k-th smallest
        time, ties included, so no tie group splits across two chunks and
        the stable sort over ascending indices orders ties by index.
        """
        sentinel = float(self.t_manifold_max)
        pending = True
        idx = ((self.times > 0.0) & (self.times < np.inf)).nonzero()[0]
        ct = self.times[idx]
        k = FIRST_CHUNK
        while ct.size:
            j = min(k, ct.size) - 1
            kth = np.partition(ct, j)[j]
            near = ct <= kth
            ts, ids = ct[near], idx[near]
            order = np.argsort(ts, kind="stable")
            for t, i in zip(ts[order].tolist(), ids[order].tolist()):
                if pending and t >= sentinel:
                    pending = False
                    yield sentinel, -1
                yield t, i
            far = ct > kth
            idx, ct = idx[far], ct[far]
            k *= 2
        if pending:
            yield sentinel, -1


def compute_breakpoints(
    bounds: BoxBounds, p_d: np.ndarray, d_d: np.ndarray, t_manifold_max: float = np.inf
) -> BreakpointSet:
    """Travel times to the facing bounds, with the walk's candidate set.

    Zero-time entries (a coordinate exactly on its bound moving outward) are
    never walked; callers avoid them entirely by projecting ``d`` onto the
    tangent cone first.
    """
    times = np.where(d_d < 0, bounds.lower, bounds.upper)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        times -= p_d
        times /= d_d
    times[d_d == 0] = np.inf
    times += 0.0  # normalize -0.0
    return BreakpointSet(times, t_manifold_max)


@dataclass
class SegmentState:
    """Coefficient vectors carried across segments, and the last crossing's diagonal.

    Both are ``X``-coordinates, one entry per stored row: ``c = X (x_c - x)``
    for the accumulated path point and ``p = X d_hat`` for the still-moving
    direction (``c`` starts at zero, ``p`` at ``X d``).  ``diag`` is
    ``<e_b, H[e_b]> = theta - w_b^T M w_b`` for the last ``b`` crossed.
    """

    c: np.ndarray
    p: np.ndarray
    diag: float = 0.0


def surrogate_init(
    mem: LbfgsMemory, geom: Geometry, p: ProductPoint, d: ProductTangent
) -> SegmentState:
    """Start-of-path coefficient vectors: ``c = 0`` and ``p = X d``."""
    p_coef = mem.coefficients(d.data)
    return SegmentState(c=np.zeros_like(p_coef), p=p_coef)


def segment_values(
    state: SegmentState, mem: LbfgsMemory, t: float, dt: float, b: int, d_b: float
) -> tuple[float, float]:
    """Hessian values needed when coordinate ``b`` reaches its bound at time ``t``.

    Mutates ``state`` for the next segment and returns
    ``v1 = <e_b, H[Z]>`` (``Z`` the path point at ``t``) and
    ``v2 = <e_b, H[dhat]>`` (``dhat`` the direction active on the segment of
    length ``dt`` that just ended), and sets ``state.diag``: all three from
    the column ``w_b = X[:, b]`` and one product ``M w_b``.
    """
    state.c += dt * state.p
    w_b = mem.basis_coefficients(b)
    m_b = mem.apply_middle(w_b)
    theta = mem.theta
    v1 = theta * t * d_b - float(m_b @ state.c)
    v2 = theta * d_b - float(m_b @ state.p)
    state.diag = theta - float(m_b @ w_b)
    state.p -= d_b * w_b
    return v1, v2


def generalized_cauchy_direction(
    geom: Geometry, p: ProductPoint, grad: ProductTangent, d: ProductTangent,
    mem: LbfgsMemory, t_manifold_max: float | None = None, hd: ProductTangent | None = None,
) -> GcdOutcome:
    """First local minimizer of the model along the projected path of ``d``.

    ``d`` may be any descent direction; ``p`` must be feasible, with ``d``
    already projected onto the tangent cone so that no coordinate sits on a
    bound pointing outward.  Degenerate data (zero slope or curvature, or a
    nonpositive minimizer) yields ``NOT_FOUND`` with the zero direction; the
    caller is then expected to discard its curvature memory and retry along
    the projected steepest descent direction.  ``t_manifold_max`` places the
    sentinel, in multiples of ``d``; by default the manifold part of the
    path stops at length ``geom.max_stepsize(p)``.  ``hd`` is ``H[d]``, if
    known, or any vector equal to it where ``d`` is nonzero: the initial
    curvature is then ``<d, hd>``, not read from ``M``.
    """
    if t_manifold_max is None:
        d_m = d.data[geom.box.n :]  # the raveled manifold part
        length = math.sqrt(float(d_m @ d_m))
        t_manifold_max = geom.max_stepsize(p) / length if length > 0.0 else np.inf
    bounds = geom.box
    x, d_eu, g_eu = p.euclidean, d.euclidean, grad.euclidean
    bps = compute_breakpoints(bounds, x, d_eu, t_manifold_max) if bounds.n else None

    f1 = geom.inner(p, grad, d)
    if hd is None:
        qs = surrogate_init(mem, geom, p, d)
        f2 = mem.theta * float(d.data @ d.data) - mem.bilinear(qs.p, qs.p)  # <d, H[d]>
    else:
        qs, f2 = None, float(d.data @ hd.data)
    if f1 == 0.0 or f2 == 0.0:
        return GcdOutcome(geom.zero_tangent(p), GcdStatus.NOT_FOUND)
    dt_min = -f1 / f2

    first = np.inf if bps is None else float(bps.times.min(where=bps.times > 0.0, initial=np.inf))
    t_old, t, walk = 0.0, min(float(t_manifold_max), first), ()
    if dt_min > t and first < t_manifold_max:  # the minimizer passes a box breakpoint
        walk = bps.walk()  # ends with the sentinel, so the loop below leaves by a break
    elif dt_min > t:
        dt_min = t  # the sentinel comes first: never search past it
    for t, b in walk:
        dt = t - t_old
        if not dt_min > dt:
            # Minimizer lies within the current segment.
            break
        if b == -1:
            # Manifold step-size sentinel: never search past it.
            dt_min = dt
            break
        if qs is None:
            qs = surrogate_init(mem, geom, p, d)
        d_b = float(d_eu[b])
        g_b = float(g_eu[b])
        v1, v2 = segment_values(qs, mem, t, dt, b, d_b)
        f1 = f1 + dt * f2 - d_b * (g_b + v1)
        f2 = f2 - 2.0 * d_b * v2 + d_b * d_b * qs.diag
        t_old = t
        if f1 == 0.0 or f2 == 0.0:
            dt_min = 0.0
            break
        dt_min = -f1 / f2

    t_star = t_old + max(0.0, dt_min)
    if t_star <= 0.0:
        return GcdOutcome(geom.zero_tangent(p), GcdStatus.NOT_FOUND)

    direction = t_star * d
    if bps is not None:
        _clamp_into_box(bounds, x, d_eu, direction.euclidean, (bps.times < t).nonzero()[0])
    return GcdOutcome(direction, GcdStatus.FOUND)


def _clamp_into_box(
    bounds: BoxBounds, x: np.ndarray, d_eu: np.ndarray, eu: np.ndarray, passed: np.ndarray
) -> None:
    """Clamp the offset ``eu`` at ``passed`` to its bounds, then nudge it exactly into the box.

    Rounding can leave ``x + eu`` an ulp outside; such entries move one ulp at a time.
    """
    if passed.size:
        facing = np.where(d_eu[passed] > 0, bounds.upper[passed], bounds.lower[passed])
        eu[passed] = facing - x[passed]
    new = x + eu
    sides = ((bounds.upper, np.greater, -np.inf), (bounds.lower, np.less, np.inf))
    for bound, outside, toward in sides:
        idx = outside(new, bound).nonzero()[0]
        while idx.size:
            eu[idx] = np.nextafter(eu[idx], toward)
            new[idx] = x[idx] + eu[idx]
            idx = idx[outside(new[idx], bound[idx])]
