"""Property tests of the breakpoint walk and of the search's box arithmetic.

The walk must visit the strictly positive finite times in ``(t, i)`` order,
with the sentinel ``(t_manifold_max, -1)`` ahead of any breakpoint at the
same time: the order a min-heap of ``(t, i)`` tuples pops them in.  Times
come from at most four positive values over up to 400 coordinates, so tie
groups are large and straddle the chunk edges of the walk.  Zeros, ``-0.0``,
``±inf``, NaN and negative values must never be walked.

The breakpoint times are two quotients, their maximum and an ``fmin``;
the final clamp into the box runs over the passed coordinates and over the
band of times just above the stopping time only.  Both must give the same
bits as the plain full-width expressions, kept below as oracles.

The search walks only when its minimizer passes the first breakpoint ahead
of the sentinel; it must return the bits of a search that always walks.
"""

from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import rlbfgsb as rb
from rlbfgsb import BoxBounds, Geometry, GcdStatus, LbfgsMemory
from rlbfgsb.gcd import (
    MAX_NUDGES, NUDGE_BAND, BreakpointSet, _clamp_into_box, compute_breakpoints,
    generalized_cauchy_direction, segment_values, surrogate_init,
)

NEVER_WALKED = [0.0, -0.0, np.inf, -np.inf, np.nan, -1.0]


@st.composite
def breakpoint_sets(draw):
    """(times, t_manifold_max) over n in [0, 400] with heavy ties."""
    n = draw(st.integers(0, 400))
    positive = draw(
        st.lists(
            st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(1e-3, 10.0)),
            min_size=1,
            max_size=4,
        )
    )
    excluded = draw(st.lists(st.sampled_from(NEVER_WALKED), max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = rng.choice(np.array(positive + excluded), size=n)
    t_max = draw(st.one_of(st.sampled_from(positive), st.sampled_from([0.25, 1.5, np.inf])))
    return times, t_max


def oracle(times, t_max):
    walked = sorted((float(t), i) for i, t in enumerate(times) if 0.0 < t < np.inf)
    sentinel = (float(t_max), -1)
    walked.insert(bisect_left(walked, sentinel), sentinel)
    return walked


@settings(max_examples=300)
@given(breakpoint_sets())
def test_walk_matches_sorted_oracle(case):
    times, t_max = case
    walked = list(BreakpointSet(times, t_max).walk())
    assert walked == oracle(times, t_max)
    assert all(type(t) is float and type(i) is int for t, i in walked)



def full_width_times(bounds, p_d, d_d):
    """Breakpoint times as one out-of-place expression, ``-0.0`` masked to ``0.0``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        times = (np.where(d_d < 0, bounds.lower, bounds.upper) - p_d) / d_d
    times[d_d == 0] = np.inf
    times[times == 0.0] = 0.0
    return times


def full_width_clamp(bounds, x, d_eu, eu, times, t):
    """Clamp of the passed coordinates, then full-width nudge loops over the box."""
    passed = times < t
    if np.any(passed):
        idx = np.nonzero(passed)[0]
        eu[idx] = np.where(d_eu[idx] > 0, bounds.upper[idx], bounds.lower[idx]) - x[idx]
    over = x + eu > bounds.upper
    while np.any(over):
        eu[over] = np.nextafter(eu[over], -np.inf)
        over = x + eu > bounds.upper
    under = x + eu < bounds.lower
    while np.any(under):
        eu[under] = np.nextafter(eu[under], np.inf)
        under = x + eu < bounds.lower
    return eu


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def box_rays(draw):
    """Feasible point, bounds (some infinite or equal) and a direction with zeros."""
    n = draw(st.integers(1, 8))
    lower, upper, x, d = [], [], [], []
    for _ in range(n):
        lo = draw(st.one_of(st.just(-np.inf), finite))
        if lo == -np.inf:
            up = draw(st.one_of(st.just(np.inf), finite))
        else:
            up = lo + draw(st.one_of(st.sampled_from([0.0, np.inf]), st.floats(1e-300, 1e3)))
        if lo == -np.inf and up == np.inf:
            at = draw(finite)
        elif lo == -np.inf:
            at = draw(st.one_of(st.just(up), st.floats(up - 1e3, up)))
        elif up == np.inf:
            at = draw(st.one_of(st.just(lo), st.floats(lo, lo + 1e3)))
        else:
            at = draw(st.one_of(st.sampled_from([lo, up]), st.floats(lo, up)))
        lower.append(lo)
        upper.append(up)
        x.append(at)
        d.append(draw(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), finite)))
    return BoxBounds(np.array(lower), np.array(upper)), np.array(x), np.array(d)


def ray(lower, upper, x, d):
    return BoxBounds(np.array(lower), np.array(upper)), np.array(x), np.array(d)


@settings(max_examples=300)
@given(box_rays())
@example(ray([0.0, -1.0, 2.0], [1.0, 0.0, 2.0], [0.0, 0.0, 2.0], [0.0, -0.0, 0.0]))  # on a bound
@example(ray([0.0, -1.0, 2.0], [1.0, 0.0, 2.0], [0.0, 0.0, 2.0], [-0.0, 0.0, -0.0]))
@example(ray([-np.inf, 0.0], [0.5, np.inf], [0.25, 0.5], [-5e-324, 5e-324]))  # infinite facing
def test_breakpoint_times_bitwise(case):
    bounds, x, d = case
    with np.errstate(over="ignore"):  # a finite offset over a subnormal component
        got = compute_breakpoints(bounds, x, d).times
        want = full_width_times(bounds, x, d)
    assert np.array_equal(bits(got), bits(want))
    assert not np.any(np.signbit(got[got == 0.0]))


@settings(max_examples=300)
@given(box_rays(), st.integers(0, 7), st.sampled_from(["at", "below", "fraction"]))
def test_clamp_matches_full_width_loops(case, j, where):
    bounds, x, d = case
    with np.errstate(over="ignore"):
        times = compute_breakpoints(bounds, x, d).times
    t = times[j % times.size]
    if not 0.0 < t < np.inf:
        t = 1.0
    t_star = {"at": t, "below": np.nextafter(t, 0.0), "fraction": 0.5 * t}[where]
    with np.errstate(over="ignore", invalid="ignore"):
        eu = t_star * d
    want = full_width_clamp(bounds, x, d, eu.copy(), times, t)
    restricted_clamp(bounds, x, d, eu, times, t, t_star)
    assert np.array_equal(bits(eu), bits(want))


def restricted_clamp(bounds, x, d, eu, times, t, t_star):
    """The search's clamp: passed below ``t``, nudged up to the band above ``t_star``.

    The search stops at or after every time it passed, so there the band
    holds the passed coordinates; a ``t_star`` below them adds them to it.
    """
    passed = (times < t).nonzero()[0]
    near = np.union1d(passed, (times <= t_star * (1.0 + NUDGE_BAND)).nonzero()[0])
    _clamp_into_box(bounds, x, d, eu, passed, near)


def test_clamp_nudges_match_full_width_loops():
    # Stop exactly at one coordinate's breakpoint or an ulp before it, on
    # bounds at mixed scales, so ``x + t d`` overshoots by an ulp often
    # enough to drive both loops; an ulp before, the overshooting
    # coordinate has not been passed, and only the band finds it.
    for below in (False, True):
        rng = np.random.default_rng(12)
        down = up = 0
        for _ in range(400):
            n = 40
            scale = 10.0 ** rng.integers(-3, 4, n)
            bounds = BoxBounds(-scale * rng.random(n), scale * rng.random(n))
            x = bounds.lower + (bounds.upper - bounds.lower) * rng.random(n)
            d = rng.standard_normal(n) * 10.0 ** rng.integers(-2, 3, n)
            times = compute_breakpoints(bounds, x, d).times
            t = np.sort(times)[rng.integers(0, n)]
            t_star = np.nextafter(t, 0.0) if below else t
            eu = t_star * d
            want = full_width_clamp(bounds, x, d, eu.copy(), times, t)
            plain = np.where(times < t, np.where(d > 0, bounds.upper, bounds.lower) - x, eu)
            down += int(np.any(want < plain))
            up += int(np.any(want > plain))
            restricted_clamp(bounds, x, d, eu, times, t, t_star)
            assert np.array_equal(bits(eu), bits(want))
        assert down >= 20 and up >= 20


def test_clamp_raises_past_the_nudge_cap():
    # A stopping time far past a bound the search did not walk would need
    # about 2^51 one-ulp nudges; the clamp gives up after MAX_NUDGES.
    bounds, x, d = ray([0.0], [1.0], [0.0], [1.0])
    times = compute_breakpoints(bounds, x, d).times
    eu = np.array([1.5])
    message = f"coordinate 0 is 0.5 past its bound after {MAX_NUDGES} one-ulp"
    with pytest.raises(RuntimeError, match=message):
        restricted_clamp(bounds, x, d, eu, times, 1.0, 1.5)


def walked_cauchy_direction(geom, p, grad, d, mem, t_max=None, hd=None):
    """The search that always walks from the first breakpoint: the bitwise oracle.

    Returns the direction, or None where the search finds none.
    """
    if t_max is None:
        length = 0.0 if d.manifold is None else float(np.linalg.norm(d.manifold))
        t_max = geom.max_stepsize(p) / length if length > 0.0 else np.inf
    bounds = geom.box
    x, d_eu, g_eu = p.euclidean, d.euclidean, grad.euclidean
    bps = compute_breakpoints(bounds, x, d_eu, t_max) if bounds.n else None
    walk = [(float(t_max), -1)] if bps is None else bps.walk()
    f1 = geom.inner(p, grad, d)
    if hd is None:
        qs = surrogate_init(mem, geom, p, d)
        f2 = mem.theta * float(d.data @ d.data) - mem.bilinear(qs.p, qs.p)
    else:
        qs, f2 = None, float(d.data @ hd.data)
    if f1 == 0.0 or f2 == 0.0:
        return None
    dt_min, t_old = -f1 / f2, 0.0
    for t, b in walk:
        dt = t - t_old
        if not dt_min > dt:
            break
        if b == -1:
            dt_min = dt
            break
        if qs is None:
            qs = surrogate_init(mem, geom, p, d)
        d_b, g_b = float(d_eu[b]), float(g_eu[b])
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
        return None
    direction = t_star * d
    if bps is not None:
        full_width_clamp(bounds, x, d_eu, direction.euclidean, bps.times, t)
    return direction


# Where the first box breakpoint lies, in multiples of the unconstrained
# minimizer -f'/f'' of the first segment.
LANDINGS = {"before": 2.0, "at": 1.0, "after": 0.5}


@st.composite
def first_breakpoint_cases(draw):
    """(geometry, point, gradient, direction, memory, H[d] or None, sentinel, landing).

    The box coordinates start at 0; coordinate ``b`` reaches its facing
    bound at exactly the landing's multiple of the minimizer, the others
    later, never, or not at all (a zero direction component), some of them
    sitting on the bound behind them.
    """
    n = draw(st.integers(1, 5))
    geom = Geometry(BoxBounds.unbounded(n), draw(st.sampled_from([None, rb.Sphere(3)])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = geom.random_point(rng)
    p.euclidean = np.zeros(n)
    mem = LbfgsMemory(3)
    for _ in range(draw(st.integers(0, 3))):
        s = geom.random_tangent(p, rng)
        mem.push(geom, p, s, s + 0.1 * geom.random_tangent(p, rng))
    grad = geom.random_tangent(p, rng)
    grad.euclidean[rng.random(n) < 0.2] = 0.0
    hd = None
    if draw(st.booleans()):  # d = B q, handed H[d] = q, as the solver does
        hd = -1.0 * grad
        d = mem.apply_inverse(geom, p, hd)
    else:
        d = -1.0 * grad
    b = int(np.argmax(np.abs(d.euclidean)))
    assume(d.euclidean[b] != 0.0)
    f1 = float(grad.data @ d.data)
    if hd is None:
        w = mem.coefficients(d.data)
        f2 = mem.theta * float(d.data @ d.data) - mem.bilinear(w, w)
    else:
        f2 = float(d.data @ hd.data)
    assume(f1 < 0.0 < f2)
    landing = draw(st.sampled_from(sorted(LANDINGS)))
    first = LANDINGS[landing] * (-f1 / f2)
    d_b = d.euclidean[b]
    facing = first * d_b
    for _ in range(8):  # an ulp or two, so that the time (bound - 0) / d_b is first exactly
        t = facing / d_b
        if t == first:
            break
        facing = np.nextafter(facing, np.inf if (t < first) == (d_b > 0) else -np.inf)
    assume(facing / d_b == first)
    lower, upper = np.full(n, -np.inf), np.full(n, np.inf)
    for i in range(n):
        side, back = (upper, lower) if d.euclidean[i] > 0 else (lower, upper)
        later = draw(st.sampled_from([4.0, 8.0, np.inf]))
        if i == b:
            side[i] = facing
        elif d.euclidean[i] != 0.0 and later < np.inf:
            side[i] = later * first * d.euclidean[i]
        back[i] = draw(st.sampled_from([0.0, back[i]]))  # on the bound behind, or none
    geom = Geometry(BoxBounds(lower, upper), geom.manifold)
    sentinel = draw(st.sampled_from(["default", "first", "tie", "last", "inf"]))
    t_max = {"default": None, "first": 0.5 * first, "tie": first, "last": 4.0 * first,
             "inf": np.inf}[sentinel]
    return geom, p, grad, d, mem, hd, t_max, landing, sentinel


@settings(max_examples=300)
@given(first_breakpoint_cases())
def test_search_walks_only_past_the_first_breakpoint(case):
    # Landing before or at the first breakpoint, or behind the sentinel,
    # the search never walks; either way it returns the bits of the search
    # that always walks.
    geom, p, grad, d, mem, hd, t_max, landing, sentinel = case
    walks = []
    walk = BreakpointSet.walk

    def counted(self):
        walks.append(1)
        return walk(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BreakpointSet, "walk", counted)
        out = generalized_cauchy_direction(geom, p, grad, d, mem, t_max, hd=hd)
    want = walked_cauchy_direction(geom, p, grad, d, mem, t_max, hd=hd)
    if want is None:
        assert out.status is GcdStatus.NOT_FOUND
        return
    assert out.status is GcdStatus.FOUND
    assert np.array_equal(bits(out.direction.data), bits(want.data))
    event(f"{landing}, sentinel {sentinel}, walked {bool(walks)}")
    if landing != "after" or sentinel in ("first", "tie"):
        assert not walks
    elif sentinel in ("last", "inf"):
        assert walks == [1]


def test_search_nudges_the_coordinates_beyond_its_stop():
    # H = I and d = -grad put the minimizer at t = 1.  The search stops at a
    # sentinel on the first breakpoint time, walking nothing, or on a later
    # one; at the minimizer just short of where a coordinate b meets its
    # bound (the bound an ulp inside t_* d_b, found by a first search
    # without it); or, in one dimension with the minimizer at twice the
    # breakpoint time, at the crossing that leaves f'' = 0, whose own time it
    # does not pass.  The coordinates it did not pass can still land an ulp
    # outside the box there; it must nudge them as the full-width loops do:
    # those at the first time, those from the breakpoint the walk stopped at
    # on, and the ties walked before it (the one-dimensional case twice over).
    rng = np.random.default_rng(5)
    nudged = dict.fromkeys(["first", "sentinel", "minimizer", "last"], 0)
    clamp = rb.gcd._clamp_into_box

    def spy(bounds, x, d_eu, eu, passed, near):
        before = eu.copy()
        clamp(bounds, x, d_eu, eu, passed, near)
        rest = np.setdiff1d(np.asarray(near, dtype=int), passed)
        nudged[stop] += int(np.any(eu[rest] != before[rest]))

    def search(lower, upper, x, d, t_max, slope=1.0):
        geom, p, dd = Geometry(BoxBounds(lower, upper)), rb.ProductPoint(x), rb.ProductTangent(d)
        grad = -slope * dd
        out = generalized_cauchy_direction(geom, p, grad, dd, LbfgsMemory(), t_max, hd=dd)
        want = walked_cauchy_direction(geom, p, grad, dd, LbfgsMemory(), t_max, hd=dd)
        assert np.array_equal(bits(out.direction.data), bits(want.data))
        return out.direction.euclidean

    for _ in range(500):
        for stop in nudged:
            n = 1 if stop == "last" else 40
            scale = 10.0 ** rng.integers(-3, 4, n)
            lower, upper = -scale * rng.random(n), scale * rng.random(n)
            d = rng.standard_normal(n) * 10.0 ** rng.integers(-2, 3, n)
            x = lower + (upper - lower) * rng.random(n)
            if stop == "last":
                lower, upper, d, x = (np.tile(v, 2) for v in (lower, upper, d, x))
            times = np.sort(compute_breakpoints(BoxBounds(lower, upper), x, d).times)
            k = rng.integers(1, max(2, np.searchsorted(times, 1.0))) if n > 1 else 0
            t_max = {"first": times[0], "sentinel": times[k]}.get(stop, np.inf)
            slope = 2.0 * times[0] if stop == "last" else 1.0
            if stop == "minimizer":
                b = rng.integers(0, n)
                side, x[b] = (upper if d[b] > 0 else lower), 0.0
                side[b] = np.copysign(np.inf, d[b])
                side[b] = np.nextafter(search(lower, upper, x, d, t_max)[b], 0.0)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(rb.gcd, "_clamp_into_box", spy)
                search(lower, upper, x, d, t_max, slope)
    assert min(nudged.values()) >= 5, nudged
