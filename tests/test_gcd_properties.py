"""Property tests of the breakpoint walk and of the search's box arithmetic.

The walk must visit the strictly positive finite times in ``(t, i)`` order,
with the sentinel ``(t_manifold_max, -1)`` ahead of any breakpoint at the
same time: the order a min-heap of ``(t, i)`` tuples pops them in.  Times
come from at most four positive values over up to 400 coordinates, so tie
groups are large and straddle the chunk edges of the walk.  Zeros, ``-0.0``,
``±inf``, NaN and negative values must never be walked.

The breakpoint times and the final clamp into the box are computed with
in-place operations and over the passed or overshooting coordinates only;
they must give the same bits as the plain full-width expressions, kept
below as oracles.
"""

from bisect import bisect_left

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rlbfgsb import BoxBounds
from rlbfgsb.gcd import BreakpointSet, _clamp_into_box, compute_breakpoints

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


@settings(max_examples=300)
@given(box_rays())
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
    _clamp_into_box(bounds, x, d, eu, (times < t).nonzero()[0])
    assert np.array_equal(bits(eu), bits(want))


def test_clamp_nudges_match_full_width_loops():
    # Stop exactly at one coordinate's breakpoint, on bounds at mixed scales,
    # so ``x + t d`` overshoots by an ulp often enough to drive both loops.
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
        eu = t * d
        want = full_width_clamp(bounds, x, d, eu.copy(), times, t)
        plain = np.where(times < t, np.where(d > 0, bounds.upper, bounds.lower) - x, eu)
        down += int(np.any(want < plain))
        up += int(np.any(want > plain))
        _clamp_into_box(bounds, x, d, eu, (times < t).nonzero()[0])
        assert np.array_equal(bits(eu), bits(want))
    assert down >= 20 and up >= 20
