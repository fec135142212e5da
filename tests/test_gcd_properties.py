"""Property test of the breakpoint walk order against a sorted-list oracle.

The walk must visit the strictly positive finite times in ``(t, i)`` order,
with the sentinel ``(t_manifold_max, -1)`` ahead of any breakpoint at the
same time: the order a min-heap of ``(t, i)`` tuples pops them in.  Times
come from at most four positive values over up to 400 coordinates, so tie
groups are large and straddle the chunk edges of the walk.  Zeros, ``-0.0``,
``±inf``, NaN and negative values must never be walked.
"""

from bisect import bisect_left

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rlbfgsb.gcd import BreakpointSet

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

