"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the compact representation and the
incremental segment updates: dense BFGS matrices are built by the direct
rank-two update formula, inverses by the Sherman-Morrison dual update, and
the piecewise-quadratic path model is minimized by walking its segments
with explicit dense algebra.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

import rlbfgsb as rb

# One profile for every property test: no per-example deadline (timings on a
# loaded machine are noisy) and a fixed example sequence, so runs repeat.
# Modules set only their own ``max_examples``.
settings.register_profile("rlbfgsb", deadline=None, derandomize=True)
settings.load_profile("rlbfgsb")


def dense_bfgs_matrix(mem: rb.LbfgsMemory, n: int) -> np.ndarray:
    """Direct BFGS matrix from the stored pairs, seeded with theta * I."""
    h = mem.theta * np.eye(n)
    for pair in mem.pairs:
        s, y = pair.s.euclidean, pair.y.euclidean
        hs = h @ s
        h = h - np.outer(hs, hs) / (s @ hs) + np.outer(y, y) / (y @ s)
    return h


def dense_inverse_bfgs_matrix(mem: rb.LbfgsMemory, n: int) -> np.ndarray:
    """Inverse-BFGS matrix by the dual (Sherman-Morrison) update."""
    b = np.eye(n) / mem.theta
    for pair in mem.pairs:
        s, y = pair.s.euclidean, pair.y.euclidean
        rho = 1.0 / (y @ s)
        v = np.eye(n) - rho * np.outer(s, y)
        b = v @ b @ v.T + rho * np.outer(s, s)
    return b


def box_geometry(lower, upper) -> rb.Geometry:
    return rb.Geometry(rb.BoxBounds(np.asarray(lower, float), np.asarray(upper, float)))


def fill_memory(
    geom: rb.Geometry,
    p: rb.ProductPoint,
    rng: np.random.Generator,
    pushes: int,
    capacity: int = 4,
) -> rb.LbfgsMemory:
    """Memory populated with random pairs (curvature-rejected ones skipped)."""
    mem = rb.LbfgsMemory(capacity=capacity)
    for _ in range(pushes):
        s = geom.random_tangent(p, rng)
        y = geom.random_tangent(p, rng)
        mem.push(geom, p, s, y)
    return mem


def random_box_instance(rng: np.random.Generator, infinite_frac: float = 0.3):
    """Random feasible point, bounds, memory, gradient and descent direction."""
    n = int(rng.integers(1, 7))
    lower = np.where(rng.random(n) < infinite_frac, -np.inf, -rng.random(n) * 2 - 0.1)
    upper = np.where(rng.random(n) < infinite_frac, np.inf, rng.random(n) * 2 + 0.1)
    geom = box_geometry(lower, upper)
    p = geom.random_point(rng)
    mem = fill_memory(geom, p, rng, pushes=int(rng.integers(0, 5)))
    grad = rb.ProductTangent(rng.standard_normal(n))
    d = rb.ProductTangent(rng.standard_normal(n))
    slope = geom.inner(p, grad, d)
    if slope > 0:
        d = -1.0 * d
    elif slope == 0:
        d = -1.0 * grad
    return geom, p, grad, d, mem


def path_first_local_minimizer(p, d, g, h, lower, upper, times):
    """First local minimizer of the model along the projected path of ``d``.

    Walks the breakpoint segments in order; on each segment the model is an
    explicit quadratic in the offset, evaluated with the dense matrix ``h``.
    Returns ``(t, q(t))``.
    """

    def z_of(t):
        return np.clip(p + t * d, lower, upper) - p

    def q_of(t):
        z = z_of(t)
        return z @ g + 0.5 * z @ h @ z

    knots = sorted({float(t) for t in times if 0.0 < t < np.inf})
    starts = [0.0] + knots
    for j, a in enumerate(starts):
        b = starts[j + 1] if j + 1 < len(starts) else np.inf
        d_hat = np.where(times > a, d, 0.0)
        za = z_of(a)
        c1 = g @ d_hat + d_hat @ h @ za
        c2 = d_hat @ h @ d_hat
        if c1 >= 0.0:
            return a, q_of(a)
        if c2 > 0.0:
            dt = -c1 / c2
            if dt <= b - a:
                return a + dt, q_of(a + dt)
        elif b == np.inf:
            return a, q_of(a)
    a = starts[-1]
    return a, q_of(a)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
