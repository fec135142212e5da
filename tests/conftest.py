"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the compact representation and the
incremental segment updates: dense BFGS matrices are built by the direct
rank-two update formula, inverses by the Sherman-Morrison dual update or a
dense solve on the face, the piecewise-quadratic path model is minimized by
walking its segments with explicit dense algebra, and tangents are moved
one at a time.  :func:`dense_step` composes them into one solver iteration.
"""

from __future__ import annotations

import mpmath
import numpy as np
import pytest
from hypothesis import settings

import rlbfgsb as rb

# One profile for every property test: no per-example deadline (timings on a
# loaded machine are noisy) and a fixed example sequence, so runs repeat.
# Modules set only their own ``max_examples``.
settings.register_profile("rlbfgsb", deadline=None, derandomize=True)
settings.load_profile("rlbfgsb")


def dense_bfgs_matrix(mem: rb.LbfgsMemory, n: int, scalar=None) -> np.ndarray:
    """Direct BFGS matrix of the stored pairs, packed rows of width ``n``, from theta * I.

    With ``scalar`` (``mpmath.mpf``, say) the entries are converted to it
    and the recursion runs on an object array at that type's precision.
    """
    conv = (lambda a: a) if scalar is None else np.vectorize(scalar, otypes=[object])
    h = conv(mem.theta * np.eye(n))
    for pair in mem.pairs:
        s, y = conv(pair.s.data), conv(pair.y.data)
        hs = h @ s
        h = h - np.outer(hs, hs) / (s @ hs) + np.outer(y, y) / (y @ s)
    return h


def dense_reduced_inverse(mem: rb.LbfgsMemory, face: np.ndarray) -> np.ndarray:
    """``H[F, F]^{-1}`` in the packed width, zero off the face ``F`` (a boolean mask).

    ``H`` is :func:`dense_bfgs_matrix`.  Its float64 recursion adds terms
    up to ``scale = theta + sum <y, y> / <s, y>`` large, so its entries are
    accurate to about ``eps * scale``, and their inverse to about
    ``eps * cond(H[F, F]) * scale / |H[F, F]|``.  Pairs near the curvature
    threshold make both factors large; when their product exceeds 1e6 the
    matrix and its inverse are formed again at 50 digits with mpmath, so the
    oracle's own error stays far below the tolerances it is checked with.
    """
    idx = np.ix_(face, face)
    out = np.zeros((face.size, face.size))
    h = dense_bfgs_matrix(mem, face.size)[idx]
    if not h.size:
        return out
    scale = mem.theta + sum(float(pr.y.data @ pr.y.data) / pr.sy for pr in mem.pairs)
    if np.linalg.cond(h) * scale / np.linalg.norm(h, 2) <= 1e6:
        out[idx] = np.linalg.inv(h)
        return out
    with mpmath.workdps(50):
        h = dense_bfgs_matrix(mem, face.size, mpmath.mpf)[idx]
        out[idx] = np.array(mpmath.inverse(mpmath.matrix(h.tolist())).tolist(), dtype=float)
    return out


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


def per_vector_transport(geom, p, step, v):
    """Reference: one three-argument ``Manifold.transport`` call per tangent."""
    m = None
    if geom.manifold is not None:
        m = geom.manifold.transport(p.manifold, step.manifold, v.manifold)
    return rb.ProductTangent(v.euclidean.copy(), m)


def dense_step(problem: rb.Problem, state: rb.SolverState, reset: bool = False):
    """One solver iteration from ``state`` by dense algebra, or None without a Cauchy step.

    ``H`` is :func:`dense_bfgs_matrix` of ``state.memory`` (the identity
    with ``reset``).  The face ``F`` holds the box coordinates that the cone
    projection ``q`` of ``-grad`` keeps, and the manifold part; the
    quasi-Newton direction ``d`` is ``solve(H[F, F], q[F])`` projected onto
    the tangent cone.  The Cauchy time is the first local minimizer of the
    model along the projected path of ``d`` (the manifold coordinates
    unbounded), capped at ``max_stepsize / |d_M|``; the direction is the
    path offset there.  The Armijo search is the solver's.  The stored pairs
    are moved one vector at a time and dropped where they fail the
    curvature test, and the new pair ``(T step, grad_new - T grad)`` is
    appended where it passes, the oldest evicted past capacity.  Returns
    ``(direction, accepted point, pairs, theta)``, ``theta`` the newest
    pair's ``<y, y> / <s, y>`` (1 without pairs).
    """
    geom, mem, p, grad = problem.geometry, state.memory, state.point, state.grad
    width, nb = grad.data.size, geom.box.n
    q = geom.project_tangent_cone(p, -grad)
    h = np.eye(width) if reset else dense_bfgs_matrix(mem, width)
    face = np.ones(width, dtype=bool)
    face[:nb] = q.euclidean == -grad.euclidean
    r = np.zeros(width)
    r[face] = np.linalg.solve(h[np.ix_(face, face)], q.data[face])
    d = geom.project_tangent_cone(p, geom.unpack(r)).data

    unbounded = np.full(width - nb, np.inf)
    lower, upper = np.r_[geom.box.lower, -unbounded], np.r_[geom.box.upper, unbounded]
    x = np.r_[p.euclidean, np.zeros(width - nb)]
    with np.errstate(divide="ignore", invalid="ignore"):
        times = np.where(d > 0, (upper - x) / d, np.where(d < 0, (lower - x) / d, np.inf))
    t, _ = path_first_local_minimizer(x, d, grad.data, h, lower, upper, times)
    length = np.linalg.norm(d[nb:])
    if length > 0.0:
        t = min(t, geom.max_stepsize(p) / length)
    if not t > 0.0:
        return None
    direction = geom.unpack(np.clip(x + t * d, lower, upper) - x)
    slope = geom.inner(p, grad, direction)
    alpha, _, _, p_new = rb.linesearch.armijo_capped(
        problem.cost, geom, p, direction, state.cost, slope, 1.0
    )

    step = alpha * direction

    def passes(s, y):
        sy, yy = float(s.data @ y.data), float(y.data @ y.data)
        return yy > 0.0 and sy > 0.0 and sy >= mem.curvature_eps * yy

    pairs = [] if reset else [
        (per_vector_transport(geom, p, step, pr.s), per_vector_transport(geom, p, step, pr.y))
        for pr in mem.pairs
    ]
    pairs = [pr for pr in pairs if passes(*pr)]
    s = per_vector_transport(geom, p, step, step)
    y = problem.gradient(p_new) - per_vector_transport(geom, p, step, grad)
    if passes(s, y):
        pairs = (pairs + [(s, y)])[-mem.capacity :]
    theta = 1.0
    if pairs:
        s, y = pairs[-1]
        theta = float(y.data @ y.data) / float(s.data @ y.data)
    return direction, p_new, pairs, theta


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
