"""Property tests for the packed memory over random boxes, masks and pairs.

Geometries are a box alone, a box times a sphere, and a box times a Stiefel
manifold.  Bounds mix finite and infinite entries; memory contents come from
a seeded generator so every drawn case is reproducible.  The oracles are
dense: the BFGS matrix built by the direct update rule and its inverse on
the face, one three-argument ``Manifold.transport`` call per tangent, and an
explicit inverse of the block matrix.
"""

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import rlbfgsb as rb
from rlbfgsb import BoxBounds, Geometry, LbfgsMemory, ProductTangent, make_pair
from rlbfgsb.gcd import generalized_cauchy_direction
from rlbfgsb.solver import SolverState, _cauchy_direction

from conftest import dense_bfgs_matrix, dense_reduced_inverse, per_vector_transport

SETTINGS = settings(max_examples=150)


@st.composite
def cases(draw, kinds=("box", "sphere", "stiefel")):
    """(geometry, point, memory, rng, free mask) with a random box and memory."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(1 if kind == "box" else 0, 5))
    lower = np.array([draw(st.sampled_from([-np.inf, -1.0, -0.25, 0.0])) for _ in range(n)])
    upper = np.array([draw(st.sampled_from([0.0, 0.25, 1.0, np.inf])) for _ in range(n)])
    manifold, extra = None, 0
    if kind == "sphere":
        d = draw(st.integers(2, 4))
        manifold, extra = rb.Sphere(d), d - 1
    elif kind == "stiefel":
        r = draw(st.integers(2, 3))
        k = draw(st.integers(1, r))
        manifold, extra = rb.Stiefel(k, r), k * r - k * (k + 1) // 2
    geom = Geometry(BoxBounds(lower, upper), manifold)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = geom.random_point(rng)
    # At most as many pairs as tangent dimensions, so the Gram blocks stay regular.
    capacity = draw(st.integers(1, min(4, n + extra)))
    eps = draw(st.sampled_from([1e-8, 1e-3, 0.3]))
    near = draw(st.booleans())  # curvature just above the threshold, so transport can flip it
    mem = LbfgsMemory(capacity, curvature_eps=eps)
    for _ in range(draw(st.integers(0, 6))):
        s, y = geom.random_tangent(p, rng), geom.random_tangent(p, rng)
        if near:
            yy = geom.inner(p, y, y)
            s = s - (geom.inner(p, s, y) / yy - max(eps, 1e-3) * rng.uniform(1.0, 1.5)) * y
        mem.push(geom, p, s, y)
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    return geom, p, mem, rng, mask


def weight(geom, mask):
    """The 0/1 packed weight: 1 on free box coordinates and the manifold part."""
    ones = None if geom.manifold is None else np.ones(geom.manifold.shape)
    return ProductTangent(mask.astype(float), ones).data


def assert_matches_at(geom, q, got, want):
    """``got`` equals ``want`` to 1e-12 and is tangent at ``q``."""
    scale = 1.0 + np.max(np.abs(want.data))
    assert np.max(np.abs(got.data - want.data)) <= 1e-12 * scale
    assert geom.tangency_residual(q, got) <= 1e-10 * scale


@SETTINGS
@given(cases())
def test_masked_inverse_matches_dense_oracle(case):
    geom, p, mem, rng, mask = case
    assert_masked_inverse_matches(geom, p, mem, rng, mask)


@SETTINGS
@given(cases())
def test_masked_inverse_descends_on_the_face(case):
    geom, p, mem, rng, mask = case
    x = geom.random_tangent(p, rng)
    x.euclidean[~mask] = 0.0
    assume(np.any(x.data != 0.0))
    out = mem.apply_inverse(geom, p, x, active=np.flatnonzero(~mask))
    assert np.all(out.euclidean[~mask] == 0.0)
    assert geom.inner(p, x, out) > 0.0


@SETTINGS
@given(cases())
def test_all_free_mask_equals_no_mask(case):
    geom, p, mem, rng, mask = case
    x = geom.random_tangent(p, rng)
    full = mem.apply_inverse(geom, p, x)
    masked = mem.apply_inverse(geom, p, x, active=np.zeros(0, dtype=int))
    np.testing.assert_array_equal(masked.data, full.data)


def free_face_kernel(mem):
    """``(X, G, gamma, K)`` of Theorem 2.2 of Byrd, Nocedal and Schnabel (1994).

    Reads ``R = triu(S Y^T)``, ``D`` and ``Y Y^T`` off the cached Gram
    matrix ``G``, with ``gamma`` the newest pair's ``<s, y> / <y, y>``, and
    copies the rows from the pairs.
    """
    rows = np.array([row for pair in zip(mem.S, mem.Y) for row in pair])  # s_0, y_0, s_1, ...
    gram = mem._gram[: rows.shape[0], : rows.shape[0]]
    sy, yy = gram[0::2, 1::2], gram[1::2, 1::2]
    gamma = float(sy[-1, -1] / yy[-1, -1])
    r_inv = np.linalg.inv(np.triu(sy))
    kernel = np.zeros_like(gram)
    kernel[0::2, 0::2] = r_inv.T @ (np.diag(sy.diagonal()) + gamma * yy) @ r_inv
    kernel[0::2, 1::2] = -gamma * r_inv.T
    kernel[1::2, 0::2] = -gamma * r_inv
    return rows, gram, gamma, kernel


def free_face_formula_inverse(mem, x):
    """``gamma x + X^T K X x`` with the assembled kernel of :func:`free_face_kernel`."""
    if not mem.size:
        return (1.0 / mem.theta) * x
    rows, _, gamma, kernel = free_face_kernel(mem)
    return gamma * x + (kernel @ (rows @ x)) @ rows


@SETTINGS
@given(cases(), st.sampled_from(["none", "all free", "drawn"]))
def test_inverse_matches_face_formula(case, which):
    # Every face matches the dense inverse on the face to roundoff.  A free
    # face applies the Byrd-Nocedal-Schnabel kernel through the cached
    # R^{-1} without assembling it, so it also matches the formula with the
    # assembled kernel to a relative bound; a masked face solves the reduced
    # system.
    geom, p, mem, rng, mask = case
    face = mask if which == "drawn" else np.ones_like(mask)
    active = None if which == "none" else np.flatnonzero(~face)
    x = geom.random_tangent(p, rng)
    got = mem.apply_inverse(geom, p, x, active=active).data
    binv = dense_reduced_inverse(mem, weight(geom, face) > 0.0)
    v = weight(geom, face) * x.data
    tol = 1e-9 * (1.0 + np.linalg.norm(binv, 2) * np.linalg.norm(v))
    assert np.linalg.norm(got - binv @ v) <= tol
    if face.all():
        want = free_face_formula_inverse(mem, x.data)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@SETTINGS
@given(cases(), st.floats(0.0, 3.0))
def test_transport_matches_per_vector_transport(case, scale):
    geom, p, mem, rng, _ = case
    step = scale * geom.random_tangent(p, rng)
    before = mem.pairs
    dropped = mem.transport(geom, p, step, geom.random_tangent(p, rng))
    q = geom.retract(p, step)
    expected = []
    for pr in before:
        s = per_vector_transport(geom, p, step, pr.s)
        y = per_vector_transport(geom, p, step, pr.y)
        sy, yy = geom.inner(q, s, y), geom.inner(q, y, y)
        if yy > 0 and sy >= mem.curvature_eps * yy:
            expected.append((s, y))
    assert mem.size == len(expected) == len(before) - dropped
    for pr, (s, y) in zip(mem.pairs, expected):
        assert_matches_at(geom, q, pr.s, s)
        assert_matches_at(geom, q, pr.y, y)


@SETTINGS
@given(
    cases(kinds=("sphere", "stiefel")),
    st.floats(0.1, 3.0),
    st.sampled_from(["empty", "drawn", "full"]),
)
def test_new_pair_and_moved_rows_match_per_vector_reference(case, scale, fill):
    # One iteration's memory update, transport to a known target, make_pair,
    # push, against per-vector transports of every stored and new tangent.
    geom, p, mem, rng, _ = case
    if fill == "empty":
        mem.reset()
    for _ in range(50 if fill == "full" else 0):
        if mem.size == mem.capacity:
            break
        s = geom.random_tangent(p, rng)
        mem.push(geom, p, s, s + 0.1 * geom.random_tangent(p, rng))
    assume(fill != "full" or mem.size == mem.capacity)
    step = scale * geom.random_tangent(p, rng)
    grad_old = geom.random_tangent(p, rng)
    q = geom.retract(p, step)

    def passes(s, y):
        yy = geom.inner(q, y, y)
        return yy > 0 and geom.inner(q, s, y) >= mem.curvature_eps * yy

    expected = []
    for pr in mem.pairs:
        s = per_vector_transport(geom, p, step, pr.s)
        y = per_vector_transport(geom, p, step, pr.y)
        if passes(s, y):
            expected.append((s, y))
    s_ref = per_vector_transport(geom, p, step, step)
    moved_grad = per_vector_transport(geom, p, step, grad_old)
    grad_new = moved_grad + s_ref + 0.1 * geom.random_tangent(q, rng)
    y_ref = grad_new - moved_grad

    mem.transport(geom, p, step, grad_old, q)
    s, y = make_pair(geom, mem, grad_new)
    assert_matches_at(geom, q, s, s_ref)
    assert_matches_at(geom, q, y, y_ref)
    accepted = mem.push(geom, q, s, y)
    assert accepted == passes(s_ref, y_ref)
    if accepted:
        expected = (expected + [(s_ref, y_ref)])[-mem.capacity :]
    assert mem.size == len(expected)
    for pr, (s, y) in zip(mem.pairs, expected):
        assert_matches_at(geom, q, pr.s, s)
        assert_matches_at(geom, q, pr.y, y)


@SETTINGS
@given(cases())
def test_middle_matrix_inverts_block_matrix(case):
    geom, p, mem, _, _ = case
    assume(mem.size > 0)
    pairs = mem.pairs
    d = np.array([pr.sy for pr in pairs])
    s = np.array([pr.s.data for pr in pairs])
    y = np.array([pr.y.data for pr in pairs])
    low = np.tril(s @ y.T, -1)
    block = np.block([[-np.diag(d), low.T], [low, mem.theta * (s @ s.T)]])
    residual = mem.middle_matrix() @ block - np.eye(2 * mem.size)
    assert np.max(np.abs(residual)) <= 1e-9


def assert_pairing_matches_dense_hessian(geom, q, mem, rng):
    """``pairing`` equals ``x^T H y`` to 1e-9 relative and is positive on ``x = y``."""
    x, y = geom.random_tangent(q, rng), geom.random_tangent(q, rng)
    h = dense_bfgs_matrix(mem, x.data.size)
    scale = np.linalg.norm(h, 2) * np.linalg.norm(x.data) * np.linalg.norm(y.data)
    assert abs(mem.pairing(geom, q, x, y) - x.data @ h @ y.data) <= 1e-9 * scale
    assert mem.pairing(geom, q, x, x) > 0.0


@SETTINGS
@given(cases(), st.floats(0.0, 3.0))
def test_pairing_matches_dense_hessian_across_transport(case, scale):
    # The Hessian form H = theta I - X^T M X over box, box x Sphere and
    # box x Stiefel, before and after a transport that may drop pairs.
    geom, p, mem, rng, _ = case
    assert_pairing_matches_dense_hessian(geom, p, mem, rng)
    step = scale * geom.random_tangent(p, rng)
    mem.transport(geom, p, step, geom.random_tangent(p, rng))
    assert_pairing_matches_dense_hessian(geom, geom.retract(p, step), mem, rng)


@SETTINGS
@given(cases(kinds=("sphere", "stiefel")), st.floats(0.5, 3.0))
def test_transported_memory_reads_a_fresh_middle_matrix(case, scale):
    # transport alone leaves the middle matrix stale; every read must rebuild it
    geom, p, mem, rng, _ = case
    assume(mem.size > 0)
    step = scale * geom.random_tangent(p, rng)
    mem.transport(geom, p, step, geom.random_tangent(p, rng))
    q = geom.retract(p, step)
    x, y = geom.random_tangent(q, rng), geom.random_tangent(q, rng)
    xy = mem.pairing(geom, q, x, y)
    assert abs(xy - mem.pairing(geom, q, y, x)) <= 1e-12 * (1.0 + abs(xy))
    if not mem.size:  # transport dropped every pair
        assert mem.middle_matrix().shape == (0, 0)
        return
    pairs = mem.pairs
    d = np.array([pr.sy for pr in pairs])
    s = np.array([pr.s.data for pr in pairs])
    y_ = np.array([pr.y.data for pr in pairs])
    low = np.tril(s @ y_.T, -1)
    block = np.block([[-np.diag(d), low.T], [low, mem.theta * (s @ s.T)]])
    residual = mem.middle_matrix() @ block - np.eye(2 * mem.size)
    assert np.max(np.abs(residual)) <= 1e-9


def test_stiefel_transport_to_a_given_target_does_not_retract(monkeypatch):
    calls = []
    retract = rb.Stiefel.retract

    def counted(self, p, x):
        calls.append(1)
        return retract(self, p, x)

    rng = np.random.default_rng(7)
    geom = Geometry(BoxBounds.unbounded(20), rb.Stiefel(3, 3))
    p = geom.random_point(rng)
    for mu in (0, 2, 10):
        mem = LbfgsMemory(capacity=max(mu, 1))
        while mem.size < mu:
            s = geom.random_tangent(p, rng)
            mem.push(geom, p, s, s + 0.1 * geom.random_tangent(p, rng))
        step = 0.3 * geom.random_tangent(p, rng)
        q = geom.retract(p, step)
        monkeypatch.setattr(rb.Stiefel, "retract", counted)
        calls.clear()
        mem.transport(geom, p, step, geom.random_tangent(p, rng), q)
        monkeypatch.setattr(rb.Stiefel, "retract", retract)
        assert calls == []


def assert_masked_inverse_matches(geom, p, mem, rng, mask):
    """Masked ``apply_inverse`` of a random tangent agrees with the dense oracle."""
    x = geom.random_tangent(p, rng)
    binv = dense_reduced_inverse(mem, weight(geom, mask) > 0.0)
    v = weight(geom, mask) * x.data
    got = mem.apply_inverse(geom, p, x, active=np.flatnonzero(~mask)).data
    tol = 1e-9 * (1.0 + np.linalg.norm(binv, 2) * np.linalg.norm(v))
    assert np.linalg.norm(got - binv @ v) <= tol


def block_from_pairs(mem):
    """``[[-D, L^T], [L, theta S S^T]]`` from the stored vectors, not the cache."""
    s = np.array([pr.s.data for pr in mem.pairs])
    y = np.array([pr.y.data for pr in mem.pairs])
    sy = s @ y.T
    low = np.tril(sy, -1)
    return np.block([[-np.diag(np.diag(sy)), low.T], [low, mem.theta * (s @ s.T)]])


def assert_gram_matches_rows(geom, mem):
    """The cached full and box Gram blocks equal ``X X^T`` of the stored rows.

    Entries are compared to 1e-12 of the largest diagonal entry.  This is
    the invariant that an isometric transport relies on when it keeps the
    cache: rows moved by roundoff must not drift away from it.
    """
    m, nb = 2 * mem.size, geom.box.n
    if not m:
        return
    rows = np.array([row for pair in zip(mem.S, mem.Y) for row in pair])  # s_0, y_0, s_1, ...
    full = rows @ rows.T
    tol = 1e-12 * np.max(np.diag(full))
    assert np.max(np.abs(mem._gram[:m, :m] - full)) <= tol
    assert np.max(np.abs(mem._gram_box[:m, :m] - rows[:, :nb] @ rows[:, :nb].T)) <= tol


def assert_r_inv_inverts_r(mem):
    """A current cached ``R^{-1}`` inverts ``R = triu(S Y^T)`` of the cached Gram matrix.

    The residual ``R^{-1} R - I`` must stay within 1e-9, plus 1e-13 of the
    largest entry of ``|R^{-1}| |R|``, the scale of the roundoff of any
    triangular inversion, which near-threshold pairs make large.  Bordering
    on every push and slicing on every eviction must not drift away from
    the inverse; a stale cache is rebuilt by its next read.  The Gram
    matrix is held to the stored rows by :func:`assert_gram_matches_rows`.
    """
    if mem._r_inv_stale or not mem.size:
        return
    m = 2 * mem.size
    r = np.triu(mem._gram[0:m:2, 1:m:2])
    r_inv = mem._r_inv[: mem.size, : mem.size]
    assert np.all(np.tril(r_inv, -1) == 0.0)
    tol = 1e-9 + 1e-13 * np.max(np.abs(r_inv) @ np.abs(r))
    assert np.max(np.abs(r_inv @ r - np.eye(mem.size))) <= tol


def sequence_geometry(kind, n, d):
    if kind == "sphere":
        return Geometry(BoxBounds.empty(), rb.Sphere(d))
    manifold = {"box": None, "box-sphere": rb.Sphere(d), "box-stiefel": rb.Stiefel(2, d)}[kind]
    return Geometry(BoxBounds(-np.ones(n), np.ones(n)), manifold)


# Weighted towards the updates, so that sequences evict past capacity and
# wrap the row window; a reset or a width change is rarer.
OPERATIONS = ["accept"] * 3 + ["near"] * 3 + ["transport"] * 3 + ["reject", "reset", "widen"]


@settings(max_examples=80)
@given(
    st.sampled_from(["box", "box-sphere", "box-stiefel", "sphere"]),
    st.integers(1, 3),
    st.lists(st.sampled_from(OPERATIONS), min_size=8, max_size=40),
    st.integers(0, 2**32 - 1),
)
# A float64 dense oracle was 1.7e-6 off here, past the 1.2e-6 tolerance,
# while apply_inverse was within 1.2e-10 of a 60-digit solve.
@example(kind="sphere", capacity=3, seed=413400, ops=[
    "accept", "near", "accept", "accept", "accept", "accept", "near", "near", "transport",
    "near", "transport", "accept", "accept",
])
def test_gram_cache_survives_operation_sequences(kind, capacity, ops, seed):
    # Pushes that evict past capacity wrap the row window, transports drop
    # near-threshold pairs, and a width change starts over; after every
    # operation the cached Gram blocks must still describe the stored rows,
    # and a current R^{-1} must invert R.  Every other operation reads the
    # free face, which rebuilds a stale R^{-1}, so pushes meet both states.
    rng, check_rng = np.random.default_rng(seed), np.random.default_rng(seed + 1)
    n, d = 3, 4
    geom = sequence_geometry(kind, n, d)
    p = geom.random_point(rng)
    mem = LbfgsMemory(capacity, curvature_eps=1e-3)
    for k, op in enumerate(ops):
        if op == "widen":
            n, d = n + 1, d + 1
            geom = sequence_geometry(kind, n, d)
            p = geom.random_point(rng)
        s, r = geom.random_tangent(p, rng), geom.random_tangent(p, rng)
        try:
            if op in ("accept", "widen"):
                y = s + 0.1 * (geom.norm(p, s) / geom.norm(p, r)) * r
                assert mem.push(geom, p, s, y)
            elif op == "near":
                # curvature just above the threshold, so a transport can flip it
                yy = geom.inner(p, r, r)
                s = s - (geom.inner(p, s, r) / yy - 1e-3 * rng.uniform(1.0, 1.1)) * r
                mem.push(geom, p, s, r)
            elif op == "reject":
                assert not mem.push(geom, p, s, -s)
            elif op == "transport":
                step = rng.uniform(0.5, 3.0) * s
                q = geom.retract(p, step)
                mem.transport(geom, p, step, r, q)
                p = q
            else:
                mem.reset()
            middle = mem.middle_matrix()
        except rb.SingularMiddleMatrix:
            mem.reset()  # what the solver does
            middle = mem.middle_matrix()
        assert mem.size <= capacity
        if mem.size:
            residual = middle @ block_from_pairs(mem) - np.eye(2 * mem.size)
            assert np.max(np.abs(residual)) <= 1e-9
        else:
            assert middle.shape == (0, 0)
        assert_gram_matches_rows(geom, mem)
        assert_r_inv_inverts_r(mem)
        assert_masked_inverse_matches(geom, p, mem, rng, rng.random(geom.box.n) < 0.6)
        if k % 2:
            assert_masked_inverse_matches(geom, p, mem, check_rng, np.ones(geom.box.n, bool))
            assert_r_inv_inverts_r(mem)


def test_isometric_transports_keep_the_gram_cache():
    # Sphere transport is isometric, so the memory keeps its Gram matrix,
    # theta and middle matrix across it.  Rows carried through a few hundred
    # transports with no push, far longer than a pair lives in a solve, must
    # still match the cache, and the kept middle matrix must still invert
    # the block built from the moved rows.
    rng = np.random.default_rng(3)
    geom = Geometry(BoxBounds.empty(), rb.Sphere(6))
    assert geom.manifold.isometric
    p = geom.random_point(rng)
    mem = LbfgsMemory(capacity=4)
    while mem.size < 4:
        s = geom.random_tangent(p, rng)
        mem.push(geom, p, s, s + 0.3 * geom.random_tangent(p, rng))
    theta, middle = mem.theta, mem.middle_matrix()
    for _ in range(300):
        step = geom.random_tangent(p, rng)
        step = geom.unpack(step.data * (rng.uniform(0.1, 3.0) / geom.norm(p, step)))
        q = geom.retract(p, step)
        assert mem.transport(geom, p, step, geom.random_tangent(p, rng), q) == 0
        p = q
        assert_gram_matches_rows(geom, mem)
    assert mem.size == 4 and mem.theta == theta
    np.testing.assert_array_equal(mem.middle_matrix(), middle)
    residual = middle @ block_from_pairs(mem) - np.eye(2 * mem.size)
    assert np.max(np.abs(residual)) <= 1e-9


def test_long_sphere_sequence_keeps_r_inv():
    # Sphere transport is isometric, so R^{-1} is only ever bordered by a
    # push and sliced by an eviction, never rebuilt.  A few hundred pushes
    # at capacity 3, each after a transport, show that neither drifts.
    rng = np.random.default_rng(5)
    geom = Geometry(BoxBounds.empty(), rb.Sphere(8))
    p = geom.random_point(rng)
    mem = LbfgsMemory(capacity=3)
    for _ in range(300):
        s, r = geom.random_tangent(p, rng), geom.random_tangent(p, rng)
        assert mem.push(geom, p, s, s + 0.3 * (geom.norm(p, s) / geom.norm(p, r)) * r)
        assert not mem._r_inv_stale
        assert_r_inv_inverts_r(mem)
        step = geom.unpack(s.data * (rng.uniform(0.1, 3.0) / geom.norm(p, s)))
        q = geom.retract(p, step)
        assert mem.transport(geom, p, step, geom.random_tangent(p, rng), q) == 0
        p = q
        assert_r_inv_inverts_r(mem)
    assert mem.size == 3 and not mem._r_inv_stale
    assert_masked_inverse_matches(geom, p, mem, rng, np.ones(0, bool))


def spd_map(geom, p, rng):
    """``s -> (s, A s)`` for one random symmetric positive definite ``A``."""
    width = geom.zero_tangent(p).data.size
    g = rng.standard_normal((width, width))
    a = g @ g.T / width + np.eye(width)

    def pair(s):
        y = geom.unpack(a @ s.data)
        if geom.manifold is not None:
            y.manifold[...] = geom.manifold.project_tangent(p.manifold, y.manifold)
        return s, y

    return pair


def spd_pairs(geom, p, rng, count):
    """Pairs ``(s, A s)`` for one random symmetric positive definite ``A``."""
    pair = spd_map(geom, p, rng)
    for _ in range(count):
        yield pair(geom.random_tangent(p, rng))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", ["bss-small", "sphere"])
def test_masked_inverse_at_bench_shapes(shape, seed):
    # Ten pairs at the bench's widths: 150 box coordinates times Stiefel(3, 3)
    # with about 7% of them active, and Sphere(30) with no box at all.
    rng = np.random.default_rng(seed)
    if shape == "sphere":
        geom = Geometry(BoxBounds.empty(), rb.Sphere(30))
    else:
        geom = Geometry(BoxBounds(np.zeros(150), np.ones(150)), rb.Stiefel(3, 3))
    p = geom.random_point(rng)
    mem = LbfgsMemory(10)
    for s, y in spd_pairs(geom, p, rng, 14):
        mem.push(geom, p, s, y)
    step = 0.3 * geom.random_tangent(p, rng)
    q = geom.retract(p, step)
    mem.transport(geom, p, step, geom.random_tangent(p, rng), q)
    s, y = next(spd_pairs(geom, q, rng, 1))
    mem.push(geom, q, s, y)
    assert mem.size == 10
    assert_masked_inverse_matches(geom, q, mem, rng, rng.random(geom.box.n) >= 0.07)


# ----------------------------------------------------------------------
# The middle matrix is built only where the Cauchy search reads it.  Where
# the solver hands the search H[d] instead, the curvature skips the middle
# matrix and its conditioning test; these properties stand in for both.


@SETTINGS
@given(cases(), st.floats(0.5, 3.0))
def test_curvature_handed_to_the_cauchy_search_matches_the_middle_matrix(case, scale):
    # After a transport that may drop pairs, some box coordinates are put on
    # a bound, so that the face is sometimes masked and the cone projection
    # sometimes changes B q.  The solver hands the Cauchy search H[d] after
    # a reset and wherever the projection keeps d = B q, masked face or not;
    # there <d, H[d]> from it is the middle matrix's value.
    geom, p, mem, rng, mask = case
    step = scale * geom.random_tangent(p, rng)
    q = geom.retract(p, step)
    event(f"transport dropped {mem.transport(geom, p, step, geom.random_tangent(p, rng), q)}")
    lower, upper = geom.box.lower, geom.box.upper
    q.euclidean = np.where(~mask & np.isfinite(lower), lower, q.euclidean)
    q.euclidean = np.where(~mask & ~np.isfinite(lower) & np.isfinite(upper), upper, q.euclidean)
    grad = geom.random_tangent(q, rng)
    state = SolverState(q, grad, 0.0, mem).locate(geom)
    masked = not np.array_equal(state.steepest.euclidean, -grad.euclidean)
    seen, inverses = [], []
    apply_inverse = LbfgsMemory.apply_inverse

    def inverse(*args, **kwargs):
        out = apply_inverse(*args, **kwargs)
        inverses.append(out.copy())  # the solver projects out in place
        return out

    def search(geom, p, grad, d, mem, *rest, hd=None, xd=None):
        seen.append((d, hd))
        return generalized_cauchy_direction(geom, p, grad, d, mem, *rest, hd=hd, xd=xd)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rb.solver, "generalized_cauchy_direction", search)
        mp.setattr(LbfgsMemory, "apply_inverse", inverse)
        for reset in (False, True):
            if reset:
                mem.reset()
            try:
                _cauchy_direction(state, geom, reset)
            except rb.SingularMiddleMatrix:
                continue
            d, hd = seen[-1]
            kept = reset or np.array_equal(d.data, inverses[-1].data)
            event(f"reset={reset} masked={masked} handed H[d]={hd is not None}")
            assert (hd is not None) == kept
            if hd is not None:
                # relative to the larger of the two terms the M-based value
                # subtracts: on a near-singular memory it cancels
                # catastrophically, and <d, H[d]> from H[d] is the accurate one
                want = mem.pairing(geom, q, d, d)
                size = mem.theta * float(d.data @ d.data) + abs(want)
                assert abs(float(d.data @ hd.data) - want) <= 1e-9 * size


def face_solve(rows, gram, theta, active, w):
    """``z = (theta N - F)^{-1} w``, the system assembled from ``rows`` and ``G`` as in the memory."""
    sy, upper = gram[0::2, 1::2], np.triu(gram[0::2, 1::2])
    cols = rows[:, active]
    system = cols @ cols.T
    system[0::2, 1::2] -= upper
    system[1::2, 0::2] -= upper.T
    system[1::2, 1::2] -= gram[1::2, 1::2] + np.diag(theta * sy.diagonal())
    return np.linalg.solve(system, w)


@SETTINGS
@given(cases())
def test_coefficients_handed_to_the_cauchy_search_match_the_rows(case):
    # The search is handed X d from the inverse's own products, less the
    # columns the cone projection zeroes: gamma w + G c on a free face and
    # (w + (G - C) z) / theta on a masked one, with w = X q, c = K w, z the
    # face solve and C = X_A X_A^T.  It is X d to roundoff relative to the
    # terms it sums.
    geom, p, mem, rng, mask = case
    lower, upper = geom.box.lower, geom.box.upper
    p.euclidean = np.where(~mask & np.isfinite(lower), lower, p.euclidean)
    p.euclidean = np.where(~mask & ~np.isfinite(lower) & np.isfinite(upper), upper, p.euclidean)
    state = SolverState(p, geom.random_tangent(p, rng), 0.0, mem).locate(geom)
    seen = []

    def search(geom, p, grad, d, mem, *rest, hd=None, xd=None):
        seen.append((d, hd, xd))
        return generalized_cauchy_direction(geom, p, grad, d, mem, *rest, hd=hd, xd=xd)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rb.solver, "generalized_cauchy_direction", search)
        try:
            _cauchy_direction(state, geom, reset=False)
        except rb.SingularMiddleMatrix:
            pass
    assume(seen)  # else the face system was singular
    d, hd, xd = seen[0]
    if not mem.size:
        assert xd.shape == (0,)
        return
    if not geom.box.n:  # nothing is walked, so nothing would read X d
        assert xd is None
        return
    rows, gram, gamma, kernel = free_face_kernel(mem)
    w = rows @ state.steepest.data
    if state.active.size:
        z = face_solve(rows, gram, mem.theta, state.active, w)
        scale = (np.linalg.norm(w) + np.linalg.norm(gram, 2) * np.linalg.norm(z)) / mem.theta
    else:
        scale = gamma * np.linalg.norm(w) + np.linalg.norm(gram, 2) * np.linalg.norm(kernel @ w)
    event(f"masked {state.active.size > 0}, projected {hd is None}")
    assert np.linalg.norm(xd - rows @ d.data) <= 1e-12 * scale


@st.composite
def ill_conditioned_memories(draw):
    """(geometry, point, memory, rng) whose pairs are numerically singular.

    Pairs ``(s, A s)`` for one SPD ``A`` pass the curvature test; their
    step lengths span at least 16 orders of magnitude.
    """
    kind = draw(st.sampled_from(["box", "box-sphere", "sphere"]))
    n = 0 if kind == "sphere" else draw(st.integers(2, 6))
    manifold = None if kind == "box" else rb.Sphere(draw(st.integers(3, 6)))
    geom = Geometry(BoxBounds(-np.ones(n), np.ones(n)), manifold)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = geom.random_point(rng)
    count = draw(st.integers(2, 4))
    pair = spd_map(geom, p, rng)
    mem = LbfgsMemory(count)
    for e in rng.permutation(np.linspace(-1.0, 1.0, count)) * draw(st.floats(8.0, 12.0)):
        assert mem.push(geom, p, *pair(10.0**e * geom.random_tangent(p, rng)))
    return geom, p, mem, rng


@SETTINGS
@given(ill_conditioned_memories(), st.data())
def test_inverse_descends_past_the_conditioning_cutoff(case, data):
    # The middle matrix of these pairs fails its conditioning test, but a
    # solve that never reads it (no box, or a free face) never runs that
    # test: the inverse operator alone must still give descent, free and
    # masked.
    geom, p, mem, rng = case
    with pytest.raises(rb.SingularMiddleMatrix):
        mem.middle_matrix()
    g = geom.random_tangent(p, rng)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=geom.box.n, max_size=geom.box.n)),
                    dtype=bool)
    for active in (None, np.flatnonzero(~mask)):
        steepest = -1.0 * g
        if active is not None:
            steepest.euclidean[active] = 0.0
        if not np.any(steepest.data):
            continue
        d = mem.apply_inverse(geom, p, steepest, active=active)
        assert geom.inner(p, g, d) < 0.0


@SETTINGS
@given(cases(kinds=("sphere", "stiefel")), st.floats(0.5, 3.0))
def test_middle_matrix_after_transport_is_positive_definite_on_the_span(case, scale):
    # <v, H[v]> > 0 for every v in the span of the transported pairs, read
    # through the middle matrix built after the transport (off the span,
    # H = theta I).
    geom, p, mem, rng, _ = case
    step = scale * geom.random_tangent(p, rng)
    q = geom.retract(p, step)
    event(f"transport dropped {mem.transport(geom, p, step, geom.random_tangent(p, rng), q)}")
    assume(mem.size > 0)
    rows = np.array([v.data for pr in mem.pairs for v in (pr.s, pr.y)])
    u, sv, _ = np.linalg.svd(rows.T, full_matrices=False)
    basis = [geom.unpack(c) for c in u[:, sv > 1e-10 * sv[0]].T]
    h = np.array([[mem.pairing(geom, q, a, b) for b in basis] for a in basis])
    assert np.linalg.eigvalsh(h)[0] > 0.0
