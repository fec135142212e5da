"""Property tests for the packed memory over random boxes, masks and pairs.

Geometries are a box alone, a box times a sphere, and a box times a Stiefel
manifold.  Bounds mix finite and infinite entries; memory contents come from
a seeded generator so every drawn case is reproducible.  The oracles are
dense: the inverse-BFGS matrix built by the product update rule, the
per-vector transport, and an explicit inverse of the block matrix.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rlbfgsb as rb
from rlbfgsb import BoxBounds, Geometry, LbfgsMemory, ProductTangent

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
    return geom.pack(ProductTangent(mask.astype(float), ones))


def dense_masked_inverse(geom, mem, w):
    """Inverse BFGS from the masked pairs that pass the curvature test."""
    pairs = []
    for pr in mem.pairs:
        s, y = w * geom.pack(pr.s), w * geom.pack(pr.y)
        sy, yy = s @ y, y @ y
        if yy > 0 and sy >= mem.curvature_eps * yy:
            pairs.append((s, y, sy, yy))
    if not mem.size:
        theta = mem.theta
    else:
        theta = pairs[-1][3] / pairs[-1][2] if pairs else 1.0
    eye = np.eye(w.size)
    b = eye / theta
    for s, y, sy, _ in pairs:
        v = eye - np.outer(s, y) / sy
        b = v @ b @ v.T + np.outer(s, s) / sy
    return b


@SETTINGS
@given(cases())
def test_masked_inverse_matches_dense_oracle(case):
    geom, p, mem, rng, mask = case
    x = geom.random_tangent(p, rng)
    w = weight(geom, mask)
    binv = dense_masked_inverse(geom, mem, w)
    v = w * geom.pack(x)
    got = geom.pack(mem.apply_inverse(geom, p, x, free_mask=mask))
    tol = 1e-9 * (1.0 + np.linalg.norm(binv, 2) * np.linalg.norm(v))
    assert np.linalg.norm(got - binv @ v) <= tol


@SETTINGS
@given(cases())
def test_masked_inverse_descends_on_the_face(case):
    geom, p, mem, rng, mask = case
    x = geom.random_tangent(p, rng)
    x.euclidean[~mask] = 0.0
    assume(np.any(geom.pack(x) != 0.0))
    out = mem.apply_inverse(geom, p, x, free_mask=mask)
    assert np.all(out.euclidean[~mask] == 0.0)
    assert geom.inner(p, x, out) > 0.0


@SETTINGS
@given(cases())
def test_all_free_mask_equals_no_mask(case):
    geom, p, mem, rng, mask = case
    x = geom.random_tangent(p, rng)
    full = mem.apply_inverse(geom, p, x)
    masked = mem.apply_inverse(geom, p, x, free_mask=np.ones(geom.box.n, dtype=bool))
    np.testing.assert_array_equal(geom.pack(masked), geom.pack(full))


@SETTINGS
@given(cases(), st.floats(0.0, 3.0))
def test_transport_matches_per_vector_transport(case, scale):
    geom, p, mem, rng, _ = case
    step = scale * geom.random_tangent(p, rng)
    before = mem.pairs
    dropped = mem.transport(geom, p, step)
    q = geom.retract(p, step)
    expected = []
    for pr in before:
        s, y = geom.transport(p, step, pr.s), geom.transport(p, step, pr.y)
        sy, yy = geom.inner(q, s, y), geom.inner(q, y, y)
        if yy > 0 and sy >= mem.curvature_eps * yy:
            expected.append((s, y))
    assert mem.size == len(expected) == len(before) - dropped
    for pr, (s, y) in zip(mem.pairs, expected):
        for got, want in ((pr.s, s), (pr.y, y)):
            scale_ = 1.0 + np.max(np.abs(geom.pack(want)))
            assert np.max(np.abs(geom.pack(got) - geom.pack(want))) <= 1e-12 * scale_
            assert geom.tangency_residual(q, got) <= 1e-10 * scale_


@SETTINGS
@given(cases())
def test_middle_matrix_inverts_block_matrix(case):
    geom, p, mem, _, _ = case
    assume(mem.size > 0)
    pairs = mem.pairs
    d = np.array([pr.sy for pr in pairs])
    s = np.array([geom.pack(pr.s) for pr in pairs])
    y = np.array([geom.pack(pr.y) for pr in pairs])
    low = np.tril(s @ y.T, -1)
    block = np.block([[-np.diag(d), low.T], [low, mem.theta * (s @ s.T)]])
    residual = mem.middle_matrix() @ block - np.eye(2 * mem.size)
    assert np.max(np.abs(residual)) <= 1e-9


@SETTINGS
@given(cases(kinds=("sphere", "stiefel")), st.floats(0.5, 3.0))
def test_transported_memory_reads_a_fresh_middle_matrix(case, scale):
    # transport alone leaves the middle matrix stale; every read must rebuild it
    geom, p, mem, rng, _ = case
    assume(mem.size > 0)
    step = scale * geom.random_tangent(p, rng)
    mem.transport(geom, p, step)
    q = geom.retract(p, step)
    x, y = geom.random_tangent(q, rng), geom.random_tangent(q, rng)
    xy = mem.pairing(geom, q, x, y)
    assert abs(xy - mem.pairing(geom, q, y, x)) <= 1e-12 * (1.0 + abs(xy))
    if not mem.size:  # transport dropped every pair
        assert mem.middle_matrix().shape == (0, 0)
        return
    pairs = mem.pairs
    d = np.array([pr.sy for pr in pairs])
    s = np.array([geom.pack(pr.s) for pr in pairs])
    y_ = np.array([geom.pack(pr.y) for pr in pairs])
    low = np.tril(s @ y_.T, -1)
    block = np.block([[-np.diag(d), low.T], [low, mem.theta * (s @ s.T)]])
    residual = mem.middle_matrix() @ block - np.eye(2 * mem.size)
    assert np.max(np.abs(residual)) <= 1e-9


def test_stiefel_transport_retracts_once(monkeypatch):
    calls = []
    retract = rb.Stiefel.retract

    def counted(self, p, x):
        calls.append(1)
        return retract(self, p, x)

    rng = np.random.default_rng(7)
    geom = Geometry(BoxBounds.unbounded(20), rb.Stiefel(3, 3))
    p = geom.random_point(rng)
    counts = []
    for mu in (2, 10):
        mem = LbfgsMemory(capacity=mu)
        while mem.size < mu:
            s = geom.random_tangent(p, rng)
            mem.push(geom, p, s, s + 0.1 * geom.random_tangent(p, rng))
        step = 0.3 * geom.random_tangent(p, rng)
        monkeypatch.setattr(rb.Stiefel, "retract", counted)
        calls.clear()
        mem.transport(geom, p, step)
        monkeypatch.setattr(rb.Stiefel, "retract", retract)
        counts.append(len(calls))
    assert counts[0] == counts[1] >= 1
