"""Memory tests against dense BFGS oracles built by the direct update rules."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

import rlbfgsb as rb
from rlbfgsb import (
    BoxBounds,
    Geometry,
    LbfgsMemory,
    ProductPoint,
    ProductTangent,
    Sphere,
    Stiefel,
    make_pair,
)

from conftest import (
    box_geometry,
    dense_bfgs_matrix,
    dense_inverse_bfgs_matrix,
    fill_memory,
)


def flat_geom(n):
    return Geometry(BoxBounds.unbounded(n))


class TestMakePair:
    def test_flat_identity_transport(self):
        geom = flat_geom(1)
        mem = LbfgsMemory(capacity=2)
        mem.transport(geom, ProductPoint([0.0]), ProductTangent([1.0]), ProductTangent([2.0]))
        s, y = make_pair(geom, mem, ProductTangent([1.0]))
        assert_allclose(s.euclidean, [1.0])
        assert_allclose(y.euclidean, [-1.0])

    def test_sphere_step_tangent_at_target(self, rng):
        sph = Sphere(3)
        geom = Geometry(BoxBounds.empty(), sph)
        p = ProductPoint(np.zeros(0), np.array([1.0, 0.0, 0.0]))
        step = ProductTangent(np.zeros(0), (math.pi / 2) * np.array([0.0, 1.0, 0.0]))
        grad_old = geom.random_tangent(p, rng)
        q = geom.retract(p, step)
        grad_new = geom.random_tangent(q, rng)
        mem = LbfgsMemory(capacity=2)
        mem.transport(geom, p, step, grad_old, q)
        s, y = make_pair(geom, mem, grad_new)
        assert sph.tangency_residual(q.manifold, s.manifold) <= 1e-10
        assert sph.tangency_residual(q.manifold, y.manifold) <= 1e-10


class TestPush:
    def test_unit_pair_accepted(self):
        geom = flat_geom(1)
        p = ProductPoint([0.0])
        mem = LbfgsMemory(capacity=4)
        assert mem.push(geom, p, ProductTangent([1.0]), ProductTangent([1.0]))
        assert mem.theta == 1.0
        assert mem.size == 1

    def test_negative_curvature_rejected(self):
        geom = flat_geom(1)
        p = ProductPoint([0.0])
        mem = LbfgsMemory(capacity=4)
        assert not mem.push(geom, p, ProductTangent([1.0]), ProductTangent([-1.0]))
        assert mem.size == 0

    def test_zero_y_rejected(self):
        geom = flat_geom(1)
        mem = LbfgsMemory(capacity=4)
        assert not mem.push(geom, ProductPoint([0.0]), ProductTangent([1.0]), ProductTangent([0.0]))

    def test_underflowing_threshold_rejects_zero_curvature(self):
        # <y, y> = 1e-320 makes curvature_eps * <y, y> underflow to 0, so
        # <s, y> = 0 would pass the threshold alone and set theta = inf
        geom = flat_geom(2)
        mem = LbfgsMemory()
        s, y = ProductTangent([1.0, 0.0]), ProductTangent([0.0, 1e-160])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not mem.push(geom, ProductPoint(np.zeros(2)), s, y)
        assert mem.size == 0
        assert mem.theta == 1.0

    def test_fifo_eviction(self):
        geom = flat_geom(2)
        p = ProductPoint(np.zeros(2))
        mem = LbfgsMemory(capacity=2)
        for i in range(1, 4):
            s = ProductTangent([float(i), 0.0])
            y = ProductTangent([float(i), 0.1 * i])
            assert mem.push(geom, p, s, y)
        assert mem.size == 2
        assert_allclose(mem.pairs[0].s.euclidean, [2.0, 0.0])
        assert_allclose(mem.pairs[1].s.euclidean, [3.0, 0.0])

    def test_theta_tracks_newest_pair(self, rng):
        geom = flat_geom(3)
        p = ProductPoint(np.zeros(3))
        mem = fill_memory(geom, p, rng, pushes=5)
        last = mem.pairs[-1]
        yy = geom.inner(p, last.y, last.y)
        assert_allclose(mem.theta, yy / last.sy, rtol=1e-14)


class TestTransportMemory:
    def test_flat_transport_is_identity(self, rng):
        geom = flat_geom(3)
        p = ProductPoint(np.zeros(3))
        mem = fill_memory(geom, p, rng, pushes=3)
        before = [(pr.s.euclidean.copy(), pr.y.euclidean.copy()) for pr in mem.pairs]
        step = ProductTangent(rng.standard_normal(3))
        discarded = mem.transport(geom, p, step, geom.zero_tangent(p))
        assert discarded == 0
        for (s0, y0), pr in zip(before, mem.pairs):
            assert_allclose(pr.s.euclidean, s0)
            assert_allclose(pr.y.euclidean, y0)

    def test_sphere_pairs_tangent_after_transport(self, rng):
        sph = Sphere(4)
        geom = Geometry(BoxBounds.empty(), sph)
        p = geom.random_point(rng)
        mem = fill_memory(geom, p, rng, pushes=4)
        step = geom.random_tangent(p, rng)
        mem.transport(geom, p, step, geom.random_tangent(p, rng))
        q = geom.retract(p, step)
        for pr in mem.pairs:
            assert sph.tangency_residual(q.manifold, pr.s.manifold) <= 1e-10
            assert sph.tangency_residual(q.manifold, pr.y.manifold) <= 1e-10

    def test_curvature_flip_discards_pair(self, rng):
        # Brute-search Stiefel cases for a pair whose curvature the projection
        # transport destroys (it is not an isometry); the transport must then
        # discard the pair and fall back to the identity scaling.
        st = rb.Stiefel(2, 4)
        geom = Geometry(BoxBounds.empty(), st)
        found = False
        for trial in range(5000):
            p = geom.random_point(rng)
            s = geom.random_tangent(p, rng)
            y = geom.random_tangent(p, rng)
            mem = LbfgsMemory(capacity=2, curvature_eps=1e-3)
            if not mem.push(geom, p, s, y):
                continue
            step = 3.0 * geom.random_tangent(p, rng)
            rows = np.array([s.data, y.data])
            geom.transport(p, step, rows)
            s2, y2 = rows
            if s2 @ y2 < 1e-3 * (y2 @ y2):
                discarded = mem.transport(geom, p, step, geom.zero_tangent(p))
                assert discarded == 1
                assert mem.size == 0
                assert mem.theta == 1.0
                found = True
                break
        assert found, "no curvature-flipping case found in the search budget"

    def test_underflowing_transported_curvature_drops_pair(self):
        # The Stiefel(1, 2) projection shrinks the manifold parts by about
        # 1e-10, so the transported <s, y> underflows to 0 while <y, y> keeps
        # the box part's 1e-320 and curvature_eps * <y, y> underflows too.
        geom = Geometry(BoxBounds.unbounded(1), Stiefel(1, 2))
        p = ProductPoint([0.0], np.array([[1.0, 0.0]]))
        mem = LbfgsMemory()
        s = ProductTangent([0.0], np.array([[0.0, 1.0]]))
        y = ProductTangent([1e-160], np.array([[0.0, 1e-305]]))
        assert mem.push(geom, p, s, y)
        step = ProductTangent([0.0], np.array([[0.0, 1e10]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mem.transport(geom, p, step, geom.zero_tangent(p)) == 1
            assert mem.pairing(geom, p, s, s) == 1.0
        assert mem.size == 0
        assert mem.theta == 1.0


class TestMiddleMatrix:
    def test_single_unit_pair(self):
        geom = flat_geom(1)
        p = ProductPoint([0.0])
        mem = LbfgsMemory(capacity=2)
        mem.push(geom, p, ProductTangent([1.0]), ProductTangent([1.0]))
        assert_allclose(mem.middle_matrix(), [[-1.0, 0.0], [0.0, 1.0]], atol=1e-14)

    def _block(self, mem):
        mu = mem.size
        d = np.array([pr.sy for pr in mem.pairs])
        s = np.array([pr.s.euclidean for pr in mem.pairs])
        y = np.array([pr.y.euclidean for pr in mem.pairs])
        q = mem.theta * (s @ s.T)
        low = np.tril(s @ y.T, -1)
        return np.block([[-np.diag(d), low.T], [low, q]])

    def test_inverse_identity(self, rng):
        geom = flat_geom(4)
        p = ProductPoint(np.zeros(4))
        for _ in range(50):
            mem = fill_memory(geom, p, rng, pushes=int(rng.integers(1, 5)))
            if mem.size == 0:
                continue
            prod = mem.middle_matrix() @ self._block(mem)
            assert np.max(np.abs(prod - np.eye(2 * mem.size))) <= 1e-9

    def test_matches_direct_dense_inversion(self, rng):
        geom = flat_geom(3)
        p = ProductPoint(np.zeros(3))
        for _ in range(50):
            mem = fill_memory(geom, p, rng, pushes=2, capacity=2)
            if mem.size != 2:
                continue
            direct = np.linalg.inv(self._block(mem))
            assert np.max(np.abs(mem.middle_matrix() - direct)) <= 1e-9 * (
                1.0 + np.max(np.abs(direct))
            )

    def test_singular_raises(self):
        # orthogonal pairs with a 10^16 scale gap push the Schur complement
        # past the conditioning cutoff; push only marks M stale, and the
        # first read builds it and raises, as does every read after it
        geom = flat_geom(2)
        p = ProductPoint(np.zeros(2))
        w = np.ones(4)
        for read in (LbfgsMemory.middle_matrix, lambda mem: mem.bilinear(w, w)):
            mem = LbfgsMemory(capacity=3)
            mem.push(geom, p, ProductTangent([1e-8, 0.0]), ProductTangent([1e-8, 0.0]))
            assert mem.push(geom, p, ProductTangent([0.0, 1e8]), ProductTangent([0.0, 1e8]))
            for _ in range(2):
                with pytest.raises(rb.SingularMiddleMatrix):
                    read(mem)
            mem.reset()
            assert mem.middle_matrix().shape == (0, 0)


class TestRowLayout:
    def test_coefficient_maps_read_the_rows(self, rng):
        # The coefficients are X v and the columns of X, with X the
        # interleaved rows s_0, y_0, s_1, ..., bit for bit.
        geom = Geometry(BoxBounds.unbounded(4), Sphere(3))
        p = geom.random_point(rng)
        mem = LbfgsMemory(capacity=3)
        for _ in range(5):  # two evictions advance the row window
            s = geom.random_tangent(p, rng)
            assert mem.push(geom, p, s, s + 0.1 * geom.random_tangent(p, rng))
        rows = np.array([row.data for pr in mem.pairs for row in (pr.s, pr.y)])
        v = geom.random_tangent(p, rng).data
        assert np.array_equal(mem.coefficients(v).view(np.uint64), (rows @ v).view(np.uint64))
        for b in range(geom.box.n):
            want = rows[:, b].copy()
            assert np.array_equal(mem.basis_coefficients(b).view(np.uint64), want.view(np.uint64))


class TestPairing:
    def test_empty_memory_is_inner(self, rng):
        geom = flat_geom(3)
        p = ProductPoint(np.zeros(3))
        mem = LbfgsMemory()
        x = geom.random_tangent(p, rng)
        y = geom.random_tangent(p, rng)
        assert_allclose(mem.pairing(geom, p, x, y), geom.inner(p, x, y), rtol=1e-14)

    def test_empty_memory_is_scaled_identity(self, rng):
        geom = flat_geom(3)
        p = ProductPoint(np.zeros(3))
        mem = LbfgsMemory()
        mem.theta = 3.0
        x = geom.random_tangent(p, rng)
        y = geom.random_tangent(p, rng)
        assert_allclose(mem.pairing(geom, p, x, y), 3.0 * geom.inner(p, x, y), rtol=1e-14)

    def test_linearity(self, rng):
        geom = flat_geom(4)
        p = ProductPoint(np.zeros(4))
        mem = fill_memory(geom, p, rng, pushes=3)
        zero = geom.zero_tangent(p)
        for _ in range(20):
            x, y, z = (geom.random_tangent(p, rng) for _ in range(3))
            a, b = rng.standard_normal(2)
            lhs = mem.pairing(geom, p, a * x + b * y, z)
            rhs = a * mem.pairing(geom, p, x, z) + b * mem.pairing(geom, p, y, z)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))
            assert mem.pairing(geom, p, zero, z) == 0.0

    def test_symmetry(self, rng):
        geom = flat_geom(4)
        p = ProductPoint(np.zeros(4))
        mem = fill_memory(geom, p, rng, pushes=3)
        for _ in range(50):
            x = geom.random_tangent(p, rng)
            y = geom.random_tangent(p, rng)
            a = mem.pairing(geom, p, x, y)
            b = mem.pairing(geom, p, y, x)
            assert abs(a - b) <= 1e-12 * (1.0 + abs(a))

    def test_dense_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            geom = flat_geom(n)
            p = ProductPoint(np.zeros(n))
            mem = fill_memory(geom, p, rng, pushes=int(rng.integers(1, 4)), capacity=3)
            h = dense_bfgs_matrix(mem, n)
            x = geom.random_tangent(p, rng)
            y = geom.random_tangent(p, rng)
            expected = float(x.euclidean @ h @ y.euclidean)
            got = mem.pairing(geom, p, x, y)
            assert abs(got - expected) <= 1e-9 * (1.0 + abs(expected))

    def test_positive_definite(self, rng):
        geom = flat_geom(5)
        p = ProductPoint(np.zeros(5))
        mem = fill_memory(geom, p, rng, pushes=4)
        for _ in range(1000):
            x = geom.random_tangent(p, rng)
            assert mem.pairing(geom, p, x, x) > 0.0


class TestBasisDiag:
    def test_empty_memory(self):
        mem = LbfgsMemory()
        mem.theta = 2.5
        assert mem.basis_diag(0) == 2.5

    def test_matches_pairing_with_basis_vector(self, rng):
        geom = flat_geom(3)
        p = ProductPoint(np.zeros(3))
        mem = fill_memory(geom, p, rng, pushes=1, capacity=2)
        h = dense_bfgs_matrix(mem, 3)
        for b in range(3):
            eb = np.zeros(3)
            eb[b] = 1.0
            t = ProductTangent(eb)
            assert abs(mem.basis_diag(b) - mem.pairing(geom, p, t, t)) <= 1e-12
            assert abs(mem.basis_diag(b) - h[b, b]) <= 1e-10

    def test_mixed_geometry_matches_pairing(self, rng):
        # The box coordinates lead the packed layout, ahead of the raveled
        # Stiefel part; each basis column must be read from the box block.
        n = 3
        geom = Geometry(BoxBounds.unbounded(n), Stiefel(2, 3))
        zero_m = np.zeros((2, 3))
        for _ in range(10):
            p = geom.random_point(rng)
            mem = fill_memory(geom, p, rng, pushes=6, capacity=3)
            assert mem.size > 0
            for b in range(n):
                eb = np.zeros(n)
                eb[b] = 1.0
                t = ProductTangent(eb, zero_m)
                ref = mem.pairing(geom, p, t, t)
                assert abs(mem.basis_diag(b) - ref) <= 1e-12 * (1.0 + abs(ref))

    def test_out_of_range(self):
        mem = LbfgsMemory()
        with pytest.raises(IndexError):
            mem.basis_diag(-1)
        with pytest.raises(IndexError):
            mem.basis_diag(5, n=3)


class TestApplyInverse:
    def test_empty_memory_scales(self):
        geom = flat_geom(1)
        p = ProductPoint([0.0])
        mem = LbfgsMemory()
        mem.theta = 2.0
        out = mem.apply_inverse(geom, p, ProductTangent([4.0]))
        assert_allclose(out.euclidean, [2.0])

    def test_inverse_consistency(self, rng):
        geom = flat_geom(4)
        p = ProductPoint(np.zeros(4))
        mem = fill_memory(geom, p, rng, pushes=3)
        for _ in range(50):
            g = geom.random_tangent(p, rng)
            bg = mem.apply_inverse(geom, p, g)
            lhs = mem.pairing(geom, p, bg, bg)
            rhs = geom.inner(p, g, bg)
            assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(rhs))

    def test_dense_inverse_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 5))
            geom = flat_geom(n)
            p = ProductPoint(np.zeros(n))
            mem = fill_memory(geom, p, rng, pushes=2, capacity=2)
            binv = dense_inverse_bfgs_matrix(mem, n)
            x = geom.random_tangent(p, rng)
            expected = binv @ x.euclidean
            got = mem.apply_inverse(geom, p, x).euclidean
            assert np.max(np.abs(got - expected)) <= 1e-9 * (1.0 + np.max(np.abs(expected)))

    def test_face_restriction_descends(self, rng):
        # The inverse on the face must give a descent direction for the
        # projected gradient regardless of what the full operator would do.
        geom = box_geometry([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        for _ in range(50):
            p = ProductPoint(np.round(rng.random(3)))
            mem = fill_memory(geom, ProductPoint(rng.random(3)), rng, pushes=3)
            v = ProductTangent(rng.standard_normal(3))
            mask = rng.random(3) < 0.5
            v.euclidean[~mask] = 0.0
            if not np.any(v.euclidean):
                continue
            out = mem.apply_inverse(geom, p, v, free_mask=mask)
            assert np.all(out.euclidean[~mask] == 0.0)
            assert float(v.euclidean @ out.euclidean) > 0.0

    def test_face_restriction_all_free_matches_full(self, rng):
        geom = flat_geom(4)
        p = ProductPoint(np.zeros(4))
        mem = fill_memory(geom, p, rng, pushes=3)
        x = geom.random_tangent(p, rng)
        full = mem.apply_inverse(geom, p, x)
        masked = mem.apply_inverse(geom, p, x, free_mask=np.ones(4, dtype=bool))
        assert_allclose(masked.euclidean, full.euclidean, rtol=1e-14)

    @pytest.mark.parametrize(
        "s, y",
        [
            # The face parts are roundoff against the active ones: a face
            # scaling taken from them would be 0.1 and blow the result up
            # tenfold.
            (([1.0, 0.0], 1e-14), ([1.0, 0.0], 1e-15)),
            # Only the face part of y is: its face <y, y> of 9e-14 keeps few
            # digits after a subtraction of 1, and, taken as the face
            # scaling, would scale the result by 3e6.
            (([1.0, 0.0], 1.0), ([1.0, 0.0], 3e-7)),
            # The face parts are nearly orthogonal: their <s, y> of 1e-17 is
            # below the rounding of the full <s, y> of about 1.  The exact
            # reduced system gives 2.9999999997 at the free box coordinate,
            # not the 1.5 of an operator that skips the pair.
            (([1.0, 1.0], -1.1e-11), ([1.0, 1.2e-16], 1e-5)),
        ],
    )
    def test_face_skips_roundoff_level_pair(self, s, y):
        # The box coordinate 0 is active, and the pair's face part is its
        # second box coordinate and its sphere part.  The result solves the
        # reduced system H[F, F] r = x[F] of the one Hessian form, whose
        # answer a 50-digit solve gives; no roundoff of a face Gram
        # subtraction reaches it.
        geom = Geometry(BoxBounds(np.zeros(2), np.ones(2)), Sphere(3))
        p = ProductPoint(np.array([0.0, 0.5]), np.array([0.0, 0.0, 1.0]))
        mem = LbfgsMemory(capacity=2)
        s, y = (ProductTangent(np.array(box), np.array([m, 0.0, 0.0])) for box, m in (s, y))
        assert mem.push(geom, p, s, y)
        x = ProductTangent(np.array([2.0, 1.5]), np.zeros(3))
        out = mem.apply_inverse(geom, p, x, free_mask=np.array([False, True]))
        with mpmath.workdps(50):
            h = dense_bfgs_matrix(mem, 5, mpmath.mpf)[1:, 1:]
            r = mpmath.lu_solve(mpmath.matrix(h.tolist()), mpmath.matrix(x.data[1:].tolist()))
        want = np.array([0.0] + [float(v) for v in r])
        assert np.max(np.abs(out.data - want)) <= 1e-15 * np.max(np.abs(want))
