"""Geometry tests: metric, retractions, transports, cone projection."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

import rlbfgsb as rb
from rlbfgsb import (
    BoxBounds,
    Geometry,
    GeometryError,
    ProductPoint,
    ProductTangent,
    SpecialOrthogonal,
    Sphere,
    Stiefel,
)


def e(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


class TestBoxBounds:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoxBounds(np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            BoxBounds(np.array([np.inf]), np.array([np.inf]))
        with pytest.raises(ValueError):
            BoxBounds(np.array([0.0, 1.0]), np.array([1.0]))

    def test_clamp(self):
        b = BoxBounds(np.array([0.0]), np.array([1.0]))
        assert_allclose(b.clamp(np.array([-2.0])), [0.0])
        assert_allclose(b.clamp(np.array([0.5])), [0.5])
        assert_allclose(b.clamp(np.array([5.0])), [1.0])

    def test_clamp_has_the_bits_of_clip(self):
        # NaN passes through with its sign, and a signed zero at or across a
        # zero bound keeps the sign np.clip gives it, at any array length.
        special = [np.nan, -np.nan, 0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, np.inf, -np.inf]
        grid = np.array(np.meshgrid(special, [-0.0, 0.0, -1.0, -np.inf], [-0.0, 0.0, 1.0, np.inf]))
        x, lower, upper = grid.reshape(3, -1)
        keep = lower <= upper
        for reps in (1, 9):
            b = BoxBounds(np.tile(lower[keep], reps), np.tile(upper[keep], reps))
            v = np.tile(x[keep], reps)
            want = np.clip(v, b.lower, b.upper)
            assert np.array_equal(b.clamp(v).view(np.uint64), want.view(np.uint64))

    def test_violation(self):
        b = BoxBounds(np.array([0.0, -np.inf]), np.array([1.0, np.inf]))
        assert b.violation(np.array([0.5, 100.0])) == 0.0
        assert b.violation(np.array([1.25, 0.0])) == 0.25

    def test_empty_box(self):
        b = BoxBounds.empty()
        assert b.n == 0
        assert b.violation(np.zeros(0)) == 0.0


class TestInner:
    def test_box_dot(self):
        geom = Geometry(BoxBounds.unbounded(2))
        p = ProductPoint(np.zeros(2))
        assert geom.inner(p, ProductTangent([1.0, 2.0]), ProductTangent([3.0, -1.0])) == 1.0

    def test_sphere_unit_tangent(self):
        geom = Geometry(BoxBounds.empty(), Sphere(3))
        p = ProductPoint(np.zeros(0), e(0, 3))
        x = ProductTangent(np.zeros(0), e(1, 3))
        assert geom.inner(p, x, x) == 1.0

    def test_product_is_sum_of_parts(self, rng):
        for manifold in (Sphere(4), Stiefel(2, 4), None):
            geom = Geometry(BoxBounds.unbounded(3), manifold)
            for _ in range(20):
                p = geom.random_point(rng)
                x = geom.random_tangent(p, rng)
                y = geom.random_tangent(p, rng)
                expected = float(np.dot(x.euclidean, y.euclidean))
                if manifold is not None:
                    expected += float(np.sum(x.manifold * y.manifold))
                assert_allclose(geom.inner(p, x, y), expected, rtol=1e-14)

    def test_symmetry(self, rng):
        geom = Geometry(BoxBounds.unbounded(2), Stiefel(2, 4))
        for _ in range(50):
            p = geom.random_point(rng)
            x = geom.random_tangent(p, rng)
            y = geom.random_tangent(p, rng)
            a, b = geom.inner(p, x, y), geom.inner(p, y, x)
            assert abs(a - b) <= 1e-14 * (1.0 + abs(a))

    def test_dimension_mismatch(self):
        geom = Geometry(BoxBounds.unbounded(2))
        p = ProductPoint(np.zeros(2))
        with pytest.raises(ValueError):
            geom.inner(p, ProductTangent(np.zeros(3)), ProductTangent(np.zeros(3)))


class TestProductTangent:
    def test_constructor_packs_box_then_raveled_manifold(self):
        m = np.array([[3.0, 4.0], [5.0, 6.0]])
        x = ProductTangent([1.0, 2.0], m)
        assert_allclose(x.data, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert x.manifold.shape == (2, 2)
        assert_allclose(x.manifold, m)
        box = ProductTangent([1.0, 2.0])
        assert_allclose(box.data, [1.0, 2.0])
        assert box.manifold is None

    def test_writes_through_views_reach_data(self):
        x = ProductTangent([1.0, 2.0], np.zeros((2, 2)))
        x.euclidean[1] = -2.0
        x.manifold[1, 0] = 7.0
        assert_allclose(x.data, [1.0, -2.0, 0.0, 0.0, 7.0, 0.0])

    def test_arithmetic_and_copy_keep_layout(self, rng):
        geom = Geometry(BoxBounds.unbounded(2), Stiefel(2, 3))
        p = geom.random_point(rng)
        x, y = geom.random_tangent(p, rng), geom.random_tangent(p, rng)
        for z, want in (
            (x + y, x.data + y.data),
            (x - y, x.data - y.data),
            (2.0 * x, 2.0 * x.data),
            (x * 2.0, 2.0 * x.data),
            (-x, -x.data),
            (x.copy(), x.data),
        ):
            assert np.array_equal(z.data, want)
            assert z.euclidean.shape == (2,) and z.manifold.shape == (2, 3)
        c = x.copy()
        c.manifold[0, 0] += 1.0
        assert not np.shares_memory(c.data, x.data)
        assert c.manifold[0, 0] == x.manifold[0, 0] + 1.0

    def test_unpack_shares_memory(self, rng):
        geom = Geometry(BoxBounds.unbounded(2), Sphere(3))
        x = geom.random_tangent(geom.random_point(rng), rng)
        v = geom.unpack(x.data)
        assert v.data is x.data
        v.manifold[0] = 5.0
        assert x.manifold[0] == 5.0

    def test_check_rejects_wrong_layout(self):
        geom = Geometry(BoxBounds.unbounded(2), Sphere(3))
        p = ProductPoint(np.zeros(2), e(0, 3))
        good = ProductTangent(np.zeros(2), e(1, 3))
        assert geom.inner(p, good, good) == 1.0
        for bad in (
            ProductTangent(np.zeros(3), e(1, 3)),  # box width
            ProductTangent(np.zeros(5)),  # manifold part missing
            ProductTangent(np.zeros(0), np.zeros(5)),  # same width, wrong split
        ):
            with pytest.raises(ValueError):
                geom.inner(p, good, bad)
        with pytest.raises(ValueError):  # manifold part extra
            Geometry(BoxBounds.unbounded(2)).inner(p, good, good)
        with pytest.raises(ValueError):  # point without its manifold part
            geom.retract(ProductPoint(np.zeros(2)), good)


class TestRetract:
    def test_box_translation(self):
        geom = Geometry(BoxBounds(np.array([0.0]), np.array([1.0])))
        q = geom.retract(ProductPoint([0.5]), ProductTangent([0.25]))
        assert_allclose(q.euclidean, [0.75])

    def test_sphere_quarter_circle(self):
        geom = Geometry(BoxBounds.empty(), Sphere(3))
        p = ProductPoint(np.zeros(0), e(0, 3))
        q = geom.retract(p, ProductTangent(np.zeros(0), (math.pi / 2) * e(1, 3)))
        assert_allclose(q.manifold, e(1, 3), atol=1e-12)

    def test_so2_close_to_rotation(self):
        # the QR retraction of a skew step theta is a rotation by atan(theta),
        # so the gap to the exact rotation is ~theta^3/3 (0.169 at pi/4)
        so = SpecialOrthogonal(2)
        theta = math.pi / 4
        omega = np.array([[0.0, -theta], [theta, 0.0]])
        r = so.retract(np.eye(2), omega)
        assert so.membership_residual(r) <= 1e-12
        assert np.linalg.norm(r - expm(omega)) <= 0.2

    def test_so2_first_order_agreement(self):
        so = SpecialOrthogonal(2)
        for theta in (0.05, 0.01):
            omega = np.array([[0.0, -theta], [theta, 0.0]])
            r = so.retract(np.eye(2), omega)
            assert np.linalg.norm(r - expm(omega)) <= theta**3

    def test_so_stays_special(self, rng):
        so = SpecialOrthogonal(3)
        for _ in range(20):
            q = so.random_point(rng)
            x = so.random_tangent(q, rng)
            assert so.membership_residual(so.retract(q, x)) <= 1e-10


class TestInverseRetract:
    def test_box_difference(self):
        geom = Geometry(BoxBounds.unbounded(1))
        v = geom.inverse_retract(ProductPoint([0.0]), ProductPoint([1.0]))
        assert_allclose(v.euclidean, [1.0])

    def test_sphere_log(self):
        sph = Sphere(3)
        v = sph.inverse_retract(e(0, 3), e(1, 3))
        assert_allclose(v, (math.pi / 2) * e(1, 3), atol=1e-10)

    def test_sphere_antipodal_raises(self):
        sph = Sphere(3)
        with pytest.raises(GeometryError):
            sph.inverse_retract(e(0, 3), -e(0, 3))

    def test_so3_round_trip(self, rng):
        so = SpecialOrthogonal(3)
        for _ in range(20):
            p = so.random_point(rng)
            x = 0.3 * so.random_tangent(p, rng)
            q = so.retract(p, x)
            v = so.inverse_retract(p, q)
            q2 = so.retract(p, v)
            assert np.max(np.abs(q2 - q)) <= 1e-8

    def test_so3_singular_leading_block_raises(self):
        # A quarter turn about the third axis: x^T y is invertible, but its
        # leading 1 x 1 block is zero, so no QR step from p reaches q.
        so = SpecialOrthogonal(3)
        q = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(GeometryError):
            so.inverse_retract(np.eye(3), q)

    def test_stiefel_round_trip(self, rng):
        st = Stiefel(2, 5)
        for _ in range(20):
            p = st.random_point(rng)
            x = 0.3 * st.random_tangent(p, rng)
            v = st.inverse_retract(p, st.retract(p, x))
            assert np.max(np.abs(v - x)) <= 1e-7 * (1.0 + np.max(np.abs(x)))


class TestTransport:
    def test_box_identity(self):
        geom = Geometry(BoxBounds.unbounded(2))
        p = ProductPoint(np.zeros(2))
        rows = np.array([[1.0, -2.0], [0.5, 3.0]])
        out = rows.copy()
        geom.transport(p, ProductTangent([0.3, 0.4]), out)
        assert_allclose(out, rows)

    def test_sphere_quarter_circle_parallel(self):
        sph = Sphere(3)
        out = sph.transport(e(0, 3), (math.pi / 2) * e(1, 3), e(1, 3))
        assert_allclose(out, -e(0, 3), atol=1e-12)

    def test_stiefel_tangency_at_target(self, rng):
        st = Stiefel(3, 5)
        for _ in range(20):
            p = st.random_point(rng)
            x = st.random_tangent(p, rng)
            v = st.random_tangent(p, rng)
            q = st.retract(p, x)
            assert st.tangency_residual(q, st.transport(p, x, v)) <= 1e-10


class TestTangentConeProjection:
    def test_lower_bound_blocks_decrease(self):
        geom = Geometry(BoxBounds(np.array([0.0]), np.array([1.0])))
        out = geom.project_tangent_cone(ProductPoint([0.0]), ProductTangent([-1.0]))
        assert_allclose(out.euclidean, [0.0])

    def test_upper_bound_blocks_increase(self):
        geom = Geometry(BoxBounds(np.array([0.0]), np.array([1.0])))
        out = geom.project_tangent_cone(ProductPoint([1.0]), ProductTangent([2.0]))
        assert_allclose(out.euclidean, [0.0])

    def test_interior_unchanged(self, rng):
        geom = Geometry(BoxBounds(np.array([0.0, 0.0]), np.array([1.0, 1.0])))
        p = ProductPoint([0.5, 0.25])
        x = ProductTangent(rng.standard_normal(2))
        assert_allclose(geom.project_tangent_cone(p, x).euclidean, x.euclidean)

    def test_manifold_part_untouched(self, rng):
        geom = Geometry(BoxBounds(np.array([0.0]), np.array([1.0])), Sphere(3))
        p = ProductPoint([0.0], e(0, 3))
        x = ProductTangent([-3.0], e(1, 3))
        out = geom.project_tangent_cone(p, x)
        assert out.euclidean[0] == 0.0
        assert_allclose(out.manifold, x.manifold)

    def test_idempotent_exactly(self, rng):
        geom = Geometry(BoxBounds(np.zeros(4), np.ones(4)))
        for _ in range(100):
            p = ProductPoint(np.round(rng.random(4)))  # all coordinates on bounds
            x = ProductTangent(rng.standard_normal(4))
            once = geom.project_tangent_cone(p, x)
            twice = geom.project_tangent_cone(p, once)
            assert np.array_equal(once.euclidean, twice.euclidean)


class TestMaxStepsize:
    def test_box_only_unbounded(self):
        geom = Geometry(BoxBounds.unbounded(3))
        assert geom.max_stepsize() == np.inf

    def test_sphere_pi(self):
        assert Geometry(BoxBounds.empty(), Sphere(3)).max_stepsize() == math.pi

    def test_product_takes_minimum(self):
        geom = Geometry(BoxBounds.unbounded(2), Sphere(3))
        assert geom.max_stepsize() == math.pi


@pytest.mark.parametrize(
    "manifold",
    [Sphere(4), SpecialOrthogonal(3), Stiefel(2, 5)],
    ids=["sphere", "so3", "stiefel"],
)
def test_manifold_invariants(manifold, rng):
    """Membership, tangency, transport and round-trip residuals on random data."""
    for _ in range(200):
        p = manifold.random_point(rng)
        assert manifold.membership_residual(p) <= 1e-10
        x = manifold.random_tangent(p, rng)
        assert manifold.tangency_residual(p, x) <= 1e-10
        q = manifold.retract(p, x)
        assert manifold.membership_residual(q) <= 1e-10
        v = manifold.random_tangent(p, rng)
        assert manifold.tangency_residual(q, manifold.transport(p, x, v)) <= 1e-10
        small = (0.2 * manifold.max_stepsize) * manifold.random_tangent(p, rng)
        back = manifold.inverse_retract(p, manifold.retract(p, small))
        assert np.max(np.abs(back - small)) <= 1e-7 * (1.0 + np.max(np.abs(small)))
