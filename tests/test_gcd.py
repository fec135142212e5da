"""Generalized Cauchy direction tests: breakpoints, segment updates, search."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import rlbfgsb as rb
import rlbfgsb.gcd as gcd_mod
import rlbfgsb.solver as solver_mod
from rlbfgsb import (
    BoxBounds,
    GcdStatus,
    Geometry,
    LbfgsMemory,
    ProductPoint,
    ProductTangent,
    Sphere,
    Stiefel,
    bss_problem,
    compute_breakpoints,
    euclidean_suite,
    generalized_cauchy_direction,
    segment_values,
    solve,
    surrogate_init,
    synth_bss,
)

from conftest import (
    box_geometry,
    dense_bfgs_matrix,
    fill_memory,
    path_first_local_minimizer,
    random_box_instance,
)


class TestComputeBreakpoints:
    def test_travel_time_to_lower(self):
        b = BoxBounds(np.array([0.0]), np.array([1.0]))
        out = compute_breakpoints(b, np.array([0.5]), np.array([-1.0]))
        assert_allclose(out.times, [0.5])

    def test_zero_direction_is_infinite(self):
        b = BoxBounds(np.array([0.0]), np.array([1.0]))
        out = compute_breakpoints(b, np.array([0.5]), np.array([0.0]))
        assert out.times[0] == np.inf

    def test_travel_time_to_upper(self):
        b = BoxBounds(np.array([0.0]), np.array([1.0]))
        out = compute_breakpoints(b, np.array([0.25]), np.array([0.5]))
        assert_allclose(out.times, [1.5])

    def test_infinite_facing_bound(self):
        b = BoxBounds(np.array([0.0]), np.array([np.inf]))
        out = compute_breakpoints(b, np.array([0.5]), np.array([2.0]))
        assert out.times[0] == np.inf

    def test_at_bound_moving_in_never_walked(self):
        b = BoxBounds(np.array([0.0]), np.array([1.0]))
        out = compute_breakpoints(b, np.array([0.0]), np.array([-1.0]), t_manifold_max=5.0)
        assert out.times[0] == 0.0
        assert list(out.walk()) == [(5.0, -1)]

    def test_walk_sorted_with_sentinel(self):
        b = BoxBounds(np.zeros(3), np.array([1.0, 2.0, 3.0]))
        out = compute_breakpoints(b, np.zeros(3), np.ones(3), t_manifold_max=2.5)
        walked = list(out.walk())
        assert [i for _, i in walked] == [0, 1, -1, 2]
        times = [t for t, _ in walked]
        assert times == sorted(times)

    def test_sentinel_ahead_of_tied_breakpoint(self):
        b = BoxBounds(np.zeros(3), np.array([3.0, 2.0, 2.0]))
        out = compute_breakpoints(b, np.zeros(3), np.ones(3), t_manifold_max=2.0)
        assert list(out.walk()) == [(2.0, -1), (2.0, 1), (2.0, 2), (3.0, 0)]

    def test_subnormal_component_overflows_to_inf_quietly(self):
        # A finite offset over 5e-324 overflows the division; the time is
        # +inf either way, and no floating-point warning reaches the caller.
        b = BoxBounds(-np.ones(2), np.ones(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = compute_breakpoints(b, np.zeros(2), np.array([5e-324, -5e-324]))
        assert np.all(out.times == np.inf)


class TestSurrogateInit:
    def test_empty_memory(self):
        geom = box_geometry([-1.0], [1.0])
        p = ProductPoint([0.0])
        state = surrogate_init(LbfgsMemory(), geom, p, ProductTangent([1.0]))
        for v in (state.c, state.p):
            assert v.shape == (0,)

    def test_single_pair_inner_products(self):
        geom = Geometry(BoxBounds.unbounded(2))
        p = ProductPoint(np.zeros(2))
        mem = LbfgsMemory()
        s = ProductTangent([1.0, 0.0])
        y = ProductTangent([1.0, 1.0])
        mem.push(geom, p, s, y)
        state = surrogate_init(mem, geom, p, s)
        assert_allclose(state.p, [1.0, 1.0])  # <s, s>, <y, s>
        assert_allclose(state.c, [0.0, 0.0])

    def test_matches_memory_coefficients(self, rng):
        geom = Geometry(BoxBounds.unbounded(4))
        p = ProductPoint(np.zeros(4))
        mem = fill_memory(geom, p, rng, pushes=3)
        d = geom.random_tangent(p, rng)
        state = surrogate_init(mem, geom, p, d)
        rows = [geom.inner(p, v, d) for pr in mem.pairs for v in (pr.s, pr.y)]
        assert_allclose(state.p, rows)


def _walk_segments(geom, p, grad, d, mem):
    """Drive the incremental updates over all finite breakpoints in walk order.

    Yields, after each transition, the incrementally updated ``(f1, f2)``
    together with the segment data needed for from-scratch checks.
    """
    bps = compute_breakpoints(geom.box, p.euclidean, d.euclidean)
    transitions = sorted(
        [(float(t), i) for i, t in enumerate(bps.times) if 0.0 < t < np.inf]
    )
    f1 = geom.inner(p, grad, d)
    f2 = mem.pairing(geom, p, d, d)
    state = surrogate_init(mem, geom, p, d)
    t_old = 0.0
    for t, b in transitions:
        dt = t - t_old
        d_b = float(d.euclidean[b])
        g_b = float(grad.euclidean[b])
        v1, v2 = segment_values(state, mem, t, dt, b, d_b)
        f1 = f1 + dt * f2 - d_b * (g_b + v1)
        f2 = f2 - 2.0 * d_b * v2 + d_b * d_b * mem.basis_diag(b)
        t_old = t
        yield t, b, v1, v2, f1, f2


def _path_pieces(geom, p, d, t):
    """Explicit moving direction and path point just after time ``t``.

    The manifold part, if any, never stops: it is ``d_M`` in the direction
    and ``t d_M`` in the path point.
    """
    times = compute_breakpoints(geom.box, p.euclidean, d.euclidean).times
    d_m = d.manifold
    d_hat = ProductTangent(np.where(times > t, d.euclidean, 0.0), d_m)
    z = ProductTangent(
        np.clip(p.euclidean + t * d.euclidean, geom.box.lower, geom.box.upper)
        - p.euclidean,
        None if d_m is None else t * d_m,
    )
    return d_hat, z


def _check_segment_values_from_scratch(rng, manifold, hits_needed):
    """Compare ``v1``/``v2`` of the walk with pairings of explicit path pieces."""
    hits = 0
    while hits < hits_needed:
        n = 4
        lower = -rng.random(n) - 0.1
        upper = rng.random(n) + 0.1
        geom = Geometry(BoxBounds(lower, upper), manifold)
        p = geom.random_point(rng)
        mem = fill_memory(geom, p, rng, pushes=2, capacity=2)
        grad = geom.random_tangent(p, rng)
        d = geom.random_tangent(p, rng)
        zero_m = None if manifold is None else np.zeros(manifold.shape)
        t_prev = 0.0
        for t, b, v1, v2, _, _ in _walk_segments(geom, p, grad, d, mem):
            e_b = np.zeros(n)
            e_b[b] = 1.0
            eb = ProductTangent(e_b, zero_m)
            d_hat_prev, _ = _path_pieces(geom, p, d, t_prev)
            _, z_next = _path_pieces(geom, p, d, t)
            v1_ref = mem.pairing(geom, p, eb, z_next)
            v2_ref = mem.pairing(geom, p, eb, d_hat_prev)
            assert abs(v1 - v1_ref) <= 1e-10 * (1.0 + abs(v1_ref))
            assert abs(v2 - v2_ref) <= 1e-10 * (1.0 + abs(v2_ref))
            t_prev = t
            hits += 1


class TestSegmentValues:
    def test_identity_hessian_example(self):
        geom = box_geometry([-2.0], [2.0])
        p = ProductPoint([0.0])
        mem = LbfgsMemory()  # theta = 1
        state = surrogate_init(mem, geom, p, ProductTangent([-1.0]))
        v1, v2 = segment_values(state, mem, t=1.0, dt=1.0, b=0, d_b=-1.0)
        assert v1 == -1.0
        assert v2 == -1.0

    def test_values_match_from_scratch_pairing(self, rng):
        _check_segment_values_from_scratch(rng, None, hits_needed=25)

    def test_mixed_geometry_matches_from_scratch_pairing(self, rng):
        # Box coordinates come first in the packed layout, then the raveled
        # Stiefel part; a column taken from the wrong place shows up here.
        _check_segment_values_from_scratch(rng, Stiefel(2, 3), hits_needed=50)


class TestIncrementalUpdates:
    def test_slope_and_curvature_match_from_scratch(self, rng):
        checked = 0
        while checked < 60:
            geom, p, grad, d, mem = random_box_instance(rng)
            for t, b, _, _, f1, f2 in _walk_segments(geom, p, grad, d, mem):
                d_hat, z = _path_pieces(geom, p, d, t)
                f1_ref = geom.inner(p, grad, d_hat) + mem.pairing(geom, p, d_hat, z)
                f2_ref = mem.pairing(geom, p, d_hat, d_hat)
                assert abs(f1 - f1_ref) <= 1e-9 * (1.0 + abs(f1_ref))
                assert abs(f2 - f2_ref) <= 1e-9 * (1.0 + abs(f2_ref))
                checked += 1

    def test_tied_breakpoints_are_exact(self):
        # two coordinates hit their bounds at exactly the same time
        geom = box_geometry([-1.0, -1.0, -5.0], [1.0, 1.0, 5.0])
        p = ProductPoint(np.zeros(3))
        mem = LbfgsMemory()
        mem.push(
            geom,
            p,
            ProductTangent([1.0, 0.5, -0.5]),
            ProductTangent([0.8, 0.7, -0.2]),
        )
        grad = ProductTangent([1.0, 2.0, -0.5])
        d = ProductTangent([-1.0, -1.0, 0.3])  # breakpoints at 1, 1, and 16.7
        final = None
        for out in _walk_segments(geom, p, grad, d, mem):
            final = out
        t, _, _, _, f1, f2 = final
        d_hat, z = _path_pieces(geom, p, d, t)
        f1_ref = geom.inner(p, grad, d_hat) + mem.pairing(geom, p, d_hat, z)
        f2_ref = mem.pairing(geom, p, d_hat, d_hat)
        assert abs(f1 - f1_ref) <= 1e-9 * (1.0 + abs(f1_ref))
        assert abs(f2 - f2_ref) <= 1e-9 * (1.0 + abs(f2_ref))


class TestCauchyDirectionExamples:
    def test_minimizer_exactly_at_bound(self):
        geom = box_geometry([-1.0], [np.inf])
        p = ProductPoint([0.0])
        out = generalized_cauchy_direction(
            geom, p, ProductTangent([1.0]), ProductTangent([-1.0]), LbfgsMemory(), np.inf
        )
        assert out.status is GcdStatus.FOUND
        assert_allclose(out.direction.euclidean, [-1.0])

    def test_interior_minimizer_before_bound(self):
        geom = box_geometry([-2.0], [np.inf])
        p = ProductPoint([0.0])
        out = generalized_cauchy_direction(
            geom, p, ProductTangent([1.0]), ProductTangent([-1.0]), LbfgsMemory(), np.inf
        )
        assert out.status is GcdStatus.FOUND
        assert_allclose(out.direction.euclidean, [-1.0])

    def test_orthogonal_gradient_not_found(self):
        geom = box_geometry([-1.0, -1.0], [1.0, 1.0])
        p = ProductPoint([0.0, 0.0])
        out = generalized_cauchy_direction(
            geom, p, ProductTangent([1.0, 0.0]), ProductTangent([0.0, -1.0]), LbfgsMemory(), np.inf
        )
        assert out.status is GcdStatus.NOT_FOUND
        assert np.linalg.norm(out.direction.euclidean) == 0.0

    def test_unbounded_direction_unlimited(self):
        geom = box_geometry([-np.inf, -np.inf], [np.inf, np.inf])
        p = ProductPoint([0.0, 0.0])
        out = generalized_cauchy_direction(
            geom, p, ProductTangent([1.0, 1.0]), ProductTangent([-1.0, -1.0]), LbfgsMemory(), np.inf
        )
        assert out.status is GcdStatus.FOUND
        assert_allclose(out.direction.euclidean, [-1.0, -1.0])

    def test_manifold_cap_limits_step(self):
        # pure-sphere instance whose segment minimizer overshoots the cap
        sph = Sphere(3)
        geom = Geometry(BoxBounds.empty(), sph)
        p = ProductPoint(np.zeros(0), np.array([1.0, 0.0, 0.0]))
        g = ProductTangent(np.zeros(0), np.array([0.0, 1.0, 0.0]))
        d = -0.1 * g  # f' = -0.1 |g|^2, f'' = 0.01 |g|^2, minimizer at t = 10
        out = generalized_cauchy_direction(geom, p, g, d, LbfgsMemory(), math.pi)
        assert out.status is GcdStatus.FOUND
        assert_allclose(np.linalg.norm(out.direction.manifold), math.pi * 0.1, rtol=1e-12)

    def test_default_sentinel_measures_length(self):
        # the unit-step minimizer has length |g| = 8; the default sentinel at
        # max_stepsize / |d_M| = pi / 8 stops the path at length pi, and a
        # short direction keeps its model minimizer
        geom = Geometry(BoxBounds.empty(), Sphere(3))
        p = ProductPoint(np.zeros(0), np.array([1.0, 0.0, 0.0]))
        for scale, length in ((8.0, math.pi), (0.5, 0.5)):
            g = ProductTangent(np.zeros(0), np.array([0.0, scale, 0.0]))
            out = generalized_cauchy_direction(geom, p, g, -1.0 * g, LbfgsMemory())
            assert out.status is GcdStatus.FOUND
            assert np.linalg.norm(out.direction.manifold) == length


class TestCauchyDirectionProperties:
    def test_first_local_minimizer_oracle(self, rng):
        for _ in range(300):
            geom, p, grad, d, mem = random_box_instance(rng)
            out = generalized_cauchy_direction(geom, p, grad, d, mem, np.inf)
            if out.status is GcdStatus.NOT_FOUND:
                continue
            n = geom.box.n
            h = dense_bfgs_matrix(mem, n)
            times = compute_breakpoints(geom.box, p.euclidean, d.euclidean).times
            _, q_ref = path_first_local_minimizer(
                p.euclidean, d.euclidean, grad.euclidean, h, geom.box.lower, geom.box.upper, times
            )
            z = out.direction.euclidean
            q_got = z @ grad.euclidean + 0.5 * z @ h @ z
            assert abs(q_got - q_ref) <= 1e-8 * (1.0 + abs(q_ref))

    def test_output_feasible(self, rng):
        for _ in range(500):
            geom, p, grad, d, mem = random_box_instance(rng)
            out = generalized_cauchy_direction(geom, p, grad, d, mem, np.inf)
            if out.status is GcdStatus.NOT_FOUND:
                continue
            target = p.euclidean + out.direction.euclidean
            assert np.all(target >= geom.box.lower)
            assert np.all(target <= geom.box.upper)

    @pytest.mark.parametrize("pairs", [0, 5])
    def test_large_box_oracle(self, rng, pairs):
        # n in [50, 400] with tight bounds, so the walk crosses many breakpoints
        # and runs through several chunks; pairs with y = A s (A diagonal near I)
        # keep theta near 1 so a filled memory does not stop the path early.
        for _ in range(6):
            n = int(rng.integers(50, 401))
            geom = box_geometry(-rng.uniform(0.01, 0.5, n), rng.uniform(0.01, 0.5, n))
            p = geom.random_point(rng)
            mem = LbfgsMemory(capacity=5)
            for _ in range(pairs):
                s = rng.standard_normal(n)
                mem.push(geom, p, ProductTangent(s), ProductTangent(rng.uniform(0.5, 1.5, n) * s))
            assert mem.size == pairs
            grad = ProductTangent(rng.standard_normal(n))
            d = -1.0 * grad
            out = generalized_cauchy_direction(geom, p, grad, d, mem, np.inf)
            assert out.status is GcdStatus.FOUND
            h = dense_bfgs_matrix(mem, n)
            times = compute_breakpoints(geom.box, p.euclidean, d.euclidean).times
            t_ref, q_ref = path_first_local_minimizer(
                p.euclidean, d.euclidean, grad.euclidean, h, geom.box.lower, geom.box.upper, times
            )
            assert np.count_nonzero(times < t_ref) >= 40
            z = out.direction.euclidean
            q_got = z @ grad.euclidean + 0.5 * z @ h @ z
            assert abs(q_got - q_ref) <= 1e-8 * abs(q_ref)
            target = p.euclidean + z
            assert np.all(target >= geom.box.lower)
            assert np.all(target <= geom.box.upper)

    def test_unit_multiplier_always_feasible(self, rng):
        for _ in range(300):
            geom, p, grad, d, mem = random_box_instance(rng)
            out = generalized_cauchy_direction(geom, p, grad, d, mem, np.inf)
            if out.status is GcdStatus.NOT_FOUND:
                continue
            q = geom.retract(p, 1.0 * out.direction)
            assert geom.box.violation(q.euclidean) == 0.0

    def test_not_found_zero_direction(self, rng):
        geom = box_geometry([-1.0], [1.0])
        p = ProductPoint([0.5])
        out = generalized_cauchy_direction(
            geom, p, ProductTangent([0.0]), ProductTangent([1.0]), LbfgsMemory(), np.inf
        )
        assert out.status is GcdStatus.NOT_FOUND
        assert np.linalg.norm(out.direction.euclidean) == 0.0


def _bench_shape_instance(rng):
    """Box ``[-1, 1]^600`` x ``Stiefel(3, 3)`` with ten pairs near ``theta I``.

    With ``y`` a positive diagonal scaling of ``s`` the model stays close to
    a multiple of the identity, so the steepest-descent path crosses about
    200 breakpoints before its minimizer, as the longest searches of the
    ``bss-large`` benchmark do.
    """
    n = 600
    geom = Geometry(BoxBounds(-np.ones(n), np.ones(n)), Stiefel(3, 3))
    p = geom.random_point(rng)
    mem = LbfgsMemory(capacity=10)
    for _ in range(10):
        s = geom.random_tangent(p, rng)
        scale = rng.uniform(0.5, 1.5, n)
        y = ProductTangent(scale * s.euclidean, rng.uniform(0.5, 1.5) * s.manifold)
        mem.push(geom, p, s, y)
    assert mem.size == 10
    grad = geom.random_tangent(p, rng)
    return geom, p, grad, -1.0 * grad, mem


class TestManyCrossings:
    def test_bench_shape_oracle(self, rng, monkeypatch):
        crossed = []

        def spy(state, mem, t, dt, b, d_b):
            out = segment_values(state, mem, t, dt, b, d_b)
            crossed.append((t, b))
            ref = mem.basis_diag(b)
            assert abs(state.diag - ref) <= 1e-12 * (1.0 + abs(ref))
            return out

        monkeypatch.setattr(gcd_mod, "segment_values", spy)
        for _ in range(2):
            geom, p, grad, d, mem = _bench_shape_instance(rng)
            crossed.clear()
            out = generalized_cauchy_direction(geom, p, grad, d, mem)
            assert out.status is GcdStatus.FOUND
            assert len(crossed) >= 100

            # Re-drive the incremental updates over the same crossings and
            # check each against from-scratch pairings of the path pieces.
            f1 = geom.inner(p, grad, d)
            f2 = mem.pairing(geom, p, d, d)
            state = surrogate_init(mem, geom, p, d)
            t_old = 0.0
            for t, b in crossed:
                d_b = float(d.euclidean[b])
                v1, v2 = segment_values(state, mem, t, t - t_old, b, d_b)
                f1 = f1 + (t - t_old) * f2 - d_b * (float(grad.euclidean[b]) + v1)
                f2 = f2 - 2.0 * d_b * v2 + d_b * d_b * state.diag
                t_old = t
                d_hat, z = _path_pieces(geom, p, d, t)
                f1_ref = geom.inner(p, grad, d_hat) + mem.pairing(geom, p, d_hat, z)
                f2_ref = mem.pairing(geom, p, d_hat, d_hat)
                assert abs(f1 - f1_ref) <= 1e-9 * (1.0 + abs(f1_ref))
                assert abs(f2 - f2_ref) <= 1e-9 * (1.0 + abs(f2_ref))

            target = p.euclidean + out.direction.euclidean
            assert np.all(target >= geom.box.lower)
            assert np.all(target <= geom.box.upper)


class TestCauchyCallCounts:
    """Algorithm CP's cost: ``X d`` at most once per search and none when handed over.

    ``X`` and ``M`` are read once per search, for one ``M w_b`` per crossing.
    """

    COUNTED = (
        "coefficients", "bilinear", "rows_and_middle", "basis_coefficients", "pairing",
        "basis_diag",
    )

    def test_one_middle_product_per_crossing(self, monkeypatch):
        counts = dict.fromkeys(self.COUNTED + ("crossings",), 0)
        per_call = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        def search(*args, **kwargs):
            before = dict(counts)
            out = generalized_cauchy_direction(*args, **kwargs)
            per_call.append({k: counts[k] - before[k] for k in counts})
            per_call[-1]["hd"] = kwargs.get("hd") is not None
            per_call[-1]["xd"] = kwargs.get("xd") is not None
            return out

        for name in self.COUNTED:
            monkeypatch.setattr(LbfgsMemory, name, counted(name, getattr(LbfgsMemory, name)))
        monkeypatch.setattr(gcd_mod, "segment_values", counted("crossings", segment_values))
        monkeypatch.setattr(solver_mod, "generalized_cauchy_direction", search)

        bss = bss_problem(synth_bss(k=3, r=3, n=50, amplitude=1.0, seed=0, lam=0.1))
        solve(bss, bss.initial_point)
        for prob in euclidean_suite():
            solve(prob, prob.initial_point)
        assert len(per_call) > 100
        assert sum(c["crossings"] for c in per_call) >= 30
        # both kinds of search occur, and some that are handed H[d] cross a bound
        assert 0 < sum(c["hd"] for c in per_call) < len(per_call)
        assert any(c["hd"] and c["crossings"] for c in per_call)
        # every search but those after a reset is handed X d, some of them crossing
        assert any(c["xd"] and c["crossings"] for c in per_call)
        assert any(c["xd"] and not c["hd"] for c in per_call)
        for c in per_call:
            # without H[d], <d, H[d]> takes X d and bilinear's product up front;
            # with it, X d waits for the first crossing and bilinear never runs;
            # handed X d, the search forms none
            used = not c["hd"] or c["crossings"]
            assert c["coefficients"] == (1 if used and not c["xd"] else 0)
            assert c["bilinear"] == (0 if c["hd"] else 1)
            assert c["rows_and_middle"] == (1 if used else 0)
            assert c["basis_coefficients"] == 0
        assert counts["pairing"] == 0
        assert counts["basis_diag"] == 0

    def test_breakpoints_only_with_a_box(self, monkeypatch):
        # Without a box the walk is the sentinel alone: no breakpoint times
        # are computed and the step stops at the radius, pi; with a box, one
        # set per search.
        calls, outcomes = [0], []

        def counted(*args):
            calls[0] += 1
            return compute_breakpoints(*args)

        def search(*args, **kwargs):
            outcomes.append(generalized_cauchy_direction(*args, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(gcd_mod, "compute_breakpoints", counted)
        monkeypatch.setattr(solver_mod, "generalized_cauchy_direction", search)

        rng = np.random.default_rng(3)
        b = rng.standard_normal((8, 8))
        a, sph = b + b.T, Sphere(8)

        def grad(p):
            x = p.manifold
            return ProductTangent(np.zeros(0), sph.project_tangent(x, 2.0 * a @ x))

        geom = Geometry(BoxBounds.empty(), sph)
        rayleigh = rb.Problem(geom, lambda p: float(p.manifold @ a @ p.manifold), grad)
        solve(rayleigh, ProductPoint(np.zeros(0), sph.random_point(rng)))
        assert len(outcomes) > 10
        assert calls[0] == 0
        assert all(out.status is GcdStatus.FOUND for out in outcomes)
        lengths = [np.linalg.norm(out.direction.manifold) for out in outcomes]
        assert max(lengths) <= math.pi * (1.0 + 4.0 * np.finfo(float).eps)

        outcomes.clear()
        for prob in euclidean_suite():
            solve(prob, prob.initial_point)
        assert len(outcomes) > 10
        assert calls[0] == len(outcomes)
