"""Solver iteration tests: worked steps, termination, accounting, feasibility."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import rlbfgsb as rb
from rlbfgsb import (
    BoxBounds,
    Geometry,
    LbfgsMemory,
    Problem,
    ProductPoint,
    ProductTangent,
    SolverOptions,
    Sphere,
    Stiefel,
    Termination,
    bss_problem,
    euclidean_suite,
    init_state,
    solve,
    step,
    synth_bss,
)


def box_problem(lower, upper, cost, grad, name=""):
    geom = Geometry(BoxBounds(np.asarray(lower, float), np.asarray(upper, float)))
    return Problem(
        geometry=geom,
        cost=lambda p: float(cost(p.euclidean)),
        gradient=lambda p: ProductTangent(np.asarray(grad(p.euclidean), float)),
        name=name,
    )


def quadratic_1d():
    return box_problem([-1.0], [1.0], lambda x: x[0] ** 2, lambda x: [2.0 * x[0]])


def rayleigh_problem():
    a = np.diag([1.0, 2.0, 3.0])
    sph = Sphere(3)
    geom = Geometry(BoxBounds.empty(), sph)

    def cost(p):
        return float(p.manifold @ a @ p.manifold)

    def grad(p):
        return ProductTangent(np.zeros(0), sph.project_tangent(p.manifold, 2.0 * a @ p.manifold))

    return Problem(geometry=geom, cost=cost, gradient=grad, name="rayleigh")


def steepest_norm(geom, p, g):
    """The solver's projected gradient norm at ``p`` for the constant gradient ``g``."""
    prob = Problem(geometry=geom, cost=lambda q: 0.0, gradient=lambda q: g)
    state = init_state(prob, p, SolverOptions())
    return geom.norm(state.point, state.steepest)


class TestProjectedGradientNorm:
    def test_interior_full_norm(self):
        geom = Geometry(BoxBounds(np.array([0.0]), np.array([1.0])))
        p = ProductPoint([0.5])
        assert steepest_norm(geom, p, ProductTangent([3.0])) == 3.0

    def test_active_bound_kills_component(self):
        geom = Geometry(BoxBounds(np.array([0.0]), np.array([1.0])))
        p = ProductPoint([0.0])
        assert steepest_norm(geom, p, ProductTangent([3.0])) == 0.0

    def test_manifold_part_always_counts(self):
        sph = Sphere(3)
        geom = Geometry(BoxBounds(np.array([0.0]), np.array([1.0])), sph)
        p = ProductPoint([0.0], np.array([1.0, 0.0, 0.0]))
        g = ProductTangent([3.0], np.array([0.0, 2.0, 0.0]))
        assert_allclose(steepest_norm(geom, p, g), 2.0)


class TestStep:
    def test_quadratic_single_step(self):
        prob = quadratic_1d()
        state = init_state(prob, ProductPoint([0.5]), SolverOptions())
        step(state, prob, SolverOptions())
        assert abs(state.point.euclidean[0]) <= 1e-8

    def test_linear_clamps_in_one_step(self):
        prob = box_problem([0.0], [1.0], lambda x: x[0], lambda x: [1.0])
        state = init_state(prob, ProductPoint([0.5]), SolverOptions())
        step(state, prob, SolverOptions())
        assert state.point.euclidean[0] == 0.0
        assert prob.geometry.norm(state.point, state.steepest) == 0.0


class TestSolve:
    def test_rayleigh_reaches_smallest_eigenvalue(self, rng):
        prob = rayleigh_problem()
        p0 = ProductPoint(np.zeros(0), prob.geometry.manifold.random_point(rng))
        res = solve(prob, p0, SolverOptions(pg_tolerance=1e-8))
        assert abs(res.cost - 1.0) <= 1e-8
        assert abs(abs(res.point.manifold[0]) - 1.0) <= 1e-6

    def test_monotone_cost(self, rng):
        prob = box_problem(
            [-2.0, -2.0],
            [2.0, 2.0],
            lambda x: (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2,
            lambda x: [
                -2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
                200 * (x[1] - x[0] ** 2),
            ],
            name="rosenbrock",
        )
        costs = []
        solve(
            prob,
            ProductPoint([-1.0, 1.0]),
            SolverOptions(pg_tolerance=1e-8),
            callback=lambda k, p, f, pg: costs.append(f),
        )
        assert all(b < a for a, b in zip(costs, costs[1:]))
        assert abs(costs[-1]) <= 1e-10

    def test_every_iterate_feasible(self):
        prob = box_problem(
            [0.0, 0.0],
            [1.0, 2.0],
            lambda x: (x[0] + 1.0) ** 2 + (x[1] - 3.0) ** 2,
            lambda x: [2 * (x[0] + 1.0), 2 * (x[1] - 3.0)],
        )
        violations = []
        res = solve(
            prob,
            ProductPoint([0.5, 0.5]),
            callback=lambda k, p, f, pg: violations.append(prob.geometry.box.violation(p.euclidean)),
        )
        assert max(violations) == 0.0
        assert_allclose(res.point.euclidean, [0.0, 2.0], atol=1e-9)

    def test_memory_pairs_tangent_after_steps(self, rng):
        prob = rayleigh_problem()
        sph = prob.geometry.manifold
        p0 = ProductPoint(np.zeros(0), sph.random_point(rng))
        state = init_state(prob, p0, SolverOptions())
        for _ in range(5):
            step(state, prob, SolverOptions())
            for pair in state.memory.pairs:
                assert sph.tangency_residual(state.point.manifold, pair.s.manifold) <= 1e-9
                assert sph.tangency_residual(state.point.manifold, pair.y.manifold) <= 1e-9

    def test_evaluation_accounting(self):
        counts = {"cost": 0, "grad": 0}
        base = quadratic_1d()

        def cost(p):
            counts["cost"] += 1
            return float(p.euclidean[0] ** 2)

        def grad(p):
            counts["grad"] += 1
            return ProductTangent(2.0 * p.euclidean)

        prob = Problem(geometry=base.geometry, cost=cost, gradient=grad)
        res = solve(prob, ProductPoint([0.7]))
        assert res.cost_evals == counts["cost"]
        assert res.grad_evals == counts["grad"]

    def test_pg_tolerance_exit_is_stationary(self):
        prob = quadratic_1d()
        res = solve(prob, ProductPoint([0.5]), SolverOptions(pg_tolerance=1e-8))
        assert res.termination is Termination.PG_TOLERANCE
        geom = prob.geometry
        final_pg = geom.norm(
            res.point, geom.project_tangent_cone(res.point, -prob.gradient(res.point))
        )
        assert final_pg <= 1e-8
        assert_allclose(final_pg, res.pg_norm)

    def test_max_iterations(self):
        prob = box_problem(
            [-1e6], [1e6], lambda x: np.hypot(1.0, x[0]), lambda x: [x[0] / np.hypot(1.0, x[0])]
        )
        res = solve(
            prob,
            ProductPoint([5e5]),
            SolverOptions(max_iterations=3, pg_tolerance=1e-14, cost_change_factor=1e-9),
        )
        assert res.iterations == 3
        assert res.termination is Termination.MAX_ITERATIONS

    def test_infeasible_start_rejected(self):
        prob = quadratic_1d()
        with pytest.raises(ValueError):
            solve(prob, ProductPoint([2.0]))

    @pytest.mark.parametrize("field", ["pg_tolerance", "cost_change_factor"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_tolerance_must_be_finite_positive(self, field, value):
        # nan <= 0 is False, so a sign test alone would admit NaN; a NaN
        # tolerance never stops a solve and an infinite one stops it at once
        with pytest.raises(ValueError):
            SolverOptions(**{field: value})

    def test_nonfinite_cost_rejected(self):
        prob = box_problem([-1.0], [1.0], lambda x: np.inf, lambda x: [0.0])
        with pytest.raises(ValueError):
            solve(prob, ProductPoint([0.0]))

    def test_line_search_failure_terminates(self):
        # gradient deliberately wrong: claims descent away from the minimum
        prob = box_problem([-1.0], [1.0], lambda x: x[0] ** 2, lambda x: [-1.0])
        res = solve(prob, ProductPoint([0.0]), SolverOptions())
        assert res.termination is Termination.LINE_SEARCH_FAILURE
        assert res.iterations == 0

    def test_initial_point_already_optimal(self):
        prob = quadratic_1d()
        res = solve(prob, ProductPoint([0.0]))
        assert res.iterations == 0
        assert res.termination is Termination.PG_TOLERANCE


class TestBoundActiveOptimum:
    def test_active_set_settles_exactly(self):
        # optimum at (0, 2): both bounds active; iterates must land exactly
        prob = box_problem(
            [0.0, 0.0],
            [1.0, 2.0],
            lambda x: (x[0] + 2.0) ** 2 + (x[1] - 5.0) ** 2,
            lambda x: [2 * (x[0] + 2.0), 2 * (x[1] - 5.0)],
        )
        res = solve(prob, ProductPoint([0.9, 0.1]), SolverOptions(pg_tolerance=1e-10))
        assert res.termination is Termination.PG_TOLERANCE
        assert res.point.euclidean[0] == 0.0
        assert res.point.euclidean[1] == 2.0

    def test_mixed_product_problem(self, rng):
        # box part pushed to bounds, sphere part to an eigenvector
        a = np.diag([1.0, 4.0, 9.0])
        sph = Sphere(3)
        geom = Geometry(BoxBounds(np.zeros(2), np.ones(2)), sph)

        def cost(p):
            x = p.euclidean
            return float((x[0] - 2.0) ** 2 + (x[1] + 1.0) ** 2 + p.manifold @ a @ p.manifold)

        def grad(p):
            x = p.euclidean
            return ProductTangent(
                [2 * (x[0] - 2.0), 2 * (x[1] + 1.0)],
                sph.project_tangent(p.manifold, 2.0 * a @ p.manifold),
            )

        prob = Problem(geometry=geom, cost=cost, gradient=grad)
        p0 = ProductPoint([0.5, 0.5], sph.random_point(rng))
        res = solve(prob, p0, SolverOptions(pg_tolerance=1e-8))
        assert res.point.euclidean[0] == 1.0
        assert res.point.euclidean[1] == 0.0
        assert abs(res.cost - ((1 - 2) ** 2 + 1 + 1.0)) <= 1e-7


def random_rayleigh(dim, seed):
    """``x^T A x`` on ``Sphere(dim)`` for a random symmetric ``A``."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((dim, dim))
    a = (b + b.T) / 2.0
    sph = Sphere(dim)
    prob = Problem(
        geometry=Geometry(BoxBounds.empty(), sph),
        cost=lambda p: float(p.manifold @ a @ p.manifold),
        gradient=lambda p: ProductTangent(
            np.zeros(0), sph.project_tangent(p.manifold, 2.0 * a @ p.manifold)
        ),
    )
    return prob, ProductPoint(np.zeros(0), sph.random_point(rng))


def spy(monkeypatch, owner, name, log):
    """Replace ``owner.name`` by a wrapper that appends each return value to ``log``."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        log.append(out)
        return out

    monkeypatch.setattr(owner, name, wrapper)


def spy_middle_builds(monkeypatch, log, fail_at=None):
    """Log each build of a nonempty middle matrix; the ``fail_at``-th one raises."""
    current = LbfgsMemory._current_middle

    def wrapper(mem):
        if mem._stale and mem.size:
            log.append(mem.size)
            if len(log) == fail_at:
                raise rb.SingularMiddleMatrix("forced")
        return current(mem)

    monkeypatch.setattr(LbfgsMemory, "_current_middle", wrapper)


class TestMemoryBookkeeping:
    def test_middle_built_only_where_read(self, monkeypatch):
        # BSS has an active face at every iterate, and its Cauchy search is
        # still handed H[d] wherever the cone projection keeps d = B q; such
        # a search builds M only when it crosses a breakpoint.  The box-free
        # Rayleigh solve is always handed H[d], crosses nothing and never
        # builds M.
        bss = bss_problem(synth_bss(k=3, r=3, n=50, amplitude=1.0, seed=0, lam=0.1))
        real = rb.solver.generalized_cauchy_direction
        for prob, p0, most in ((bss, bss.initial_point, 0.3), (*random_rayleigh(30, 0), 0)):
            builds, crossings, searches = [], [], []

            def search(geom, p, grad, d, mem, *rest, hd=None, xd=None):
                before = len(builds), len(crossings)
                out = real(geom, p, grad, d, mem, *rest, hd=hd, xd=xd)
                crossed = len(crossings) > before[1]
                searches.append((hd is not None, crossed, len(builds) - before[0]))
                return out

            with monkeypatch.context() as m:
                spy_middle_builds(m, builds)
                spy(m, rb.gcd, "segment_values", crossings)
                m.setattr(rb.solver, "generalized_cauchy_direction", search)
                res = solve(prob, p0)
            assert res.iterations >= 20
            assert sum(n for _, _, n in searches) == len(builds) <= most * res.iterations
            assert all(n <= 1 for _, _, n in searches)
            assert all(n == 0 for handed, crossed, n in searches if handed and not crossed)
            assert sum(handed for handed, _, _ in searches) > len(searches) / 2

    def test_step_report_counts_match_memory(self, monkeypatch):
        reports, pushes, transports = [], [], []
        spy(monkeypatch, rb.solver, "step", reports)
        spy(monkeypatch, LbfgsMemory, "push", pushes)
        spy(monkeypatch, LbfgsMemory, "transport", transports)
        # this BSS instance is one whose transport drops a pair
        bss = bss_problem(synth_bss(k=3, r=3, n=10, amplitude=1.0, seed=25, lam=0.1))
        for prob in euclidean_suite() + [bss]:
            solve(prob, prob.initial_point)
        assert sum(r.pair_rejected for r in reports) == pushes.count(False) > 0
        assert sum(r.pairs_dropped for r in reports) == sum(transports) > 0


def nan_gradient_after(problem, good_calls):
    """``problem`` whose gradient turns NaN after ``good_calls`` evaluations."""
    calls = []

    def gradient(p):
        calls.append(1)
        g = problem.gradient(p)
        return g * np.nan if len(calls) > good_calls else g

    return dataclasses.replace(problem, gradient=gradient)


def rosenbrock():
    return box_problem(
        [-np.inf, -np.inf],
        [np.inf, np.inf],
        lambda x: 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2,
        lambda x: [
            -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
            200.0 * (x[1] - x[0] ** 2),
        ],
    )


def box_stiefel_problem():
    """``|x - c|^2 + tr(W A W^T)`` on ``[0, 1]^3 x Stiefel(2, 4)``."""
    st = Stiefel(2, 4)
    a = np.diag([4.0, 3.0, 2.0, 1.0])
    c = np.array([0.5, 2.0, -1.0])
    geom = Geometry(BoxBounds(np.zeros(3), np.ones(3)), st)
    return Problem(
        geometry=geom,
        cost=lambda p: float(
            np.sum((p.euclidean - c) ** 2) + np.trace(p.manifold @ a @ p.manifold.T)
        ),
        gradient=lambda p: ProductTangent(
            2.0 * (p.euclidean - c), st.project_tangent(p.manifold, 2.0 * p.manifold @ a)
        ),
        initial_point=ProductPoint(np.full(3, 0.5), st.random_point(np.random.default_rng(3))),
    )


class TestNonFinite:
    def test_nan_gradient_is_not_convergence(self):
        # the 4th gradient evaluation is NaN, at a point far from the minimizer
        good = solve(rosenbrock(), ProductPoint([-1.2, 1.0]), SolverOptions(max_iterations=2))
        res = solve(nan_gradient_after(rosenbrock(), 3), ProductPoint([-1.2, 1.0]))
        assert res.termination is Termination.NON_FINITE
        assert res.iterations == 2
        assert res.grad_evals == 4
        assert_allclose(res.point.euclidean, good.point.euclidean, rtol=0, atol=0)
        assert res.cost == good.cost and res.pg_norm == good.pg_norm > 1.0

    def test_minus_inf_cost_stops_at_last_finite_iterate(self):
        prob = box_problem(
            [-np.inf], [np.inf], lambda x: -np.inf if x[0] > 0.5 else -x[0], lambda x: [-1.0]
        )
        res = solve(prob, ProductPoint([0.0]))
        assert res.termination is Termination.NON_FINITE
        assert res.iterations == 0
        assert res.point.euclidean[0] == 0.0 and res.cost == 0.0
        assert res.cost_evals == 2  # the start, then the unit step into the -inf region

    def test_nan_gradient_on_box_times_stiefel(self):
        prob = box_stiefel_problem()
        p0 = prob.initial_point
        good = solve(prob, p0, SolverOptions(max_iterations=5))
        res = solve(nan_gradient_after(prob, 6), p0)
        assert res.termination is Termination.NON_FINITE
        assert res.iterations == 5
        assert np.isfinite(res.cost) and np.isfinite(res.pg_norm)
        np.testing.assert_array_equal(res.point.manifold, good.point.manifold)
        np.testing.assert_array_equal(res.point.euclidean, good.point.euclidean)

    def test_norm_of_nan_tangent_is_nan(self):
        geom = Geometry(BoxBounds.unbounded(2))
        assert np.isnan(geom.norm(ProductPoint(np.zeros(2)), ProductTangent([np.nan, 0.0])))


class TestStepRadius:
    @pytest.mark.parametrize("c", [0.0, 100.0])
    def test_antipodal_first_trial(self, monkeypatch, c):
        # Cost c x_1 + 8 x_2 on Sphere(3) from e_1: the gradient there is 8 e_2,
        # so the model minimizer has length 8 and the sentinel at pi / 8 binds;
        # the first trial has length exactly pi and lands on the antipode -e_1.
        # With c = 0 its cost does not decrease and the search backtracks; with
        # c = 100 it is accepted and the solve continues from the antipode.
        sph = Sphere(3)
        a = np.array([c, 8.0, 0.0])
        prob = Problem(
            geometry=Geometry(BoxBounds.empty(), sph),
            cost=lambda p: float(a @ p.manifold),
            gradient=lambda p: ProductTangent(np.zeros(0), sph.project_tangent(p.manifold, a)),
        )
        lengths, costs, points = [], [], []
        retract = Sphere.retract

        def spy(self, p, x):
            lengths.append(float(np.linalg.norm(x)))
            return retract(self, p, x)

        monkeypatch.setattr(Sphere, "retract", spy)
        res = solve(
            prob,
            ProductPoint(np.zeros(0), np.array([1.0, 0.0, 0.0])),
            callback=lambda k, p, f, pg: costs.append(f) or points.append(p.manifold.copy()),
        )
        assert lengths[0] == np.pi
        assert np.allclose(points[1], [-1.0, 0.0, 0.0]) == (c > 0)
        assert all(later <= earlier for earlier, later in zip(costs, costs[1:]))
        assert res.termination in (Termination.PG_TOLERANCE, Termination.COST_STAGNATION)
        assert_allclose(res.cost, -np.linalg.norm(a), rtol=1e-10)

    def test_rayleigh_evaluations_per_iteration(self):
        # Backtracking from a unit step inside the radius mostly accepts the
        # first trial: 253 cost evaluations in 220 iterations (1.15) over
        # these solves, against 3.05 when the line search doubled the step.
        iterations = cost_evals = 0
        for seed in range(8):
            res = solve(*random_rayleigh(30, seed))
            assert res.termination in (Termination.PG_TOLERANCE, Termination.COST_STAGNATION)
            iterations += res.iterations
            cost_evals += res.cost_evals
        assert cost_evals / iterations <= 1.25


class TestLineSearchEvaluations:
    def test_report_counts_every_trial(self):
        # The start's evaluation plus every step's ls_evals is every cost
        # evaluation.  The last problem's cost rises along every step, so each
        # search fails after MAX_EVALS trials, before and after the reset.
        bss = bss_problem(synth_bss(k=3, r=3, n=10, amplitude=1.0, seed=0, lam=0.1))
        liar = box_problem([-1.0], [1.0], lambda x: 1.0 + (x[0] != 0.0), lambda x: [1.0])
        cases = [(bss, bss.initial_point), random_rayleigh(30, 0), (liar, ProductPoint([0.0]))]
        opts = SolverOptions()
        for prob, p0 in cases:
            calls = []
            counted = dataclasses.replace(
                prob, cost=lambda p, f=prob.cost: calls.append(1) or f(p)
            )
            state = init_state(counted, p0, opts)
            reports = []
            while len(reports) < 200 and (not reports or reports[-1].stop is None):
                reports.append(step(state, counted, opts))
            assert 1 + sum(r.ls_evals for r in reports) == len(calls)
        assert reports[-1].stop is Termination.LINE_SEARCH_FAILURE
        assert reports[-1].ls_evals == 2 * rb.linesearch.MAX_EVALS


class TestOneRetractionPerEvaluation:
    def test_stiefel_retractions_equal_line_search_evaluations(self, monkeypatch):
        # every retraction is a line-search trial; the start is not retracted
        retractions, reports = [], []
        spy(monkeypatch, Stiefel, "retract", retractions)
        spy(monkeypatch, rb.solver, "step", reports)
        bss = bss_problem(synth_bss(k=3, r=3, n=50, amplitude=1.0, seed=0, lam=0.1))
        res = solve(bss, bss.initial_point)
        assert res.iterations >= 20
        assert len(retractions) == res.cost_evals - 1

        assert sum(r.memory_resets for r in reports) == 0

        # the same solve with its third middle-matrix build failing: the
        # Cauchy search that reads it resets the memory and retries
        builds = []
        spy_middle_builds(monkeypatch, builds, fail_at=3)
        retractions.clear()
        reports.clear()
        res = solve(bss, bss.initial_point)
        assert len(builds) > 3
        assert sum(r.memory_resets for r in reports) == 1
        assert res.iterations >= 5
        assert len(retractions) == res.cost_evals - 1


class TestResetPaths:
    """The reset-and-retry paths of one step, forced by failing chosen calls."""

    CASES = {
        # name: (Cauchy calls that find nothing, line-search calls that fail,
        #        expected stop, Cauchy calls that meet a singular middle matrix)
        "not-found-then-found": ({1}, set(), None, set()),
        "not-found-twice": ({1, 2}, set(), Termination.PG_TOLERANCE, set()),
        "line-search-fails-once": (set(), {1}, None, set()),
        "line-search-fails-twice": (set(), {1, 2}, Termination.LINE_SEARCH_FAILURE, set()),
        "line-search-fails-then-not-found": ({2}, {1}, Termination.PG_TOLERANCE, set()),
        "singular-middle-then-found": (set(), set(), None, {1}),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_one_reset_then_retry_along_steepest_descent(self, monkeypatch, case):
        gcd_fails, ls_fails, stop, singular = self.CASES[case]
        prob = rosenbrock()
        geom = prob.geometry
        state = init_state(prob, ProductPoint([-1.2, 1.0]), SolverOptions())
        for _ in range(3):
            step(state, prob, SolverOptions())
        assert state.memory.size > 0
        before = (state.point.copy(), state.grad.copy(), state.cost, state.iteration)
        steepest = geom.project_tangent_cone(state.point, -state.grad)

        real_gcd, real_ls = rb.solver.generalized_cauchy_direction, rb.solver.armijo_capped
        gcd_calls, ls_calls = [], []

        def gcd(geom, p, grad, d, mem, *rest, **kwargs):
            gcd_calls.append((d.copy(), mem.size))
            if len(gcd_calls) in gcd_fails:  # a zero direction has no Cauchy point
                d = geom.zero_tangent(p)
            if len(gcd_calls) in singular:
                raise rb.SingularMiddleMatrix("forced")
            return real_gcd(geom, p, grad, d, mem, *rest, **kwargs)

        def armijo(*args, **kwargs):
            ls_calls.append(1)
            if len(ls_calls) in ls_fails:
                raise rb.LineSearchError("forced")
            return real_ls(*args, **kwargs)

        monkeypatch.setattr(rb.solver, "generalized_cauchy_direction", gcd)
        monkeypatch.setattr(rb.solver, "armijo_capped", armijo)
        report = step(state, prob, SolverOptions())

        assert report.stop is stop
        assert report.memory_resets == 1
        assert len(gcd_calls) == 2
        retry_d, retry_size = gcd_calls[1]
        assert retry_size == 0
        np.testing.assert_array_equal(retry_d.data, steepest.data)
        if stop is None:
            assert state.iteration == before[3] + 1
            assert state.cost < before[2]
            return
        point, grad, cost, iteration = before
        np.testing.assert_array_equal(state.point.euclidean, point.euclidean)
        np.testing.assert_array_equal(state.grad.data, grad.data)
        assert (state.cost, state.iteration, state.memory.size) == (cost, iteration, 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_curvature_pair_resets_and_continues(self, monkeypatch):
        # The first step moves x0 from 1e-160 to 0 and x1 from 0 to 1 along
        # a constant gradient, so its pair has <s, y> = <y, y> = 1e-320: it
        # passes the curvature test, but the free face of the next step
        # cannot apply it.  That face raises without a warning, the solver
        # resets once, and steepest descent walks x1 to its bound.
        prob = box_problem(
            [-np.inf, 0.0], [np.inf, 10.0],
            lambda x: 0.5 * x[0] ** 2 - x[1],
            lambda x: [x[0], -1.0],
        )
        raised = []
        real = LbfgsMemory.apply_inverse

        def inverse(*args, **kwargs):
            try:
                return real(*args, **kwargs)
            except rb.SingularMiddleMatrix:
                raised.append(args[0].size)
                raise

        monkeypatch.setattr(LbfgsMemory, "apply_inverse", inverse)
        res = solve(prob, ProductPoint([1e-160, 0.0]), SolverOptions(pg_tolerance=1e-300))
        assert raised == [1]
        assert res.termination is Termination.PG_TOLERANCE
        np.testing.assert_array_equal(res.point.euclidean, [0.0, 10.0])


class TestCallCounts:
    def test_no_cone_projection_per_iteration(self, monkeypatch):
        # The bound faces are found once per iterate, at the start point and
        # at each accepted one, and every phase of the step reads them: no
        # full-width cone projection runs in a solve.
        projections, faces, reports = [], [], []
        spy(monkeypatch, Geometry, "project_tangent_cone", projections)
        spy(monkeypatch, Geometry, "bound_faces", faces)
        spy(monkeypatch, rb.solver, "step", reports)
        bss = bss_problem(synth_bss(k=3, r=3, n=10, amplitude=1.0, seed=0, lam=0.1))
        for prob, p0 in ((bss, bss.initial_point), random_rayleigh(30, 0)):
            projections.clear()
            faces.clear()
            reports.clear()
            res = solve(prob, p0)
            assert res.iterations >= 20
            assert sum(r.memory_resets for r in reports) == 0
            assert projections == []
            assert len(faces) == res.iterations + 1

    def test_box_suite_counts_pinned(self):
        # Changes to the algorithm that move these must update the pin and
        # list the per-problem diffs.
        pinned = {
            "BRANIN": (8, 11, 9),
            "CAMEL6": (10, 12, 11),
            "HS4": (1, 2, 2),
            "HS5": (7, 9, 8),
            "HS38": (23, 27, 24),
            "HS45": (26, 27, 27),
        }
        got = {}
        for prob in euclidean_suite():
            res = solve(prob, prob.initial_point)
            got[prob.name] = (res.iterations, res.cost_evals, res.grad_evals)
        assert got == pinned
