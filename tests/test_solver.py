"""Solver iteration tests: worked steps, termination, accounting, feasibility."""

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
    Termination,
    bss_problem,
    euclidean_suite,
    init_state,
    projected_gradient_norm,
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


class TestProjectedGradientNorm:
    def test_interior_full_norm(self):
        geom = Geometry(BoxBounds(np.array([0.0]), np.array([1.0])))
        p = ProductPoint([0.5])
        assert projected_gradient_norm(geom, p, ProductTangent([3.0])) == 3.0

    def test_active_bound_kills_component(self):
        geom = Geometry(BoxBounds(np.array([0.0]), np.array([1.0])))
        p = ProductPoint([0.0])
        assert projected_gradient_norm(geom, p, ProductTangent([3.0])) == 0.0

    def test_manifold_part_always_counts(self):
        sph = Sphere(3)
        geom = Geometry(BoxBounds(np.array([0.0]), np.array([1.0])), sph)
        p = ProductPoint([0.0], np.array([1.0, 0.0, 0.0]))
        g = ProductTangent([3.0], np.array([0.0, 2.0, 0.0]))
        assert_allclose(projected_gradient_norm(geom, p, g), 2.0)


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
        assert projected_gradient_norm(prob.geometry, state.point, state.grad) == 0.0


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
        final_pg = projected_gradient_norm(
            prob.geometry, res.point, prob.gradient(res.point)
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


class TestMemoryBookkeeping:
    def test_one_middle_refresh_per_push(self, monkeypatch):
        bss = bss_problem(synth_bss(k=3, r=3, n=50, amplitude=1.0, seed=0, lam=0.1))
        for prob, p0 in ((bss, bss.initial_point), random_rayleigh(30, 0)):
            refreshes, pushes = [], []
            with monkeypatch.context() as m:
                spy(m, LbfgsMemory, "_refresh_middle", refreshes)
                spy(m, LbfgsMemory, "push", pushes)
                res = solve(prob, p0)
            assert res.iterations >= 20
            assert len(refreshes) == len(pushes) == res.iterations

    def test_step_report_counts_match_memory(self, monkeypatch):
        reports, pushes, transports = [], [], []
        spy(monkeypatch, rb.solver, "step", reports)
        spy(monkeypatch, LbfgsMemory, "push", pushes)
        spy(monkeypatch, LbfgsMemory, "transport", transports)
        # this BSS instance is one whose transport drops pairs
        bss = bss_problem(synth_bss(k=3, r=3, n=10, amplitude=1.0, seed=5, lam=0.1))
        for prob in euclidean_suite() + [bss]:
            solve(prob, prob.initial_point)
        assert sum(r.pair_rejected for r in reports) == pushes.count(False) > 0
        assert sum(r.pairs_dropped for r in reports) == sum(transports) > 0
