"""The four benchmark workloads and the checks every solve must pass.

A workload turns ``--seed`` into a fixed list of instances (one "pass").
The runner repeats that pass until the run's time is up, so every pass
solves exactly the same problems from the same start points and must
reproduce the same iteration and evaluation counts.

Why each workload is here (see README.md for the layer -> metric map):

- ``box``: the six classical bound-constrained problems.  The only
  workload without a manifold, so memory transport is pure copying; N <= 5,
  so fixed per-call Python overhead dominates.  Compared against scipy's
  L-BFGS-B for evaluation counts.
- ``bss-small``: blind source separation with 150 box coordinates times
  Stiefel(3, 3).  Memory-bound: transport, push and the two-loop recursion
  dominate.
- ``bss-large``: the same problem with 6 000 box coordinates.  The
  generalized Cauchy search dominates, with thousands of breakpoints per
  iteration of which only a few are crossed.  Each solve stops after a
  fixed iteration budget: full solves take about 4.6 s and need from about
  300 to 500 iterations depending on the seed, so totals over a pass would
  differ between seeds by more than the benchmark's bounds.  Time to
  solution on this problem is what ``bss-small`` measures.
- ``sphere``: the Rayleigh quotient on Sphere(30).  No box at all, so the
  Cauchy search returns an unbounded step interval and the line search
  expands; the only workload that exercises expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from rlbfgsb import (
    BoxBounds,
    Geometry,
    Problem,
    ProductPoint,
    ProductTangent,
    SolverOptions,
    SolverResult,
    Sphere,
    Termination,
    bss_problem,
    euclidean_suite,
    synth_bss,
)

# Tolerances of the per-solve checks.
MEMBERSHIP_TOL = 1e-8
OBJECTIVE_GAP_TOL = 1e-6

# Instances per pass.  A pass takes about 0.05 s (box), 12 s (bss-small),
# 7 s (bss-large) and 25 s (sphere) on a 2-core x86 container.  Iteration
# counts of single instances differ by about 20% from seed to seed on BSS,
# and have a heavy tail on the sphere; enough instances per pass keep the
# totals of one seed close to another's.
BSS_SMALL_INSTANCES = 24
BSS_LARGE_INSTANCES = 3
BSS_LARGE_ITERATIONS = 200  # below the fewest iterations any of 60 seeds tried needs
SPHERE_INSTANCES = 128
SPHERE_DIM = 30


@dataclass
class Instance:
    """One problem of a pass, with what its solve is checked against."""

    problem: Problem
    start_cost: float
    reference: Optional[float]  # known optimum, where one exists


@dataclass
class Workload:
    name: str
    build: Callable[[int], list[Problem]]
    options: SolverOptions = field(default_factory=SolverOptions)


def _instance_seeds(seed: int, count: int) -> range:
    # Disjoint instance sets per seed; seed 0 starts at instance seed 0.
    return range(seed * count, seed * count + count)


def _build_box(seed: int) -> list[Problem]:
    return euclidean_suite()


def _build_bss(n: int, count: int) -> Callable[[int], list[Problem]]:
    def build(seed: int) -> list[Problem]:
        return [
            bss_problem(synth_bss(k=3, r=3, n=n, amplitude=1.0, seed=s, lam=0.1), init_seed=s)
            for s in _instance_seeds(seed, count)
        ]

    return build


def rayleigh_problem(seed: int, dim: int = SPHERE_DIM) -> Problem:
    """Minimize ``x^T A x`` on the unit sphere for a random symmetric ``A``."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((dim, dim))
    a = (b + b.T) / 2.0
    sphere = Sphere(dim)
    empty = np.zeros(0)

    def cost(p: ProductPoint) -> float:
        x = p.manifold
        return float(x @ (a @ x))

    def gradient(p: ProductPoint) -> ProductTangent:
        x = p.manifold
        return ProductTangent(empty, sphere.project_tangent(x, 2.0 * (a @ x)))

    return Problem(
        geometry=Geometry(BoxBounds.empty(), sphere),
        cost=cost,
        gradient=gradient,
        name=f"RAYLEIGH-{seed}",
        reference_objective=float(np.linalg.eigvalsh(a)[0]),
        initial_point=ProductPoint(empty, sphere.random_point(rng)),
    )


def _build_sphere(seed: int) -> list[Problem]:
    return [rayleigh_problem(s) for s in _instance_seeds(seed, SPHERE_INSTANCES)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("box", _build_box),
        Workload("bss-small", _build_bss(50, BSS_SMALL_INSTANCES)),
        Workload(
            "bss-large",
            _build_bss(2000, BSS_LARGE_INSTANCES),
            SolverOptions(max_iterations=BSS_LARGE_ITERATIONS),
        ),
        Workload("sphere", _build_sphere),
    )
}


def make_instances(problems: list[Problem]) -> list[Instance]:
    """Attach the start cost and reference optimum each solve is checked against."""
    return [
        Instance(prob, float(prob.cost(prob.initial_point)), prob.reference_objective)
        for prob in problems
    ]


def check_solve(inst: Instance, result: SolverResult) -> Optional[str]:
    """Why the solve counts as failed, or None when it passes every check."""
    geom = inst.problem.geometry
    point = result.point
    violation = geom.box.violation(point.euclidean)
    if violation != 0.0:
        return f"box violation {violation!r}"
    if geom.manifold is not None:
        residual = geom.manifold.membership_residual(point.manifold)
        if not residual <= MEMBERSHIP_TOL:
            return f"manifold membership residual {residual!r}"
    if not result.cost <= inst.start_cost:
        return f"final cost {result.cost!r} above start cost {inst.start_cost!r}"
    if result.termination is Termination.LINE_SEARCH_FAILURE:
        return "line_search_failure"
    if inst.reference is not None and not result.cost - inst.reference <= OBJECTIVE_GAP_TOL:
        return f"objective gap {result.cost - inst.reference!r}"
    return None


def scipy_reference(problems: list[Problem]) -> list[dict]:
    """scipy L-BFGS-B on the same box problems, bounds, starts and gradients.

    Only iteration and evaluation counts are used; scipy is never timed.
    """
    from scipy.optimize import minimize

    rows = []
    for prob in problems:
        box = prob.geometry.box
        bounds = [
            (lo if math.isfinite(lo) else None, up if math.isfinite(up) else None)
            for lo, up in zip(box.lower, box.upper)
        ]
        res = minimize(
            lambda x, prob=prob: prob.cost(ProductPoint(x)),
            prob.initial_point.euclidean.copy(),
            jac=lambda x, prob=prob: prob.gradient(ProductPoint(x)).euclidean,
            method="L-BFGS-B",
            bounds=bounds,
        )
        rows.append(
            {
                "problem": prob.name,
                "iterations": int(res.nit),
                "evals": int(res.nfev),
                "cost": float(res.fun),
            }
        )
    return rows
