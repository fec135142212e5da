"""Ceilings on the deterministic per-iteration cost of small solves, and the ledger's diff.

The counts come from ``tools/call_ledger.py``: Python-level calls under
cProfile and LAPACK-backed ``np.linalg`` calls, per iteration.  A change
that raises one past its ceiling adds solver overhead; a change that
lowers a count well below its ceiling may lower the ceiling with it.
"""

import json
import sys
from pathlib import Path

import numpy as np

import rlbfgsb as rb
from rlbfgsb import BoxBounds, Geometry, ProductPoint, ProductTangent, SolverOptions

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import call_ledger  # noqa: E402


def rayleigh(dim, seed):
    """``x^T A x`` on ``Sphere(dim)`` for a random symmetric ``A``, with its start point."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((dim, dim))
    a = (b + b.T) / 2.0
    sph = rb.Sphere(dim)
    return rb.Problem(
        geometry=Geometry(BoxBounds.empty(), sph),
        cost=lambda p: float(p.manifold @ a @ p.manifold),
        gradient=lambda p: ProductTangent(
            np.zeros(0), sph.project_tangent(p.manifold, 2.0 * a @ p.manifold)
        ),
        initial_point=ProductPoint(np.zeros(0), sph.random_point(rng)),
    )


def test_rayleigh_solve_ceiling():
    # No box: the Cauchy search is handed H[d] and never builds the middle
    # matrix.  Sphere transport is isometric, so the memory keeps its Gram
    # matrix, theta, middle matrix and R^{-1} across it, and the free face
    # reads the R^{-1} that push bordered: no LAPACK call at all.  Without a
    # box the bound faces are empty and the search never walks: measured
    # 154.6 calls per iteration, against 183.7 with two cone projections per
    # step and the sentinel walked as a one-element list.
    row = call_ledger.ledger([rayleigh(30, 0)], SolverOptions())
    assert row["iterations"] >= 20
    assert row["calls_per_iter"] <= 167
    assert row["lapack_per_iter"] <= 0.05
    assert row["middle_builds"] == 0


def test_euclidean_suite_ceiling():
    # The box transport is the identity, so R^{-1} is only bordered and
    # sliced, and the bound faces are found once per iterate: measured
    # 174.1 calls and no LAPACK call per iteration, against 215.2 with
    # full-width masks in every phase and 232.7 and 0.59 LAPACK calls when
    # every free face inverted R.
    row = call_ledger.ledger(rb.euclidean_suite(), SolverOptions())
    assert row["iterations"] == 75
    assert row["calls_per_iter"] <= 188
    assert row["lapack_per_iter"] <= 0.05


def test_bss_solve_ceiling():
    # BSS has an active face at every iterate.  The face is solved by one
    # LAPACK solve, and the Cauchy search is handed H[d] wherever the cone
    # projection keeps the direction, so it builds the middle matrix only at
    # a crossing or after such a projection: measured 330.4 calls, 2.5 LAPACK
    # calls and 0.23 builds per iteration, against 391.7 calls with
    # full-width masks in every phase and a walk begun on every search, and
    # 438.0, 3.87 and 0.93 with an operator built from face-projected pairs.
    bss = rb.bss_problem(rb.synth_bss(k=3, r=3, n=10, amplitude=1.0, seed=0, lam=0.1))
    row = call_ledger.ledger([bss], SolverOptions())
    assert row["iterations"] >= 40
    assert row["calls_per_iter"] <= 357
    assert row["lapack_per_iter"] <= 2.75
    assert row["middle_builds_per_iter"] < 0.3


def test_diff_sums_seeds_per_workload(tmp_path):
    base = {"workload": "w", "iterations": 10, "calls": 1000, "lapack": 10,
            "middle_builds": 10, "cost_evals": 12, "grad_evals": 11}
    a = [dict(base, seed=0), dict(base, seed=1)]
    b = [dict(base, seed=0), dict(base, seed=1, calls=800, middle_builds=0)]
    paths = []
    for name, rows in (("a", a), ("b", b)):
        paths.append(tmp_path / f"{name}.jsonl")
        paths[-1].write_text("".join(json.dumps(r) + "\n" for r in rows))
    (line,) = call_ledger.diff(*(call_ledger.read_ledger(p) for p in paths))
    assert line.startswith("w: iterations 20 -> 20;")
    assert "calls 100 -> 90 (-10.0%)" in line
    assert "middle_builds 1 -> 0.5 (-50.0%)" in line
    assert "lapack 1 -> 1 (+0.0%)" in line


def test_entry_point_calls_nest():
    # Each entry point's calls include those of the entry points it calls,
    # and the solver's steps make most of the solve's calls.
    row = call_ledger.ledger([rayleigh(10, 1)], SolverOptions(max_iterations=8))
    e = row["entry_calls"]
    assert set(e) == set(call_ledger.ENTRY_POINTS)
    steps = row["iterations"]
    assert steps <= e["memory.apply_inverse"] and steps <= e["memory.push"]
    assert e["solver._cauchy_direction"] > (
        e["memory.apply_inverse"] + e["gcd.generalized_cauchy_direction"]
    )
    inside = ("solver._cauchy_direction", "linesearch.armijo_capped", "memory.transport",
              "memory.push")
    assert e["solver.step"] > sum(e[k] for k in inside)
    assert 0.8 * row["calls"] < e["solver.step"] < row["calls"]


def test_diff_shows_entry_points_on_either_side(tmp_path):
    base = {"workload": "w", "iterations": 10, "calls": 1000, "lapack": 0,
            "middle_builds": 0, "cost_evals": 12, "grad_evals": 11, "seed": 0}
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    paths[0].write_text(json.dumps(base) + "\n")
    entries = {"solver.step": 900, "memory.push": 50}
    paths[1].write_text(json.dumps(dict(base, entry_calls=entries)) + "\n")
    _, line = call_ledger.diff(*(call_ledger.read_ledger(p) for p in paths))
    assert line == "  w calls per iteration within: solver.step - -> 90; memory.push - -> 5"


def test_ledger_repeats_exactly():
    prob, opts = rayleigh(10, 1), SolverOptions(max_iterations=5)
    assert call_ledger.ledger([prob], opts) == call_ledger.ledger([prob], opts)
