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
    # matrix, so the one LAPACK call per iteration is the inverse kernel's.
    # Sphere transport is isometric, so the memory keeps its Gram matrix,
    # theta and middle matrix across it: measured 213.9 calls per iteration,
    # against 231.4 when every transport recomputed and re-tested them.
    row = call_ledger.ledger([rayleigh(30, 0)], SolverOptions())
    assert row["iterations"] >= 20
    assert row["calls_per_iter"] <= 220
    assert row["lapack_per_iter"] <= 1.0
    assert row["middle_builds"] == 0


def test_euclidean_suite_ceiling():
    row = call_ledger.ledger(rb.euclidean_suite(), SolverOptions())
    assert row["iterations"] == 75
    assert row["calls_per_iter"] <= 250
    assert row["lapack_per_iter"] <= 1.0


def test_bss_solve_ceiling():
    # BSS has an active face at every iterate.  The face is solved by one
    # LAPACK solve, and the Cauchy search is handed H[d] wherever the cone
    # projection keeps the direction, so it builds the middle matrix only at
    # a crossing or after such a projection: measured 391.7 calls, 2.5 LAPACK
    # calls and 0.23 builds per iteration, against 438.0, 3.87 and 0.93 with
    # an operator built from face-projected pairs.
    bss = rb.bss_problem(rb.synth_bss(k=3, r=3, n=10, amplitude=1.0, seed=0, lam=0.1))
    row = call_ledger.ledger([bss], SolverOptions())
    assert row["iterations"] >= 40
    assert row["calls_per_iter"] <= 410
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


def test_ledger_repeats_exactly():
    prob, opts = rayleigh(10, 1), SolverOptions(max_iterations=5)
    assert call_ledger.ledger([prob], opts) == call_ledger.ledger([prob], opts)
