"""Smoke tests of the traced benchmark harness.

``bench/tracing.py`` wraps solver entry points by name and fails a traced
run when a wrapper sees no calls, so a refactor that renames or bypasses
one of them shows up here rather than only in a benchmark run.  The
subprocess run covers a pure box; the in-process solves cover the
wrappers' reads of manifold parts.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from rlbfgsb import bss_problem, solve, synth_bss

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import tracing  # noqa: E402
from workloads import rayleigh_problem  # noqa: E402


def test_traced_box_run_is_correct():
    cmd = [sys.executable, "bench/run.py", "--workload", "box", "--seed", "0",
           "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True


@pytest.mark.parametrize(
    "problem",
    [
        bss_problem(synth_bss(k=3, r=3, n=10, amplitude=1.0, seed=0, lam=0.1), init_seed=0),
        rayleigh_problem(0, dim=5),
    ],
    ids=["bss-stiefel", "rayleigh-sphere"],
)
def test_traced_manifold_solve_sees_every_call(problem):
    plain = solve(problem, problem.initial_point)
    tracer = tracing.Tracer()
    traced_problem = tracer.traced_problem(problem)
    tracer.install()
    try:
        res = solve(traced_problem, problem.initial_point)
    finally:
        tracer.remove()
    assert not tracing.installed_wrappers()
    assert (res.iterations, res.cost_evals) == (plain.iterations, plain.cost_evals)
    sample = {"iterations": res.iterations, "cost_evals": res.cost_evals,
              "grad_evals": res.grad_evals}
    tracing.check_calls(tracer.summarize(), [sample])
