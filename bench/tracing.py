"""Per-layer spans and counters, recorded from outside the package.

:class:`Tracer` replaces the layer entry points that ``solver.step`` calls
with thin wrappers while it is installed, and puts the originals back when
it is removed.  Every wrapper appends one span (name, start, end, parent)
to in-memory lists; nothing is written until the run ends.  A layer's self
time is its spans' duration minus the time covered by their child spans.

Wrapped entry points, by layer:

- ``solver``: ``rlbfgsb.solver.step``
- ``gcd``: ``rlbfgsb.solver.generalized_cauchy_direction``
- ``linesearch``: ``rlbfgsb.solver.armijo_capped``
- ``memory``: ``rlbfgsb.solver.make_pair`` and
  ``LbfgsMemory.apply_inverse/transport/push``
- ``problems``: each problem's ``cost`` and ``gradient``
- ``geometry``: ``Geometry.inner/transport/retract`` are counted, not timed

Work the wrappers do to derive counters is itself recorded as a ``trace``
span, so it is charged to no layer.  The patched names are looked up
where ``solver`` resolves them: a refactor that calls a layer under another
name leaves its wrapper with zero calls, and :func:`check_calls` then
fails the run instead of reporting 0 ms.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from typing import Any, Callable, Optional

import numpy as np

import rlbfgsb.solver as solver_mod
from rlbfgsb import GcdStatus, Geometry, LbfgsMemory, Problem

SPAN_NAMES = (
    "solver.step",
    "gcd",
    "linesearch",
    "memory.apply_inverse",
    "memory.transport",
    "memory.push",
    "memory.make_pair",
    "problems.cost",
    "problems.gradient",
    "trace",
)
_ID = {name: i for i, name in enumerate(SPAN_NAMES)}

# (owner, attribute, span name, hook method name)
_TIMED = (
    (solver_mod, "step", "solver.step", "_after_step"),
    (solver_mod, "generalized_cauchy_direction", "gcd", "_after_gcd"),
    (solver_mod, "armijo_capped", "linesearch", "_after_linesearch"),
    (solver_mod, "make_pair", "memory.make_pair", None),
    (LbfgsMemory, "apply_inverse", "memory.apply_inverse", None),
    (LbfgsMemory, "transport", "memory.transport", "_after_transport"),
    (LbfgsMemory, "push", "memory.push", "_after_push"),
)
_COUNTED = (
    (Geometry, "inner", "geometry.inner"),
    (Geometry, "transport", "geometry.transport"),
    (Geometry, "retract", "geometry.retract"),
)

_COUNTERS = (
    "geometry.inner",
    "geometry.transport",
    "geometry.retract",
    "solver.memory_resets",
    "memory.size_sum",
    "memory.pairs_dropped",
    "memory.pairs_rejected",
    "gcd.breakpoints_total",
    "gcd.breakpoints_crossed",
    "gcd.not_found",
    "linesearch.accepted",
    "linesearch.expansions",
    "linesearch.long_steps",
)

# Share of traced solve time the layer spans must account for.
COVERAGE_FLOOR = 0.9

# A box coordinate counts as crossed when the Cauchy direction puts it on
# the bound it moves towards, up to this relative rounding slack.
_BOUND_SLACK = 1e-12


class TraceCoverageError(RuntimeError):
    """A wrapped entry point did not see the calls it must see."""


def installed_wrappers() -> list[str]:
    """Names of patched attributes currently in place (empty when clean)."""
    found = []
    for owner, attr, *_ in _TIMED + _COUNTED:
        if hasattr(getattr(owner, attr, None), "__bench_wrapped__"):
            found.append(f"{owner.__name__}.{attr}")
    return found


class Tracer:
    """Span and counter recorder for one traced pass at a time."""

    def __init__(self):
        self._originals: list[tuple[Any, str, Any]] = []
        # Wrappers close over these containers, so they are cleared in
        # place between passes, never replaced.
        self.names: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack = [-1]
        self.counts = dict.fromkeys(_COUNTERS, 0)

    # ------------------------------------------------------------------
    # Recording

    def new_pass(self) -> None:
        for buf in (self.names, self.parents, self.starts, self.ends):
            buf.clear()
        self._stack[:] = [-1]
        self.counts.update(dict.fromkeys(_COUNTERS, 0))

    def _timed(self, fn: Callable, span: str, hook: Optional[str]) -> Callable:
        nid = _ID[span]
        trace_id = _ID["trace"]
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, clock = self._stack, time.perf_counter
        after = getattr(self, hook) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if after is not None:
                tb = clock()
                after(args, result)
                names.append(trace_id)
                parents.append(stack[-1])
                starts.append(tb)
                ends.append(clock())
            return result

        wrapper.__bench_wrapped__ = True
        return wrapper

    def _counted(self, fn: Callable, key: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__bench_wrapped__ = True
        return wrapper

    def traced_problem(self, problem: Problem) -> Problem:
        """The same problem with its cost and gradient recorded as spans."""
        return dataclasses.replace(
            problem,
            cost=self._timed(problem.cost, "problems.cost", None),
            gradient=self._timed(problem.gradient, "problems.gradient", None),
        )

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, span, hook in _TIMED:
            orig = getattr(owner, attr)
            self._originals.append((owner, attr, orig))
            setattr(owner, attr, self._timed(orig, span, hook))
        for owner, attr, key in _COUNTED:
            orig = getattr(owner, attr)
            self._originals.append((owner, attr, orig))
            setattr(owner, attr, self._counted(orig, key))

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._originals):
            setattr(owner, attr, orig)
        self._originals.clear()

    # ------------------------------------------------------------------
    # Counter hooks: run after the span closes, charged to the trace span.

    def _after_step(self, args, report) -> None:
        state = args[0]
        self.counts["solver.memory_resets"] += report.memory_resets
        self.counts["memory.size_sum"] += state.memory.size

    def _after_gcd(self, args, outcome) -> None:
        geom, p, _grad, d = args[:4]
        c = self.counts
        if outcome.status is GcdStatus.NOT_FOUND:
            c["gcd.not_found"] += 1
        if not geom.box.n:
            return
        lo, up = geom.box.lower, geom.box.upper
        x, dd = p.euclidean, d.euclidean
        down = (dd < 0) & (x > lo) & np.isfinite(lo)
        upward = (dd > 0) & (x < up) & np.isfinite(up)
        c["gcd.breakpoints_total"] += int(np.count_nonzero(down) + np.count_nonzero(upward))
        new = x + outcome.direction.euclidean
        with np.errstate(invalid="ignore"):  # inf - inf on unbounded sides
            on_lo = new <= lo + _BOUND_SLACK * np.maximum(1.0, np.abs(lo))
            on_up = new >= up - _BOUND_SLACK * np.maximum(1.0, np.abs(up))
        c["gcd.breakpoints_crossed"] += int(
            np.count_nonzero(down & on_lo) + np.count_nonzero(upward & on_up)
        )

    def _after_linesearch(self, args, result) -> None:
        geom, p, d = args[1], args[2], args[3]
        t_max = args[6]
        alpha = result[0]
        c = self.counts
        c["linesearch.accepted"] += 1
        if alpha > min(1.0, t_max):
            c["linesearch.expansions"] += 1
        if d.manifold is not None:
            if alpha * float(np.linalg.norm(d.manifold)) > geom.max_stepsize(p):
                c["linesearch.long_steps"] += 1

    def _after_transport(self, args, dropped) -> None:
        self.counts["memory.pairs_dropped"] += dropped

    def _after_push(self, args, accepted) -> None:
        if not accepted:
            self.counts["memory.pairs_rejected"] += 1

    # ------------------------------------------------------------------
    # Summaries

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.names, dtype=np.int16),
            "parent": np.asarray(self.parents, dtype=np.int64),
            "start": np.asarray(self.starts, dtype=float),
            "end": np.asarray(self.ends, dtype=float),
        }

    def summarize(self) -> dict[str, float]:
        """Calls and self time (ms) per span name, plus the pass's counters."""
        sp = self.spans()
        names, parents = sp["name"].astype(np.int64), sp["parent"]
        dur = sp["end"] - sp["start"]
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        k = len(SPAN_NAMES)
        calls = np.bincount(names, minlength=k)
        self_ms = np.bincount(names, weights=own, minlength=k) * 1e3
        out: dict[str, float] = {}
        for i, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_ms"] = float(self_ms[i])
        cost_in_ls = (names == _ID["problems.cost"]) & nested
        out["linesearch.evals"] = int(
            np.count_nonzero(names[parents[cost_in_ls]] == _ID["linesearch"])
        )
        out.update(self.counts)
        return out


def check_calls(summary: dict, samples: list[dict]) -> None:
    """Fail loudly when a wrapper missed calls that the solves must make.

    ``samples`` are the traced pass's solves; their iteration and evaluation
    totals come from the solver's own ``SolverResult`` counts.
    """
    ok = [s for s in samples if "iterations" in s]
    iterations = sum(s["iterations"] for s in ok)
    cost_evals = sum(s["cost_evals"] for s in ok)
    grad_evals = sum(s["grad_evals"] for s in ok)
    problems = []

    def need(holds: bool, what: str) -> None:
        if not holds:
            problems.append(what)

    for name in SPAN_NAMES[:-1]:
        need(summary[f"{name}.calls"] > 0, f"{name} recorded no calls")
    for key in ("geometry.inner", "geometry.transport", "geometry.retract"):
        need(summary[key] > 0, f"{key} recorded no calls")
    steps = summary["solver.step.calls"]
    need(iterations <= steps <= iterations + len(ok),
         f"solver.step calls {steps} vs {iterations} iterations in {len(ok)} solves")
    need(summary["gcd.calls"] >= steps, f"gcd calls {summary['gcd.calls']} < {steps} steps")
    need(summary["memory.apply_inverse.calls"] == steps,
         f"apply_inverse calls {summary['memory.apply_inverse.calls']} != {steps} steps")
    need(summary["linesearch.calls"] >= iterations,
         f"linesearch calls {summary['linesearch.calls']} < {iterations} iterations")
    need(summary["memory.transport.calls"] == iterations,
         f"transport calls {summary['memory.transport.calls']} != {iterations} iterations")
    need(summary["problems.cost.calls"] == cost_evals,
         f"cost spans {summary['problems.cost.calls']} != {cost_evals} counted evaluations")
    need(summary["problems.gradient.calls"] == grad_evals,
         f"gradient spans {summary['problems.gradient.calls']} != {grad_evals} counted evaluations")
    if problems:
        raise TraceCoverageError("; ".join(problems))


def check_share(coverage: float) -> None:
    """Fail loudly when the layer spans leave too much solve time unexplained."""
    if not coverage >= COVERAGE_FLOOR:
        raise TraceCoverageError(
            f"layer self times cover only {coverage:.3f} of traced solve time"
            f" (< {COVERAGE_FLOOR})"
        )
