"""Benchmark harness: run problem suites and emit CSV or JSON result tables.

One record per run with the schema

    problem,seed,time_ms,objective_calls,gradient_calls,objective_value,
    pg_norm,violation,termination

followed by an aggregate record (means of the numeric columns, maximum
violation) whose termination field carries the 95% normal-approximation
half-widths for time and objective.  Exit code 0 means every run terminated
without a line-search failure, 1 flags a failed run, 2 a usage error.
Runs are serial, and ``time_ms`` is each run's wall time
(``time.perf_counter``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .problems import (
    Problem,
    bss_problem,
    cpc_problem,
    euclidean_suite,
    load_class_csv,
    synth_bss,
    synth_cpc,
)
from .solver import SolverOptions, Termination, solve

__all__ = ["RunRecord", "main", "run_suite"]

CSV_HEADER = (
    "problem,seed,time_ms,objective_calls,gradient_calls,"
    "objective_value,pg_norm,violation,termination"
)

SUITES = ("euclidean", "bss", "cpc", "all")


@dataclass
class RunRecord:
    problem: str
    seed: int
    time_ms: float
    objective_calls: int
    gradient_calls: int
    objective_value: float
    pg_norm: float
    violation: float
    termination: str

    def as_row(self) -> list[str]:
        return [
            self.problem,
            str(self.seed),
            f"{self.time_ms:.6g}",
            str(self.objective_calls),
            str(self.gradient_calls),
            f"{self.objective_value:.12g}",
            f"{self.pg_norm:.6g}",
            f"{self.violation:.6g}",
            self.termination,
        ]

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _build_problems(
    suite: str,
    seed: int,
    instances: int,
    csv_path: Optional[str],
    class_column: Optional[str],
) -> list[tuple[Problem, int]]:
    problems: list[tuple[Problem, int]] = []
    if suite in ("euclidean", "all"):
        problems.extend((prob, seed) for prob in euclidean_suite())
    if suite in ("bss", "all"):
        for i in range(instances):
            inst = synth_bss(k=3, r=3, n=50, amplitude=1.0, seed=seed + i, lam=0.1)
            problems.append((bss_problem(inst, init_seed=seed + i), seed + i))
    if suite in ("cpc", "all"):
        if csv_path is not None:
            if class_column is None:
                raise ValueError("--class-column is required with --csv")
            problems.append((cpc_problem(load_class_csv(csv_path, class_column)), seed))
        else:
            for i in range(instances):
                inst = synth_cpc(r=4, classes=3, samples_per_class=50, seed=seed + i)
                inst.name = f"CPC-synth-{i}"
                problems.append((cpc_problem(inst), seed + i))
    return problems


def _run_one(
    problem: Problem, seed: int, options: SolverOptions, timer: Callable[[], float]
) -> RunRecord:
    p0 = problem.initial_point
    if p0 is None:
        raise ValueError(f"problem {problem.name} has no initial point")
    t0 = timer()
    result = solve(problem, p0, options)
    elapsed_ms = (timer() - t0) * 1000.0
    violation = problem.geometry.box.violation(result.point.euclidean)
    return RunRecord(
        problem=problem.name,
        seed=seed,
        time_ms=elapsed_ms,
        objective_calls=result.cost_evals,
        gradient_calls=result.grad_evals,
        objective_value=result.cost,
        pg_norm=result.pg_norm,
        violation=violation,
        termination=result.termination.value,
    )


def _aggregate(records: list[RunRecord]) -> RunRecord:
    times = np.array([r.time_ms for r in records])
    objs = np.array([r.objective_value for r in records])
    m = len(records)

    def halfwidth(v: np.ndarray) -> float:
        if m < 2:
            return 0.0
        return 1.96 * float(np.std(v, ddof=1)) / np.sqrt(m)

    return RunRecord(
        problem="aggregate",
        seed=records[0].seed,
        time_ms=float(np.mean(times)),
        objective_calls=int(round(np.mean([r.objective_calls for r in records]))),
        gradient_calls=int(round(np.mean([r.gradient_calls for r in records]))),
        objective_value=float(np.mean(objs)),
        pg_norm=float(np.mean([r.pg_norm for r in records])),
        violation=float(np.max([r.violation for r in records])),
        termination=(
            f"ci95_time_ms=±{halfwidth(times):.6g};ci95_objective=±{halfwidth(objs):.6g}"
        ),
    )


def _write(records: list[RunRecord], path: Optional[str], fmt: str) -> None:
    if fmt == "csv":
        lines = [CSV_HEADER]
        lines.extend(",".join(r.as_row()) for r in records)
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps([r.as_dict() for r in records], indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def run_suite(
    suite: str,
    out: Optional[str] = None,
    fmt: str = "csv",
    seed: int = 0,
    instances: int = 20,
    csv_path: Optional[str] = None,
    class_column: Optional[str] = None,
    options: Optional[SolverOptions] = None,
    timer: Optional[Callable[[], float]] = None,
) -> int:
    """Run a benchmark suite and write its records; returns the exit code.

    Deterministic under a fixed seed except for the timing column (inject a
    fake ``timer`` to pin that too).  The default timer is
    ``time.perf_counter``.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}, expected one of {SUITES}")
    if instances < 1:
        raise ValueError("instances must be >= 1")
    timer = timer or time.perf_counter
    opts = options or SolverOptions()
    tasks = _build_problems(suite, seed, instances, csv_path, class_column)
    records = [_run_one(prob, s, opts, timer) for prob, s in tasks]
    records.sort(key=lambda r: (r.problem, r.seed))
    failed = any(r.termination == Termination.LINE_SEARCH_FAILURE.value for r in records)
    records.append(_aggregate(records))
    _write(records, out, fmt)
    return 1 if failed else 0


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlbfgsb-bench",
        description="Benchmark harness for the bound-constrained manifold solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a benchmark suite")
    run.add_argument("suite", choices=SUITES, help="which problem suite to run")
    run.add_argument("--mu", type=int, default=10, help="memory capacity (default 10)")
    run.add_argument(
        "--pg-tol", type=float, default=1e-6, help="projected gradient tolerance"
    )
    run.add_argument("--max-iters", type=int, default=1000, help="iteration cap")
    run.add_argument(
        "--instances", type=int, default=20, help="synthetic instances per suite"
    )
    run.add_argument("--seed", type=int, default=0, help="base random seed")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--out", default=None, help="output path (default: stdout)")
    run.add_argument("--csv", dest="csv_path", default=None, help="CPC input CSV file")
    run.add_argument(
        "--class-column", default=None, help="class column name for --csv input"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        options = SolverOptions(
            memory_capacity=args.mu,
            pg_tolerance=args.pg_tol,
            max_iterations=args.max_iters,
        )
        return run_suite(
            args.suite,
            out=args.out,
            fmt=args.format,
            seed=args.seed,
            instances=args.instances,
            csv_path=args.csv_path,
            class_column=args.class_column,
            options=options,
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
