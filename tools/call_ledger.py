"""Deterministic per-iteration cost ledger of the benchmark workloads, and a diff of two ledgers.

    python3 ../parent/tools/call_ledger.py --workloads sphere,box --seeds 0 > a.jsonl
    python3 tools/call_ledger.py --workloads sphere,box --seeds 0 > b.jsonl
    python3 tools/call_ledger.py --diff a.jsonl b.jsonl

Without ``--diff`` it builds each workload's instances for each seed through
``bench/workloads.py`` of the checkout holding this script (it only reads
that module), solves them in instance order under cProfile with the
workload's solver options and ``rlbfgsb`` from that checkout's ``src/``, and
writes one JSON line per workload and seed:

- ``calls``: Python-level function calls (``pstats`` ``total_calls``);
- ``linalg``: calls of the LAPACK-backed ``np.linalg`` functions, by name,
  made from outside ``numpy.linalg`` itself.  Only the middle-matrix build
  of ``rlbfgsb.memory`` calls ``eigvalsh``, so its count is the number of
  middle-matrix builds;
- ``iterations``, ``cost_evals`` and ``grad_evals`` from the solver results;
- the per-iteration ratios of all of these.

Problem construction is not profiled, and a warm-up solve of the first
instance, capped at three iterations, runs before the profiler starts, so
one-time imports and caches are not counted.  Nothing is timed, so two runs
of one checkout give identical lines; a ledger taken inside a process that
has already solved other problems can differ by a fraction of a call per
iteration, so compare lines of fresh runs of this script.

``--diff A B`` sums each workload's seeds on both sides and prints, per
workload, calls, LAPACK calls, middle-matrix builds and evaluations per
iteration on each side, with the relative change of each.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import json
import os
import pstats
import sys
from pathlib import Path

from solve_identity import parse_seeds

ROOT = Path(__file__).resolve().parent.parent
LAPACK = frozenset({
    "cholesky", "cond", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
    "matrix_rank", "pinv", "qr", "slogdet", "solve", "svd", "svdvals", "tensorinv",
    "tensorsolve",
})
COUNTS = ("calls", "lapack", "middle_builds", "cost_evals", "grad_evals")


def _is_linalg(filename: str) -> bool:
    return f"numpy{os.sep}linalg{os.sep}" in filename


def linalg_calls(stats: pstats.Stats) -> dict[str, int]:
    """Calls of the LAPACK-backed ``np.linalg`` functions from outside ``numpy.linalg``."""
    counts: dict[str, int] = {}
    for (filename, _, name), (_, _, _, _, callers) in stats.stats.items():
        if name in LAPACK and _is_linalg(filename):
            outside = sum(c[0] for (f, _, _), c in callers.items() if not _is_linalg(f))
            if outside:
                counts[name] = counts.get(name, 0) + outside
    return dict(sorted(counts.items()))


def ledger(problems: list, options) -> dict:
    """Totals and per-iteration ratios of solving ``problems`` from their initial points."""
    from rlbfgsb import solve

    first = problems[0]
    solve(first, first.initial_point, dataclasses.replace(options, max_iterations=3))
    profiler = cProfile.Profile()
    profiler.enable()
    results = [solve(pr, pr.initial_point, options) for pr in problems]
    profiler.disable()
    stats = pstats.Stats(profiler)
    linalg = linalg_calls(stats)
    row = {
        "solves": len(results),
        "iterations": sum(r.iterations for r in results),
        "calls": stats.total_calls,
        "lapack": sum(linalg.values()),
        "middle_builds": linalg.get("eigvalsh", 0),
        "cost_evals": sum(r.cost_evals for r in results),
        "grad_evals": sum(r.grad_evals for r in results),
        "linalg": linalg,
    }
    return {**row, **per_iteration(row)}


def per_iteration(row: dict) -> dict:
    its = max(row["iterations"], 1)
    return {f"{k}_per_iter": row[k] / its for k in COUNTS}


def workload_records(workloads: list[str], seeds: list[int]):
    """One ledger line per workload and seed."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # the benchmark's setting, before numpy is imported
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from workloads import WORKLOADS

    for name in workloads:
        workload = WORKLOADS[name]
        for seed in seeds:
            yield {"workload": name, "seed": seed,
                   **ledger(workload.build(seed), workload.options)}


def read_ledger(path: Path) -> dict[str, dict]:
    """Each workload's totals over its seeds."""
    totals: dict[str, dict] = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                t = totals.setdefault(r["workload"], dict.fromkeys(("iterations",) + COUNTS, 0))
                for k in t:
                    t[k] += r[k]
    return totals


def diff(a: dict, b: dict) -> list[str]:
    lines = []
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b:
            lines.append(f"{name}: only in {'A' if name in a else 'B'}")
            continue
        pa, pb = per_iteration(a[name]), per_iteration(b[name])
        parts = []
        for k in COUNTS:
            va, vb = pa[f"{k}_per_iter"], pb[f"{k}_per_iter"]
            change = f" ({(vb - va) / va:+.1%})" if va else ""
            parts.append(f"{k} {va:.4g} -> {vb:.4g}{change}")
        lines.append(f"{name}: iterations {a[name]['iterations']} -> {b[name]['iterations']}; "
                     "per iteration: " + "; ".join(parts))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="box,bss-small,bss-large,sphere")
    ap.add_argument("--seeds", default="0")
    ap.add_argument("--diff", nargs=2, type=Path, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.diff:
        print("\n".join(diff(*(read_ledger(p) for p in args.diff))))
        return 0
    for record in workload_records(args.workloads.split(","), parse_seeds(args.seeds)):
        print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
