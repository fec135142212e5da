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
- ``entry_calls``: per solver entry point (:data:`ENTRY_POINTS`), the calls
  made while it runs, its own call included, from a second solve of the same
  instances under a ``sys.setprofile`` counter (cProfile's graph cannot
  split a callee's calls by caller).  A decorator's own calls around an
  entry point are not counted;
- the per-iteration ratios of all of these.

Problem construction is not profiled, and a warm-up solve of the first
instance, capped at three iterations, runs before the profiler starts, so
one-time imports and caches are not counted.  Nothing is timed, so two runs
of one checkout give identical lines; a ledger taken inside a process that
has already solved other problems can differ by a fraction of a call per
iteration, so compare lines of fresh runs of this script.

``--diff A B`` sums each workload's seeds on both sides and prints, per
workload, calls, LAPACK calls, middle-matrix builds and evaluations per
iteration on each side, with the relative change of each, and on a second
line the entry points' calls per iteration (``-`` on a side whose ledger
has none).
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import importlib
import inspect
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
# Entry points of one solver iteration: ledger name -> (module, qualified name).
ENTRY_POINTS = {
    "solver.step": ("rlbfgsb.solver", "step"),
    "solver._cauchy_direction": ("rlbfgsb.solver", "_cauchy_direction"),
    "memory.apply_inverse": ("rlbfgsb.memory", "LbfgsMemory.apply_inverse"),
    "gcd.generalized_cauchy_direction": ("rlbfgsb.gcd", "generalized_cauchy_direction"),
    "linesearch.armijo_capped": ("rlbfgsb.linesearch", "armijo_capped"),
    "memory.transport": ("rlbfgsb.memory", "LbfgsMemory.transport"),
    "memory.push": ("rlbfgsb.memory", "LbfgsMemory.push"),
}


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


def entry_codes() -> dict:
    """Each entry point's ledger name, keyed by the code object of its unwrapped function."""
    codes = {}
    for name, (module, qualname) in ENTRY_POINTS.items():
        obj = importlib.import_module(module)
        for attr in qualname.split("."):
            obj = getattr(obj, attr)
        codes[inspect.unwrap(obj).__code__] = name
    return codes


def entry_point_calls(run) -> dict[str, int]:
    """Calls made while each entry point runs, its own included, during ``run()``.

    Python and C calls are counted as cProfile counts them; an entry point
    that calls itself is counted once per outermost call.
    """
    codes = entry_codes()
    depth = dict.fromkeys(codes.values(), 0)
    counts = dict.fromkeys(codes.values(), 0)

    def hook(frame, event, arg):
        if event == "call" or event == "c_call":
            for name, d in depth.items():
                if d:
                    counts[name] += 1
            name = codes.get(frame.f_code) if event == "call" else None
            if name is not None:
                if not depth[name]:  # a call of itself was counted above
                    counts[name] += 1
                depth[name] += 1
        elif event == "return":
            name = codes.get(frame.f_code)
            if name is not None:
                depth[name] -= 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


def ledger(problems: list, options) -> dict:
    """Totals and per-iteration ratios of solving ``problems`` from their initial points."""
    from rlbfgsb import solve

    def run():
        return [solve(pr, pr.initial_point, options) for pr in problems]

    first = problems[0]
    solve(first, first.initial_point, dataclasses.replace(options, max_iterations=3))
    profiler = cProfile.Profile()
    profiler.enable()
    results = run()
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
        "entry_calls": entry_point_calls(run),
    }
    return {**row, **per_iteration(row)}


def per_iteration(row: dict) -> dict:
    its = max(row["iterations"], 1)
    out = {f"{k}_per_iter": row[k] / its for k in COUNTS}
    if "entry_calls" in row:
        out["entry_calls_per_iter"] = {k: v / its for k, v in row["entry_calls"].items()}
    return out


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
    """Each workload's totals over its seeds; entry-point calls where every line has them."""
    totals: dict[str, dict] = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                first = r["workload"] not in totals
                t = totals.setdefault(r["workload"], dict.fromkeys(("iterations",) + COUNTS, 0))
                for k in ("iterations",) + COUNTS:
                    t[k] += r[k]
                if "entry_calls" not in r:
                    t.pop("entry_calls", None)
                elif first or "entry_calls" in t:
                    entry = t.setdefault("entry_calls", {})
                    for k, v in r["entry_calls"].items():
                        entry[k] = entry.get(k, 0) + v
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
        ea, eb = pa.get("entry_calls_per_iter", {}), pb.get("entry_calls_per_iter", {})
        if ea or eb:
            parts = []
            for k in [k for k in ENTRY_POINTS if k in ea or k in eb]:
                va, vb = ea.get(k), eb.get(k)
                change = f" ({(vb - va) / va:+.1%})" if va and vb is not None else ""
                fa, fb = ("-" if v is None else f"{v:.4g}" for v in (va, vb))
                parts.append(f"{k} {fa} -> {fb}{change}")
            lines.append(f"  {name} calls per iteration within: " + "; ".join(parts))
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
