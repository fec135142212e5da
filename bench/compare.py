"""Compare a parent checkout with a changed one, run by run, on one workload.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR --workload bss-small --seeds 0-9

Runs ``bench/run.py`` in each checkout once per seed, alternating which side
goes first, and prints for every metric each side's median and quartiles,
how many pairs the change won, and a verdict:

- ``gain``: the change won at least 9 in 10 pairs (ties count for neither)
  and the medians differ by more than the parent's own quartile spread;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
- ``unresolved``: the parent's own spread exceeds the bound and not every
  run of the change reads better than every run of the parent;
- ``same``: none of the above.

Both checkouts must hold the same ``bench/`` files and ``BENCHMARK.json``,
so that both sides are measured by identical benchmark code and settings.
Per-layer metrics (``--trace 1``) have no bound and get no verdict.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench_digest(checkout: Path) -> str:
    h = hashlib.sha256()
    files = sorted((checkout / "bench").glob("*.py")) + [checkout / "BENCHMARK.json"]
    for f in files:
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{checkout}: seed {seed} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"# {checkout} seed {seed}: correct=false, failed={result['failed']}")
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def wins(spec: dict, parent: list[float], change: list[float]) -> int:
    """Pairs in which the change reads better than the parent; ties count for neither."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    return sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)


def verdict(spec: dict, parent: list[float], change: list[float]) -> str:
    if "bound" not in spec:
        return ""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    won = wins(spec, parent, change) >= 0.9 * len(parent)
    if won and abs(cm - pm) > p3 - p1 and sign * (pm - cm) > 0:
        return "gain"
    if sign * (cm - pm) > spec["bound"] * abs(pm):
        return "regression"
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if (p3 - p1) > spec["bound"] * abs(pm) and not all_better:
        return "unresolved"
    return "same"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if bench_digest(args.parent) != bench_digest(args.change):
        print("bench/ or BENCHMARK.json differ between the checkouts", file=sys.stderr)
        return 2
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for k, seed in enumerate(parse_seeds(args.seeds)):
        sides = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        for side in sides:
            checkout = args.parent if side == "parent" else args.change
            runs[side].append(
                run_once(checkout, args.workload, seed, spec["run_seconds"], args.trace)
            )

    print(f"# {args.workload}: {len(runs['parent'])} pairs, parent={args.parent} "
          f"change={args.change}")
    print(f"{'metric':30s} {'parent q1/med/q3':>34s} {'change q1/med/q3':>34s} "
          f"{'wins':>5s} verdict")
    for m in metrics:
        p = [r["metrics"][m["name"]]["value"] for r in runs["parent"]]
        c = [r["metrics"][m["name"]]["value"] for r in runs["change"]]
        pq = "/".join(f"{v:.4g}" for v in quartiles(p))
        cq = "/".join(f"{v:.4g}" for v in quartiles(c))
        print(f"{m['name']:30s} {pq:>34s} {cq:>34s} {wins(m, p, c):>5d} {verdict(m, p, c)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
