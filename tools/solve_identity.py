"""Per-solve identity records of the benchmark workloads, and a diff of two record files.

    python3 ../parent/tools/solve_identity.py --workloads sphere,box --seeds 0-1 > a.jsonl
    python3 tools/solve_identity.py --workloads sphere,box --seeds 0-1 > b.jsonl
    python3 tools/solve_identity.py --diff a.jsonl b.jsonl

Without ``--diff`` it builds each workload's instances for each seed through
``bench/workloads.py`` of the checkout holding this script, solves them in
instance order with the workload's solver options and ``rlbfgsb`` from that
checkout's ``src/``, and writes one JSON line per solve: iterations, cost and gradient evaluations, termination, the
float64 bits of the final cost and projected-gradient norm, and a sha256 of
the final point.  Nothing is timed, so two runs of one checkout give
identical lines.

``--diff A B`` matches the solves of two record files by workload, seed and
instance and prints, per workload, the totals on each side, the solves whose
records differ, the termination flips and the largest relative difference of
the final costs.  It exits 0 when the files describe identical solves and 1
otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import struct
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = ("iterations", "cost_evals", "grad_evals")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def float_bits(x: float) -> str:
    return struct.pack(">d", x).hex()


def bits_float(h: str) -> float:
    return struct.unpack(">d", bytes.fromhex(h))[0]


def point_digest(point) -> str:
    h = hashlib.sha256(point.euclidean.tobytes())
    if point.manifold is not None:
        h.update(point.manifold.tobytes())
    return h.hexdigest()


def solve_records(workloads: list[str], seeds: list[int]):
    """One record per solve, for every workload and seed, in instance order."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # the benchmark's setting, before numpy is imported
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import rlbfgsb
    from workloads import WORKLOADS

    for name in workloads:
        workload = WORKLOADS[name]
        for seed in seeds:
            for i, problem in enumerate(workload.build(seed)):
                res = rlbfgsb.solve(problem, problem.initial_point, workload.options)
                yield {
                    "workload": name,
                    "seed": seed,
                    "instance": i,
                    "problem": problem.name,
                    **{k: getattr(res, k) for k in COUNTS},
                    "termination": res.termination.value,
                    "cost_bits": float_bits(res.cost),
                    "pg_bits": float_bits(res.pg_norm),
                    "point_sha256": point_digest(res.point),
                }


def read_records(path: Path) -> dict:
    with open(path) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    return {(r["workload"], r["seed"], r["instance"]): r for r in rows}


def diff(a: dict, b: dict) -> list[str]:
    """Report lines; the last one says whether the two sides are identical."""
    lines, changed_total = [], 0
    for name in sorted({key[0] for key in a.keys() | b.keys()}):
        keys = sorted(k for k in a.keys() | b.keys() if k[0] == name)
        missing = [k for k in keys if k not in a or k not in b]
        both = [k for k in keys if k in a and k in b]
        changed = [k for k in both if a[k] != b[k]]
        flips = Counter(
            (a[k]["termination"], b[k]["termination"])
            for k in changed if a[k]["termination"] != b[k]["termination"]
        )
        rel = 0.0
        for k in changed:
            ca, cb = bits_float(a[k]["cost_bits"]), bits_float(b[k]["cost_bits"])
            if ca != cb:
                rel = max(rel, abs(ca - cb) / max(abs(ca), abs(cb)))
        totals = "  ".join(
            f"{c} {sum(a[k][c] for k in both)}/{sum(b[k][c] for k in both)}" for c in COUNTS
        )
        lines.append(
            f"{name}: {len(both)} solves, {len(changed)} changed, {len(missing)} unmatched; "
            f"{totals}; max rel cost diff {rel:.3g}"
        )
        for (ta, tb), n in sorted(flips.items()):
            lines.append(f"  termination {ta} -> {tb}: {n}")
        for k in changed:
            fields = sorted(f for f in a[k] if a[k][f] != b[k].get(f))
            lines.append(f"  changed seed {k[1]} instance {k[2]} ({a[k]['problem']}): "
                         + ", ".join(fields))
        changed_total += len(changed) + len(missing)
    lines.append("identical" if not changed_total else f"differ: {changed_total} solves")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="box,bss-small,bss-large,sphere")
    ap.add_argument("--seeds", default="0")
    ap.add_argument("--diff", nargs=2, type=Path, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.diff:
        lines = diff(*(read_records(p) for p in args.diff))
        print("\n".join(lines))
        return 0 if lines[-1] == "identical" else 1
    for record in solve_records(args.workloads.split(","), parse_seeds(args.seeds)):
        print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
