"""Smoke test of ``tools/solve_identity.py``: per-solve records and their diff."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_tool(*args):
    cmd = [sys.executable, str(ROOT / "tools" / "solve_identity.py"), *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_box_records_diff_identical_and_an_edit_shows(tmp_path):
    paths = []
    for name in ("a", "b"):  # two separate runs of the same checkout
        out = run_tool("--workloads", "box", "--seeds", "0")
        assert out.returncode == 0, out.stderr
        paths.append(tmp_path / f"{name}.jsonl")
        paths[-1].write_text(out.stdout)
    records = [json.loads(line) for line in paths[0].read_text().splitlines()]
    assert [r["instance"] for r in records] == list(range(6))

    same = run_tool("--diff", *map(str, paths))
    assert same.returncode == 0, same.stdout
    assert same.stdout.splitlines()[-1] == "identical"
    assert "box: 6 solves, 0 changed" in same.stdout

    records[2]["grad_evals"] += 1
    edited = tmp_path / "edited.jsonl"
    edited.write_text("".join(json.dumps(r) + "\n" for r in records))
    changed = run_tool("--diff", str(paths[0]), str(edited))
    assert changed.returncode == 1
    assert "box: 6 solves, 1 changed" in changed.stdout
    assert "changed seed 0 instance 2" in changed.stdout
    assert changed.stdout.splitlines()[-1] == "differ: 1 solves"
