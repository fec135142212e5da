"""Smoke test of the traced benchmark harness.

``bench/tracing.py`` wraps solver entry points by name and fails a traced
run when a wrapper sees no calls, so a refactor that renames or bypasses
one of them shows up here rather than only in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_box_run_is_correct():
    cmd = [sys.executable, "bench/run.py", "--workload", "box", "--seed", "0",
           "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
