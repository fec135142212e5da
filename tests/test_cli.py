"""Benchmark harness tests: schema, determinism, exit codes, CSV pipeline."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from rlbfgsb.cli import CSV_HEADER, main, run_suite

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def fake_timer():
    counter = itertools.count()
    return lambda: float(next(counter))


def read_rows(path):
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0]
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestRunSuiteEuclidean:
    def test_six_rows_plus_aggregate(self, tmp_path):
        out = tmp_path / "res.csv"
        code = run_suite("euclidean", out=str(out), seed=0)
        assert code == 0
        header, rows = read_rows(out)
        assert header == CSV_HEADER
        assert len(rows) == 7
        assert rows[-1][0] == "aggregate"
        names = sorted(r[0] for r in rows[:-1])
        assert names == ["BRANIN", "CAMEL6", "HS38", "HS4", "HS45", "HS5"]

    def test_zero_violations(self, tmp_path):
        out = tmp_path / "res.csv"
        run_suite("euclidean", out=str(out), seed=0)
        _, rows = read_rows(out)
        assert all(float(r[7]) == 0.0 for r in rows)

    def test_rows_sorted(self, tmp_path):
        out = tmp_path / "res.csv"
        run_suite("euclidean", out=str(out), seed=0)
        _, rows = read_rows(out)
        names = [r[0] for r in rows[:-1]]
        assert names == sorted(names)


class TestDeterminism:
    def test_identical_files_with_injected_timer(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_suite("bss", out=str(a), seed=7, instances=3, timer=fake_timer())
        run_suite("bss", out=str(b), seed=7, instances=3, timer=fake_timer())
        assert a.read_bytes() == b.read_bytes()

    def test_identical_records_modulo_time(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_suite("bss", out=str(a), seed=7, instances=2)
        run_suite("bss", out=str(b), seed=7, instances=2)
        _, rows_a = read_rows(a)
        _, rows_b = read_rows(b)
        strip = lambda rows: [r[:2] + r[3:9] for r in rows[:-1]]
        assert strip(rows_a) == strip(rows_b)


class TestCpcCsvPipeline:
    def test_bundled_iris_single_record(self, tmp_path):
        out = tmp_path / "res.csv"
        code = run_suite(
            "cpc",
            out=str(out),
            seed=1,
            csv_path=str(DATA_DIR / "iris.csv"),
            class_column="Species",
        )
        assert code == 0
        _, rows = read_rows(out)
        assert len(rows) == 2  # one record + aggregate
        assert rows[0][0].startswith("CPC[")
        assert float(rows[0][7]) == 0.0

    def test_missing_class_column_flag(self, tmp_path):
        with pytest.raises(ValueError):
            run_suite("cpc", out=str(tmp_path / "x.csv"), csv_path=str(DATA_DIR / "iris.csv"))


class TestJsonFormat:
    def test_json_roundtrip(self, tmp_path):
        out = tmp_path / "res.json"
        run_suite("euclidean", out=str(out), seed=0, fmt="json")
        records = json.loads(out.read_text())
        assert len(records) == 7
        keys = set(records[0])
        assert keys == {
            "problem",
            "seed",
            "time_ms",
            "objective_calls",
            "gradient_calls",
            "objective_value",
            "pg_norm",
            "violation",
            "termination",
        }


class TestMain:
    def test_unknown_suite_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "nonsense"])
        assert exc.value.code == 2

    def test_unwritable_path(self, tmp_path):
        code = main(["run", "euclidean", "--out", str(tmp_path / "no" / "dir" / "x.csv")])
        assert code == 2

    def test_euclidean_run_ok(self, tmp_path):
        out = tmp_path / "res.csv"
        code = main(["run", "euclidean", "--out", str(out), "--seed", "5", "--pg-tol", "1e-6"])
        assert code == 0
        assert out.exists()

    def test_solver_flags_forwarded(self, tmp_path):
        out = tmp_path / "res.csv"
        code = main(
            ["run", "euclidean", "--out", str(out), "--mu", "3", "--max-iters", "2"]
        )
        assert code == 0
        _, rows = read_rows(out)
        assert any(r[8] == "max_iterations" for r in rows[:-1])

    @pytest.mark.parametrize(
        "args",
        [
            ["euclidean", "--mu", "0"],
            ["euclidean", "--max-iters", "0"],
            ["euclidean", "--pg-tol", "-1"],
            ["euclidean", "--pg-tol", "nan"],
            ["bss", "--instances", "0"],
            ["cpc", "--instances", "0"],
        ],
    )
    def test_invalid_value_usage_error(self, tmp_path, capsys, args):
        out = tmp_path / "res.csv"
        code = main(["run", *args, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
