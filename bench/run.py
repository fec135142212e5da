"""Solver benchmark: one workload per run, through the public rlbfgsb API.

Run from the repository root:

    python3 bench/run.py --workload bss-small --seed 0 --seconds 30 --trace 0

``--trace 0`` times untraced solves and prints the end-to-end metrics.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics.  Either way the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` whose metrics are
the ones ``BENCHMARK.json`` lists for that mode; every other number goes to
the lines above it and to ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SETUP_MIN_BUILDS = 5
SETUP_MIN_SECONDS = 0.3
# Units of the metrics that are printed but not part of the result line;
# the result line's units come from BENCHMARK.json.
PRINTED_UNITS = {
    "solve_ms": "ms",
    "iter_ms": "ms",
    "reference_ms": "ms",
    "solve_ms.tail": "ms",
    "solve_ms.tail_pct": "%",
    "objective_gap": "cost",
    "pg_norm": "norm",
    "evals_ratio.scipy": "ratio",
    "fail_rate": "ratio",
    "import_s": "s",
    "solves": "count",
    "passes": "count",
    "instances": "count",
    "trace.self_ms": "ms",
    "trace.passes": "count",
}
clock = time.perf_counter


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def import_package():
    """Import rlbfgsb from this checkout's ``src/``, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import rlbfgsb

    if Path(rlbfgsb.__file__).resolve().parent.parent != src:
        raise BenchmarkError(f"rlbfgsb imported from {rlbfgsb.__file__}, not {src}")
    return rlbfgsb


def environment() -> dict:
    from importlib.metadata import version

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "processes": 1,
    }


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


# ----------------------------------------------------------------------
# Running passes


def measure_setup(build, seed: int):
    """Median time to build the workload's problems, over several builds."""
    times = []
    started = clock()
    while len(times) < SETUP_MIN_BUILDS or clock() - started < SETUP_MIN_SECONDS:
        t0 = clock()
        problems = build(seed)
        times.append(clock() - t0)
    return statistics.median(times), problems


def solve_pass(
    solve, options, instances, problems, order, check_solve, reference=None
) -> list[dict]:
    """Solve every instance once, in ``order``; one sample per solve.

    With a ``reference``, the machine's speed is measured between solves.
    """
    samples = []
    for i in order:
        inst = instances[i]
        if reference is not None:
            reference.maybe()
        t0 = clock()
        try:
            res = solve(problems[i], inst.problem.initial_point, options)
        except Exception as exc:  # a raising solve is a counted failure
            t1 = clock()
            samples.append(
                {"instance": int(i), "start": t0, "end": t1, "ms": (t1 - t0) * 1e3,
                 "failure": f"raised {type(exc).__name__}: {exc}"}
            )
            continue
        t1 = clock()
        gap = None if inst.reference is None else res.cost - inst.reference
        samples.append(
            {
                "instance": int(i),
                "start": t0,
                "end": t1,
                "ms": (t1 - t0) * 1e3,
                "iterations": res.iterations,
                "cost_evals": res.cost_evals,
                "grad_evals": res.grad_evals,
                "cost": res.cost,
                "gap": gap,
                "pg_norm": res.pg_norm,
                "termination": res.termination.value,
                "failure": check_solve(inst, res),
            }
        )
    return samples


def time_left(started: float, done: int, seconds: float) -> bool:
    """Whether one more pass, as long as the average so far, fits in the run."""
    elapsed = clock() - started
    return elapsed + elapsed / done <= seconds


def counts_by_instance(samples) -> dict:
    return {
        s["instance"]: (s.get("iterations"), s.get("cost_evals"), s.get("grad_evals"))
        for s in samples
    }


def tail(values):
    """Highest standard percentile with at least ten samples beyond it."""
    import numpy as np

    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct, float(np.percentile(values, pct))
    return None, None


# ----------------------------------------------------------------------
# Metrics


def end_to_end(instances, passes, setup_s) -> dict:
    """Metrics a user of the solver sees, from untraced passes only.

    Every pass solves the same instances, so each instance has one time
    sample per pass.  ``solve_ms`` is the mean over instances of each
    instance's median solve time; instances differ too much in size for a
    median over all solves to be steady.  ``solve_cal`` and ``iter_cal`` do
    the same with each solve's time in units of the reference workload
    measured around it (see ``calibration.py``).
    """
    ok = [s for s in passes[0] if "iterations" in s]
    all_samples = [s for p in passes for s in p]

    def per_instance_median(key):
        by_instance = [[] for _ in instances]
        for s in all_samples:
            by_instance[s["instance"]].append(s[key])
        return [statistics.median(v) for v in by_instance]

    ms, cal = per_instance_median("ms"), per_instance_median("cal")
    iterations = max(sum(s["iterations"] for s in ok), 1)
    m = {
        "solve_cal": statistics.fmean(cal),
        "iter_cal": sum(cal) / iterations,
        "solve_ms": statistics.fmean(ms),
        "iter_ms": sum(ms) / iterations,
        "reference_ms": statistics.median(s["ref_ms"] for s in all_samples),
        "iterations": sum(s["iterations"] for s in ok),
        "cost_evals": sum(s["cost_evals"] for s in ok),
        "grad_evals": sum(s["grad_evals"] for s in ok),
        "pg_norm": statistics.median(s["pg_norm"] for s in ok) if ok else float("nan"),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solves": len(all_samples),
        "passes": len(passes),
        "instances": len(instances),
    }
    pct, value = tail([s["ms"] for s in all_samples])
    if pct is not None:
        m["solve_ms.tail"] = value
        m["solve_ms.tail_pct"] = pct
    gaps = [s["gap"] for s in all_samples if s.get("gap") is not None]
    if gaps:
        m["objective_gap"] = max(gaps)
    return m


def per_layer(pairs) -> dict:
    """Layer metrics from the traced passes; times are ms per pass."""
    from tracing import SPAN_NAMES

    summaries = [summary for _plain, _traced, summary in pairs]
    walls = [sum(s["ms"] for s in traced) for _plain, traced, _ in pairs]
    plain_wall = sum(s["ms"] for plain, _, _ in pairs for s in plain)

    def med(key):
        return statistics.median(s[key] for s in summaries)

    first = summaries[0]
    layer_ms = [
        sum(s[f"{n}.self_ms"] for n in SPAN_NAMES if n != "trace") for s in summaries
    ]
    steps = first["solver.step.calls"]
    ls_calls = first["linesearch.calls"]
    bps = first["gcd.breakpoints_total"]
    m = {
        "solver.step.calls": steps,
        "solver.memory_resets": first["solver.memory_resets"],
        "memory.pairs_dropped": first["memory.pairs_dropped"],
        "memory.pairs_rejected": first["memory.pairs_rejected"],
        "memory.size_mean": first["memory.size_sum"] / max(steps, 1),
        "gcd.calls": first["gcd.calls"],
        "gcd.breakpoints_total": bps,
        "gcd.breakpoints_crossed": first["gcd.breakpoints_crossed"],
        "gcd.crossed_ratio": first["gcd.breakpoints_crossed"] / bps if bps else 0.0,
        "gcd.not_found": first["gcd.not_found"],
        "linesearch.calls": ls_calls,
        "linesearch.evals_per_call": first["linesearch.evals"] / max(ls_calls, 1),
        "linesearch.expansions": first["linesearch.expansions"],
        "linesearch.failures": ls_calls - first["linesearch.accepted"],
        "linesearch.long_steps": first["linesearch.long_steps"],
        "geometry.inner.calls": first["geometry.inner"],
        "geometry.transport.calls": first["geometry.transport"],
        "geometry.retract.calls": first["geometry.retract"],
        "trace.overhead": sum(walls) / plain_wall,
        # Share of the program's own time (traced wall minus the tracer's
        # bookkeeping) that the layer spans account for.
        "trace.coverage": statistics.median(
            l / (w - s["trace.self_ms"]) for l, w, s in zip(layer_ms, walls, summaries)
        ),
        "trace.self_ms": med("trace.self_ms"),
        "trace.passes": len(pairs),
    }
    for name in SPAN_NAMES:
        if name != "trace":
            m[f"{name}.self_ms"] = med(f"{name}.self_ms")
            m[f"{name}.share"] = statistics.median(
                s[f"{name}.self_ms"] / w for s, w in zip(summaries, walls)
            )
    return m


# ----------------------------------------------------------------------


def run(args) -> int:
    for var in THREAD_VARS:  # before numpy is imported anywhere
        os.environ[var] = "1"
    t0 = clock()
    rlbfgsb = import_package()
    import numpy as np

    import tracing
    from calibration import Reference
    from workloads import WORKLOADS, check_solve, make_instances, scipy_reference

    import_s = clock() - t0
    if args.workload not in WORKLOADS:
        raise BenchmarkError(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    declared = declared_metrics(args.trace)
    env = environment()
    print(f"# env {json.dumps(env, sort_keys=True)}")

    setup_s, problems = measure_setup(workload.build, args.seed)
    instances = make_instances(problems)
    scipy_rows = None
    if args.workload == "box" and not args.trace:
        scipy_rows = scipy_reference(problems)

    # Warm-up: a few iterations on the first problem fill lazy imports and
    # caches before anything is timed.
    rlbfgsb.solve(
        problems[0], problems[0].initial_point, rlbfgsb.SolverOptions(max_iterations=3)
    )

    rng = np.random.default_rng(args.seed)
    all_samples: list[dict] = []
    pass_counts: list[dict] = []

    def one_pass(probs, order, traced, reference=None):
        samples = solve_pass(
            rlbfgsb.solve, workload.options, instances, probs, order, check_solve, reference
        )
        for s in samples:
            s["pass"] = len(pass_counts)
            s["traced"] = traced
        pass_counts.append(counts_by_instance(samples))
        all_samples.extend(samples)
        return samples

    started = clock()
    spans: list[dict] = []
    if not args.trace:
        if tracing.installed_wrappers():
            raise BenchmarkError("wrappers installed during an untraced run")
        reference = Reference()
        passes = []
        while not passes or time_left(started, len(passes), args.seconds):
            passes.append(
                one_pass(problems, rng.permutation(len(problems)), False, reference)
            )
        reference.measure()
        for s in all_samples:
            s["ref_ms"] = reference.around(s["start"], s["end"])
            s["cal"] = s["ms"] / s["ref_ms"]
        metrics = end_to_end(instances, passes, setup_s)
        if scipy_rows is not None:
            by_instance = {s["instance"]: s for s in passes[0]}
            for i, r in enumerate(scipy_rows):
                r["rlbfgsb_iterations"] = by_instance[i].get("iterations")
                r["rlbfgsb_evals"] = by_instance[i].get("cost_evals")
            metrics["evals_ratio.scipy"] = metrics["cost_evals"] / sum(
                r["evals"] for r in scipy_rows
            )
        layer_counters_repeat = True
    else:
        tracer = tracing.Tracer()
        traced_problems = [tracer.traced_problem(p) for p in problems]
        pairs = []
        while not pairs or time_left(started, len(pairs), args.seconds):
            order = rng.permutation(len(problems))
            traced_first = len(pairs) % 2 == 1  # alternate which side runs first
            plain = None if traced_first else one_pass(problems, order, False)
            tracer.new_pass()
            tracer.install()
            try:
                traced = one_pass(traced_problems, order, True)
            finally:
                tracer.remove()
            if tracing.installed_wrappers():
                raise BenchmarkError("wrappers left installed after a traced pass")
            if traced_first:
                plain = one_pass(problems, order, False)
            summary = tracer.summarize()
            tracing.check_calls(summary, traced)
            spans.append(tracer.spans())
            pairs.append((plain, traced, summary))
        metrics = per_layer(pairs)
        tracing.check_share(metrics["trace.coverage"])
        counters = [
            {k: v for k, v in s.items() if not k.endswith("self_ms")} for _, _, s in pairs
        ]
        layer_counters_repeat = all(c == counters[0] for c in counters)

    # The solver is deterministic: every pass (traced or not) over the same
    # inputs must reproduce the same iteration and evaluation counts.
    deterministic = layer_counters_repeat and all(c == pass_counts[0] for c in pass_counts)
    failed = sum(1 for s in all_samples if s["failure"] is not None)
    attempted = len(all_samples)
    metrics["fail_rate"] = failed / attempted
    metrics["import_s"] = import_s

    write_outputs(args, env, metrics, all_samples, scipy_rows, spans)
    print_table(args, metrics, declared, all_samples, scipy_rows, deterministic)

    missing = [d["name"] for d in declared if d["name"] not in metrics]
    if missing:
        raise BenchmarkError(f"metrics not computed on {args.workload}: {missing}")
    result = {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            d["name"]: {"value": float(metrics[d["name"]]), "unit": d["unit"]} for d in declared
        },
    }
    print(json.dumps(result))
    return 0


def write_outputs(args, env, metrics, samples, scipy_rows, spans) -> None:
    import numpy as np

    from tracing import SPAN_NAMES

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "args": vars(args),
        "env": env,
        "metrics": metrics,
        "scipy": scipy_rows,
        "samples": samples,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if spans:
        # Only the latest traced run per workload is kept, to bound disk use.
        np.savez(
            OUT_DIR / f"{args.workload}.spans.npz",
            span_names=np.array(SPAN_NAMES),
            pass_index=np.concatenate([np.full(len(s["name"]), i) for i, s in enumerate(spans)]),
            **{k: np.concatenate([s[k] for s in spans]) for k in spans[0]},
        )


def print_table(args, metrics, declared, samples, scipy_rows, deterministic) -> None:
    units = {d["name"]: d["unit"] for d in declared}
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    for name in sorted(metrics):
        if name in units:
            unit = units[name]
        else:
            unit = "ratio" if name.endswith(".share") else PRINTED_UNITS[name]
            unit += "  (printed only)"
        print(f"{name:34s} {metrics[name]!r:>24} {unit}")
    if scipy_rows:
        print(f"# {'problem':8s} {'iters':>6s} {'scipy':>6s} {'evals':>6s} {'scipy':>6s}")
        for r in scipy_rows:
            print(f"# {r['problem']:8s} {r['rlbfgsb_iterations']!s:>6s} {r['iterations']:6d}"
                  f" {r['rlbfgsb_evals']!s:>6s} {r['evals']:6d}")
    for s in samples:
        if s["failure"] is not None:
            print(f"# FAILED instance {s['instance']} pass {s['pass']}: {s['failure']}")
    if not deterministic:
        print("# FAILED counts differ between passes of the same inputs")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except Exception as exc:  # top-level boundary: report and exit nonzero
        import traceback

        traceback.print_exc()
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
