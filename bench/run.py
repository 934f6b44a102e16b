"""Benchmark of affinetl: one workload per run, timed end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a checkout; the package is imported from ``src/`` next
to this directory, with BLAS and AFFINETL_THREADS pinned to one thread.
With ``--trace 0`` the run times the whole number of passes of the
workload's operations that comes nearest to ``--seconds`` seconds and
reports the end-to-end metrics named in BENCHMARK.json.  With ``--trace 1``
it times the workload's first pass untraced and traced in turn, and reports
the per-layer metrics.
Outputs are checked outside the timed region.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "AFFINETL_THREADS")
SETUP_REPEATS = 5

# The public functions the traced run wraps, as (module, function).
LAYER_FUNCTIONS = (
    ("data", "synth_dataset"),
    ("kernels", "gram"),
    ("solvers", "solve_spd"),
    ("solvers", "penalized_ls"),
    ("model_selection", "grid_search_cv"),
    ("baselines", "fit_baseline"),
    ("baselines", "predict_baseline"),
    ("affine", "fit"),
    ("affine", "update_block"),
    ("affine", "objective"),
    ("affine", "fit_constrained"),
    ("affine", "predict"),
    ("calibration", "fit_calibration"),
    ("calibration", "fit_log_difference"),
    ("spectral", "eigvals_desc"),
    ("spectral", "decay_rate"),
    ("benchmark", "run_benchmark"),
    ("cli", "main"),
)

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import affinetl, affinetl.cli\n"
    "print(time.perf_counter() - start)\n"
)


class BenchError(Exception):
    """A run that cannot report a result."""


def import_seconds() -> float:
    """Wall time of importing the package in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise BenchError(f"importing affinetl failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_pass(ops) -> float:
    """Call each operation in turn; returns the wall time of the pass."""
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            op.output = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            op.error = f"{type(exc).__name__}: {exc}"
        op.seconds = time.perf_counter() - t0
    return time.perf_counter() - start


def check(workload, ops) -> float:
    """Check every operation that returned and keep only its record, so
    memory does not grow with the run; returns the seconds spent."""
    start = time.perf_counter()
    for op in ops:
        if op.error is None:
            problems = workload.check(op)
            if problems:
                op.error = "; ".join(problems)
                op.wrong = True
        op.output = workload.keep(op) if op.error is None else None
    return time.perf_counter() - start


def another_pass(spent: float, passes: int, seconds: float) -> bool:
    """Whether one more pass, as long as the mean one so far, brings the
    timed work nearer to ``seconds`` than stopping does."""
    return passes == 0 or spent + 0.5 * spent / passes < seconds


def tail(times) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that
    percentile; with ten samples or fewer, the largest sample."""
    x = sorted(times)
    if len(x) <= 10:
        return x[-1], 100.0
    return x[len(x) - 11], 100.0 * (len(x) - 10) / len(x)


def timed(workload, seconds: float) -> tuple[dict, list, dict]:
    samples = []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        start = time.perf_counter()
        workload.setup()
        samples.append(t_import + time.perf_counter() - start)

    # Whole passes, as many as come nearest to the requested time; each pass
    # is checked outside the timed region before the next starts.
    ops = []
    r = 0
    wall = check_s = 0.0
    while another_pass(wall, r, seconds):
        batch = workload.ops(r)
        wall += run_pass(batch)
        check_s += check(workload, batch)
        ops += batch
        r += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    times = [op.seconds for op in ops]
    tail_s, tail_pct = tail(times)
    objective = [v for op in ops if op.error is None for v in op.output["objective"]]
    metrics = {
        "setup_s": median(samples),
        "ops_per_s": len(ops) / wall,
        "op_s_p50": median(times),
        "op_s_tail": tail_s,
        "peak_rss_mb": peak_rss_mb,
        "objective_p50": median(objective) if objective else float("nan"),
    }
    info = {"passes": r, "wall_s": wall, "operations": len(ops),
            "tail_percentile": tail_pct, "setup_samples_s": samples, "check_s": check_s}
    return metrics, ops, info


def traced(workload, seconds: float) -> tuple[dict, list, dict]:
    from tracing import Patches, Tracer

    def traced_call(fn):
        tracer = Tracer()
        with Patches() as patches:
            missing = tracer.install(patches, LAYER_FUNCTIONS)
            result = fn()
        return tracer.values, result, missing

    setup_values, _, missing = traced_call(workload.setup)
    ops, plain, wrapped, reps = [], [], [], []
    check_s = 0.0
    while another_pass(sum(plain) + sum(wrapped), len(reps), seconds):
        batch = workload.ops(0)
        plain.append(run_pass(batch))
        check_s += check(workload, batch)
        ops += batch
        batch = workload.ops(0)
        values, wall, _ = traced_call(lambda: run_pass(batch))
        wrapped.append(wall)
        reps.append(values)
        check_s += check(workload, batch)
        ops += batch

    def is_count(name):
        return not name.endswith(".self_s")

    for values in reps[1:]:
        differ = sorted(k for k in set(values) | set(reps[0])
                        if is_count(k) and values.get(k, 0) != reps[0].get(k, 0))
        if differ:
            raise BenchError(f"layer counts differ between identical passes: {differ}")
    metrics = {}
    for name in set(setup_values) | set(reps[0]):
        per_pass = (median(v.get(name, 0.0) for v in reps) if not is_count(name)
                    else reps[0].get(name, 0))
        metrics[name] = setup_values.get(name, 0) + per_pass
    metrics["trace.pass_s"] = median(plain)
    metrics["trace.overhead_s"] = median(wrapped) - median(plain)
    info = {"traced_passes": len(reps), "untraced_pass_s": plain, "traced_pass_s": wrapped,
            "not_found": missing, "check_s": check_s}
    return metrics, ops, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the whole record, with every operation, here")
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "affinetl" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"bench: needs {SRC / 'affinetl'} and {spec_path}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import affinetl

    if Path(affinetl.__file__).resolve().parent != SRC / "affinetl":
        print(f"bench: imported affinetl from {affinetl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    spec = json.loads(spec_path.read_text())
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    out_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](seed=args.seed, out_dir=out_dir)
    env = environment()
    print("env " + json.dumps(env), flush=True)
    try:
        workload.start()
        if args.trace:
            values, ops, info = traced(workload, args.seconds)
        else:
            values, ops, info = timed(workload, args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    finally:
        workload.stop()
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    if args.trace:
        idle = [name for name in workload.layers if metrics[name]["value"] == 0.0]
        if idle:
            print(f"bench: layer metrics read 0 on {args.workload}: {idle}", file=sys.stderr)
            return 4
    failed = [op for op in ops if op.error is not None]
    for op in failed[:20]:
        print(f"bench: {op.label} (pass {op.pass_index}) failed: {op.error}", file=sys.stderr)
    result = {"correct": not any(op.wrong for op in ops), "attempted": len(ops),
              "failed": len(failed), "metrics": metrics}
    records = [op.output for op in ops if op.error is None]
    summary = {"operations": len(ops), **(workload.summary(records) if records else {})}
    print("info " + json.dumps(info), flush=True)
    print("summary " + json.dumps(summary), flush=True)
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": env, "info": info, "summary": summary,
                  "result": result,
                  "operations": [{"label": op.label, "pass": op.pass_index,
                                  "seconds": op.seconds, "error": op.error} for op in ops]}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
