"""otflow benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an otflow checkout; the package is imported from its
``src/``. With ``--trace 0`` the run measures the end-to-end metrics with
tracing off; with ``--trace 1`` it measures the per-layer metrics from spans
around otflow's layer functions, plus the kernel grid, and writes the spans
to ``perfbench/out/<workload>.spans.jsonl.gz``. The second-to-last line of
standard output holds the details (machine, sample counts, outputs, what
went wrong); the last line is the result.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPAN_DIR = BENCH_DIR / "out"

WORKLOADS = ("swiss_roll_shaping", "class_adaptation", "ou_diffusion", "distance_matrix")
# BLAS threads are pinned so that runs on a shared machine stay comparable.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 5
PROBE_TIMEOUT_S = 60

# End-to-end metrics. Each workload has a solve level (one run_flow, or one
# all-pairs pass) and a call level (one flow_step, or one otdd() call). The
# flow names read the solve and call level of flow workloads, the matrix
# and pair names those of distance_matrix; on the other kind of workload
# they read that workload's own solve and call level, so that every
# workload reports every metric.
E2E_UNITS = {
    "setup_s": "s", "flow_s": "s", "step_ms_p50": "ms", "step_ms_p95": "ms",
    "matrix_s": "s", "pair_ms_p50": "ms", "pair_ms_p90": "ms", "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    field = name.rsplit(".", 1)[-1]
    if field in ("ms", "self_ms", "ms_per_round", "import_ms"):
        return "ms"
    if field == "op_s":
        return "s"
    if field == "max_marginal_error":
        return "L1"
    if field in ("grad_solve_share", "unaccounted_share", "overhead"):
        return "share"
    return "count"


def setup_probes(workload: str, seed: int, trace: int) -> list:
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    results = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    return results


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_info() -> dict:
    import numpy
    import scipy

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = None
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": BLAS_THREADS,
        "git_sha": _git_sha(),
    }


def end_to_end(runner, setups: list):
    solve = runner.solve_s
    # Call-latency percentiles are taken per solve and their median over the
    # run's solves is reported: a burst of interference from other tenants
    # then moves one solve's tail, not the run's.
    cuts = [statistics.quantiles([1e3 * c for c in calls], n=100, method="inclusive")
            for calls in runner.call_s if len(calls) >= 2]
    p50, p90, p95 = (statistics.median(c[q - 1] for c in cuts) for q in (50, 90, 95))
    solve_s = statistics.median(solve)
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "flow_s": solve_s, "step_ms_p50": p50, "step_ms_p95": p95,
        "matrix_s": solve_s, "pair_ms_p50": p50, "pair_ms_p90": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n_calls = sum(len(calls) for calls in runner.call_s)
    samples = {
        "setup_s": len(setups), "flow_s": len(solve), "matrix_s": len(solve),
        "step_ms_p50": n_calls, "step_ms_p95": n_calls,
        "pair_ms_p50": n_calls, "pair_ms_p90": n_calls, "peak_rss_mb": 1,
    }
    return values, samples


def per_layer(bench_ops, bench_kernels, runner, tracer, seed: int, setups: list):
    values, drifted = bench_ops.layer_metrics(tracer, runner.traced_ops)
    untraced = runner.solve_s
    values["trace.overhead"] = (
        statistics.median(runner.traced_s) / statistics.median(untraced) - 1.0
    )
    for key in ("setup.import_ms", "config.build_run.ms", "datagen.generate.ms"):
        values[key] = statistics.median(s[key] for s in setups)
    values.update(bench_kernels.kernel_grid(seed))
    samples = {"traced_ops": len(runner.traced_ops), "untraced_ops": len(untraced),
               "setup_runs": len(setups), "kernel_repeats": bench_kernels.REPEATS}
    return values, samples, drifted


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "otflow" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} is not an otflow checkout (needs src/otflow and configs/)",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)

    setups = setup_probes(args.workload, args.seed, args.trace)

    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import otflow

    if not Path(otflow.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported otflow from {otflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench_kernels
    import bench_ops
    import bench_trace
    import bench_workloads

    reference = bench_workloads.load_reference()
    if args.workload in bench_workloads.FLOW_WORKLOADS:
        runner = bench_ops.FlowRun(ROOT, args.workload, args.seed, reference)
    else:
        datasets = bench_workloads.distance_inputs(args.seed)
        runner = bench_ops.DistanceRun(datasets, args.seed, reference)

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine_info()}
    if args.trace:
        tracer = bench_trace.Tracer()
        runner.measure_traced(args.seconds, tracer)
        values, samples, drifted = per_layer(
            bench_ops, bench_kernels, runner, tracer, args.seed, setups)
        for i in drifted:
            runner.outcome.flag(f"op {i}: layer counts differ from the first traced op")
        tracer.write(SPAN_DIR / f"{args.workload}.spans.jsonl.gz", detail)
        units = {name: layer_unit(name) for name in values}
    else:
        runner.measure(args.seconds)
        values, samples = end_to_end(runner, setups)
        units = E2E_UNITS

    outcome = runner.outcome
    detail.update(
        samples=samples,
        fail_rate=outcome.failed / outcome.attempted,
        problems=outcome.problems[:20],
        outputs=runner.outputs,
        solve_s=runner.solve_s,
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
