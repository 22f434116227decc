"""Time one set-up in a fresh process: from ``import otflow`` until the
workload's inputs are ready. ``run.py`` starts this several times per run.

Prints one JSON object: ``setup_s`` and, with ``--trace 1``, the import
time and the time spent in ``build_run`` and ``generate``.
"""

import argparse
import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

    t0 = time.perf_counter()
    import otflow.config  # noqa: F401  (the CLI's entry point imports it too)
    t_import = time.perf_counter()
    tracer = None
    if args.trace:
        import bench_trace

        tracer = bench_trace.Tracer()
        tracer.install(bench_trace.SETUP_LAYERS)
    import bench_workloads

    bench_workloads.build_inputs(ROOT, args.workload, args.seed)
    t_ready = time.perf_counter()

    result = {"setup_s": t_ready - t0}
    if tracer is not None:
        tracer.uninstall()
        result["setup.import_ms"] = 1e3 * (t_import - t0)
        # Busy time; generate calls nested in build_run count for both.
        for _, _, name in bench_trace.SETUP_LAYERS:
            result[f"{name}.ms"] = sum(
                1e3 * (s[5] - s[4]) for s in tracer.spans if s[3] == name
            )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
