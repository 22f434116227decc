"""Run every workload once and print each metric with its unit and sample
count, plus each workload's fail rate.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own process through ``run.py``.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import BENCH_DIR, ROOT, WORKLOADS

RUN_TIMEOUT_S = 600


def run_workload(workload: str, seed: int, seconds: float, trace: int):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for workload in WORKLOADS:
        detail, result = run_workload(workload, args.seed, args.seconds, args.trace)
        samples = detail["samples"]
        print(f"== {workload} (seed {args.seed}, trace {args.trace}): "
              f"fail_rate {detail['fail_rate']:.3g} = {result['failed']}/{result['attempted']}, "
              f"correct {result['correct']}")
        if args.trace:
            print("   samples: " + ", ".join(f"{k} {v}" for k, v in samples.items()))
        for name, metric in result["metrics"].items():
            count = samples.get(name, "")
            print(f"   {name:48s} {metric['value']:>14.6g} {metric['unit']:6s} {count}")
        for problem in detail["problems"]:
            print(f"   problem: {problem}")
    print(json.dumps({"machine": detail["machine"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
