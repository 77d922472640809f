"""Run a workload once per seed and report each metric's run-to-run spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload cluster_pipeline --seeds 1-10

For every metric it prints the median of the runs and the distance
between the first and third quartile as a share of that median
(``statistics.quantiles(values, n=4)``), next to a third of the bound
``BENCHMARK.json`` fixes for it. Each run's JSON line is appended to
``perfbench/out/spread-<workload>.jsonl``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    bounds = {metric["name"]: metric.get("bound")
              for metric in benchmark["end_to_end"] + benchmark["per_layer"]}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log_path = os.path.join(HERE, "out", f"spread-{args.workload}.jsonl")

    values = {}
    for seed in parse_seeds(args.seeds):
        command = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(benchmark["run_seconds"]),
                   "--trace", str(args.trace)]
        started = time.monotonic()
        completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                                   text=True, check=False)
        elapsed = time.monotonic() - started
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"seed {seed}: exit {completed.returncode}\n{completed.stderr}")
            return 1
        result = json.loads(lines[-1])
        with open(log_path, "a") as log:
            log.write(json.dumps(dict(result, seed=seed)) + "\n")
        print(f"seed {seed}: attempted {result['attempted']} failed "
              f"{result['failed']} correct {result['correct']} "
              f"in {elapsed:.1f} s", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':34s} {'median':>12s} {'spread':>8s} {'bound/3':>8s}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        third = f"{bound / 3:8.4f}" if bound is not None else f"{'-':>8s}"
        print(f"{name:34s} {median:12.6g} {spread:8.4f} {third}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
