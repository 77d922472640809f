"""Run one benchmark workload and print its result as the last JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cluster_pipeline --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics and writes the spans as Chrome Trace Event JSON (open it in
Perfetto) plus a per-layer self-time roll-up under ``perfbench/out/``.
The exit code is 0 when every output check passed, 1 when one failed,
and 2 when the benchmark cannot run (for example without ``src/``).
"""

import os
import sys

# One BLAS thread: numpy's kernels then do not compete with other
# processes for the few cores. Set before numpy is first imported.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


def main(argv=None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    try:
        from perfbench import bench, layers, workloads
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}", file=sys.stderr)
        return 2
    records = workloads.load_records()
    if args.workload not in records["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(records['workloads'])}", file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}

    result = bench.run(args.workload, args.seed, args.seconds,
                       bool(args.trace), records)
    if result.correct and set(result.metrics) != set(units):
        print(f"perfbench: reported metrics {sorted(result.metrics)} differ "
              f"from BENCHMARK.json's {sorted(units)}", file=sys.stderr)
        return 2
    for name, value in sorted(result.metrics.items()):
        print(f"{name:34s} {value:.6g} {units[name]}")
    for name, value in sorted(result.checks.items()):
        print(f"check {name} {value}")
    for error in result.errors:
        print(f"FAILED {error}")
    if result.tracer is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
        result.tracer.write_chrome_trace(stem + ".trace.json")
        rollup = {"setup": layers.Rollup(result.tracer, "setup/").table(),
                  "step": layers.Rollup(result.tracer, "step/").table()}
        with open(stem + ".rollup.json", "w") as handle:
            json.dump(rollup, handle, indent=2, sort_keys=True)
        for phase, table in rollup.items():
            for layer, row in table.items():
                print(f"rollup {phase:5s} {layer:16s} "
                      f"self {row['self_s'] * 1e3:10.3f} ms  "
                      f"calls {row['calls']:8.0f}")
        print(f"trace written to {stem}.trace.json")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result.metrics.items()},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
