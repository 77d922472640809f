"""The repository benchmark: host and simulated time of three workloads.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload (see ``perfbench/workloads.json``) through the public
API, checks its outputs and prints one JSON result line. Step times are
in ``cal``: host seconds over the seconds of a fixed Python loop timed
around each step, which cancels most of a shared machine's speed drift. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps each layer's public entry points
and reports per-layer self times, counts and the tracing overhead.
``BENCHMARK.json`` at the repository root lists the metrics and bounds.
"""
