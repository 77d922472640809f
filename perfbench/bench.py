"""One benchmark run: set-up samples, output checks, the timed loop, metrics.

The timed region holds only the call a user waits for — one
``HongTuTrainer.train_epoch`` or one ``ServingEngine.serve`` pass. Every
check (losses against the monolithic reference, ``timeline.validate()``,
exact repetition of the simulated results, the scalar scheduler re-run)
runs outside it. Step times are reported in ``cal`` units: host seconds
divided by the seconds of a fixed Python loop timed around the step (see
:func:`calibration_seconds`). Set-up times are calibrated the same way
and reported in reference seconds: ``cal`` units times the loop's seconds
on a reference CPU, ``CALIBRATION_REFERENCE_S``. Tracing is off unless
``trace`` is set; a traced run also times an untraced half so it can
report its own overhead.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from perfbench import layers, stats, workloads
from perfbench.tracer import Tracer

CLOCK = time.perf_counter

#: set-up is repeated at least this many times, and for at least
#: ``SETUP_SECONDS``, per run; the median is reported
SETUP_SAMPLES = 5
SETUP_SECONDS = 1.0
#: the tail percentile reported next to the median of the step times
STEP_TAIL = 75
#: fewest timed steps that leave ten samples beyond ``STEP_TAIL``
MIN_STEPS = stats.min_samples(STEP_TAIL)
#: per-request latency tail; the trace must leave ten requests beyond it
LATENCY_TAIL = 99
#: epochs compared against the monolithic trainer before timing starts
LOSS_EPOCHS = 3
#: float64 losses of the two trainers agree to this relative tolerance
LOSS_RTOL = 1e-9
#: fewest timed steps in each half of a traced run
MIN_TRACE_STEPS = 5
#: at most this many distinct error messages are kept per run
MAX_ERRORS = 5
#: the calibration loop: this many runs of this many iterations (each
#: 3.4 to 5.3 ms on a 2.1 GHz Xeon vCPU), before and after every step
#: and every untraced set-up
CALIBRATION_RUNS = 8
CALIBRATION_ITERATIONS = 100_000
#: seconds of one calibration run on the reference CPU (a 2.1 GHz Xeon
#: vCPU took 3.4 to 5.3 ms); ``setup_s`` is set-up time in cal units
#: times this, so it reads as seconds on that CPU at a fixed speed
CALIBRATION_REFERENCE_S = 0.004


def calibration_seconds() -> float:
    """Median host seconds of a fixed pure-Python loop: the unit ``cal``.

    The speed of a virtual machine's CPU drifts with its host's load: on
    a 2-vCPU KVM guest (Xeon, 2.1 GHz) a two-million-iteration loop like
    this one took anywhere from 71 to 111 ms within one minute. A step
    timed between two calibrations and divided by their mean keeps the
    program's cost and drops most of that drift (there, median set-up
    time of one seed moved by 60% while its cal value moved by 10%); the
    median of several short runs ignores bursts much shorter than a step.
    """
    runs = []
    for _ in range(CALIBRATION_RUNS):
        started = CLOCK()
        total = 0
        for value in range(CALIBRATION_ITERATIONS):
            total += value
        runs.append(CLOCK() - started)
    return statistics.median(runs)


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class Outcome:
    """Operations attempted and failed, and the host time of each step."""

    attempted: int = 0
    failed: int = 0
    steps: int = 0
    #: host seconds of each step that returned
    samples: List[float] = field(default_factory=list)
    #: the same steps in calibration-loop units
    scaled: List[float] = field(default_factory=list)
    #: the calibration loop's seconds around each of those steps
    calibration: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    def note(self, error: BaseException) -> None:
        message = f"{type(error).__name__}: {error}"
        if len(self.errors) < MAX_ERRORS and message not in self.errors:
            self.errors.append(message)


def timed_loop(prepare: Callable[[], Callable[[], Any]],
               judge: Callable[[Any], int], *, seconds: float,
               min_steps: int, ops_per_step: int = 1,
               on_step: Optional[Callable[[int], None]] = None,
               calibrate: Callable[[], float] = calibration_seconds
               ) -> Outcome:
    """Closed loop: run steps until ``seconds`` passed and ``min_steps`` ran.

    ``prepare()`` (untimed) returns the call to time; ``calibrate()``
    runs right before and right after it. ``judge(result)`` (untimed)
    returns how many of the step's ``ops_per_step`` operations failed; a
    step that raises, or whose judge raises, fails all of them. Failed
    operations are counted, never dropped.
    """
    outcome = Outcome()
    deadline = CLOCK() + seconds
    while outcome.steps < min_steps or CLOCK() < deadline:
        if on_step is not None:
            on_step(outcome.steps)
        outcome.steps += 1
        outcome.attempted += ops_per_step
        try:
            call = prepare()
            before = calibrate()
            started = CLOCK()
            result = call()
            elapsed = CLOCK() - started
            unit = (before + calibrate()) / 2
            failed = judge(result)
        except Exception as error:  # a failed operation is counted, the run goes on
            outcome.failed += ops_per_step
            outcome.note(error)
            continue
        outcome.samples.append(elapsed)
        outcome.scaled.append(elapsed / unit)
        outcome.calibration.append(unit)
        outcome.failed += failed
    return outcome


def same_every_step(reference: List[Dict[str, Any]],
                    record: Dict[str, Any]) -> None:
    """Keep the first step's simulated record; later ones must equal it."""
    if not reference:
        reference.append(record)
        return
    for key, value in reference[0].items():
        if record[key] != value:
            raise CheckFailed(f"simulated {key} changed between steps")


def timeline_record(timeline, num_gpus: int) -> Dict[str, Any]:
    """Simulated facts of one timeline, from its public views."""
    scheduler = timeline.scheduler
    links = sum(1 for device in scheduler.devices()
                if scheduler.busy_seconds("net", device=device) > 0)
    return {
        "makespan": timeline.makespan,
        "tasks": scheduler.num_tasks,
        "busy": timeline.busy_view(),
        "overlap_saving": timeline.overlap_saving(),
        "gpus": num_gpus,
        "net_links": links,
    }


# ----------------------------------------------------------------------
# workload kinds
# ----------------------------------------------------------------------
class TrainingRun:
    """Closed-loop training epochs on one ``HongTuTrainer``."""

    def __init__(self, params: Dict[str, Any], seed: int):
        self.params = params
        self.seed = seed
        self.trainer = None
        self.reference: List[Dict[str, Any]] = []
        self.ops_per_step = 1

    def setup(self) -> None:
        self.trainer = workloads.build_trainer(self.params, self.seed)

    def check_before(self, checks: Dict[str, Any]) -> None:
        """First epochs against ``FullGraphTrainer`` on an identical model."""
        from repro.baselines import FullGraphTrainer

        graph = self.trainer.graph
        model = workloads.build_model(self.params, self.seed, graph)
        reference = FullGraphTrainer(
            graph, model,
            optimizer=workloads.build_optimizer(self.params, model))
        diffs = []
        for _ in range(LOSS_EPOCHS):
            ours = self.trainer.train_epoch().loss
            theirs = reference.train_epoch().loss
            diffs.append(abs(ours - theirs))
            if not (math.isfinite(ours)
                    and diffs[-1] <= LOSS_RTOL * max(1.0, abs(theirs))):
                raise CheckFailed(f"loss {ours!r} differs from the "
                                  f"monolithic trainer's {theirs!r}")
        checks["loss_max_abs_diff"] = max(diffs)

    def prepare(self):
        return self.trainer.train_epoch

    def judge(self, result) -> int:
        if not math.isfinite(result.loss):
            raise CheckFailed(f"non-finite loss {result.loss!r}")
        result.timeline.validate()
        record = timeline_record(result.timeline, self.trainer.platform.num_gpus)
        record.update(
            peak_gpu_bytes=result.peak_gpu_bytes,
            host_bytes=result.host_bytes,
            h2d_bytes=result.h2d_bytes, d2h_bytes=result.d2h_bytes,
            d2d_bytes=result.d2d_bytes, net_bytes=result.net_bytes,
        )
        same_every_step(self.reference, record)
        return 0

    def check_after(self, checks: Dict[str, Any]) -> None:
        """One epoch on the scalar scheduler core must match the array core."""
        from repro.runtime.scheduler import EventScheduler

        saved = vars(EventScheduler)["vectorized"]
        EventScheduler.vectorized = False
        try:
            result = self.trainer.train_epoch()
        finally:
            EventScheduler.vectorized = saved
        expected = self.reference[0]
        got = (result.timeline.makespan, result.timeline.scheduler.num_tasks,
               result.net_bytes)
        want = (expected["makespan"], expected["tasks"], expected["net_bytes"])
        if got != want:
            raise CheckFailed(f"scalar scheduler core gave {got}, "
                              f"vectorized core {want}")
        checks["scalar_core_identical"] = True

    def sim_metrics(self) -> Dict[str, float]:
        record = self.reference[0]
        # An epoch is the operation: its latency is its makespan and,
        # with no latency limit on training, every epoch counts.
        return {
            "sim_latency_s.p50": record["makespan"],
            "sim_latency_s.p99": record["makespan"],
            "sim_goodput_per_s": 1.0 / record["makespan"],
            "sim_peak_gpu_bytes": record["peak_gpu_bytes"],
            "sim_host_bytes": record["host_bytes"],
        }


class ServingRun(TrainingRun):
    """Open-loop (simulated time) serving passes on fresh engines."""

    def setup(self) -> None:
        super().setup()
        for _ in range(self.params["warmup_epochs"]):
            self.epoch = self.trainer.train_epoch()
        self.budget = workloads.cache_budget(self.params, self.trainer)
        self.engine = self.trainer.serving_engine(self.budget)
        self.arrivals = workloads.build_arrivals(self.params, self.seed)
        self.policy = workloads.build_policy(self.params)
        self.ops_per_step = len(self.arrivals.generate())
        if not stats.tail_supported(self.ops_per_step, LATENCY_TAIL):
            raise ValueError(f"{self.ops_per_step} requests leave fewer than "
                             f"{stats.TAIL_SAMPLES} beyond p{LATENCY_TAIL}")

    def check_before(self, checks: Dict[str, Any]) -> None:
        if not math.isfinite(self.epoch.loss):
            raise CheckFailed(f"non-finite warm-up loss {self.epoch.loss!r}")
        self.epoch.timeline.validate()

    def prepare(self):
        self.engine = self.trainer.serving_engine(self.budget)
        return lambda: self.engine.serve(self.arrivals, self.policy,
                                         slo=self.params["slo"])

    def judge(self, result) -> int:
        if result.num_requests != self.ops_per_step:
            raise CheckFailed(f"served {result.num_requests} of "
                              f"{self.ops_per_step} requests")
        result.timeline.validate()
        failed = int(np.count_nonzero(~np.isfinite(result.latencies)))
        record = timeline_record(result.timeline, self.trainer.platform.num_gpus)
        moved = self.engine.communicator.bytes_moved
        record.update(
            latencies=result.latencies.tobytes(),
            p50=result.p50, p99=result.p99, goodput=result.goodput,
            cache_hits=result.cache_hits, cache_misses=result.cache_misses,
            cache_evictions=result.cache_evictions,
            mean_batch_size=result.mean_batch_size,
            h2d_bytes=moved["h2d"], d2h_bytes=moved["d2h"],
            d2d_bytes=moved["d2d"], net_bytes=result.net_bytes,
        )
        same_every_step(self.reference, record)
        return failed

    def check_after(self, checks: Dict[str, Any]) -> None:
        pass

    def sim_metrics(self) -> Dict[str, float]:
        record = self.reference[0]
        return {
            "sim_latency_s.p50": record["p50"],
            "sim_latency_s.p99": record["p99"],
            "sim_goodput_per_s": record["goodput"],
            "sim_peak_gpu_bytes": self.epoch.peak_gpu_bytes,
            "sim_host_bytes": self.epoch.host_bytes,
        }


KINDS = {"training": TrainingRun, "serving": ServingRun}


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    checks: Dict[str, Any]
    errors: List[str]
    tracer: Optional[Tracer] = None


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool,
        records: Optional[Dict[str, Any]] = None) -> Result:
    """Run workload ``name`` once; ``trace`` selects the per-layer metrics."""
    records = records or workloads.load_records()
    params = records["workloads"][name]
    workload = KINDS[params["kind"]](params, seed)
    tracer = Tracer(CLOCK) if trace else None
    layer_index: Dict[int, int] = {}
    checks: Dict[str, Any] = {}

    setup_seconds = []
    #: the same set-ups in calibration-loop units (untraced runs only)
    setup_scaled = []
    if tracer is not None:
        layers.install(tracer, layer_index)
    try:
        while (len(setup_seconds) < SETUP_SAMPLES
               or sum(setup_seconds) < SETUP_SECONDS):
            sample = len(setup_seconds)
            workload.trainer = None  # the previous sample is freed first
            if tracer is None:
                before = calibration_seconds()
                started = CLOCK()
                workload.setup()
                elapsed = CLOCK() - started
                unit = (before + calibration_seconds()) / 2
                setup_scaled.append(elapsed / unit)
            else:
                tracer.step = f"setup/{sample}"
                started = CLOCK()
                tracer.call("bench:setup", workload.setup)
                elapsed = CLOCK() - started
            setup_seconds.append(elapsed)
    finally:
        if tracer is not None:
            tracer.restore()

    errors: List[str] = []
    run_check(workload.check_before, checks, errors)

    loop = dict(prepare=workload.prepare, judge=workload.judge,
                ops_per_step=workload.ops_per_step)
    if tracer is None:
        outcome = timed_loop(seconds=seconds, min_steps=MIN_STEPS, **loop)
        traced = None
    else:
        outcome = timed_loop(seconds=seconds / 2, min_steps=MIN_TRACE_STEPS,
                             **loop)
        for model_layer, module in enumerate(workload.trainer.model.layers):
            layer_index[id(module)] = model_layer

        def label(step: int) -> None:
            tracer.step = f"step/{step}"

        layers.install(tracer, layer_index)
        try:
            traced = timed_loop(
                seconds=seconds / 2, min_steps=MIN_TRACE_STEPS,
                on_step=label,
                **dict(loop, prepare=lambda: traced_call(tracer,
                                                         workload.prepare())))
        finally:
            tracer.restore()
    errors.extend(outcome.errors)

    if workload.reference:
        run_check(workload.check_after, checks, errors)
    else:
        errors.append("check: no step completed")

    attempted, failed = outcome.attempted, outcome.failed
    if traced is not None:
        attempted += traced.attempted
        failed += traced.failed
        errors.extend(traced.errors)
    correct = failed == 0 and not errors

    if tracer is None:
        metrics = end_to_end(workload, setup_scaled, outcome)
    else:
        metrics = layers.per_layer(workload, tracer, outcome, traced)
    return Result(correct, attempted, failed, metrics, checks, errors, tracer)


def run_check(check: Callable[[Dict[str, Any]], None], checks: Dict[str, Any],
              errors: List[str]) -> None:
    """Run one output check; a failure is reported, not raised."""
    try:
        check(checks)
    except Exception as error:  # any failure of a check marks the run incorrect
        errors.append(f"{check.__name__}: {type(error).__name__}: {error}")


def traced_call(tracer: Tracer, call: Callable[[], Any]) -> Callable[[], Any]:
    """``call`` inside a top-level span that marks the timed step."""
    return lambda: tracer.call("bench:step", call)


def end_to_end(workload, setup_scaled: List[float],
               outcome: Outcome) -> Dict[str, float]:
    scaled = outcome.scaled
    metrics = {
        "setup_s": (statistics.median(setup_scaled)
                    * CALIBRATION_REFERENCE_S),
        "wall_cal.p50": stats.percentile(scaled, 50) if scaled else 0.0,
        "wall_cal.p75": stats.percentile(scaled, STEP_TAIL) if scaled else 0.0,
        "host_peak_rss_mb": peak_rss_mb(),
    }
    if workload.reference:
        metrics.update(workload.sim_metrics())
    return metrics
