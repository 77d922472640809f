"""Tests for the benchmark's own code (run with ``PYTHONPATH=src pytest perfbench``)."""

import copy
import dataclasses
import itertools
import json
import math
import os

import pytest

from perfbench import bench, layers, stats, workloads
from perfbench.tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tiny_records():
    """The real records with ``numerics_server`` shrunk to a fast size."""
    records = copy.deepcopy(workloads.load_records())
    params = records["workloads"]["numerics_server"]
    params["dataset"]["scale"] = 0.05
    params["cluster"].update(gpus=2, chunks=2, hidden_dim=8)
    return records


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"] for metric in json.load(handle)[section]}


class FakeClock:
    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


# ----------------------------------------------------------------------
# percentiles: the ten-beyond rule
# ----------------------------------------------------------------------
def test_p75_needs_forty_samples():
    assert stats.samples_beyond(40, 75) == 10
    assert stats.tail_supported(40, 75)
    assert not stats.tail_supported(39, 75)
    assert stats.min_samples(75) == 40 == bench.MIN_STEPS


def test_p99_needs_a_thousand_samples():
    assert stats.min_samples(99) == 1000
    assert not stats.tail_supported(999, 99)


def test_percentile_is_an_observed_sample():
    samples = [float(value) for value in range(1, 41)]
    assert stats.percentile(samples, 50) == 20.0
    assert stats.percentile(samples, 75) == 30.0
    assert stats.percentile([3.0], 99) == 3.0


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    tracer = Tracer(FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 10.0]))
    outer = tracer.open("a:outer")     # 0 .. 10
    middle = tracer.open("b:middle")   # 1 .. 4
    inner = tracer.open("c:inner")     # 2 .. 3
    tracer.close(inner)
    tracer.close(middle)
    sibling = tracer.open("b:sibling")  # 5 .. 8
    tracer.close(sibling)
    tracer.close(outer)
    assert tracer.self_times() == [4.0, 2.0, 1.0, 3.0]
    assert [span.parent for span in tracer.spans] == [-1, 0, 1, 0]


def test_chrome_trace_events_are_complete_spans():
    tracer = Tracer(FakeClock([1.0, 1.5, 2.0, 3.0]))
    tracer.step = "step/0"
    tracer.call("a:outer", tracer.call, "b:inner", lambda: None)
    events = tracer.chrome_trace()["traceEvents"]
    assert [event["ph"] for event in events] == ["X", "X"]
    assert events[0]["ts"] == 0.0 and events[0]["dur"] == 2e6
    assert events[1]["args"] == {"step": "step/0", "parent": 0}


def test_wrap_refuses_inherited_attributes():
    class Base:
        def run(self):
            return 1

    class Child(Base):
        pass

    with pytest.raises(AttributeError):
        Tracer().wrap(Child, "run", "x:run")


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def test_traced_run_restores_every_wrapped_attribute():
    probe = Tracer()
    layers.install(probe, {})
    wrapped = list(probe._patches)
    probe.restore()
    assert len(wrapped) > 20

    result = bench.run("numerics_server", seed=3, seconds=0.0, trace=True,
                       records=tiny_records())

    assert result.correct, result.errors
    for owner, attr, original in wrapped:
        assert vars(owner)[attr] is original, f"{owner!r}.{attr}"
    assert set(result.metrics) == declared("per_layer")
    names = {span.name.partition(":")[0] for span in result.tracer.spans}
    assert {"graph", "partition", "comm.plan", "comm.executor", "gnn",
            "autograd", "runtime", "core", "bench"} <= names


def test_untraced_run_reports_every_end_to_end_metric(monkeypatch):
    monkeypatch.setattr(bench, "MIN_STEPS", 3)
    result = bench.run("numerics_server", seed=3, seconds=0.0, trace=False,
                       records=tiny_records())
    assert result.correct, result.errors
    assert result.attempted == 3 and result.failed == 0
    assert set(result.metrics) == declared("end_to_end")
    assert all(value > 0 for value in result.metrics.values())


# ----------------------------------------------------------------------
# failure accounting
# ----------------------------------------------------------------------
def test_failing_steps_are_counted_not_dropped():
    calls = itertools.count()

    def step():
        if next(calls) == 1:
            raise RuntimeError("injected")
        return "ok"

    verdicts = iter([0, 2, 0])

    def judge(result):
        return next(verdicts)

    outcome = bench.timed_loop(lambda: step, judge, seconds=0.0,
                               min_steps=4, ops_per_step=5,
                               calibrate=lambda: 0.5)
    assert outcome.steps == 4
    assert outcome.attempted == 20
    assert outcome.failed == 5 + 2
    assert len(outcome.samples) == 3
    assert outcome.scaled == [2 * sample for sample in outcome.samples]
    assert outcome.errors == ["RuntimeError: injected"]


def test_injected_nan_epoch_is_counted():
    params = tiny_records()["workloads"]["numerics_server"]
    run = bench.TrainingRun(params, seed=3)
    run.setup()
    epochs = itertools.count()

    def epoch():
        result = run.trainer.train_epoch()
        if next(epochs) == 2:
            return dataclasses.replace(result, loss=math.nan)
        return result

    outcome = bench.timed_loop(lambda: epoch, run.judge, seconds=0.0,
                               min_steps=4, calibrate=lambda: 1.0)
    assert (outcome.attempted, outcome.failed) == (4, 1)
    assert len(outcome.samples) == 3
    assert "non-finite loss" in outcome.errors[0]
