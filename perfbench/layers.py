"""Which public entry points belong to which layer, and the per-layer metrics.

Span names are ``"<layer>:<function>"``. The trainer imports its
preprocessing functions by name, so those are wrapped where they are
looked up (``repro.core.trainer`` and, inside the joint loop,
``repro.comm.joint``), not where they are defined.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, Iterable, List

from perfbench import stats
from perfbench.tracer import Tracer

#: layers whose work happens while the workload is set up
SETUP_LAYERS = ("graph", "partition", "comm.joint", "comm.reorganize",
                "comm.plan")
CHANNELS = ("gpu", "h2d", "d2h", "d2d", "cpu", "net")
IDLE_CHANNELS = ("gpu", "h2d", "net")


def _subclasses(cls) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def install(tracer: Tracer, layer_index: Dict[int, int]) -> None:
    """Wrap every layer entry point; ``layer_index`` maps GNN layers to l."""
    import repro.comm.joint as joint_module
    import repro.core.trainer as trainer_module
    from repro.autograd.optim import Optimizer
    from repro.autograd.tensor import Tensor
    from repro.comm.executor import DedupCommunicator
    from repro.core.trainer import HongTuTrainer
    from repro.gnn.layers import GNNLayer
    from repro.graph import datasets
    from repro.runtime.scheduler import EventScheduler
    from repro.serving.engine import ServingEngine

    wrap = tracer.wrap
    wrap(datasets, "load_dataset", "graph:load_dataset")
    wrap(trainer_module, "two_level_partition", "partition:two_level_partition")
    wrap(trainer_module, "joint_placement", "comm.joint:joint_placement")
    for module in (trainer_module, joint_module):
        wrap(module, "search_placement", "comm.joint:search_placement")
        wrap(module, "reorganize_partition",
             "comm.reorganize:reorganize_partition")
    wrap(trainer_module, "build_comm_plan", "comm.plan:build_comm_plan")
    for method in ("load_batch_forward", "accumulate_batch_backward",
                   "submit_serving_halo"):
        wrap(DedupCommunicator, method,
             f"comm.executor:DedupCommunicator.{method}")

    def model_layer(module, *args, **kwargs) -> Dict[str, Any]:
        return {"l": layer_index.get(id(module), -1)}

    for cls in _subclasses(GNNLayer):
        for method in ("forward", "aggregate", "update", "aggregate_backward"):
            if method in vars(cls):
                wrap(cls, method, f"gnn:{cls.__name__}.{method}",
                     tag=model_layer)
    wrap(Tensor, "backward", "autograd:Tensor.backward")
    for cls in _subclasses(Optimizer):
        if "step" in vars(cls):
            wrap(cls, "step", "autograd:Optimizer.step")
    for method in ("submit", "submit_batch", "barrier"):
        wrap(EventScheduler, method, f"runtime:EventScheduler.{method}")
    wrap(HongTuTrainer, "__init__", "core:HongTuTrainer.__init__")
    wrap(HongTuTrainer, "train_epoch", "core:HongTuTrainer.train_epoch")
    wrap(ServingEngine, "serve", "serving:ServingEngine.serve")
    wrap(ServingEngine, "warm_from_checkpoints",
         "serving:ServingEngine.warm_from_checkpoints")


class Rollup:
    """Per-step sums of span self time and duration, keyed by a selector."""

    def __init__(self, tracer: Tracer, prefix: str):
        self.steps = sorted({span.step for span in tracer.spans
                             if span.step.startswith(prefix)})
        self._own: Dict[tuple, float] = defaultdict(float)
        self._total: Dict[tuple, float] = defaultdict(float)
        self._calls: Dict[tuple, int] = defaultdict(int)
        self.layers = set()
        self_times = tracer.self_times()
        for span, own in zip(tracer.spans, self_times):
            if not span.step.startswith(prefix):
                continue
            layer = span.name.partition(":")[0]
            self.layers.add(layer)
            keys = [layer, span.name]
            if "l" in span.args:
                keys.append(f"{layer}.l{span.args['l']}")
            for key in keys:
                self._own[span.step, key] += own
                self._total[span.step, key] += span.duration
                self._calls[span.step, key] += 1

    def _median(self, table, keys: Iterable[str]) -> float:
        keys = list(keys)
        if not self.steps:
            return 0.0
        return statistics.median(
            sum(table[step, key] for key in keys) for step in self.steps)

    def own(self, *keys: str) -> float:
        """Median over steps of the summed self time of ``keys``."""
        return self._median(self._own, keys)

    def total(self, *keys: str) -> float:
        """Median over steps of the summed span durations of ``keys``."""
        return self._median(self._total, keys)

    def calls(self, *keys: str) -> float:
        return self._median(self._calls, keys)

    def share(self, parts: Iterable[str], whole: str) -> float:
        """Median over steps of self time of ``parts`` / duration of ``whole``."""
        parts = list(parts)
        shares = [sum(self._own[step, key] for key in parts)
                  / self._total[step, whole]
                  for step in self.steps if self._total[step, whole] > 0]
        return statistics.median(shares) if shares else 0.0

    def table(self) -> Dict[str, Dict[str, float]]:
        """Self-time roll-up: layer → median self seconds and calls per step."""
        return {layer: {"self_s": self.own(layer), "calls": self.calls(layer)}
                for layer in sorted(self.layers)}


def _replication_factor(trainer) -> float:
    from repro.partition.replication import replication_factor

    return replication_factor(trainer.partition)


def _dedup_ratio(trainer) -> float:
    from repro.comm.analysis import measure_volumes

    volumes = measure_volumes(trainer.partition)
    return volumes.v_ru / volumes.v_ori if volumes.v_ori else 0.0


def per_layer(workload, tracer: Tracer, untraced, traced) -> Dict[str, float]:
    """Every per-layer metric, from the spans and the public results."""
    setup = Rollup(tracer, "setup/")
    step = Rollup(tracer, "step/")
    trainer = workload.trainer
    record = workload.reference[0] if workload.reference else {}
    placed = trainer.placement_result
    metrics = {
        "graph.load_s": setup.own("graph"),
        "partition.host_s": setup.own("partition"),
        "partition.replication_factor": _replication_factor(trainer),
        "comm.joint.host_s": setup.own("comm.joint"),
        "comm.reorganize.host_s": setup.own("comm.reorganize"),
        "comm.joint.cross_rows_block": placed.rows_block if placed else 0,
        "comm.joint.cross_rows": placed.rows_search if placed else 0,
        "comm.plan.host_s": setup.own("comm.plan"),
        "comm.plan.dedup_ratio": _dedup_ratio(trainer),
        "comm.executor.host_s": step.own("comm.executor"),
        "comm.executor.calls": step.calls("comm.executor"),
        "gnn.host_s": step.own("gnn"),
        "gnn.l0.host_s": step.own("gnn.l0"),
        "gnn.l1.host_s": step.own("gnn.l1"),
        "gnn.calls": step.calls("gnn"),
        "autograd.backward_s": step.own("autograd:Tensor.backward"),
        "autograd.step_s": step.own("autograd:Optimizer.step"),
        "runtime.host_s": step.own("runtime"),
        "runtime.submit_calls": step.calls("runtime:EventScheduler.submit",
                                           "runtime:EventScheduler.submit_batch"),
        "core.init_s": setup.total("core:HongTuTrainer.__init__"),
        "core.train_epoch_s": step.total("core:HongTuTrainer.train_epoch"),
        "core.self_s": step.own("core"),
        "serving.host_s": step.own("serving:ServingEngine.serve"),
        "serving.warm_s": step.total(
            "serving:ServingEngine.warm_from_checkpoints"),
        "split.numerics_share": step.share(("gnn", "autograd"), "bench"),
        "split.scheduling_share": step.share(("runtime", "comm.executor"),
                                             "bench"),
        "split.preprocess_share": setup.share(SETUP_LAYERS[1:], "bench"),
    }
    for kind in ("h2d", "d2h", "d2d", "net"):
        metrics[f"comm.{kind}_bytes"] = record.get(f"{kind}_bytes", 0)
    tasks = record.get("tasks", 0)
    metrics["runtime.tasks"] = tasks
    metrics["runtime.wall_us_per_task"] = (
        metrics["runtime.host_s"] / tasks * 1e6 if tasks else 0.0)
    busy = record.get("busy", {})
    makespan = record.get("makespan", 0.0)
    for channel in CHANNELS:
        metrics[f"hardware.busy_s.{channel}"] = busy.get(channel, 0.0)
    devices = {"gpu": record.get("gpus", 0), "h2d": record.get("gpus", 0),
               "net": record.get("net_links", 0)}
    for channel in IDLE_CHANNELS:  # a channel with no device is all idle
        capacity = makespan * devices[channel]
        metrics[f"hardware.idle_share.{channel}"] = (
            1.0 - busy.get(channel, 0.0) / capacity if capacity else 1.0)
    metrics["hardware.overlap_saving_s"] = record.get("overlap_saving", 0.0)
    lookups = record.get("cache_hits", 0) + record.get("cache_misses", 0)
    metrics["serving.cache_hit_ratio"] = (
        record["cache_hits"] / lookups if lookups else 0.0)
    metrics["serving.cache_evictions"] = record.get("cache_evictions", 0)
    metrics["serving.mean_batch_size"] = record.get("mean_batch_size", 0.0)
    for name, outcome in (("untraced", untraced), ("traced", traced)):
        metrics[f"trace.{name}_wall_s.p50"] = (
            stats.percentile(outcome.samples, 50) if outcome.samples else 0.0)
    scaled = [stats.percentile(outcome.scaled, 50) if outcome.scaled else 0.0
              for outcome in (untraced, traced)]
    # Both halves in calibration units, so machine drift between them cancels.
    metrics["trace.overhead_ratio"] = (scaled[1] / scaled[0]
                                       if scaled[0] else 0.0)
    loops = untraced.calibration + traced.calibration
    metrics["calibration.loop_s"] = statistics.median(loops) if loops else 0.0
    return {key: float(value) for key, value in metrics.items()}
