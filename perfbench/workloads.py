"""Workload inputs, built through the public scenario API from one seed.

Parameters live in ``workloads.json`` next to this file, so the record of
each workload and the code that builds it cannot disagree.
"""

from __future__ import annotations

import inspect
import json
import os
from typing import Any, Dict

import numpy as np

from repro.autograd.optim import SGD, Adam
from repro.core import HongTuTrainer
from repro.graph import datasets
from repro.scenario import ClusterArgs
from repro.serving import ArrivalProcess, DeadlineBatchingPolicy

RECORDS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "workloads.json")

_OPTIMIZERS = {"sgd": SGD, "adam": Adam}


def load_records() -> Dict[str, Any]:
    with open(RECORDS_PATH) as handle:
        return json.load(handle)


def scenario(params: Dict[str, Any], seed: int) -> ClusterArgs:
    return ClusterArgs(seed=seed, **params["cluster"])


def load_graph(params: Dict[str, Any], seed: int):
    """The workload's dataset, rebuilt from scratch (the cache is cleared).

    ``load_dataset`` is ``lru_cache``d; every set-up sample must pay the
    build, so the cache behind the (possibly wrapped) function is emptied
    first.
    """
    cached = inspect.unwrap(datasets.load_dataset,
                            stop=lambda fn: hasattr(fn, "cache_clear"))
    cached.cache_clear()
    spec = params["dataset"]
    return datasets.load_dataset(spec["name"], scale=spec["scale"], seed=seed)


def build_model(params: Dict[str, Any], seed: int, graph):
    """A fresh model; the same seed gives bit-identical weights."""
    return scenario(params, seed).build_model(graph)


def build_optimizer(params: Dict[str, Any], model):
    spec = params["optimizer"]
    return _OPTIMIZERS[spec["name"]](model.parameters(), lr=spec["lr"])


def build_trainer(params: Dict[str, Any], seed: int) -> HongTuTrainer:
    """Dataset build plus ``HongTuTrainer`` construction."""
    graph = load_graph(params, seed)
    args = scenario(params, seed)
    model = args.build_model(graph)
    return HongTuTrainer(graph, model, args.build_platform(),
                         args.build_config(**params["config"]),
                         optimizer=build_optimizer(params, model))


class FixedCountBurstyArrivals(ArrivalProcess):
    """Bursty traffic with exactly ``rate * duration`` requests.

    ``rate * duration / burst_size`` burst epochs fall uniformly at random
    in ``[0, duration)`` — a Poisson burst process conditioned on its
    count — and each delivers ``burst_size`` requests at once. Fixing the
    count keeps the work of a serving pass the same from seed to seed,
    so run-to-run spread measures the program, not the draw.
    """

    kind = "bursty"

    def __init__(self, rate: float, duration: float, seed: int,
                 burst_size: int):
        super().__init__(rate, duration, seed)
        self.burst_size = burst_size

    def generate(self) -> np.ndarray:
        bursts = round(self.rate * self.duration / self.burst_size)
        epochs = np.sort(np.random.default_rng(self.seed)
                         .uniform(0.0, self.duration, bursts))
        return np.repeat(epochs, self.burst_size)


def build_arrivals(params: Dict[str, Any], seed: int) -> ArrivalProcess:
    spec = params["arrivals"]
    return FixedCountBurstyArrivals(spec["rate"], spec["duration"], seed,
                                    spec["burst_size"])


def build_policy(params: Dict[str, Any]) -> DeadlineBatchingPolicy:
    return DeadlineBatchingPolicy(params["policy"]["batch_timeout"])


def cache_budget(params: Dict[str, Any], trainer: HongTuTrainer) -> int:
    """The embedding-cache budget: a share of the warm working set."""
    warm_bytes = trainer.serving_engine().cache_bytes
    return max(1, int(warm_bytes * params["cache_budget_share"]))
