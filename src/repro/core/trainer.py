"""The HongTu trainer: Algorithm 1 on the simulated multi-GPU platform.

Numerics are real — every epoch computes exactly the same parameters a
monolithic full-graph trainer would (the paper's central semantics-preserving
claim, tested in ``tests/test_equivalence.py``) — while the hardware effects
(transfer seconds, kernel seconds, per-GPU memory) are charged to the
simulated platform.

Execution structure per epoch (paper Algorithm 1):

1. **Forward**, layer by layer; within a layer, batch by batch; within a
   batch, the m chunks run concurrently on the m GPUs. Neighbor
   representations arrive through the deduplicated communication framework;
   outputs are copied back to the host vertex buffer h^{l+1}; for cacheable
   layers under the ``hybrid`` policy the AGGREGATE output is checkpointed
   to host memory; all other intermediates are dropped (``no_grad``).
2. **Downstream task** on the host: masked cross-entropy on h^L seeds ∇h^L.
3. **Backward**, last layer to first. Cacheable layers reload the cached
   aggregate and the destinations' own rows, recompute only the UPDATE under
   a fresh tape, and propagate neighbor gradients through the closed-form
   aggregate adjoint. Non-cacheable layers re-gather their input neighbor
   set (a second deduplicated forward load) and recompute the full layer.
   Neighbor gradients return to the host ∇h^l buffer through the
   deduplicated backward communication.
4. **Parameter update**: gradients all-reduce across GPUs (parameters are
   replicated; the volume is tiny) and a global optimizer step.

Timing is an event-timeline DAG: every load/compute/writeback unit of work
becomes a task of an :class:`~repro.hardware.clock.EventTimeline` keyed by
``(layer, batch, gpu)``. Under ``overlap="barrier"`` a global barrier
follows every phase, which reproduces the paper's barrier-synchronized
Algorithms (and this reproduction's original serialized accounting) to
float precision. Under ``overlap="pipeline"``, batch j+1's host loads
prefetch under batch j's kernels inside every layer sweep (transition
buffers are double-buffered to make that safe), and the epoch time is the
critical-path makespan. Layer sweeps are separated by barriers in both
modes — layer l+1 reads rows that layer l writes back. The simulated numpy
work itself always runs eagerly in program order, so the choice of overlap
policy cannot change any number the model computes.

On a :class:`~repro.hardware.platform.ClusterPlatform` the same epoch
spans N nodes: partitions map to nodes through an explicit placement
array (the contiguous-block default p → p // gpus_per_node; the
assignment found by the placement search when
``config.placement == "search"``; or the joint placement↔schedule
iteration's adopted pair under ``"joint"`` — in every case installed on
the platform before any communication is planned, so link routing, rail
selection and host-pool affinity all follow it, and uneven assignments
within ``config.max_imbalance`` are admitted only when each node's host
memory fits the checkpoints they pin), vertex data shards across node
hosts,
cross-node neighbor traffic becomes halo-exchange ``net`` tasks (emitted
by the communicator), and the epoch ends with an inter-node gradient
all-reduce (ring or tree, ``config.allreduce``) chained after each
node's intra-node reduce. ``config.nodes`` must match the platform; with
one node, the code path and every simulated second are identical to the
single-server trainer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.autograd.functional import (
    accuracy,
    masked_cross_entropy_value_and_grad,
)
from repro.autograd.optim import Adam, Optimizer
from repro.comm.cost_model import ClusterCostModel, CommCostModel
from repro.comm.executor import DedupCommunicator
from repro.comm.joint import joint_placement
from repro.comm.plan import CommPlan, build_comm_plan
from repro.comm.reorganize import ReorganizationResult, reorganize_partition
from repro.core.config import HongTuConfig
from repro.core.memory_model import node_host_budgets, partition_host_bytes
from repro.errors import (
    ConfigurationError,
    DeviceOutOfMemoryError,
    FaultError,
    PartitionError,
)
from repro.faults.schedule import FaultState, RebalanceEvent
from repro.gnn.models import GNNModel
from repro.graph.graph import Graph
from repro.hardware.clock import EventTimeline, TimeBreakdown
from repro.hardware.memory import Allocation
from repro.hardware.platform import MultiGPUPlatform
from repro.partition.nodes import partition_nodes
from repro.partition.placement import (
    PlacementResult,
    partition_halo_matrix,
    partition_load_matrix,
    search_placement,
)
from repro.partition.two_level import TwoLevelPartition, two_level_partition
from repro.runtime.task import net_link

__all__ = ["HongTuTrainer", "EpochResult"]


@dataclass
class EpochResult:
    """Outcome of one training epoch."""

    epoch: int
    loss: float
    peak_gpu_bytes: int
    host_bytes: int
    #: the scheduled event timeline (the epoch's clock)
    timeline: EventTimeline
    #: host→GPU bytes moved this epoch (forward loads + backward reloads)
    h2d_bytes: int = 0
    #: inter-GPU bytes moved this epoch
    d2d_bytes: int = 0
    #: GPU→host bytes moved this epoch (writebacks + gradient flushes)
    d2h_bytes: int = 0
    #: inter-node network bytes moved this epoch (halo + all-reduce;
    #: zero on a single node)
    net_bytes: int = 0
    #: partition-state bytes migrated by an elastic re-balance at this
    #: epoch's boundary (0 on fault-free epochs; included in net_bytes)
    migration_bytes: int = 0
    #: the elastic re-balance that preceded this epoch, if one fired
    rebalance: Optional[RebalanceEvent] = None

    @property
    def clock(self) -> TimeBreakdown:
        """Per-category seconds: the timeline's derived breakdown."""
        return self.timeline.breakdown

    @property
    def epoch_seconds(self) -> float:
        """Simulated wall time: the timeline's makespan."""
        return self.timeline.makespan

    @property
    def pcie_bytes(self) -> int:
        """Both PCIe directions together (the pre-split ``h2d_bytes``)."""
        return self.h2d_bytes + self.d2h_bytes


class HongTuTrainer:
    """Partition-based CPU-offloaded full-graph GNN trainer.

    Parameters
    ----------
    graph:
        Input property graph (features + labels + masks required for
        training).
    model:
        The GNN stack; ``model.dims[0]`` must equal the feature width.
    platform:
        Simulated multi-GPU platform; its GPU count is the paper's ``m``.
    config:
        Framework knobs (chunks, communication mode, recompute policy,
        overlap policy).
    optimizer:
        Optional; defaults to Adam(lr=0.01) over the model parameters.
    partition:
        Optional precomputed two-level partition (e.g. an adversarially
        relabeled ordering for placement experiments); must expose one
        partition per platform GPU. Defaults to METIS-seeded
        :func:`~repro.partition.two_level.two_level_partition`.
    """

    def __init__(self, graph: Graph, model: GNNModel,
                 platform: MultiGPUPlatform, config: HongTuConfig,
                 optimizer: Optional[Optimizer] = None,
                 partition: Optional[TwoLevelPartition] = None):
        if graph.features is None or graph.labels is None:
            raise ConfigurationError("training requires features and labels")
        if model.dims[0] != graph.feature_dim:
            raise ConfigurationError(
                f"model input dim {model.dims[0]} != feature dim "
                f"{graph.feature_dim}"
            )
        platform_nodes = platform.num_nodes
        if config.nodes != platform_nodes:
            raise ConfigurationError(
                f"config.nodes={config.nodes} but the platform has "
                f"{platform_nodes} node(s); build a ClusterPlatform with a "
                f"matching node count"
            )
        topology = platform.topology
        if config.topology != topology.kind:
            raise ConfigurationError(
                f"config.topology={config.topology!r} but the platform is "
                f"wired as {topology.kind!r}; build the ClusterSpec with a "
                f"matching NetworkTopology"
            )
        if (topology.kind == "spine"
                and config.oversubscription != topology.oversubscription):
            raise ConfigurationError(
                f"config.oversubscription={config.oversubscription} but the "
                f"platform's spine is oversubscribed "
                f"{topology.oversubscription}x"
            )
        self.graph = graph
        self.model = model
        self.platform = platform
        self.config = config
        self.optimizer = optimizer or Adam(model.parameters(), lr=0.01)
        self._epoch = 0
        self._pipelined = config.overlap == "pipeline"
        self._allreduce_net_bytes = 0  # per-epoch, reset by train_epoch

        # ---- fault-injected fleets / online elastic re-balancing ----------
        #: simulated wall clock across epochs — the time axis fault
        #: schedules are sampled on (epoch boundaries only)
        self.fleet_seconds = 0.0
        #: provenance of every elastic re-balance this trainer performed
        self.rebalances: List[RebalanceEvent] = []
        self._pending_rebalance = False
        #: faultless-epoch makespan: the predicted epoch time the
        #: observed one is compared against (trigger rule)
        self._expected_epoch_seconds: Optional[float] = None
        #: (fault_state, placement) the last re-balance adapted to —
        #: the trigger never re-fires for a situation already handled
        self._last_rebalance_key = None
        self._migration_net_bytes = 0  # per-epoch, reset by train_epoch
        self._epoch_rebalance: Optional[RebalanceEvent] = None

        # ---- preprocessing -------------------------------------------------
        if partition is None:
            partition = two_level_partition(
                graph, platform.num_gpus, config.num_chunks,
                seed=config.seed
            )
        elif partition.num_partitions != platform.num_gpus:
            raise ConfigurationError(
                f"partition has {partition.num_partitions} partitions, "
                f"platform exposes {platform.num_gpus} GPUs"
            )
        self.partition: TwoLevelPartition = partition
        self.preprocessing_seconds = 0.0
        row_bytes = max(model.dims) * config.bytes_per_scalar
        cluster_model = None
        if platform_nodes > 1:
            cluster_model = ClusterCostModel.from_cluster(platform.cluster)

        # Partition→node placement: whatever the platform already has
        # installed (the contiguous-block map unless the caller chose
        # otherwise), or the searched assignment (installed on the
        # platform before any communication is planned, so every
        # downstream consumer — executor link routing, rails, host
        # pools — sees it).
        platform_placement = getattr(platform, "placement", None)
        self.placement = (
            platform_placement if platform_placement is not None
            else partition_nodes(platform.num_gpus, platform_nodes)
        )
        #: provenance of the placement search (None under "block")
        self.placement_result: Optional[PlacementResult] = None
        #: provenance of the (possibly net-aware) Algorithm 4 run
        self.reorganization: Optional[ReorganizationResult] = None

        # Uneven placements: skewed node loads are admitted only when
        # the per-node host memory fits the checkpoints the extra
        # partitions pin (core.memory_model's admission rule). A
        # heterogeneous fleet always runs with budgets — even balanced
        # swaps move checkpoint bytes between hosts of *different*
        # capacities there, so every move must clear the small node's
        # actual headroom.
        hetero = platform.heterogeneous
        node_budgets = None
        per_partition_bytes = None
        if (config.max_imbalance > 0 or hetero) and platform_nodes > 1:
            node_budgets, per_partition_bytes = self._admission_inputs()
        #: the admission inputs the placement search ran with (None when
        #: exact balance was enforced) — provenance for benches/tests
        self.placement_node_budgets = node_budgets
        self.placement_partition_host_bytes = per_partition_bytes

        # Capability-aware placement objective: on a heterogeneous fleet
        # each partition's kernel time depends on which node's GPUs run
        # it, so the search weighs halo rows against row-equivalent
        # compute. None (every homogeneous platform) keeps the search
        # bit-identical to the rows-only objective.
        compute_rows = None
        if hetero and platform_nodes > 1:
            compute_rows = self._compute_row_matrix(cluster_model, row_bytes)
        self.placement_compute_rows = compute_rows

        if config.placement == "joint" and platform_nodes > 1:
            # Alternate placement search and schedule reorganization to
            # a fixed point of the combined predicted cost; iteration 1
            # is exactly the single-pass "search" pipeline, so the
            # adopted pair is never worse than it.
            joint = joint_placement(
                self.partition, platform_nodes,
                cost_model=CommCostModel.from_platform(platform),
                cluster_model=cluster_model, row_bytes=row_bytes,
                allreduce_bytes=model.parameter_nbytes(),
                allreduce_algorithm=config.allreduce,
                seed_placement=self.placement,
                max_imbalance=config.max_imbalance,
                node_budgets=node_budgets,
                partition_host_bytes=per_partition_bytes,
                compute_rows=compute_rows,
            )
            self.partition = joint.partition
            self.placement = joint.placement_result.placement
            self.placement_result = joint.placement_result
            self.reorganization = joint.reorganization
            # The loop's wall time (every search + reorganization round)
            # is preprocessing overhead, Table 9 style.
            self.preprocessing_seconds += joint.placement_result.seconds
            platform.set_placement(self.placement,
                                   max_imbalance=config.max_imbalance)
        else:
            if config.placement == "search" and platform_nodes > 1:
                # Seed from the platform's active assignment so a caller-
                # installed custom placement is refined, never regressed.
                placed = search_placement(
                    self.partition, platform_nodes,
                    cluster_model=cluster_model, row_bytes=row_bytes,
                    allreduce_bytes=model.parameter_nbytes(),
                    allreduce_algorithm=config.allreduce,
                    seed_placement=self.placement,
                    max_imbalance=config.max_imbalance,
                    node_budgets=node_budgets,
                    partition_host_bytes=per_partition_bytes,
                    compute_rows=compute_rows,
                )
                self.placement = placed.placement
                self.placement_result = placed
                self.preprocessing_seconds += placed.seconds
                platform.set_placement(self.placement,
                                       max_imbalance=config.max_imbalance)
            if config.reorganize:
                cost_model = CommCostModel.from_platform(platform)
                # On a cluster the objective gains the net term:
                # cross-node halo rows priced at network seconds
                # (Algorithm 4 extension), counted against the active
                # placement.
                result = reorganize_partition(
                    self.partition, cost_model, row_bytes,
                    cluster_model=cluster_model, num_nodes=platform_nodes,
                    placement=self.placement,
                )
                self.partition = result.partition
                self.preprocessing_seconds += result.preprocessing_seconds
                self.reorganization = result

        dedup_inter, dedup_intra = config.dedup_flags
        self.plan: CommPlan = build_comm_plan(
            self.partition, dedup_inter=dedup_inter, dedup_intra=dedup_intra
        )
        # Two buffer families: one stages representations (forward + reload),
        # one accumulates gradients (backward) — §6's transition data buffer
        # and gradient buffer.
        self._comm_values = DedupCommunicator(
            self.plan, platform, config.bytes_per_scalar
        )
        self._comm_grads = DedupCommunicator(
            self.plan, platform, config.bytes_per_scalar
        )

        # ---- host-resident vertex data (h^l and ∇h^l for every layer) -----
        dims = model.dims
        n = graph.num_vertices
        dtype = config.dtype
        self._h: List[np.ndarray] = [
            np.zeros((n, dim), dtype=dtype) for dim in dims
        ]
        self._grad_h: List[np.ndarray] = [
            np.zeros((n, dim), dtype=dtype) for dim in dims
        ]
        self._h[0][:] = graph.features.astype(dtype)
        host_bytes = self._vertex_host_bytes()
        # Vertex data shards evenly across node hosts (one share per node;
        # a single-node platform yields exactly one full-size share).
        self._host_allocations = [
            pool.alloc("vertex_data", share)
            for pool, share in platform.split_host_bytes(host_bytes)
        ]
        # Host-side checkpoint store for cached AGGREGATE outputs. The
        # host allocation behind each (layer, gpu, batch) slot is created
        # once and resized/reused across epochs.
        self._checkpoints: Dict[tuple, np.ndarray] = {}
        self._checkpoint_allocations: Dict[tuple, Allocation] = {}

        # Per-chunk topology resident on its GPU for the whole run.
        # Handles are kept so an elastic re-balance can release them
        # before re-placing across hardware generations.
        self._topology_allocations: List[Allocation] = []
        self._alloc_topology()

    def _alloc_topology(self) -> None:
        """Allocate each chunk's GPU-resident topology (CSR + offsets)."""
        for row in self.partition.chunks:
            for chunk in row:
                topo_bytes = chunk.num_edges * 12 + (chunk.num_dst + 1) * 8
                self._topology_allocations.append(
                    self.platform.gpus[chunk.partition_id].memory.alloc(
                        "topology", topo_bytes
                    )
                )

    def _vertex_host_bytes(self) -> int:
        """Host bytes of the per-layer h/∇h vertex buffers.

        The single sizing authority: both the real ``vertex_data``
        allocation and the admission budgets subtract exactly this, so
        the two can never drift apart.
        """
        n = self.graph.num_vertices
        return sum(
            2 * n * dim * self.config.bytes_per_scalar
            for dim in self.model.dims
        )

    def _admission_inputs(self):
        """Per-node budgets + per-partition host bytes for uneven moves.

        Budgets come from :func:`~repro.core.memory_model.node_host_budgets`
        over the platform's *actual* host pools — per-node-spec capacities
        and capacity-proportional vertex-data shards on a heterogeneous
        fleet — so nothing here assumes uniform hosts. The per-partition
        bytes are the hybrid policy's checkpoint footprint (zero under
        ``recompute``, which pins nothing placement-dependent on the
        host).
        """
        config = self.config
        budgets = node_host_budgets(self.platform, self._vertex_host_bytes())
        sizes = np.bincount(self.partition.assignment,
                            minlength=self.platform.num_gpus)
        aggregate_dims = []
        if config.intermediate_policy == "hybrid":
            aggregate_dims = [
                layer.aggregate_dim() for layer in self.model.layers
                if layer.cacheable_aggregate
            ]
        per_partition = partition_host_bytes(
            sizes, aggregate_dims, config.bytes_per_scalar
        )
        return budgets, per_partition

    def _compute_row_matrix(self, cluster_model: ClusterCostModel,
                            row_bytes: int) -> np.ndarray:
        """``(m, num_nodes)`` row-equivalent compute matrix for the search.

        Entry ``[p, n]`` is the kernel seconds of running partition p's
        per-epoch forward flops on node n's GPU generation, expressed in
        the same integer unit the placement objective counts halo rows
        in (one unit = the congested network seconds of one row). On a
        fleet with identical per-node rates every column is identical,
        so all swap/move gains from this term are exactly zero and the
        search stays bit-identical to the rows-only objective.
        """
        m = self.platform.num_gpus
        flops = np.zeros(m, dtype=np.float64)
        # repro-lint: allow-loop — once per placement search: compute-row matrix over python chunk objects
        for i in range(m):
            for chunk in self.partition.chunks[i]:
                block = chunk.block
                # repro-lint: allow-loop — once per placement search (inner layer sweep of the same matrix)
                for layer in self.model.layers:
                    flops[i] += layer.forward_flops(
                        block.num_src, block.num_dst, block.num_edges
                    )
        # Per-node *effective* rates: the platform folds any active fault
        # state's compute factors in, so an elastic re-balance weighs a
        # straggling node exactly as slow as its kernels now run.
        rates = self.platform.node_compute_rates()
        seconds = flops[:, None] / rates[None, :]
        row_seconds = row_bytes / cluster_model.collective_bandwidth
        return np.rint(seconds / row_seconds).astype(np.int64)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def _new_timeline(self) -> EventTimeline:
        return EventTimeline(barrier_all=not self._pipelined)

    def train_epoch(self) -> EpochResult:
        """One full-graph epoch: forward, loss, backward, update.

        On a fault-injected fleet (``config.faults``) the epoch boundary
        is where faults become visible: the schedule is sampled at the
        accumulated :attr:`fleet_seconds`, the platform's rates are
        perturbed accordingly, a node death (or a pending
        makespan-trigger detection from the previous epoch) runs the
        elastic re-balance — whose migration traffic is charged as
        ``net`` tasks at the head of this epoch's timeline — and only
        then does the epoch execute. With no schedule (or an inactive
        one) every code path below is byte-for-byte the fault-free one.
        """
        timeline = self._new_timeline()
        self._migration_net_bytes = 0
        self._epoch_rebalance = None
        self._sync_fault_state(timeline)
        bytes_before = dict(self._comm_values.bytes_moved)
        grads_before = dict(self._comm_grads.bytes_moved)
        self._allreduce_net_bytes = 0

        self.model.zero_grad()
        self._forward(timeline)
        loss = self._seed_output_gradient(timeline)
        timeline.barrier()
        self._backward(timeline)
        timeline.barrier()
        self._all_reduce_and_step(timeline)
        self._epoch += 1

        h2d = (
            self._comm_values.bytes_moved["h2d"] - bytes_before["h2d"]
            + self._comm_grads.bytes_moved["h2d"] - grads_before["h2d"]
        )
        d2h = (
            self._comm_values.bytes_moved["d2h"] - bytes_before["d2h"]
            + self._comm_grads.bytes_moved["d2h"] - grads_before["d2h"]
        )
        d2d = (
            self._comm_values.bytes_moved["d2d"] - bytes_before["d2d"]
            + self._comm_grads.bytes_moved["d2d"] - grads_before["d2d"]
        )
        net = (
            self._comm_values.bytes_moved["net"] - bytes_before["net"]
            + self._comm_grads.bytes_moved["net"] - grads_before["net"]
            + self._allreduce_net_bytes
            + self._migration_net_bytes
        )
        result = EpochResult(
            epoch=self._epoch,
            loss=loss,
            peak_gpu_bytes=self.platform.peak_gpu_memory(),
            host_bytes=self.platform.host_in_use(),
            timeline=timeline,
            h2d_bytes=h2d,
            d2d_bytes=d2d,
            d2h_bytes=d2h,
            net_bytes=net,
            migration_bytes=self._migration_net_bytes,
            rebalance=self._epoch_rebalance,
        )
        self._finish_epoch(result)
        return result

    def train(self, num_epochs: int) -> List[EpochResult]:
        """Run ``num_epochs`` epochs, returning per-epoch results."""
        return [self.train_epoch() for _ in range(num_epochs)]

    def logits(self) -> np.ndarray:
        """Final-layer representations from the last forward pass."""
        return self._h[-1]

    def evaluate(self) -> Dict[str, float]:
        """Inference forward + accuracy on each available mask.

        No backward pass follows, so no aggregate checkpoints are stored
        (and no host memory or D2H writeback volume is charged for them).
        """
        timeline = self._new_timeline()  # throwaway; evaluation is not timed
        self._forward(timeline, training=False)
        logits = self._h[-1]
        metrics: Dict[str, float] = {}
        for split in ("train", "val", "test"):
            mask = getattr(self.graph, f"{split}_mask")
            if mask is not None:
                metrics[f"{split}_accuracy"] = accuracy(
                    logits, self.graph.labels, mask
                )
        return metrics

    def checkpointed_columns(self) -> set:
        """(layer, batch) pairs whose aggregate checkpoints are complete.

        A pair counts only when *every* GPU's chunk of that batch column
        has a host-resident checkpoint — the serving engine's embedding
        cache treats exactly these pairs as warm (a partial column still
        needs the staging front for its missing chunks). Empty until a
        training epoch has run under the hybrid policy.
        """
        m = self.plan.num_gpus
        columns = set()
        # repro-lint: allow-loop — serving prewarm helper, runs once after training
        for l in range(len(self.model.layers)):
            # repro-lint: allow-loop — serving prewarm helper, runs once after training
            for j in range(self.plan.num_batches):
                if all((l, i, j) in self._checkpoints for i in range(m)):
                    columns.add((l, j))
        return columns

    def serving_engine(self, cache_budget_bytes: Optional[int] = None):
        """A :class:`~repro.serving.engine.ServingEngine` over this trainer.

        The engine reuses this trainer's plan, partition, platform and
        config, and pre-warms its embedding cache from the aggregate
        checkpoints of any hybrid-policy epochs already trained.
        ``cache_budget_bytes`` bounds that cache (LRU eviction); ``None``
        keeps it unbounded.
        """
        from repro.serving.engine import ServingEngine

        return ServingEngine(self, cache_budget_bytes=cache_budget_bytes)

    # ------------------------------------------------------------------
    # fault-injected fleets: epoch-boundary sampling + elastic re-balance
    # ------------------------------------------------------------------
    def _sync_fault_state(self, timeline: EventTimeline) -> None:
        """Sample the fault schedule at this epoch's start and react.

        The schedule's state at :attr:`fleet_seconds` is installed on the
        platform (rate perturbations — the *physics*). The *response* is
        separate: a new node death forces an immediate elastic
        re-balance (the dead node's partitions cannot run), while
        stragglers are only *detected* by the makespan trigger at the
        previous epoch's end (``_finish_epoch``), whose pending flag this
        method services. When the sampled state is inactive and nothing
        was ever applied, not a single platform call is made — the exact
        fault-free code path.
        """
        schedule = self.config.faults
        platform = self.platform
        if (schedule is None or not schedule) and not self._pending_rebalance:
            return
        state = (schedule.state_at(self.fleet_seconds) if schedule
                 else FaultState())
        current = platform.fault_state or FaultState()
        new_deaths = state.dead - platform.dead_nodes
        if state != current or state.dead != platform.dead_nodes:
            if state.inactive and platform.fault_state is None \
                    and not platform.dead_nodes:
                pass  # nothing applied, nothing to apply
            else:
                platform.apply_fault_state(state)
        if new_deaths:
            if not self.config.elastic:
                raise FaultError(
                    f"node(s) {sorted(new_deaths)} died at fleet time "
                    f"{self.fleet_seconds:.6f}s and elastic re-balancing "
                    f"is disabled; their partitions cannot run"
                )
            self._elastic_rebalance(timeline, trigger="death")
        elif self._pending_rebalance:
            self._elastic_rebalance(timeline, trigger="makespan")
        self._pending_rebalance = False

    def _finish_epoch(self, result: EpochResult) -> None:
        """Advance the fleet clock and run the makespan trigger rule.

        The trigger compares the *observed* epoch makespan against the
        *predicted* one — the makespan of the first epoch that ran with
        no fault state applied and no re-balance (the faultless
        baseline). An epoch exceeding ``rebalance_trigger ×`` that
        baseline marks a re-balance pending for the next epoch boundary,
        unless the last re-balance already adapted to the exact same
        (fault state, placement) situation — re-balancing cannot undo a
        straggler, only mitigate it, so the trigger must not thrash.
        """
        makespan = result.epoch_seconds
        self.fleet_seconds += makespan
        if self.config.faults is None or not self.config.elastic:
            return
        platform = self.platform
        faultless = (platform.fault_state is None
                     and not platform.dead_nodes)
        if (faultless and result.rebalance is None
                and self._expected_epoch_seconds is None):
            self._expected_epoch_seconds = makespan
            return
        expected = self._expected_epoch_seconds
        if (expected is not None and result.rebalance is None
                and makespan > self.config.rebalance_trigger * expected):
            key = (platform.fault_state,
                   tuple(int(node) for node in self.placement))
            if key != self._last_rebalance_key:
                self._pending_rebalance = True

    def _capability_rows(self, cluster_model: ClusterCostModel,
                         row_bytes: int) -> np.ndarray:
        """``(m, num_nodes)`` placement-cost matrix for the re-balance.

        The compute term of :meth:`_compute_row_matrix` (kernel seconds
        under each node's *effective* — fault-degraded — flop rate) plus
        a wire term: partition p's halo rows all ride its home node's
        NIC, so placing p on node n additionally costs p's total
        exchanged rows times the *excess* per-row wire seconds of n's
        NIC over the fastest one, in the same row-equivalent integer
        unit. The total is a linear-in-placement surrogate (it prices
        every halo row as cross-node, an upper bound — co-located pairs
        ride NVLink for free), which is exactly the shape the search's
        per-``(partition, node)`` capability hook supports. On uniform
        effective NICs the wire term is identically zero and the matrix
        reduces to the compute term alone.
        """
        compute = self._compute_row_matrix(cluster_model, row_bytes)
        nic = self.platform.node_nic_rates()
        if nic.max() > nic.min():
            weights = (partition_halo_matrix(self.partition)
                       + 2 * partition_load_matrix(self.partition))
            total_rows = weights.sum(axis=1) + weights.sum(axis=0)
            row_seconds = row_bytes / cluster_model.collective_bandwidth
            excess = row_bytes / nic - row_bytes / nic.max()
            compute = compute + np.rint(
                total_rows[:, None] * excess[None, :] / row_seconds
            ).astype(np.int64)
        return compute

    def _partition_state_bytes(self) -> np.ndarray:
        """Per-partition bytes a re-homed partition carries over the wire.

        A partition that moves to another node ships its GPU-resident
        chunk topology (CSR indices + offsets) and its per-layer vertex
        rows — h^l and ∇h^l for each of its owned vertices across every
        layer. Checkpointed aggregates are *not* migrated: they are
        dropped and recomputed by the next forward pass (strictly
        cheaper than shipping them through a degraded network, and
        numerically free — checkpoints only live within one epoch).
        """
        m = self.platform.num_gpus
        sizes = np.bincount(self.partition.assignment, minlength=m)
        dims_sum = sum(self.model.dims)
        rows = 2 * sizes.astype(np.int64) * dims_sum \
            * self.config.bytes_per_scalar
        topology = np.zeros(m, dtype=np.int64)
        for row in self.partition.chunks:
            for chunk in row:
                topology[chunk.partition_id] += (
                    chunk.num_edges * 12 + (chunk.num_dst + 1) * 8
                )
        return rows + topology

    def _elastic_rebalance(self, timeline: EventTimeline,
                           trigger: str) -> RebalanceEvent:
        """Re-place partitions against the degraded fleet and migrate.

        The sequence: release every placement-dependent reservation
        (vertex-data shards, aggregate checkpoints, GPU topology) so the
        admission budgets see true headroom; rebuild the capability and
        bandwidth vectors from the *faulted* platform; re-run the
        placement search (``joint_placement`` under the joint policy) in
        evacuation mode — dead nodes refused, balance taken over the
        survivors, the current placement (dead entries re-homed onto the
        least-loaded survivors) as the seed; install the new placement;
        re-reserve host/GPU state under it; rebuild both communicators
        (their node routing snapshots the placement at construction);
        and charge the moved partitions' state bytes as coalesced
        per-link ``net`` tasks at the head of the epoch timeline,
        followed by a barrier — the epoch's work starts only after the
        migration lands. Raises :class:`~repro.errors.FaultError` when
        no admissible evacuation exists (placement bounds or surviving
        hosts' memory).
        """
        platform = self.platform
        nodes = platform.num_nodes
        config = self.config
        dead = platform.dead_nodes
        old_placement = np.asarray(self.placement, dtype=np.int64).copy()

        # 1. Release placement-dependent state. Budgets must not double-
        # count reservations this re-balance is about to re-home, and
        # GPU pools must be empty before a cross-generation capacity
        # swap.
        for allocation in self._host_allocations:
            allocation.free()
        self._host_allocations = []
        self.free_checkpoints()
        for allocation in self._topology_allocations:
            allocation.free()
        self._topology_allocations = []

        # 2. Degraded capability/bandwidth vectors + admission inputs.
        row_bytes = max(self.model.dims) * config.bytes_per_scalar
        cluster_model = ClusterCostModel.from_platform(platform)
        node_budgets, per_partition_bytes = self._admission_inputs()
        compute_rows = self._capability_rows(cluster_model, row_bytes)

        # 3. Seed: the current placement with every partition of a dead
        # node re-homed onto the least-loaded survivor (lowest id on
        # ties) — a deterministic admissible starting point the search
        # refines, never regresses.
        seed = old_placement.copy()
        if dead:
            alive = platform.alive_nodes
            counts = {node: int((seed == node).sum()) for node in alive}
            for p in np.flatnonzero(
                    np.isin(seed, np.array(sorted(dead)))).tolist():
                target = min(alive, key=lambda node: (counts[node], node))
                seed[p] = target
                counts[target] += 1

        # 4. Re-run the placement search in evacuation mode.
        try:
            if config.placement == "joint":
                joint = joint_placement(
                    self.partition, nodes,
                    cost_model=CommCostModel.from_platform(platform),
                    cluster_model=cluster_model, row_bytes=row_bytes,
                    allreduce_bytes=self.model.parameter_nbytes(),
                    allreduce_algorithm=config.allreduce,
                    seed_placement=seed,
                    max_imbalance=config.max_imbalance,
                    node_budgets=node_budgets,
                    partition_host_bytes=per_partition_bytes,
                    compute_rows=compute_rows,
                    dead_nodes=dead,
                )
                self.partition = joint.partition
                placed = joint.placement_result
                self.reorganization = joint.reorganization
            else:
                placed = search_placement(
                    self.partition, nodes,
                    cluster_model=cluster_model, row_bytes=row_bytes,
                    allreduce_bytes=self.model.parameter_nbytes(),
                    allreduce_algorithm=config.allreduce,
                    seed_placement=seed,
                    max_imbalance=config.max_imbalance,
                    node_budgets=node_budgets,
                    partition_host_bytes=per_partition_bytes,
                    compute_rows=compute_rows,
                    dead_nodes=dead,
                )
        except PartitionError as error:
            raise FaultError(
                f"the fleet cannot absorb the fault ({trigger} trigger, "
                f"dead nodes {sorted(dead)}): {error}"
            ) from error
        new_placement = placed.placement
        self.placement = new_placement
        self.placement_result = placed
        self.placement_node_budgets = node_budgets
        self.placement_partition_host_bytes = per_partition_bytes
        self.placement_compute_rows = compute_rows
        self.preprocessing_seconds += placed.seconds

        # 5. Install + re-reserve. set_placement re-validates against
        # the dead set; surviving hosts that cannot hold the evacuated
        # shards fail admission here.
        try:
            platform.set_placement(new_placement,
                                   max_imbalance=config.max_imbalance)
        except ConfigurationError as error:
            raise FaultError(
                f"searched evacuation is inadmissible: {error}"
            ) from error
        if config.placement == "joint":
            dedup_inter, dedup_intra = config.dedup_flags
            self.plan = build_comm_plan(
                self.partition, dedup_inter=dedup_inter,
                dedup_intra=dedup_intra
            )
        self._comm_values = DedupCommunicator(
            self.plan, platform, config.bytes_per_scalar
        )
        self._comm_grads = DedupCommunicator(
            self.plan, platform, config.bytes_per_scalar
        )
        try:
            self._host_allocations = [
                pool.alloc("vertex_data", share)
                for pool, share in platform.split_host_bytes(
                    self._vertex_host_bytes())
            ]
            self._alloc_topology()
        except DeviceOutOfMemoryError as error:
            raise FaultError(
                f"surviving nodes cannot admit the evacuated working "
                f"set: {error}"
            ) from error

        # 6. Migration traffic: moved partitions' state bytes, coalesced
        # per directed link, priced by the degraded cost model. A dead
        # source cannot send — its partitions re-materialize from the
        # lowest-id survivor's shard (same-node landings ship nothing).
        moved = np.flatnonzero(old_placement != new_placement)
        migration_bytes = 0
        migration_seconds = 0.0
        if len(moved):
            state_bytes = self._partition_state_bytes()
            lowest_alive = min(platform.alive_nodes)
            flows: Dict[tuple, int] = {}
            for p in moved.tolist():
                src = int(old_placement[p])
                if src in dead:
                    src = lowest_alive
                dst = int(new_placement[p])
                if src == dst:
                    continue
                flows[(src, dst)] = flows.get((src, dst), 0) \
                    + int(state_bytes[p])
            if flows:
                num_rails = platform.num_rails
                devices, seconds = [], []
                for (src, dst), nbytes in sorted(flows.items()):
                    devices.append(net_link(src, dst, nodes, 0, num_rails))
                    seconds.append(
                        cluster_model.halo_exchange_seconds(nbytes, src, dst)
                    )
                    migration_bytes += nbytes
                timeline.submit_batch(
                    "net", np.asarray(seconds, dtype=np.float64),
                    devices=np.asarray(devices, dtype=np.int64),
                    label=f"migrate[{trigger}]",
                )
                timeline.barrier()
                migration_seconds = float(np.sum(seconds))
        self._migration_net_bytes += migration_bytes

        event = RebalanceEvent(
            epoch=self._epoch + 1,
            trigger=trigger,
            placement_before=tuple(int(n) for n in old_placement),
            placement_after=tuple(int(n) for n in new_placement),
            moved_partitions=tuple(int(p) for p in moved),
            migration_bytes=int(migration_bytes),
            migration_seconds=migration_seconds,
            search_seconds=placed.seconds,
            dead_nodes=frozenset(dead),
        )
        self.rebalances.append(event)
        self._epoch_rebalance = event
        self._last_rebalance_key = (
            platform.fault_state,
            tuple(int(node) for node in new_placement),
        )
        return event

    # ------------------------------------------------------------------
    # forward pass (Algorithm 1, lines 4-9)
    # ------------------------------------------------------------------
    def _forward(self, timeline: EventTimeline, training: bool = True) -> None:
        hybrid = self.config.intermediate_policy == "hybrid"
        bps = self.config.bytes_per_scalar

        # repro-lint: allow-loop — wave granularity: one batched emission per (layer, batch)
        for l, layer in enumerate(self.model.layers):
            self._comm_values.start_sweep(self.model.dims[l],
                                          dtype=self.config.dtype,
                                          double_buffer=self._pipelined)
            cache_layer = training and hybrid and layer.cacheable_aggregate
            # repro-lint: allow-loop — wave granularity: one batched emission per (layer, batch)
            for j in range(self.plan.num_batches):
                inputs = self._comm_values.load_batch_forward(
                    j, self._h[l], timeline
                )
                input_deps = self._comm_values.batch_input_dep_ids()
                compute_seconds = []
                d2h_seconds = []
                # repro-lint: allow-loop — per-GPU cost assembly over python chunk objects; emission below is batched
                for i in range(self.plan.num_gpus):
                    chunk = self.partition.chunks[i][j]
                    block = chunk.block
                    workspace_bytes = bps * (
                        block.num_src * layer.in_dim
                        + layer.forward_workspace_scalars(
                            block.num_src, block.num_dst, block.num_edges
                        )
                    )
                    gpu = self.platform.gpus[i]
                    with gpu.memory.scoped("forward_workspace", workspace_bytes):
                        with no_grad():
                            h_in = Tensor(inputs[i])
                            agg = layer.aggregate(block, h_in)
                            h_dst = (Tensor(inputs[i][block.dst_pos])
                                     if layer.update_uses_self else h_in)
                            out = layer.update(block, agg, h_dst)
                        out_bytes = block.num_dst * layer.out_dim * bps
                        d2h = out_bytes
                        if cache_layer:
                            self._store_checkpoint(l, i, j, agg.data)
                            d2h += block.num_dst * layer.aggregate_dim() * bps
                        self._h[l + 1][chunk.dst_global] = out.data
                        d2h_seconds.append(
                            self.platform.h2d_seconds(d2h, devices=i)
                        )
                        self._comm_values.bytes_moved["d2h"] += d2h
                        flops = layer.forward_flops(
                            block.num_src, block.num_dst, block.num_edges
                        )
                        compute_seconds.append(
                            self.platform.gpu_compute_seconds(flops, devices=i)
                        )
                compute_ids = timeline.submit_batch(
                    "gpu", compute_seconds, deps_by_device=input_deps,
                    label=f"compute[l{l}b{j}]",
                )
                timeline.submit_batch(
                    "d2h", d2h_seconds, deps_by_device=compute_ids,
                    label=f"writeback[l{l}b{j}]",
                )
            self._comm_values.end_sweep()
            # Layer l+1's loads read the h^{l+1} rows written back above.
            timeline.barrier()

    # ------------------------------------------------------------------
    # downstream task (Algorithm 1, lines 10-11)
    # ------------------------------------------------------------------
    def _seed_output_gradient(self, timeline: EventTimeline) -> float:
        for grad in self._grad_h:
            grad[:] = 0.0
        loss, seed = masked_cross_entropy_value_and_grad(
            self._h[-1], self.graph.labels, self.graph.train_mask
        )
        self._grad_h[-1][:] = seed.astype(self.config.dtype)
        logits_bytes = self._h[-1].shape[0] * self._h[-1].shape[1] \
            * self.config.bytes_per_scalar
        # The downstream task runs on node 0's host (the loss is a single
        # global reduction; on one node the argument is a no-op).
        timeline.add("cpu",
                     self.platform.cpu_accumulate_seconds(logits_bytes,
                                                          node=0),
                     label="loss")
        return loss

    # ------------------------------------------------------------------
    # backward pass (Algorithm 1, lines 12-19)
    # ------------------------------------------------------------------
    def _backward(self, timeline: EventTimeline) -> None:
        hybrid = self.config.intermediate_policy == "hybrid"
        # repro-lint: allow-loop — wave granularity: one batched emission per (layer, batch)
        for l in range(len(self.model.layers) - 1, -1, -1):
            layer = self.model.layers[l]
            use_cache = hybrid and layer.cacheable_aggregate
            # Gradient buffers accumulate in place across batches, so
            # double buffering cannot apply to them (scatter j must wait
            # for flush j-1 regardless); only the staging/value buffers
            # alternate parity under the pipeline policy.
            self._comm_grads.start_sweep(self.model.dims[l],
                                         dtype=self.config.dtype)
            if not use_cache:
                self._comm_values.start_sweep(self.model.dims[l],
                                              dtype=self.config.dtype,
                                              double_buffer=self._pipelined)
            # repro-lint: allow-loop — wave granularity: one batched emission per (layer, batch)
            for j in range(self.plan.num_batches):
                if use_cache:
                    self._backward_batch_cached(l, j, timeline)
                else:
                    self._backward_batch_recompute(l, j, timeline)
            if not use_cache:
                self._comm_values.end_sweep()
            self._comm_grads.end_sweep()
            # Layer l-1's backward reads the ∇h^l rows accumulated above.
            timeline.barrier()

    def _backward_batch_cached(self, l: int, j: int,
                               timeline: EventTimeline) -> None:
        """Hybrid path: recompute UPDATE from the cached aggregate."""
        layer = self.model.layers[l]
        bps = self.config.bytes_per_scalar
        neighbor_grads: List[np.ndarray] = []
        h2d_seconds, compute_seconds = [], []

        # repro-lint: allow-loop — per-GPU cost assembly over python chunk objects; emission below is batched
        for i in range(self.plan.num_gpus):
            chunk = self.partition.chunks[i][j]
            block = chunk.block
            gpu = self.platform.gpus[i]

            agg_data = self._take_checkpoint(l, i, j)
            grad_out = self._grad_h[l + 1][chunk.dst_global]
            loaded = (block.num_dst
                      * (layer.aggregate_dim() + layer.out_dim) * bps)
            if layer.update_uses_self:
                h_dst_data = self._h[l][chunk.dst_global]
                loaded += block.num_dst * layer.in_dim * bps
            else:
                h_dst_data = np.zeros((block.num_dst, layer.in_dim),
                                      dtype=self.config.dtype)
            h2d_seconds.append(self.platform.h2d_seconds(loaded, devices=i))
            self._comm_grads.bytes_moved["h2d"] += loaded

            workspace_bytes = bps * 3 * block.num_dst * (
                layer.aggregate_dim() + layer.out_dim + layer.in_dim
            )
            with gpu.memory.scoped("backward_workspace", workspace_bytes):
                agg_t = Tensor(agg_data, requires_grad=True)
                h_dst_t = Tensor(h_dst_data, requires_grad=True)
                out = layer.update(block, agg_t, h_dst_t)
                out.backward(grad_out.astype(self.config.dtype))
                grad_agg = agg_t.grad if agg_t.grad is not None else \
                    np.zeros_like(agg_data)
                grads = layer.aggregate_backward(block, grad_agg)
                if layer.update_uses_self and h_dst_t.grad is not None:
                    # dst_pos never repeats a row (Block checks it).
                    grads[block.dst_pos] += h_dst_t.grad
                neighbor_grads.append(grads)

            flops = (3 * layer.update_flops(block.num_dst)
                     + layer.aggregate_flops(block.num_src, block.num_dst,
                                             block.num_edges))
            compute_seconds.append(
                self.platform.gpu_compute_seconds(flops, devices=i)
            )

        load_ids = timeline.submit_batch(
            "h2d", h2d_seconds, label=f"grad_load[l{l}b{j}]",
        )
        compute_ids = timeline.submit_batch(
            "gpu", compute_seconds, deps_by_device=load_ids,
            label=f"grad_compute[l{l}b{j}]",
        )
        self._comm_grads.accumulate_batch_backward(
            j, neighbor_grads, self._grad_h[l], timeline,
            deps_by_device=compute_ids,
        )

    def _backward_batch_recompute(self, l: int, j: int,
                                  timeline: EventTimeline) -> None:
        """Recompute path: re-gather inputs, recompute the full layer."""
        layer = self.model.layers[l]
        bps = self.config.bytes_per_scalar
        inputs = self._comm_values.load_batch_forward(j, self._h[l], timeline)
        input_deps = self._comm_values.batch_input_dep_ids()
        neighbor_grads: List[np.ndarray] = []
        h2d_seconds, compute_seconds = [], []

        # repro-lint: allow-loop — per-GPU cost assembly over python chunk objects; emission below is batched
        for i in range(self.plan.num_gpus):
            chunk = self.partition.chunks[i][j]
            block = chunk.block
            gpu = self.platform.gpus[i]

            grad_out = self._grad_h[l + 1][chunk.dst_global]
            loaded = block.num_dst * layer.out_dim * bps
            h2d_seconds.append(self.platform.h2d_seconds(loaded, devices=i))
            self._comm_grads.bytes_moved["h2d"] += loaded

            workspace_bytes = bps * (
                block.num_src * layer.in_dim
                + 3 * layer.forward_workspace_scalars(
                    block.num_src, block.num_dst, block.num_edges
                )
            )
            with gpu.memory.scoped("backward_workspace", workspace_bytes):
                h_t = Tensor(inputs[i], requires_grad=True)
                out = layer.forward(block, h_t)
                out.backward(grad_out.astype(self.config.dtype))
                grads = h_t.grad if h_t.grad is not None else \
                    np.zeros_like(inputs[i])
                neighbor_grads.append(grads)

            flops = 3 * layer.forward_flops(
                block.num_src, block.num_dst, block.num_edges
            )
            compute_seconds.append(
                self.platform.gpu_compute_seconds(flops, devices=i)
            )

        load_ids = timeline.submit_batch(
            "h2d", h2d_seconds, label=f"grad_load[l{l}b{j}]",
        )
        compute_deps = [
            np.concatenate([input_deps[i], load_ids[i:i + 1]])
            for i in range(self.plan.num_gpus)
        ]
        compute_ids = timeline.submit_batch(
            "gpu", compute_seconds, deps_by_device=compute_deps,
            label=f"grad_compute[l{l}b{j}]",
        )
        self._comm_grads.accumulate_batch_backward(
            j, neighbor_grads, self._grad_h[l], timeline,
            deps_by_device=compute_ids,
        )

    # ------------------------------------------------------------------
    # parameter update (Algorithm 1, lines 20-21)
    # ------------------------------------------------------------------
    def _all_reduce_and_step(self, timeline: EventTimeline) -> None:
        param_bytes = self.model.parameter_nbytes()
        nodes = self.platform.num_nodes
        if nodes == 1:
            m = self.plan.num_gpus
            if m > 1:
                # Ring all-reduce volume: 2 (m-1)/m of the parameter payload.
                volume = 2 * param_bytes * (m - 1) / m
                timeline.add("d2d", self.platform.d2d_seconds(volume),
                             device=0, label="all_reduce")
        else:
            # Hierarchical all-reduce: each node ring-reduces over its own
            # GPUs on NVLink, then the nodes run the configured inter-node
            # collective over the network; every participating link gets
            # one task of the collective's per-node busy time so pipeline
            # scheduling sees the real dependency structure. Under an
            # uneven placement each node's ring spans however many GPUs
            # the placement put there (a single-GPU node has no intra
            # leg); balanced placements price every node identically,
            # float-identical to the pre-uneven code.
            intra_legs = []
            for node in range(nodes):
                members = self.platform.node_gpus(node)
                if len(members) > 1:
                    volume = 2 * param_bytes * (len(members) - 1) \
                        / len(members)
                    intra_legs.append((members[0], volume))
            intra_ids = np.empty(0, dtype=np.int64)
            if intra_legs:
                leg_devices = np.array([device for device, _ in intra_legs],
                                       dtype=np.int64)
                intra_ids = timeline.submit_batch(
                    "d2d",
                    self.platform.d2d_seconds(
                        np.array([volume for _, volume in intra_legs]),
                        devices=leg_devices,
                    ),
                    devices=leg_devices,
                    label="all_reduce_intra",
                )
            # The collective spans the *alive* fleet: on a fault-free
            # cluster that is every node and the emission below is
            # float-identical to the pre-fault code (from_platform
            # returns the from_cluster model verbatim, and the alive
            # ring's successor map is (node + 1) % nodes exactly); after
            # a death the ring closes over the survivors.
            alive = self.platform.alive_nodes
            cost = ClusterCostModel.from_platform(self.platform)
            if len(alive) > 1:
                seconds = cost.allreduce_seconds(
                    param_bytes, algorithm=self.config.allreduce
                )
                # Encode ring links with the platform's rail fan-out so
                # the ids share the halo tasks' device space (on a rail
                # fabric the collective's per-pair leg rides rail 0;
                # spine pricing already folds the core contention into
                # ``seconds``).
                num_rails = self.platform.num_rails
                timeline.submit_batch(
                    "net", np.full(len(alive), seconds),
                    devices=np.array(
                        [net_link(node, alive[(k + 1) % len(alive)],
                                  nodes, 0, num_rails)
                         for k, node in enumerate(alive)],
                        dtype=np.int64,
                    ),
                    deps=intra_ids,
                    label=f"all_reduce_{self.config.allreduce}",
                )
                # Total wire volume of an all-reduce (ring and tree
                # alike): 2 (N-1) payloads cross the network.
                self._allreduce_net_bytes += \
                    2 * param_bytes * (len(alive) - 1)
        self.optimizer.step()

    # ------------------------------------------------------------------
    # checkpoint store
    # ------------------------------------------------------------------
    def _store_checkpoint(self, l: int, i: int, j: int,
                          data: np.ndarray) -> None:
        key = (l, i, j)
        nbytes = data.shape[0] * data.shape[1] * self.config.bytes_per_scalar
        allocation = self._checkpoint_allocations.get(key)
        if allocation is None:
            # Checkpoints live on the host of the GPU that wrote them
            # (node 0's pool on a single-node platform).
            pool = self.platform.host_pool(self.platform.node_of(i))
            self._checkpoint_allocations[key] = pool.alloc(
                "aggregate_cache", nbytes
            )
        elif allocation.nbytes != nbytes:
            allocation.resize(nbytes)
        # ``data`` is a fresh aggregate output that nothing else writes,
        # so it is kept without a copy.
        self._checkpoints[key] = data

    def _take_checkpoint(self, l: int, i: int, j: int) -> np.ndarray:
        key = (l, i, j)
        if key not in self._checkpoints:
            raise ConfigurationError(
                f"missing aggregate checkpoint for layer {l}, gpu {i}, "
                f"batch {j} — was the forward pass run with the hybrid "
                f"policy?"
            )
        return self._checkpoints[key]

    def free_checkpoints(self) -> None:
        """Release all cached aggregates and their host allocations."""
        for allocation in self._checkpoint_allocations.values():
            allocation.free()
        self._checkpoint_allocations.clear()
        self._checkpoints.clear()

    @property
    def _checkpoint_bytes(self) -> int:
        """Host bytes currently reserved for aggregate checkpoints."""
        return sum(allocation.nbytes
                   for allocation in self._checkpoint_allocations.values())
