"""Event-timeline execution engine.

This subsystem is the reproduction's only clock, a discrete-event model
of the machine: every simulated action becomes a
:class:`~repro.runtime.task.Task` on a per-device *channel* (compute
queue, PCIe copy engines, NVLink engine, host accumulator), the
:class:`~repro.runtime.scheduler.EventScheduler` resolves start times
from channel availability + task dependencies + barriers, and the epoch
time is the resulting critical-path makespan (the sum of phase maxima
when a barrier follows every phase).

The :class:`~repro.hardware.clock.EventTimeline` in ``hardware/clock.py``
is the trainer-facing wrapper that combines a scheduler with its derived
:class:`~repro.hardware.clock.TimeBreakdown` category view.
"""

from repro.runtime.task import (
    CHANNELS,
    HOST_DEVICE,
    NET_DEVICE_BASE,
    OVERLAP_POLICIES,
    SPINE_RESOURCE,
    Task,
    net_link,
    net_link_nodes,
    net_link_parts,
)
from repro.runtime.scheduler import EventScheduler
from repro.runtime.buffers import TransitionBuffers

__all__ = [
    "CHANNELS", "HOST_DEVICE", "NET_DEVICE_BASE", "SPINE_RESOURCE",
    "OVERLAP_POLICIES",
    "Task", "EventScheduler", "TransitionBuffers",
    "net_link", "net_link_nodes", "net_link_parts",
]
