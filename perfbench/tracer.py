"""In-memory spans around the calls into each layer's public functions.

A :class:`Tracer` replaces attributes (module functions, class methods)
with wrappers that record one :class:`Span` per call and puts the
original objects back in :meth:`Tracer.restore`. Spans nest by call
order on one thread, so a span's self time is its duration minus the
durations of its direct children. This module never edits the program's
source: the wrappers are installed from the benchmark's side only.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

_MISSING = object()


@dataclass
class Span:
    """One timed call: layer ``name``, host start/end seconds, parent index."""

    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    #: the setup sample, epoch or serving pass the span belongs to
    step: str = ""
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from wrapped attributes; restores them on exit."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        #: label attached to every span opened from now on
        self.step = ""
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------
    def open(self, name: str, args: Optional[Dict[str, Any]] = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent=parent,
                               step=self.step, args=args or {}))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while {popped} is open")

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    # -- patching ----------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str,
             tag: Optional[Callable[..., Dict[str, Any]]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``tag(*args)`` may derive span arguments from the call (e.g. the
        model layer a method runs for). Only attributes ``owner`` itself
        defines are wrapped, so an inherited method is wrapped once, on
        the class that defines it.
        """
        original = vars(owner).get(attr, _MISSING)
        if original is _MISSING:
            raise AttributeError(f"{owner!r} defines no {attr!r}")
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer.open(name, tag(*args) if tag else None)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(index)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every wrapped attribute, last wrapped first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> List[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.duration
        return own

    def chrome_trace(self) -> Dict[str, Any]:
        """The spans as Chrome Trace Event JSON (opens in Perfetto)."""
        origin = min((span.start for span in self.spans), default=0.0)
        events = [
            {"name": span.name, "ph": "X", "pid": 0, "tid": 0,
             "ts": (span.start - origin) * 1e6,
             "dur": span.duration * 1e6,
             "args": dict(span.args, step=span.step, parent=span.parent)}
            for span in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
