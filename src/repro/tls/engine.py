"""The columnar trace engine: per-loop thread windows plus
observability.

One :class:`TraceEngine` wraps one
:class:`~repro.runtime.events.ColumnarRecording` and serves every model
replay the back half of the Jrpm pipeline runs against it:

* ``split(loop_id)`` — index-only thread windowing, computed once per
  loop and shared by every model that replays it (the shared cycle
  index is the sorted ``cycles`` column itself);
* the replay itself —
  :class:`~repro.tls.simulator.TraceSimulator`, attached with
  ``engine=`` — walks each thread's column window once, classifying,
  overflow-checking and resolving as the events stream through, and
  books that pass under the ``resolve`` phase.

:class:`TraceEngineStats` keeps the four :data:`KERNELS` phases, so the
report's ``engine`` block keeps its shape; ``classify`` and
``overflow`` are folded into ``resolve`` and read 0.  The ``jrpm`` CLI
prints the counters and ``bench_perf_pipeline`` persists them into
``BENCH_pipeline.json``.
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro.errors import SimulationError
from repro.runtime.events import ColumnarRecording
from repro.tls.thread_trace import EntryTrace, split_trace

#: kernel names, in pipeline order
KERNELS = ("split", "classify", "overflow", "resolve")


class TraceEngineStats:
    """Per-phase wall-clock and split hit/miss counters."""

    def __init__(self):
        self.seconds: Dict[str, float] = {k: 0.0 for k in KERNELS}
        self.calls: Dict[str, int] = {k: 0 for k in KERNELS}
        self.hits: Dict[str, int] = {k: 0 for k in KERNELS}
        self.misses: Dict[str, int] = {k: 0 for k in KERNELS}

    # -- accounting ------------------------------------------------------

    def book(self, phase: str, seconds: float) -> None:
        """Add one timed call of ``phase``."""
        self.seconds[phase] += seconds
        self.calls[phase] += 1

    def hit_rate(self, kernel: str) -> float:
        total = self.hits[kernel] + self.misses[kernel]
        return self.hits[kernel] / total if total else 0.0

    # -- reporting -------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """JSON-friendly counters, per kernel."""
        out: Dict[str, Dict[str, float]] = {}
        for k in KERNELS:
            out[k] = {
                "seconds": round(self.seconds[k], 6),
                "calls": self.calls[k],
                "hits": self.hits[k],
                "misses": self.misses[k],
            }
        return out

    def render(self) -> str:
        """One-line-per-kernel summary for CLI output."""
        lines = ["%-10s %10s %8s %8s %8s" % (
            "phase", "seconds", "calls", "hits", "misses")]
        for k in KERNELS:
            lines.append("%-10s %10.4f %8d %8d %8d" % (
                k, self.seconds[k], self.calls[k], self.hits[k],
                self.misses[k]))
        return "\n".join(lines)


class TraceEngine:
    """Memoized thread windows over one columnar recording."""

    def __init__(self, recording: ColumnarRecording):
        if not isinstance(recording, ColumnarRecording):
            raise SimulationError(
                "TraceEngine requires a ColumnarRecording; got %s"
                % type(recording).__name__)
        self.recording = recording
        self.stats = TraceEngineStats()
        self._splits: Dict[int, List[EntryTrace]] = {}

    # -- kernels ---------------------------------------------------------

    def split(self, loop_id: int) -> List[EntryTrace]:
        """Entry/thread windows of one loop, computed once per loop."""
        stats = self.stats
        entries = self._splits.get(loop_id)
        if entries is not None:
            stats.hits["split"] += 1
            stats.calls["split"] += 1
            return entries
        stats.misses["split"] += 1
        t0 = time.perf_counter()
        entries = split_trace(self.recording, loop_id)
        stats.book("split", time.perf_counter() - t0)
        self._splits[loop_id] = entries
        return entries
