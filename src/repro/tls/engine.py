"""The columnar trace engine: memoized TLS analysis kernels plus
observability.

One :class:`TraceEngine` wraps one
:class:`~repro.runtime.events.ColumnarRecording` and serves the
per-thread kernels of every model replay the back half of the Jrpm
pipeline runs against it:

* ``split(loop_id)`` — zero-copy thread windowing, computed once per
  loop (the shared cycle index is the sorted ``cycles`` column itself);
* ``prepare_entry(loop_id, entry, eliminated)`` — classification of
  every thread of one entry (drop eliminated locals, own-store
  forwarding, heap projection), memoized per ``(entry window,
  eliminated-slot set)``;
* ``overflow_entry(loop_id, entry, prepared, config)`` — first
  speculative-buffer overflow of every thread of one entry, memoized
  per ``(entry window, Table 1 buffer geometry)``; only the
  restart-on-violation policy asks for it.

The replay itself —
:class:`~repro.tls.simulator.TraceSimulator`, attached with
``engine=`` — calls these kernels and books its scheduling loop under
the ``resolve`` phase.

The memo keys are *projections* of what each kernel actually reads —
the same trick :mod:`repro.jrpm.cache` plays with
``profile_config_key`` — so a configuration sweep that only moves
``n_cpus`` or the Table 2 overheads re-resolves dependencies without
re-decoding a single event, and a buffer-geometry sweep re-runs only
the overflow model.

Every kernel records wall-clock and hit/miss counters into
:class:`TraceEngineStats`; the ``jrpm`` CLI prints them and
``bench_perf_pipeline`` persists them into ``BENCH_pipeline.json``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from itertools import islice
from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.hydra.config import HydraConfig
from repro.runtime.events import (
    KIND_LD,
    KIND_LLD,
    KIND_ST,
    ColumnarRecording,
    local_address,
)
from repro.runtime.heap import LINE_SIZE
from repro.tls.simulator import overflow_point
from repro.tls.thread_trace import EntryTrace, split_trace

#: kernel names, in pipeline order
KERNELS = ("split", "classify", "overflow", "resolve")


class TraceEngineStats:
    """Per-phase wall-clock and kernel hit/miss counters."""

    def __init__(self):
        self.seconds: Dict[str, float] = {k: 0.0 for k in KERNELS}
        self.calls: Dict[str, int] = {k: 0 for k in KERNELS}
        self.hits: Dict[str, int] = {k: 0 for k in KERNELS}
        self.misses: Dict[str, int] = {k: 0 for k in KERNELS}

    # -- accounting ------------------------------------------------------

    def _kernel_seconds(self) -> float:
        return (self.seconds["split"] + self.seconds["classify"]
                + self.seconds["overflow"])

    @contextmanager
    def timed_exclusive(self, phase: str):
        """Time a phase, excluding kernel time accrued inside it (the
        simulator's scheduling loop invokes the memoized kernels; their
        time is already booked under their own phases)."""
        t0 = time.perf_counter()
        kernels0 = self._kernel_seconds()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            self.seconds[phase] += max(
                0.0, elapsed - (self._kernel_seconds() - kernels0))
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


def classify_entry(entry: EntryTrace, eliminated: frozenset) -> tuple:
    """:func:`~repro.tls.simulator.prepare_view` of every thread of one
    columnar entry, with identical output.

    An entry's thread windows are contiguous, so the three columns are
    sliced once per entry and each thread consumes its share of one
    shared ``zip`` iterator.  ``line_of`` is inlined, and the local
    test becomes one range check against the entry frame's synthetic
    address block plus one set probe for its eliminated slots.
    """
    threads = entry.threads
    if not threads:
        return ()
    rec = threads[0].recording
    lo, hi = threads[0].lo, threads[-1].hi
    events = zip(rec.kinds[lo:hi], rec.addresses[lo:hi],
                 rec.cycles[lo:hi])
    frame_lo = local_address(entry.frame_id, 0)
    frame_hi = frame_lo + 0x10000
    dropped = {local_address(entry.frame_id, slot) for slot in eliminated}
    line_size = LINE_SIZE
    out = []
    for view in threads:
        start = view.start
        dep_loads: list = []
        stores: list = []
        heap_seq: list = []
        dep_append = dep_loads.append
        stores_append = stores.append
        heap_append = heap_seq.append
        own = set()
        own_add = own.add
        for kind, addr, cyc in islice(events, view.hi - view.lo):
            if kind == KIND_LD:
                rel = cyc - start
                heap_append((rel, False, addr // line_size))
                if addr not in own:
                    dep_append((rel, addr, False))
            elif kind == KIND_ST:
                rel = cyc - start
                heap_append((rel, True, addr // line_size))
                stores_append((rel, addr, False))
                own_add(addr)
            elif frame_lo <= addr < frame_hi and addr not in dropped:
                if kind == KIND_LLD:
                    if addr not in own:
                        dep_append((cyc - start, addr, True))
                else:
                    stores_append((cyc - start, addr, True))
                    own_add(addr)
        out.append((tuple(dep_loads), tuple(stores), tuple(heap_seq)))
    return tuple(out)


def overflow_config_key(config: HydraConfig) -> tuple:
    """The overflow kernel's projection of a Hydra configuration: the
    Table 1 buffer geometry, nothing else."""
    return (config.load_buffer_lines, config.load_buffer_assoc,
            config.store_buffer_lines)


class TraceEngine:
    """Memoized analysis kernels over one columnar recording."""

    def __init__(self, recording: ColumnarRecording):
        if not isinstance(recording, ColumnarRecording):
            raise SimulationError(
                "TraceEngine requires a ColumnarRecording; got %s"
                % type(recording).__name__)
        self.recording = recording
        self.stats = TraceEngineStats()
        self._splits: Dict[int, List[EntryTrace]] = {}
        #: (entry key, eliminated) -> tuple of per-thread PreparedEvents
        self._prepared: Dict[tuple, tuple] = {}
        #: (entry key, buffer geometry) -> tuple of overflow rels
        self._overflows: Dict[tuple, tuple] = {}

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
        stats.seconds["split"] += time.perf_counter() - t0
        stats.calls["split"] += 1
        self._splits[loop_id] = entries
        return entries

    @staticmethod
    def _entry_key(loop_id: int, entry: EntryTrace) -> tuple:
        """Structural identity of one entry's window partition: thread
        windows are contiguous, so the outermost index range plus the
        thread count pins them down within one loop's split."""
        threads = entry.threads
        if not threads:
            return (loop_id, -1, -1, -1, 0)
        first = threads[0]
        return (loop_id, first.lo, threads[-1].hi, first.start,
                len(threads))

    def prepare_entry(self, loop_id: int, entry: EntryTrace,
                      eliminated: frozenset) -> tuple:
        """Memoized classification of every thread of one entry.

        Returns a tuple of :data:`~repro.tls.simulator.PreparedEvents`
        aligned with ``entry.threads``.  Entry-granular memoization
        keeps the per-sweep-point overhead to one dictionary probe per
        entry instead of one per thread.
        """
        stats = self.stats
        key = self._entry_key(loop_id, entry) + (eliminated,)
        prepared = self._prepared.get(key)
        if prepared is not None:
            stats.hits["classify"] += 1
            stats.calls["classify"] += 1
            return prepared
        stats.misses["classify"] += 1
        t0 = time.perf_counter()
        prepared = classify_entry(entry, eliminated)
        stats.seconds["classify"] += time.perf_counter() - t0
        stats.calls["classify"] += 1
        self._prepared[key] = prepared
        return prepared

    def overflow_entry(self, loop_id: int, entry: EntryTrace,
                       prepared: tuple, config: HydraConfig) -> tuple:
        """Memoized overflow points of every thread of one entry, for
        one Table 1 buffer geometry (the key projects the config onto
        the geometry fields, so speed sweeps hit)."""
        stats = self.stats
        key = (self._entry_key(loop_id, entry)
               + overflow_config_key(config))
        points = self._overflows.get(key)
        if points is not None:
            stats.hits["overflow"] += 1
            stats.calls["overflow"] += 1
            return points
        stats.misses["overflow"] += 1
        t0 = time.perf_counter()
        points = tuple(overflow_point(p[2], config) for p in prepared)
        stats.seconds["overflow"] += time.perf_counter() - t0
        stats.calls["overflow"] += 1
        self._overflows[key] = points
        return points
