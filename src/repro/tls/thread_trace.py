"""Splitting a recorded sequential trace into speculative threads.

The TLS timing simulator is trace-driven (the same methodology as the
limit studies the paper cites): the annotated program runs once
sequentially with a recording listener attached, and this module
windows the event stream of one selected STL into *entries* and
*threads* (= iterations), each with its cycle length and its
memory/local events at thread-relative times.

Two trace layouts are supported:

* the columnar :class:`~repro.runtime.events.ColumnarRecording`
  (structure-of-arrays): only the selected loop's marks are read,
  through the recording's per-loop mark index, and windowing is
  **index-only** — an entry carries three plain lists (each thread
  boundary's event index, each thread's start cycle and size), found
  with one bisection per boundary on the sorted ``cycles`` column,
  which *is* the cycle index (the interpreter's clock only
  increases).  No per-thread object and no per-thread event list is
  built; :class:`ThreadView` windows over the shared columns are made
  only when ``entry.threads`` is read;
* the row-of-tuples :class:`~repro.runtime.events.RecordingListener`:
  every mark is walked and threads materialize :class:`ThreadEvent`
  lists.  The pipeline always records columns; this path is the test
  reference the columnar windows are checked against.  Its cycle index
  is built once per recording and cached, keyed by the event count so
  a recording that keeps growing is re-indexed.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import repeat
from operator import sub
from typing import Iterator, List, NamedTuple, Optional, Tuple, Union

from repro.errors import SimulationError
from repro.runtime.events import (
    KIND_NAMES,
    LOCAL_ADDRESS_BASE,
    MARK_EOI,
    MARK_NAMES,
    MARK_SLOOP,
    ColumnarRecording,
    MemEvent,
    RecordingListener,
)


class ThreadEvent(NamedTuple):
    """One memory event at a thread-relative cycle offset."""

    rel_cycle: int
    kind: str        # 'ld' | 'st' | 'lld' | 'lst'
    address: int


class ThreadTrace:
    """One speculative thread (one loop iteration), row layout."""

    __slots__ = ("size", "events")

    def __init__(self, size: int, events: List[ThreadEvent]):
        #: sequential cycle length of the iteration
        self.size = size
        self.events = events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<ThreadTrace size=%d events=%d>" % (
            self.size, len(self.events))


class ThreadView:
    """One speculative thread as a zero-copy window over the columns.

    Holds ``[lo, hi)`` indices into a :class:`ColumnarRecording` plus
    the window's absolute start cycle; nothing is materialized until a
    consumer asks for the row-shaped ``events`` (compatibility and
    tests — the replay reads the columns directly).
    """

    __slots__ = ("recording", "lo", "hi", "start", "size")

    def __init__(self, recording: ColumnarRecording, lo: int, hi: int,
                 start: int, size: int):
        self.recording = recording
        self.lo = lo
        self.hi = hi
        self.start = start
        self.size = size

    @property
    def events(self) -> List[ThreadEvent]:
        """Materialized row view (not a hot path)."""
        rec = self.recording
        kinds, cycles, addrs = rec.kinds, rec.cycles, rec.addresses
        start = self.start
        return [ThreadEvent(cycles[i] - start, KIND_NAMES[kinds[i]],
                            addrs[i])
                for i in range(self.lo, self.hi)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<ThreadView [%d:%d) size=%d>" % (
            self.lo, self.hi, self.size)


#: either thread representation; the simulator accepts both
AnyThread = Union[ThreadTrace, ThreadView]


class EntryTrace:
    """One dynamic entry of the STL: an ordered run of threads.

    A row entry holds its :class:`ThreadTrace` list.  A columnar entry
    holds three plain lists instead — ``bounds`` (the event index of
    each thread boundary, one more than there are threads), ``starts``
    (each thread's absolute start cycle) and ``sizes`` — and builds
    :class:`ThreadView` objects only when ``threads`` is read (tests
    and the row comparisons; the replay reads the lists).
    """

    __slots__ = ("_threads", "total_cycles", "frame_id", "sizes",
                 "recording", "bounds", "starts")

    def __init__(self, threads: List[AnyThread], total_cycles: int,
                 frame_id: int):
        self._threads = threads
        #: sequential cycles from sloop to eloop (includes the exit tail)
        self.total_cycles = total_cycles
        #: the frame that executed this entry (for local classification)
        self.frame_id = frame_id
        #: sequential cycle length of each thread
        self.sizes = [t.size for t in threads]
        #: the columnar recording the windows index (None for rows)
        self.recording: Optional[ColumnarRecording] = None
        self.bounds: Optional[List[int]] = None
        self.starts: Optional[List[int]] = None

    @classmethod
    def windows(cls, recording: ColumnarRecording, bounds: List[int],
                starts: List[int], sizes: List[int], total_cycles: int,
                frame_id: int) -> "EntryTrace":
        """A columnar entry: thread ``j`` is events
        ``[bounds[j], bounds[j + 1])`` starting at cycle ``starts[j]``."""
        entry = cls.__new__(cls)
        entry._threads = None
        entry.total_cycles = total_cycles
        entry.frame_id = frame_id
        entry.sizes = sizes
        entry.recording = recording
        entry.bounds = bounds
        entry.starts = starts
        return entry

    @property
    def threads(self) -> List[AnyThread]:
        if self._threads is not None:
            return self._threads
        rec, bounds = self.recording, self.bounds
        return [ThreadView(rec, bounds[j], bounds[j + 1], start, size)
                for j, (start, size) in enumerate(zip(self.starts,
                                                      self.sizes))]


def local_slot_of(address: int) -> Optional[int]:
    """Slot number encoded in a synthetic local address, if it is one."""
    if address < LOCAL_ADDRESS_BASE:
        return None
    return (address & 0xFFFF) // 4


def local_frame_of(address: int) -> Optional[int]:
    """Frame id encoded in a synthetic local address, if it is one."""
    if address < LOCAL_ADDRESS_BASE:
        return None
    return (address - LOCAL_ADDRESS_BASE) >> 16


def cycle_index(recording: RecordingListener) -> List[int]:
    """The cached sorted cycle list of a row recording.

    Built on first use and reused across every ``split_trace`` call
    against the same recording; invalidated when more events arrive.
    """
    mem = recording.mem
    cached = getattr(recording, "_cycle_index", None)
    if cached is not None and cached[0] == len(mem):
        return cached[1]
    cycles = [e.cycle for e in mem]
    recording._cycle_index = (len(mem), cycles)
    return cycles


def split_trace(recording, loop_id: int) -> List[EntryTrace]:
    """Window ``recording`` into the entry/thread traces of ``loop_id``.

    Thread boundaries follow the tracer's convention: a thread completes
    at each ``eoi``; the tail between the final ``eoi`` and ``eloop`` is
    the loop's exit evaluation and is appended to the last thread (it
    must execute *somewhere*; in compiled speculative code it is part of
    the final iteration).  Entries with no ``eoi`` become one thread.

    Accepts both recording layouts.  A :class:`ColumnarRecording` reads
    only ``loop_id``'s marks through its per-loop index and yields
    index-only entries (see :class:`EntryTrace`); a row recording is
    walked mark by mark (the reference path).
    """
    if isinstance(recording, ColumnarRecording):
        marks = _indexed_marks(recording, loop_id)
        build = _build_entry_columnar
        context = recording
    else:
        marks = _walked_marks(recording, loop_id)
        build = _build_entry_rows
        context = (recording.mem, cycle_index(recording))

    entries: List[EntryTrace] = []
    open_start: Optional[int] = None
    boundaries: List[int] = []
    frame_id = -1

    for kind, cycle, sloop_frame in marks:
        if kind == MARK_SLOOP:
            if open_start is not None:
                raise SimulationError(
                    "nested activation of loop L%d in trace" % loop_id)
            open_start = cycle
            frame_id = sloop_frame
            boundaries = [cycle]
        elif kind == MARK_EOI:
            if open_start is None:
                raise SimulationError(
                    "eoi without sloop for loop L%d" % loop_id)
            boundaries.append(cycle)
        else:
            if open_start is None:
                raise SimulationError(
                    "eloop without sloop for loop L%d" % loop_id)
            entries.append(build(context, boundaries, cycle, frame_id))
            open_start = None
    if open_start is not None:
        raise SimulationError(
            "trace ended inside an activation of loop L%d" % loop_id)
    return entries


def _walked_marks(recording: RecordingListener, loop_id: int
                  ) -> Iterator[Tuple[int, int, int]]:
    """``(mark kind, cycle, sloop frame)`` of one loop's marks, found by
    walking every mark of a row recording."""
    frames = recording.sloop_frames
    global_sloop = -1  # index into sloop_frames (all loops)
    for mark in recording.marks:
        kind = MARK_NAMES.index(mark.kind)
        if kind == MARK_SLOOP:
            global_sloop += 1
        if mark.loop_id == loop_id:
            yield kind, mark.cycle, (
                frames[global_sloop]
                if 0 <= global_sloop < len(frames) else -1)


def _indexed_marks(recording: ColumnarRecording, loop_id: int
                   ) -> Iterator[Tuple[int, int, int]]:
    """``(mark kind, cycle, sloop frame)`` of one loop's marks, read
    through the recording's per-loop index.  A sloop's position among
    all sloops (the index of its frame) is counted in C over the mark
    kinds skipped since the loop's previous sloop."""
    kinds = recording.mark_kinds
    cycles = recording.mark_cycles
    frames = recording.sloop_frames
    ordinal = -1
    counted = 0  # kinds[:counted] are already in ordinal
    for pos in recording.loop_marks(loop_id):
        kind = kinds[pos]
        frame_id = -1
        if kind == MARK_SLOOP:
            ordinal += kinds.count(MARK_SLOOP, counted, pos) + 1
            counted = pos + 1
            frame_id = frames[ordinal]
        yield kind, cycles[pos], frame_id


def _thread_edges(boundaries: List[int], end: int) -> List[int]:
    """Each thread's start cycle, then the entry's end cycle.  The final
    ``eoi`` is not an edge: the exit tail after it belongs to the last
    thread."""
    if len(boundaries) == 1:
        return [boundaries[0], end]
    edges = boundaries[:]
    edges[-1] = end
    return edges


def _build_entry_rows(context, boundaries: List[int], end: int,
                      frame_id: int) -> EntryTrace:
    mem, cycles = context
    edges = _thread_edges(boundaries, end)
    threads: List[ThreadTrace] = []
    for w_start, w_end in zip(edges, edges[1:]):
        lo = bisect_left(cycles, w_start)
        hi = bisect_left(cycles, w_end)
        events = [ThreadEvent(mem[i].cycle - w_start, mem[i].kind,
                              mem[i].address)
                  for i in range(lo, hi)]
        threads.append(ThreadTrace(w_end - w_start, events))
    return EntryTrace(threads, end - edges[0], frame_id)


def _build_entry_columnar(recording: ColumnarRecording,
                          boundaries: List[int], end: int,
                          frame_id: int) -> EntryTrace:
    edges = _thread_edges(boundaries, end)
    # the cycles column is sorted by the interpreter's clock
    bounds = list(map(bisect_left, repeat(recording.cycles), edges))
    starts = edges[:-1]
    sizes = list(map(sub, edges[1:], starts))
    return EntryTrace.windows(recording, bounds, starts, sizes,
                              end - edges[0], frame_id)
