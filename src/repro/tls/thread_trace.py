"""Splitting a recorded sequential trace into speculative threads.

The TLS timing simulator is trace-driven (the same methodology as the
limit studies the paper cites): the annotated program runs once
sequentially with a :class:`~repro.runtime.events.ColumnarRecording`
attached, and this module windows the event stream of one selected STL
into *entries* and *threads* (= iterations), each with its cycle length
and its slice of the recording's event columns.

Only the selected loop's marks are read, through the recording's
per-loop mark index, and windowing is **index-only**: an entry carries
three plain lists (each thread boundary's event index, each thread's
start cycle and size), found with one bisection per boundary on the
sorted ``cycles`` column, which *is* the cycle index (the interpreter's
clock only increases).  No per-thread object and no per-thread event
list is built; the replay reads the columns through the lists.

The windows are checked against an independent reading of the same
markers: the TEST device counts each loop's entries, threads and cycles
from ``sloop``/``eoi``/``eloop`` without looking at the recording, and
the profile pins and the conformance fuzzer require the split to agree
with those counts.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import repeat
from operator import sub
from typing import Iterator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.runtime.events import MARK_EOI, MARK_SLOOP, ColumnarRecording


class EntryTrace:
    """One dynamic entry of the STL: an ordered run of threads.

    Thread ``j`` is events ``[bounds[j], bounds[j + 1])`` of
    ``recording`` and starts at cycle ``starts[j]``; ``bounds`` holds
    one more element than there are threads.
    """

    __slots__ = ("recording", "bounds", "starts", "sizes",
                 "total_cycles", "frame_id")

    def __init__(self, recording: ColumnarRecording, bounds: List[int],
                 starts: List[int], sizes: List[int], total_cycles: int,
                 frame_id: int):
        #: the columnar recording the windows index
        self.recording = recording
        self.bounds = bounds
        self.starts = starts
        #: sequential cycle length of each thread
        self.sizes = sizes
        #: sequential cycles from sloop to eloop (includes the exit tail)
        self.total_cycles = total_cycles
        #: the frame that executed this entry (for local classification)
        self.frame_id = frame_id


def split_trace(recording: ColumnarRecording,
                loop_id: int) -> List[EntryTrace]:
    """Window ``recording`` into the entry/thread traces of ``loop_id``.

    Thread boundaries follow the tracer's convention: a thread completes
    at each ``eoi``; the tail between the final ``eoi`` and ``eloop`` is
    the loop's exit evaluation and is appended to the last thread (it
    must execute *somewhere*; in compiled speculative code it is part of
    the final iteration).  Entries with no ``eoi`` become one thread.

    Only ``loop_id``'s marks are read, through the recording's
    per-loop index; the entries are index-only (see
    :class:`EntryTrace`).
    """
    entries: List[EntryTrace] = []
    open_start: Optional[int] = None
    boundaries: List[int] = []
    frame_id = -1

    for kind, cycle, sloop_frame in _indexed_marks(recording, loop_id):
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
            entries.append(_build_entry(recording, boundaries, cycle,
                                        frame_id))
            open_start = None
    if open_start is not None:
        raise SimulationError(
            "trace ended inside an activation of loop L%d" % loop_id)
    return entries


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


def _build_entry(recording: ColumnarRecording, boundaries: List[int],
                 end: int, frame_id: int) -> EntryTrace:
    edges = _thread_edges(boundaries, end)
    # the cycles column is sorted by the interpreter's clock
    bounds = list(map(bisect_left, repeat(recording.cycles), edges))
    starts = edges[:-1]
    sizes = list(map(sub, edges[1:], starts))
    return EntryTrace(recording, bounds, starts, sizes, end - edges[0],
                      frame_id)
