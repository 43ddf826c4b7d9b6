"""One TEST comparator bank (paper Figure 7).

A bank tracks the progress of one active STL.  It holds the thread-start
timestamps (current, previous, entry), per-thread critical-arc minima for
the two bins (to thread t-1 and to earlier threads), per-thread buffer
counters for the speculative-state overflow analysis, and accumulates
into an :class:`~repro.tracer.stats.STLStats` at each end-of-iteration;
each critical arc is also binned by its load site into the loop's
:class:`~repro.tracer.stats.DependencyProfile` (Section 6.3).

Dependency arc identification (Section 4.2.1 / Figure 3)
---------------------------------------------------------
On a load whose producer store timestamp is ``ts``:

* ``ts >= thread_start``          -> producer in the current thread: no arc;
* ``thread_start > ts >= prev_start`` -> arc to thread t-1;
* ``prev_start > ts >= entry_time``   -> arc to an earlier thread;
* ``ts < entry_time``             -> producer outside this loop entry: the
  dependence belongs to an enclosing STL's bank, not this one.

Arc length is ``now - ts``; per thread only the *shortest* (critical)
arc of each bin is kept.

Speculative-state overflow analysis (Section 4.2.2 / Figure 4)
--------------------------------------------------------------
Each heap access consults the shared line-timestamp table *before* the
device refreshes it.  A line whose recorded timestamp is missing or
older than this bank's current thread start is new state for the thread;
the load / store counters are compared against the Table 1 limits and an
overflow is flagged when either exceeds them.
"""

from __future__ import annotations

from typing import Optional

from repro.hydra.config import HydraConfig
from repro.tracer.stats import DependencyProfile, STLStats


class ComparatorBank:
    """Comparator bank state machine for one STL activation."""

    __slots__ = (
        "config", "stats", "profile",
        "entry_time", "thread_start", "prev_start",
        "_min_prev", "_min_prev_local", "_min_prev_src",
        "_min_earlier", "_min_earlier_local", "_min_earlier_src",
        "load_lines", "store_lines", "_overflowed",
        "recent_threads", "recent_overflows", "entry_threads",
    )

    def __init__(self, config: HydraConfig, stats: STLStats,
                 profile: DependencyProfile):
        self.config = config
        self.stats = stats
        self.profile = profile
        self.entry_time = -1
        self.thread_start = -1
        self.prev_start = -1
        self._reset_thread_state()
        #: threads completed within the current entry
        self.entry_threads = 0
        #: sliding-window overflow tracking, for the bank-stealing policy
        self.recent_threads = 0
        self.recent_overflows = 0

    def _reset_thread_state(self) -> None:
        self._min_prev: Optional[int] = None
        self._min_prev_local = False
        self._min_prev_src = ("", -1)
        self._min_earlier: Optional[int] = None
        self._min_earlier_local = False
        self._min_earlier_src = ("", -1)
        self.load_lines = 0
        self.store_lines = 0
        self._overflowed = False

    # -- loop lifecycle ----------------------------------------------------

    def start_entry(self, cycle: int) -> None:
        """``sloop``: the loop was entered; thread 0 begins."""
        self.entry_time = cycle
        self.thread_start = cycle
        self.prev_start = -1
        self.stats.entries += 1
        self.stats.profiled_entries += 1
        self.entry_threads = 0
        self._reset_thread_state()

    def end_iteration(self, cycle: int) -> None:
        """``eoi``: finalize the completed thread, start the next one."""
        self._finalize_thread(cycle)
        self.prev_start = self.thread_start
        self.thread_start = cycle
        self._reset_thread_state()

    def end_entry(self, cycle: int) -> None:
        """``eloop``: the loop exited.

        The tail segment between the last ``eoi`` and the exit is the
        loop's final condition evaluation, not a full iteration; it is
        folded into loop time but only counted as a thread when the
        entry had no iterations at all (so zero-trip entries still
        register one thread).
        """
        if self.entry_threads == 0 and cycle > self.entry_time:
            self._finalize_thread(cycle)
        self.stats.cycles += cycle - self.entry_time
        self.entry_time = -1

    def _finalize_thread(self, cycle: int) -> None:
        stats = self.stats
        stats.threads += 1
        stats.profiled_threads += 1
        self.entry_threads += 1
        self.recent_threads += 1
        if self._min_prev is not None:
            stats.arcs_prev += 1
            stats.arc_len_prev += self._min_prev
            if self._min_prev_local:
                stats.local_arcs += 1
            self.profile.add("prev", self._min_prev, *self._min_prev_src)
        if self._min_earlier is not None:
            stats.arcs_earlier += 1
            stats.arc_len_earlier += self._min_earlier
            self.profile.add("earlier", self._min_earlier,
                             *self._min_earlier_src)
        stats.load_lines_total += self.load_lines
        stats.store_lines_total += self.store_lines
        if self.load_lines > stats.max_load_lines:
            stats.max_load_lines = self.load_lines
        if self.store_lines > stats.max_store_lines:
            stats.max_store_lines = self.store_lines
        if self._overflowed:
            stats.overflow_threads += 1
            self.recent_overflows += 1

    # -- dependency arc identification --------------------------------------

    def observe_load(self, store_ts: Optional[int], cycle: int,
                     is_local: bool, fn: str = "", pc: int = -1) -> None:
        """A load whose producer store happened at ``store_ts``."""
        if store_ts is None or self.entry_time < 0:
            return
        if store_ts >= self.thread_start:
            return  # same thread: not an inter-thread dependency
        if store_ts < self.entry_time:
            return  # outside this loop entry: an enclosing bank's arc
        length = cycle - store_ts
        if self.prev_start >= 0 and store_ts >= self.prev_start:
            if self._min_prev is None or length < self._min_prev:
                self._min_prev = length
                self._min_prev_local = is_local
                self._min_prev_src = (fn, pc)
        else:
            if self._min_earlier is None or length < self._min_earlier:
                self._min_earlier = length
                self._min_earlier_local = is_local
                self._min_earlier_src = (fn, pc)

    # -- speculative state overflow analysis --------------------------------

    def observe_line_load(self, old_line_ts: Optional[int]) -> None:
        """A heap load touched a line last seen at ``old_line_ts``."""
        if self.entry_time < 0:
            return
        if old_line_ts is None or old_line_ts < self.thread_start:
            self.load_lines += 1
            if self.load_lines > self.config.load_buffer_lines:
                self._overflowed = True

    def observe_line_store(self, old_line_ts: Optional[int]) -> None:
        """A heap store touched a line last seen at ``old_line_ts``."""
        if self.entry_time < 0:
            return
        if old_line_ts is None or old_line_ts < self.thread_start:
            self.store_lines += 1
            if self.store_lines > self.config.store_buffer_lines:
                self._overflowed = True

    # -- policy hooks --------------------------------------------------------

    def consistently_overflowing(self, min_threads: int = 16,
                                 threshold: float = 0.9) -> bool:
        """Whether this bank's STL keeps exceeding buffer limits — the
        device may then free the bank for a deeper loop (Section 5.2)."""
        if self.recent_threads < min_threads:
            return False
        return self.recent_overflows / self.recent_threads >= threshold
