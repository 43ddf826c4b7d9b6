"""Timestamp storage: the speculative store buffers repurposed during
profiling (Section 5.3 of the paper).

During sequential profiled execution the five 2 kB speculative store
buffers hold event timestamps instead of speculative writes:

* three buffers form a FIFO of **heap store timestamps** — 192 lines
  (6 kB) of write history at word granularity.  Old entries fall off;
  a dependency whose producer store has been evicted is simply missed
  (one of the imprecision sources Section 6.2 discusses).
* one buffer holds **cache-line timestamps**, indexed direct-mapped by
  line address bits with a tag check, at two granularities (Figure 4):
  a 512-entry table for speculative-read (load) state and a 64-entry
  table for store-buffer state.
* one buffer holds **local-variable store timestamps**, keyed by the
  local's synthetic ``(frame, slot)`` address, 64 entries with FIFO
  replacement.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional


class StoreTimestampFIFO:
    """Word-granularity address -> store timestamp map with FIFO
    eviction.  Models the 192-line heap write-history buffer."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[int, int]" = OrderedDict()
        self.evictions = 0

    def record(self, address: int, timestamp: int) -> None:
        """Record a store; the newest entry for an address wins."""
        entries = self._entries
        if address in entries:
            # refresh: the hardware appends a new FIFO entry and the old
            # one goes stale; net effect is the newest timestamp is found
            del entries[address]
        elif len(entries) >= self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
        entries[address] = timestamp

    def lookup(self, address: int) -> Optional[int]:
        """Most recent store timestamp for ``address``, if still held."""
        return self._entries.get(address)

    @property
    def get(self):
        """Bound ``dict.get`` over the entries, for batch loops that
        look up thousands of addresses (lookups never evict)."""
        return self._entries.get

    def __len__(self) -> int:
        return len(self._entries)


class LineTimestampTable:
    """Direct-mapped cache-line timestamp table (Figure 4 columns a-c).

    Indexed by the low line-address bits; a tag mismatch behaves like a
    miss (and the entry is overwritten on record), exactly as in the
    hardware.  ``n_entries`` must be a power of two.
    """

    def __init__(self, n_entries: int):
        if n_entries <= 0 or n_entries & (n_entries - 1):
            raise ValueError("n_entries must be a positive power of two")
        self.n_entries = n_entries
        self._mask = n_entries - 1
        self._shift = self._mask.bit_length()
        self._tags = [None] * n_entries
        self._times = [0] * n_entries
        self.conflicts = 0

    def lookup(self, line: int) -> Optional[int]:
        """Timestamp recorded for ``line``, or None on miss/conflict."""
        idx = line & self._mask
        if self._tags[idx] == line >> self._shift:
            return self._times[idx]
        return None

    def record(self, line: int, timestamp: int) -> None:
        """Record ``line``'s timestamp, displacing any conflicting tag."""
        idx = line & self._mask
        tag = line >> self._shift
        if self._tags[idx] is not None and self._tags[idx] != tag:
            self.conflicts += 1
        self._tags[idx] = tag
        self._times[idx] = timestamp

    @property
    def parts(self):
        """``(tags, times, index mask, tag shift)``: the device's batch
        loop does :meth:`lookup` then :meth:`record` inline on these
        for every heap access, and adds its conflicts to
        :attr:`conflicts` once per batch."""
        return self._tags, self._times, self._mask, self._shift


class LocalTimestampTable:
    """Local-variable store timestamps, keyed by the local's synthetic
    address (:func:`~repro.runtime.events.local_address` of its
    ``(frame, slot)``, the form the event batch carries).

    64 entries with FIFO replacement model the dedicated 2 kB buffer.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[int, int]" = OrderedDict()
        self.evictions = 0

    def record(self, address: int, timestamp: int) -> None:
        entries = self._entries
        if address in entries:
            del entries[address]
        elif len(entries) >= self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
        entries[address] = timestamp

    def lookup(self, address: int) -> Optional[int]:
        return self._entries.get(address)

    @property
    def entries(self) -> "OrderedDict[int, int]":
        """The address -> timestamp entries, oldest first: the device's
        batch loop looks up and records on them inline (as
        :meth:`lookup` and :meth:`record` do) and adds its evictions to
        :attr:`evictions` once per batch."""
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)
