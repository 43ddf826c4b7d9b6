"""Set-associative cache model.

The TEST overflow analysis deliberately ignores associativity ("Not
accounting for associativity introduces some error into the overflow
analysis, but should not affect its usefulness" — Section 5.3).  The TLS
timing simulator, by contrast, models the *true* per-thread speculative
buffers — the source of the imprecision the paper measures in Figure
11.  This module holds the LRU set-associative and fully associative
occupancy models of those buffers; the simulator finds the same first
overflow by counting distinct lines per set, and is tested against
them.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import SimulationError


class SetAssocCache:
    """LRU set-associative cache tracking *which lines are present*.

    Only occupancy matters here (speculative read state must stay
    resident for the whole thread), so :meth:`touch` reports whether
    inserting a line would evict another resident line — i.e. whether
    speculative state would be lost.
    """

    def __init__(self, n_lines: int, assoc: int):
        if n_lines <= 0 or assoc <= 0:
            raise SimulationError("cache needs positive size/assoc")
        if n_lines % assoc:
            raise SimulationError(
                "n_lines (%d) must be a multiple of assoc (%d)"
                % (n_lines, assoc))
        self.n_lines = n_lines
        self.assoc = assoc
        self.n_sets = n_lines // assoc
        # per-set list of resident line numbers, LRU order (front = LRU)
        self._sets: Dict[int, List[int]] = {}

    def reset(self) -> None:
        """Empty the cache (start of a speculative thread)."""
        self._sets.clear()

    def touch(self, line: int) -> bool:
        """Access ``line``; returns True if this access *overflows* —
        the set is full of other resident speculative lines."""
        set_idx = line % self.n_sets
        ways = self._sets.setdefault(set_idx, [])
        if line in ways:
            ways.remove(line)
            ways.append(line)
            return False
        if len(ways) >= self.assoc:
            return True  # would evict resident speculative state
        ways.append(line)
        return False

    @property
    def resident_lines(self) -> int:
        """Number of lines currently resident."""
        return sum(len(w) for w in self._sets.values())


class FullyAssocBuffer:
    """Fully associative line buffer (the speculative store buffer)."""

    def __init__(self, n_lines: int):
        if n_lines <= 0:
            raise SimulationError("buffer needs a positive size")
        self.n_lines = n_lines
        self._lines: set = set()

    def reset(self) -> None:
        """Empty the buffer (start of a speculative thread)."""
        self._lines.clear()

    def touch(self, line: int) -> bool:
        """Add ``line``; returns True if the buffer is already full with
        other lines (overflow)."""
        if line in self._lines:
            return False
        if len(self._lines) >= self.n_lines:
            return True
        self._lines.add(line)
        return False

    @property
    def resident_lines(self) -> int:
        return len(self._lines)
