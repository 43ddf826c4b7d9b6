"""Heap model: 1-D numeric arrays at stable byte addresses.

The TEST analyses key on byte addresses (cache-line tags and indices are
extracted from them, exactly as in the paper's Figure 4), so arrays are
laid out in a flat address space: 4 bytes per element, bases aligned to
the 32-byte cache-line size.  Element ``i`` of the array with handle
``h`` lives at address ``h + 4 * i``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import HeapError

#: Bytes per array element (the paper's substrate is a 32-bit MIPS).
WORD_SIZE = 4

#: Cache-line size in bytes (Table 1: 32 B lines).
LINE_SIZE = 32

#: First address handed out; non-zero so handle 0 is always invalid.
_BASE_ADDRESS = 0x10000


class Heap:
    """Allocates arrays and services loads/stores by handle + index."""

    def __init__(self):
        self._arrays: Dict[int, List] = {}
        self._next = _BASE_ADDRESS

    def allocate(self, length) -> int:
        """Allocate a zero-filled array of ``length`` elements."""
        if isinstance(length, float):
            raise HeapError("array length must be an int, got %r" % length)
        if length < 0:
            raise HeapError("negative array length %d" % length)
        handle = self._next
        self._arrays[handle] = [0] * length
        size = max(length, 1) * WORD_SIZE
        # keep bases line-aligned so line indices are well distributed
        size = ((size + LINE_SIZE - 1) // LINE_SIZE) * LINE_SIZE
        self._next += size
        return handle

    def _array(self, handle) -> List:
        arr = self._arrays.get(handle)
        if arr is None:
            raise HeapError("invalid array handle %r" % handle)
        return arr

    # the four accessors below look the handle up inline: they run
    # once per executed ALOAD/ASTORE, and a helper call per access
    # would cost as much as the access itself

    def load(self, handle, index):
        """Read element ``index``; returns the value."""
        arr = self._arrays.get(handle)
        if arr is None:
            raise HeapError("invalid array handle %r" % handle)
        if isinstance(index, float):
            index = int(index)
        if not 0 <= index < len(arr):
            raise HeapError(
                "index %d out of range [0,%d)" % (index, len(arr)))
        return arr[index]

    def store(self, handle, index, value) -> None:
        """Write element ``index``."""
        arr = self._arrays.get(handle)
        if arr is None:
            raise HeapError("invalid array handle %r" % handle)
        if isinstance(index, float):
            index = int(index)
        if not 0 <= index < len(arr):
            raise HeapError(
                "index %d out of range [0,%d)" % (index, len(arr)))
        arr[index] = value

    def load_addr(self, handle, index):
        """Read element ``index``; returns ``(value, byte_address)``.

        One call where the traced paths would otherwise pay
        :meth:`load` plus :meth:`address` per event.
        """
        arr = self._arrays.get(handle)
        if arr is None:
            raise HeapError("invalid array handle %r" % handle)
        if isinstance(index, float):
            index = int(index)
        if not 0 <= index < len(arr):
            raise HeapError(
                "index %d out of range [0,%d)" % (index, len(arr)))
        return arr[index], handle + WORD_SIZE * index

    def store_addr(self, handle, index, value) -> int:
        """Write element ``index``; returns its byte address."""
        arr = self._arrays.get(handle)
        if arr is None:
            raise HeapError("invalid array handle %r" % handle)
        if isinstance(index, float):
            index = int(index)
        if not 0 <= index < len(arr):
            raise HeapError(
                "index %d out of range [0,%d)" % (index, len(arr)))
        arr[index] = value
        return handle + WORD_SIZE * index

    def length(self, handle) -> int:
        """Element count of the array."""
        return len(self._array(handle))

    def snapshot(self) -> Dict[int, List]:
        """Copy of all arrays, for result comparisons in tests."""
        return {h: list(a) for h, a in self._arrays.items()}


def line_of(address: int) -> int:
    """Cache-line number of a byte address."""
    return address // LINE_SIZE
