"""Unit tests for the TEST timestamp stores (Section 5.3)."""

import pytest

from repro.runtime.events import local_address
from repro.tracer import (
    LineTimestampTable,
    LocalTimestampTable,
    StoreTimestampFIFO,
)


class TestStoreTimestampFIFO:
    def test_record_and_lookup(self):
        fifo = StoreTimestampFIFO(4)
        fifo.record(0x100, 10)
        assert fifo.lookup(0x100) == 10
        assert fifo.lookup(0x104) is None

    def test_newest_wins(self):
        fifo = StoreTimestampFIFO(4)
        fifo.record(0x100, 10)
        fifo.record(0x100, 20)
        assert fifo.lookup(0x100) == 20
        assert len(fifo) == 1

    def test_fifo_eviction_order(self):
        fifo = StoreTimestampFIFO(2)
        fifo.record(1, 10)
        fifo.record(2, 20)
        fifo.record(3, 30)   # evicts address 1
        assert fifo.lookup(1) is None
        assert fifo.lookup(2) == 20
        assert fifo.lookup(3) == 30
        assert fifo.evictions == 1

    def test_refresh_protects_from_eviction(self):
        fifo = StoreTimestampFIFO(2)
        fifo.record(1, 10)
        fifo.record(2, 20)
        fifo.record(1, 30)   # refresh 1: now 2 is oldest
        fifo.record(3, 40)   # evicts 2
        assert fifo.lookup(1) == 30
        assert fifo.lookup(2) is None

    def test_limited_history_models_paper_imprecision(self):
        # a dependency whose producer fell out of the 6kB window is
        # simply missed (Section 6.2)
        fifo = StoreTimestampFIFO(8)
        fifo.record(0xAAAA, 1)
        for i in range(8):
            fifo.record(i * 4, 100 + i)
        assert fifo.lookup(0xAAAA) is None

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            StoreTimestampFIFO(0)


class TestLineTimestampTable:
    def test_direct_mapped_hit(self):
        table = LineTimestampTable(64)
        table.record(5, 100)
        assert table.lookup(5) == 100

    def test_tag_mismatch_is_miss(self):
        table = LineTimestampTable(64)
        table.record(5, 100)
        # line 5 + 64 maps to the same index with a different tag
        assert table.lookup(5 + 64) is None

    def test_conflict_overwrites(self):
        table = LineTimestampTable(64)
        table.record(5, 100)
        table.record(5 + 64, 200)
        assert table.lookup(5 + 64) == 200
        assert table.lookup(5) is None
        assert table.conflicts == 1

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            LineTimestampTable(48)

    def test_independent_indices(self):
        table = LineTimestampTable(8)
        for line in range(8):
            table.record(line, line * 10)
        for line in range(8):
            assert table.lookup(line) == line * 10


class TestLocalTimestampTable:
    def test_keyed_by_frame_and_slot(self):
        table = LocalTimestampTable(8)
        table.record(local_address(1, 0), 10)
        table.record(local_address(2, 0), 20)
        assert table.lookup(local_address(1, 0)) == 10
        assert table.lookup(local_address(2, 0)) == 20
        assert table.lookup(local_address(1, 1)) is None

    def test_fifo_eviction(self):
        table = LocalTimestampTable(2)
        table.record(local_address(0, 0), 1)
        table.record(local_address(0, 1), 2)
        table.record(local_address(0, 2), 3)
        assert table.lookup(local_address(0, 0)) is None
        assert table.evictions == 1

    def test_refresh(self):
        table = LocalTimestampTable(8)
        table.record(local_address(0, 0), 1)
        table.record(local_address(0, 0), 9)
        assert table.lookup(local_address(0, 0)) == 9
        assert len(table) == 1
