"""Unit tests for the Hydra machine model (config, caches, transistors)."""

import pytest

from repro.errors import SimulationError
from repro.hydra import (
    DEFAULT_HYDRA,
    FullyAssocBuffer,
    HydraConfig,
    SetAssocCache,
    TransistorBudget,
)
from repro.runtime.heap import LINE_SIZE


class TestConfig:
    def test_paper_table1_values(self):
        cfg = DEFAULT_HYDRA
        assert cfg.load_buffer_bytes == 16 * 1024
        assert cfg.load_buffer_lines == 512
        assert cfg.load_buffer_assoc == 4
        assert cfg.store_buffer_bytes == 2 * 1024
        assert cfg.store_buffer_lines == 64
        assert LINE_SIZE == 32

    def test_paper_table2_values(self):
        cfg = DEFAULT_HYDRA
        assert cfg.startup_overhead == 25
        assert cfg.shutdown_overhead == 25
        assert cfg.eoi_overhead == 5
        assert cfg.violation_restart_overhead == 5
        assert cfg.store_load_comm_overhead == 10

    def test_paper_section53_values(self):
        cfg = DEFAULT_HYDRA
        assert cfg.heap_ts_history_bytes == 6 * 1024
        assert cfg.heap_ts_fifo_lines == 192
        assert cfg.n_comparator_banks == 8

    def test_tables_render(self):
        rows = DEFAULT_HYDRA.buffer_limits_table()
        assert rows[0][0] == "Load buffer"
        assert "16kB" in rows[0][1]
        rows = DEFAULT_HYDRA.overheads_table()
        assert ("Loop startup", 25) == rows[0][:2]

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            HydraConfig(n_cpus=1)
        # a buffer geometry no replay can index is refused up front
        for geometry in ({"load_buffer_assoc": 0},
                         {"load_buffer_lines": 2, "load_buffer_assoc": 4},
                         {"load_buffer_lines": 0},
                         {"store_buffer_lines": 0}):
            with pytest.raises(ValueError):
                HydraConfig(**geometry)
        # the line size is the simulator-wide LINE_SIZE, not a knob
        with pytest.raises(TypeError):
            HydraConfig(line_size=64)

    def test_custom_config(self):
        cfg = HydraConfig(n_cpus=8, store_buffer_lines=128)
        assert cfg.n_cpus == 8
        assert cfg.store_buffer_bytes == 128 * 32


class TestSetAssocCache:
    def test_hit_does_not_overflow(self):
        cache = SetAssocCache(8, 4)
        assert cache.touch(0) is False
        assert cache.touch(0) is False
        assert cache.resident_lines == 1

    def test_set_conflict_overflows(self):
        cache = SetAssocCache(8, 2)  # 4 sets, 2 ways
        # lines 0, 4, 8 all map to set 0
        assert cache.touch(0) is False
        assert cache.touch(4) is False
        assert cache.touch(8) is True

    def test_distinct_sets_independent(self):
        cache = SetAssocCache(8, 2)
        for line in range(8):
            assert cache.touch(line) is False

    def test_reset(self):
        cache = SetAssocCache(8, 2)
        cache.touch(0)
        cache.reset()
        assert cache.resident_lines == 0

    def test_invalid_geometry(self):
        with pytest.raises(SimulationError):
            SetAssocCache(10, 4)
        with pytest.raises(SimulationError):
            SetAssocCache(0, 1)


class TestFullyAssocBuffer:
    def test_fills_then_overflows(self):
        buf = FullyAssocBuffer(2)
        assert buf.touch(10) is False
        assert buf.touch(20) is False
        assert buf.touch(10) is False  # already resident
        assert buf.touch(30) is True

    def test_reset(self):
        buf = FullyAssocBuffer(2)
        buf.touch(1)
        buf.reset()
        assert buf.resident_lines == 0
        assert buf.touch(2) is False


class TestTransistors:
    def test_test_hardware_below_one_percent(self):
        budget = TransistorBudget()
        assert budget.test_fraction < 0.01

    def test_l2_dominates(self):
        budget = TransistorBudget()
        assert budget.fraction("2MB L2 cache") > 0.5

    def test_row_shape_matches_table5(self):
        budget = TransistorBudget()
        names = [r.structure for r in budget.rows]
        assert names == ["CPU + FP core", "16kB I / 16kB D Cache",
                         "2MB L2 cache", "Write buffer",
                         "Comparator bank"]
        counts = [r.count for r in budget.rows]
        assert counts == [4, 4, 1, 5, 8]

    def test_comparator_bank_in_tens_of_thousands(self):
        # the paper estimates 39K transistors per bank
        budget = TransistorBudget()
        bank = [r for r in budget.rows
                if r.structure == "Comparator bank"][0]
        assert 15_000 < bank.each < 80_000

    def test_totals_consistent(self):
        budget = TransistorBudget()
        assert budget.total == sum(r.total for r in budget.rows)
        for row in budget.rows:
            assert row.total == row.count * row.each

    def test_render(self):
        text = TransistorBudget().render()
        assert "Comparator bank" in text
        assert "Total" in text

    def test_unknown_structure(self):
        with pytest.raises(KeyError):
            TransistorBudget().fraction("GPU")
