"""Unit tests for the trace splitter and TLS timing simulator."""

import pytest

from repro.cfg import find_candidates
from repro.errors import SimulationError
from repro.hydra import HydraConfig
from repro.jit import annotate_program, compile_stl
from repro.jit.speculative import STLCompilation
from repro.lang import compile_source
from repro.runtime import run_program
from repro.runtime.events import ColumnarRecording, local_address, local_slot
from repro.tls import EntryTrace, split_trace

from tests.conftest import NEST_SOURCE, columnar_entry as entry, replay


def trace_of(source, loop_id):
    program = compile_source(source)
    table = find_candidates(program)
    ann = annotate_program(program, table)
    rec = ColumnarRecording()
    run_program(ann.program, listener=rec)
    return table, rec, split_trace(rec, loop_id)


def dummy_compilation(config=None):
    """An STLCompilation with no eliminations (hand-built traces)."""

    class _Cand:
        loop_id = 0

        class scalar:
            inductors = []
            reductions = []
            classes = {}
            carried = []

    return STLCompilation(_Cand(), config or HydraConfig())


class TestSplitTrace:
    def test_entries_and_threads(self):
        table, rec, entries = trace_of(NEST_SOURCE, 1)  # inner loop
        assert len(entries) == 8
        for e in entries:
            assert len(e.sizes) == 8
            assert len(e.bounds) == len(e.starts) + 1 == 9

    def test_thread_sizes_sum_to_entry(self):
        _, _, entries = trace_of(NEST_SOURCE, 0)
        for e in entries:
            assert sum(e.sizes) == e.total_cycles

    def test_events_relative_and_in_window(self):
        _, rec, entries = trace_of(NEST_SOURCE, 2)  # sum loop
        for e in entries:
            assert e.recording is rec
            for j, (start, size) in enumerate(zip(e.starts, e.sizes)):
                for i in range(e.bounds[j], e.bounds[j + 1]):
                    assert 0 <= rec.cycles[i] - start < size

    def test_local_address_roundtrip(self):
        assert local_slot(local_address(7, 3)) == (7, 3)

    def test_unbalanced_trace_rejected(self):
        rec = ColumnarRecording()
        rec.on_eoi(0, 0)  # an eoi with no sloop before it
        with pytest.raises(SimulationError):
            split_trace(rec, 0)


class TestSimulatorBasics:
    def test_independent_threads_speed_up(self):
        e = entry([(100, []) for _ in range(40)])
        res = replay([e], dummy_compilation())
        assert res.violations == 0
        assert res.speedup > 2.5

    def test_speedup_bounded_by_cpus(self):
        e = entry([(100, []) for _ in range(100)])
        res = replay([e], dummy_compilation())
        assert res.speedup <= 4.0 + 1e-9

    def test_single_thread_no_speedup(self):
        e = entry([(1000, [])])
        res = replay([e], dummy_compilation())
        assert res.speedup <= 1.0

    def test_overheads_charged(self):
        e = entry([(100, [])])
        res = replay([e], dummy_compilation())
        # startup 25 + size 100 + eoi 5 + shutdown 25
        assert res.parallel_cycles == 155

    def test_empty_entry(self):
        empty = EntryTrace(ColumnarRecording(), [0], [], [], 50,
                           frame_id=0)
        res = replay([empty], dummy_compilation())
        assert res.parallel_cycles == 0
        assert res.sequential_cycles == 50


class TestDependencies:
    def test_raw_violation_detected_and_penalized(self):
        # producer stores at rel 90 (late); consumer loads at rel 5
        producer = (100, [(90, "st", 0x1000)])
        consumer = (100, [(5, "ld", 0x1000)])
        e = entry([producer, consumer])
        res = replay([e], dummy_compilation())
        assert res.violations >= 1
        # consumer cannot finish before producer's store + restart
        assert res.parallel_cycles >= 25 + 90 + 5 + 100

    def test_early_store_late_load_no_violation(self):
        producer = (100, [(5, "st", 0x1000)])
        consumer = (100, [(95, "ld", 0x1000)])
        e = entry([producer, consumer])
        res = replay([e], dummy_compilation())
        assert res.violations == 0

    def test_own_store_forwards(self):
        t = (100, [(10, "st", 0x1000), (20, "ld", 0x1000)])
        other = (100, [(90, "st", 0x1000)])
        e = entry([other, t])
        res = replay([e], dummy_compilation())
        assert res.violations == 0

    def test_pipelined_chain_restarts_once_each(self):
        # store at rel 50, next thread loads at rel 40: one restart
        # aligns them, classic pipelining
        threads = [(100, [(40, "ld", 0x2000), (50, "st", 0x2000)])
                   for _ in range(10)]
        e = entry(threads)
        res = replay([e], dummy_compilation())
        assert res.speedup > 1.5
        assert res.violations <= 10

    def test_forwarded_local_synchronizes_without_violation(self):
        addr = local_address(0, 3)
        comp = dummy_compilation()
        # mark slot 3 as forwarded
        object.__setattr__(comp, "forwarded_slots", frozenset([3]))
        producer = (100, [(90, "lst", addr)])
        consumer = (100, [(5, "lld", addr)])
        e = entry([producer, consumer])
        res = replay([e], comp)
        assert res.violations == 0
        # but timing still delayed past the store + comm latency
        assert res.parallel_cycles >= 25 + 90 + 10 + 100

    def test_eliminated_local_free(self):
        addr = local_address(0, 3)
        comp = dummy_compilation()
        object.__setattr__(comp, "eliminated_slots", frozenset([3]))
        producer = (100, [(90, "lst", addr)])
        consumer = (100, [(5, "lld", addr)])
        e = entry([producer, consumer])
        res = replay([e], comp)
        assert res.violations == 0
        assert res.speedup > 1.2


class TestOverflow:
    def test_store_buffer_overflow_stalls(self):
        config = HydraConfig(store_buffer_lines=4)
        comp = dummy_compilation(config)
        # each thread writes 6 distinct lines -> overflow at line 5
        threads = []
        for t in range(8):
            events = [(i * 10, "st", (t * 100 + i) * 32)
                      for i in range(6)]
            threads.append((100, events))
        e = entry(threads)
        res = replay([e], comp, config)
        assert res.overflows == 8
        # overflowed threads serialize: speedup collapses
        assert res.speedup < 1.5

    def test_within_budget_no_overflow(self):
        config = HydraConfig(store_buffer_lines=64)
        comp = dummy_compilation(config)
        threads = [(100, [(i, "st", i * 32) for i in range(10)])
                   for _ in range(8)]
        res = replay([entry(threads)], comp, config)
        assert res.overflows == 0

    def test_associativity_conflict_overflows(self):
        # 4-way cache: 5 lines in the same set overflow even though
        # total occupancy is tiny — the imprecision TEST cannot see
        config = HydraConfig(load_buffer_lines=512, load_buffer_assoc=4)
        comp = dummy_compilation(config)
        n_sets = 512 // 4
        events = [(i, "ld", (i * n_sets) * 32) for i in range(5)]
        res = replay([entry([(100, events), (100, [])])], comp, config)
        assert res.overflows == 1


class TestEndToEnd:
    def test_nest_outer_loop_speeds_up(self):
        table, rec, entries = trace_of(NEST_SOURCE, 0)
        comp = compile_stl(table.by_id[0])
        res = replay(entries, comp)
        assert res.sequential_cycles > 0
        assert res.speedup > 1.5

    def test_aggregate_across_entries(self):
        table, rec, entries = trace_of(NEST_SOURCE, 1)
        comp = compile_stl(table.by_id[1])
        res = replay(entries, comp)
        assert res.entries == 8
        assert res.threads == 64
