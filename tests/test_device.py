"""Unit tests for the TEST device (bank array, event routing,
dynamic nesting, convergence)."""

import pytest

from repro.errors import TracerError
from repro.hydra import DEFAULT_HYDRA, HydraConfig
from repro.runtime.heap import LINE_SIZE
from repro.tracer import TestDevice
from repro.tracer.bank import ComparatorBank
from repro.tracer.stats import DependencyProfile, STLStats


class TestEventRouting:
    def test_heap_raw_dependency_detected(self):
        dev = TestDevice()
        dev.on_sloop(0, 0, 100)
        dev.on_store(0x1000, 150)
        dev.on_eoi(0, 200)
        dev.on_load(0x1000, 230)
        dev.on_eoi(0, 300)
        dev.on_eloop(0, 310)
        dev.finish()
        st = dev.stats[0]
        assert st.arcs_prev == 1
        assert st.arc_len_prev == 80

    def test_word_granular_addresses(self):
        dev = TestDevice()
        dev.on_sloop(0, 0, 100)
        dev.on_store(0x1000, 150)
        dev.on_eoi(0, 200)
        dev.on_load(0x1004, 230)  # adjacent word: no dependence
        dev.on_eoi(0, 300)
        dev.on_eloop(0, 310)
        assert dev.stats[0].arcs_prev == 0

    def test_local_events_respect_frame(self):
        dev = TestDevice()
        dev.register_loop_locals(0, [2])
        dev.on_sloop(0, 1, 100, frame_id=7)
        dev.on_local_store(7, 2, 150)
        dev.on_eoi(0, 200)
        # same slot, different frame: must not form an arc
        dev.on_local_load(9, 2, 230)
        dev.on_eoi(0, 300)
        dev.on_eloop(0, 310)
        assert dev.stats[0].arcs_prev == 0

    def test_local_events_respect_reserved_slots(self):
        dev = TestDevice()
        dev.register_loop_locals(0, [2])
        dev.on_sloop(0, 1, 100, frame_id=7)
        dev.on_local_store(7, 3, 150)   # slot 3 not reserved
        dev.on_eoi(0, 200)
        dev.on_local_load(7, 3, 230)
        dev.on_eoi(0, 300)
        dev.on_eloop(0, 310)
        assert dev.stats[0].arcs_prev == 0

    def test_reserved_local_forms_arc(self):
        dev = TestDevice()
        dev.register_loop_locals(0, [2])
        dev.on_sloop(0, 1, 100, frame_id=7)
        dev.on_local_store(7, 2, 150)
        dev.on_eoi(0, 200)
        dev.on_local_load(7, 2, 230)
        dev.on_eoi(0, 300)
        dev.on_eloop(0, 310)
        st = dev.stats[0]
        assert st.arcs_prev == 1
        assert st.local_arcs == 1

    def test_nested_loops_attribute_arcs_to_right_level(self):
        # store in one outer iteration, load in the next, with an inner
        # loop entered fresh in between: only the outer sees the arc
        dev = TestDevice()
        dev.on_sloop(0, 0, 0)          # outer
        dev.on_sloop(1, 0, 10)         # inner entry 1
        dev.on_store(0x2000, 20)
        dev.on_eoi(1, 30)
        dev.on_eloop(1, 40)
        dev.on_eoi(0, 50)              # outer iteration boundary
        dev.on_sloop(1, 0, 60)         # inner entry 2
        dev.on_load(0x2000, 70)
        dev.on_eoi(1, 80)
        dev.on_eloop(1, 90)
        dev.on_eoi(0, 100)
        dev.on_eloop(0, 110)
        dev.finish()
        assert dev.stats[0].arcs_prev == 1
        assert dev.stats[1].arcs_prev == 0
        assert dev.stats[1].arcs_earlier == 0


class TestBankManagement:
    def test_bank_exhaustion_disables_deep_loops(self):
        dev = TestDevice(HydraConfig(n_comparator_banks=2))
        dev.on_sloop(0, 0, 0)
        dev.on_sloop(1, 0, 10)
        dev.on_sloop(2, 0, 20)  # no bank left
        assert dev.n_unbanked_activations == 1
        dev.on_eloop(2, 30)
        dev.on_eloop(1, 40)
        dev.on_eloop(0, 50)
        assert 2 not in dev.stats or dev.stats[2].profiled_threads == 0

    def test_banks_freed_on_eloop(self):
        dev = TestDevice(HydraConfig(n_comparator_banks=1))
        dev.on_sloop(0, 0, 0)
        dev.on_eoi(0, 10)
        dev.on_eloop(0, 20)
        dev.on_sloop(1, 0, 30)   # bank must be free again
        dev.on_eoi(1, 40)
        dev.on_eloop(1, 50)
        assert dev.n_unbanked_activations == 0
        assert dev.stats[1].profiled_threads == 1

    def test_mismatched_eloop_raises_in_strict_mode(self):
        dev = TestDevice()
        dev.on_sloop(0, 0, 0)
        with pytest.raises(TracerError):
            dev.on_eloop(5, 10)

    def test_unbalanced_end_of_run_raises(self):
        dev = TestDevice()
        dev.on_sloop(0, 0, 0)
        with pytest.raises(TracerError):
            dev.finish()

    def test_non_strict_mode_tolerates_mismatch(self):
        dev = TestDevice(strict=False)
        dev.on_eoi(3, 10)
        dev.on_eloop(3, 20)
        dev.finish()


class TestDynamicNesting:
    def test_dynamic_parents_recorded_through_markers(self):
        dev = TestDevice()
        dev.on_sloop(0, 0, 0)
        dev.on_sloop(1, 0, 10)
        dev.on_eloop(1, 20)
        dev.on_eloop(0, 30)
        dev.finish()
        assert dev.dominant_parent(1) == 0
        assert dev.dominant_parent(0) == -1

    def test_dominant_parent_is_most_frequent(self):
        dev = TestDevice()
        for _ in range(3):
            dev.on_sloop(0, 0, 0)
            dev.on_sloop(2, 0, 1)
            dev.on_eloop(2, 2)
            dev.on_eloop(0, 3)
        dev.on_sloop(1, 0, 4)
        dev.on_sloop(2, 0, 5)
        dev.on_eloop(2, 6)
        dev.on_eloop(1, 7)
        assert dev.dominant_parent(2) == 0

    def test_max_dynamic_depth(self):
        dev = TestDevice()
        dev.on_sloop(0, 0, 0)
        dev.on_sloop(1, 0, 1)
        dev.on_sloop(2, 0, 2)
        dev.on_eloop(2, 3)
        dev.on_eloop(1, 4)
        dev.on_eloop(0, 5)
        assert dev.max_dynamic_depth() == 3


class TestConvergence:
    def _run_entries(self, dev, loop_id, n, start=0):
        t = start
        for _ in range(n):
            dev.on_sloop(loop_id, 0, t)
            dev.on_eoi(loop_id, t + 10)
            dev.on_eloop(loop_id, t + 12)
            t += 20
        return t

    def test_loop_converges_by_entries(self):
        fired = []
        dev = TestDevice(convergence_threshold=1000,
                         on_converged=fired.append)
        self._run_entries(dev, 0, 60)
        assert 0 in dev.converged
        assert fired == [0]

    def test_stats_keep_counting_after_convergence(self):
        dev = TestDevice(convergence_threshold=1000)
        self._run_entries(dev, 0, 80)
        st = dev.stats[0]
        assert st.entries == 80
        assert st.threads == 80
        assert st.profiled_threads < st.threads

    def test_sampled_reprofiling_still_collects(self):
        dev = TestDevice(convergence_threshold=1000)
        dev.sample_every = 4
        self._run_entries(dev, 0, 100)
        st = dev.stats[0]
        # profiled threads grow past the convergence point via sampling
        assert st.profiled_threads > 50

    def test_no_threshold_never_converges(self):
        dev = TestDevice()
        self._run_entries(dev, 0, 100)
        assert not dev.converged

    def test_bank_stealing_from_overflowing_outer(self):
        # a single bank, held by an outer loop that overflows every
        # thread; when the inner loop asks, the device steals the bank
        from repro.hydra import HydraConfig
        dev = TestDevice(HydraConfig(n_comparator_banks=1,
                                     store_buffer_lines=1))
        dev.on_sloop(0, 0, 0)      # outer takes the only bank
        cycle = 1
        for t in range(20):        # overflow every iteration
            dev.on_store(cycle * 64, cycle)
            dev.on_store(cycle * 64 + 4096, cycle + 1)
            cycle += 10
            dev.on_eoi(0, cycle)
        dev.on_sloop(1, 0, cycle)  # inner: triggers the steal
        assert dev.n_bank_steals == 1
        dev.on_eoi(1, cycle + 5)
        dev.on_eloop(1, cycle + 6)
        dev.on_eoi(0, cycle + 7)
        dev.on_eloop(0, cycle + 8)
        dev.finish()
        # the inner loop got real statistics
        assert dev.stats[1].profiled_threads == 1

    def test_disable_loop_stops_banking(self):
        dev = TestDevice()
        dev.disable_loop(0)
        self._run_entries(dev, 0, 3)
        assert dev.stats[0].profiled_threads == 0


class TestComparisonBoundaries:
    """The device against a :class:`ComparatorBank` fed every event
    directly, with producer and line timestamps on each side of the
    entry, previous-thread and thread-start boundaries.

    The loop is entered at 100 and its threads start at 200 and 300,
    so at the load (cycle 350) ``entry_time`` = 100, ``prev_start`` =
    200 and ``thread_start`` = 300.
    """

    ENTRY, PREV, START, LOAD = 100, 200, 300, 350
    ADDRESS = 0x1000
    FRAME, SLOT = 7, 2

    def _events(self, producer, local, line_ld, line_st):
        """``[(cycle, order, kind, address)]`` of one scenario; markers
        sort before memory events of the same cycle."""
        events = [(self.ENTRY, 0, "sloop", None),
                  (self.PREV, 0, "eoi", None),
                  (self.START, 0, "eoi", None),
                  (self.LOAD, 1, "lld" if local else "ld", self.ADDRESS),
                  (400, 0, "eoi", None),
                  (410, 0, "eloop", None)]
        if producer is not None:
            events.append((producer, 1, "lst" if local else "st",
                           self.ADDRESS))
        if line_ld is not None:
            # an earlier load of the same line, another word
            events.append((line_ld, 1, "ld", self.ADDRESS + 4))
        if line_st is not None:
            # an earlier store to a line that a store at LOAD rewrites
            events.append((line_st, 1, "st", 0x2004))
            events.append((self.LOAD, 2, "st", 0x2000))
        return sorted(events)

    def _device_stats(self, events):
        dev = TestDevice()
        dev.register_loop_locals(0, [self.SLOT])
        for cycle, _order, kind, address in events:
            if kind == "sloop":
                dev.on_sloop(0, 1, cycle, frame_id=self.FRAME)
            elif kind == "eoi":
                dev.on_eoi(0, cycle)
            elif kind == "eloop":
                dev.on_eloop(0, cycle)
            elif kind == "ld":
                dev.on_load(address, cycle)
            elif kind == "st":
                dev.on_store(address, cycle)
            elif kind == "lld":
                dev.on_local_load(self.FRAME, self.SLOT, cycle)
            else:
                dev.on_local_store(self.FRAME, self.SLOT, cycle)
        dev.finish()
        return dev.stats[0]

    def _bank_stats(self, events):
        """The bank sees every access while armed, with unbounded
        timestamp tables."""
        stats = STLStats(0)
        stats.dynamic_depth = 1  # the device's nesting bookkeeping
        bank = ComparatorBank(DEFAULT_HYDRA, stats, DependencyProfile(0))
        heap, local, ld_lines, st_lines = {}, {}, {}, {}
        for cycle, _order, kind, address in events:
            if kind == "sloop":
                bank.start_entry(cycle)
            elif kind == "eoi":
                bank.end_iteration(cycle)
            elif kind == "eloop":
                bank.end_entry(cycle)
            elif kind == "ld":
                line = address // LINE_SIZE
                bank.observe_load(heap.get(address), cycle, False)
                bank.observe_line_load(ld_lines.get(line))
                ld_lines[line] = cycle
            elif kind == "st":
                line = address // LINE_SIZE
                bank.observe_line_store(st_lines.get(line))
                st_lines[line] = cycle
                heap[address] = cycle
            elif kind == "lld":
                bank.observe_load(local.get(address), cycle, True)
            else:
                local[address] = cycle
        return stats

    def _assert_same(self, events):
        dev = self._device_stats(events)
        ref = self._bank_stats(events)
        assert [getattr(dev, f) for f in STLStats.__slots__] == \
            [getattr(ref, f) for f in STLStats.__slots__]

    @pytest.mark.parametrize("local", [False, True], ids=["heap", "local"])
    @pytest.mark.parametrize("offset", [
        ("entry", -1), ("entry", 0), ("prev", -1), ("prev", 0),
        ("start", -1), ("start", 0), None],
        ids=lambda o: "none" if o is None else "%s%+d" % o)
    def test_producer_timestamp(self, offset, local):
        producer = None
        if offset is not None:
            base = {"entry": self.ENTRY, "prev": self.PREV,
                    "start": self.START}[offset[0]]
            producer = base + offset[1]
        events = self._events(producer, local, None, None)
        self._assert_same(events)

    @pytest.mark.parametrize("line_ts", [START - 1, START, None],
                             ids=["start-1", "start", "none"])
    def test_load_line_timestamp(self, line_ts):
        self._assert_same(self._events(None, False, line_ts, None))

    @pytest.mark.parametrize("line_ts", [START - 1, START, None],
                             ids=["start-1", "start", "none"])
    def test_store_line_timestamp(self, line_ts):
        self._assert_same(self._events(None, False, None, line_ts))

    def test_boundaries_reach_every_outcome(self):
        """The scenarios cover a t-1 arc, an earlier arc, no arc, and
        both sides of the new-line test."""
        def stats(producer, local=False, line_ld=None, line_st=None):
            return self._device_stats(
                self._events(producer, local, line_ld, line_st))

        assert stats(self.PREV).arcs_prev == 1
        assert stats(self.PREV - 1).arcs_earlier == 1
        assert stats(self.ENTRY).arcs_earlier == 1
        for producer in (self.ENTRY - 1, self.START, None):
            st = stats(producer)
            assert st.arcs_prev == st.arcs_earlier == 0
        assert stats(self.PREV, local=True).local_arcs == 1
        assert stats(None, line_ld=self.START - 1).load_lines_total == 2
        assert stats(None, line_ld=self.START).load_lines_total == 1
        assert stats(None, line_st=self.START - 1).store_lines_total == 2
        assert stats(None, line_st=self.START).store_lines_total == 1
