"""Unit tests for the comparator bank (Figures 3, 4, 7)."""

import pytest

from repro.hydra import HydraConfig
from repro.tracer import ComparatorBank, DependencyProfile, STLStats


def make_bank(**config_kwargs):
    config = HydraConfig(**config_kwargs)
    stats = STLStats(0)
    return ComparatorBank(config, stats, DependencyProfile(0)), stats


class TestDependencyArcs:
    def test_same_thread_store_is_not_an_arc(self):
        bank, stats = make_bank()
        bank.start_entry(100)
        bank.observe_load(store_ts=150, cycle=160, is_local=False)
        bank.end_iteration(200)
        bank.end_entry(210)
        assert stats.arcs_prev == 0
        assert stats.arcs_earlier == 0

    def test_store_before_entry_ignored(self):
        bank, stats = make_bank()
        bank.start_entry(100)
        bank.end_iteration(200)
        bank.observe_load(store_ts=50, cycle=250, is_local=False)
        bank.end_iteration(300)
        bank.end_entry(310)
        assert stats.arcs_prev == 0
        assert stats.arcs_earlier == 0

    def test_previous_thread_arc(self):
        bank, stats = make_bank()
        bank.start_entry(100)    # thread 0: [100, 200)
        bank.end_iteration(200)  # thread 1: [200, ...)
        bank.observe_load(store_ts=180, cycle=220, is_local=False)
        bank.end_iteration(300)
        bank.end_entry(310)
        assert stats.arcs_prev == 1
        assert stats.arc_len_prev == 40   # 220 - 180
        assert stats.arcs_earlier == 0

    def test_earlier_thread_arc(self):
        bank, stats = make_bank()
        bank.start_entry(0)
        bank.end_iteration(100)  # thread 1 starts
        bank.end_iteration(200)  # thread 2 starts
        # store at 50 is in thread 0 = two threads back
        bank.observe_load(store_ts=50, cycle=250, is_local=False)
        bank.end_iteration(300)
        bank.end_entry(310)
        assert stats.arcs_earlier == 1
        assert stats.arc_len_earlier == 200
        assert stats.arcs_prev == 0

    def test_critical_arc_is_shortest(self):
        bank, stats = make_bank()
        bank.start_entry(0)
        bank.end_iteration(100)
        bank.observe_load(store_ts=20, cycle=150, is_local=False)  # 130
        bank.observe_load(store_ts=90, cycle=160, is_local=False)  # 70
        bank.observe_load(store_ts=10, cycle=170, is_local=False)  # 160
        bank.end_iteration(200)
        bank.end_entry(210)
        assert stats.arcs_prev == 1
        assert stats.arc_len_prev == 70

    def test_local_arc_flag(self):
        bank, stats = make_bank()
        bank.start_entry(0)
        bank.end_iteration(100)
        bank.observe_load(store_ts=50, cycle=150, is_local=True)
        bank.end_iteration(200)
        bank.end_entry(210)
        assert stats.local_arcs == 1

    def test_profile_receives_critical_arcs(self):
        stats = STLStats(7)
        profile = DependencyProfile(7)
        bank = ComparatorBank(HydraConfig(), stats, profile)
        bank.start_entry(0)
        bank.end_iteration(100)
        # the t-1 minimum is the shorter arc, from main:42
        bank.observe_load(store_ts=80, cycle=150, is_local=False,
                          fn="main", pc=42)
        bank.observe_load(store_ts=60, cycle=160, is_local=False,
                          fn="main", pc=50)
        bank.end_iteration(200)
        # an arc to an earlier thread goes to its own bin
        bank.observe_load(store_ts=50, cycle=250, is_local=False,
                          fn="f", pc=3)
        bank.end_iteration(300)
        bank.end_entry(310)
        assert {key: (b.count, b.total_length, b.min_length, b.max_length)
                for key, b in profile.bins.items()} == {
            ("main", 42, "prev"): (1, 70, 70, 70),
            ("f", 3, "earlier"): (1, 200, 200, 200),
        }
        assert (stats.arcs_prev, stats.arc_len_prev) == (1, 70)
        assert (stats.arcs_earlier, stats.arc_len_earlier) == (1, 200)


class TestThreadAccounting:
    def test_threads_and_entries(self):
        bank, stats = make_bank()
        for entry in range(3):
            base = entry * 1000
            bank.start_entry(base)
            bank.end_iteration(base + 100)
            bank.end_iteration(base + 200)
            bank.end_entry(base + 210)
        assert stats.entries == 3
        assert stats.threads == 6
        assert stats.profiled_threads == 6
        assert stats.avg_iters_per_entry == 2.0

    def test_cycles_accumulate_across_entries(self):
        bank, stats = make_bank()
        bank.start_entry(0)
        bank.end_iteration(100)
        bank.end_entry(110)
        bank.start_entry(500)
        bank.end_iteration(550)
        bank.end_entry(560)
        assert stats.cycles == 110 + 60

    def test_zero_trip_entry_counts_one_thread(self):
        bank, stats = make_bank()
        bank.start_entry(0)
        bank.end_entry(10)  # no eoi at all
        assert stats.threads == 1
        assert stats.entries == 1

    def test_tail_segment_not_an_extra_thread(self):
        bank, stats = make_bank()
        bank.start_entry(0)
        bank.end_iteration(100)
        bank.end_entry(104)  # tiny exit-check tail
        assert stats.threads == 1


class TestOverflowAnalysis:
    def test_new_lines_counted_per_thread(self):
        bank, stats = make_bank(store_buffer_lines=4)
        bank.start_entry(0)
        for i in range(3):
            bank.observe_line_load(None)
        bank.end_iteration(100)
        bank.end_entry(110)
        assert stats.load_lines_total == 3
        assert stats.max_load_lines == 3
        assert stats.overflow_threads == 0

    def test_line_touched_this_thread_not_recounted(self):
        bank, stats = make_bank()
        bank.start_entry(0)
        bank.observe_line_load(None)   # first touch
        bank.observe_line_load(50)     # ts 50 >= thread start 0: ours
        bank.end_iteration(100)
        bank.end_entry(110)
        assert stats.load_lines_total == 1

    def test_line_from_previous_thread_recounted(self):
        bank, stats = make_bank()
        bank.start_entry(0)
        bank.observe_line_load(None)
        bank.end_iteration(100)
        bank.observe_line_load(50)    # touched in thread 0 -> new here
        bank.end_iteration(200)
        bank.end_entry(210)
        assert stats.load_lines_total == 2

    def test_store_overflow_flags_thread(self):
        bank, stats = make_bank(store_buffer_lines=2)
        bank.start_entry(0)
        for _ in range(3):
            bank.observe_line_store(None)
        bank.end_iteration(100)
        bank.end_entry(110)
        assert stats.overflow_threads == 1
        assert stats.overflow_freq == 1.0

    def test_load_overflow_uses_load_limit(self):
        bank, stats = make_bank(load_buffer_lines=2, load_buffer_assoc=2)
        bank.start_entry(0)
        for _ in range(3):
            bank.observe_line_load(None)
        bank.end_iteration(100)
        bank.end_entry(110)
        assert stats.overflow_threads == 1

    def test_consistently_overflowing_policy(self):
        bank, stats = make_bank(store_buffer_lines=1)
        bank.start_entry(0)
        for t in range(20):
            bank.observe_line_store(None)
            bank.observe_line_store(None)
            bank.end_iteration((t + 1) * 100)
        assert bank.consistently_overflowing()
