"""Worked examples from the paper, validated against hand-computed
values: the Figure 3 dependency trace, the Figure 4 overflow trace, the
Table 3 nest comparison, and the Figure 9 imprecision loop."""

import pytest

from repro.hydra import HydraConfig
from repro.jrpm import Jrpm
from repro.tracer import (
    ComparatorBank,
    DependencyProfile,
    STLStats,
    TestDevice,
)


class TestFigure3LoadDependency:
    """Figure 3: three threads of a decode loop with in_p/out_p arcs."""

    def _drive(self):
        """Reproduce the figure's event timeline.

        Threads start at 0, 12, 23 (eoi at 12, 23; eloop at 35).
        Thread 2 loads in_p stored at cycle 8 of thread 1 at its cycle
        16 (arc 8) and out_p stored at 11 loaded at 20 (arc 9): the
        critical arc is in_p's 8.
        """
        dev = TestDevice()
        dev.register_loop_locals(0, [1, 2])  # slots: 1=in_p, 2=out_p
        dev.on_sloop(0, 2, 0, frame_id=0)
        # thread 0 stores its locals
        dev.on_local_store(0, 1, 8)      # in_p
        dev.on_local_store(0, 2, 11)     # out_p
        dev.on_eoi(0, 12)
        # thread 1: loads form arcs to thread 0
        dev.on_local_load(0, 1, 16)      # arc 16 - 8 = 8
        dev.on_local_load(0, 2, 20)      # arc 20 - 11 = 9
        dev.on_local_store(0, 1, 19)
        dev.on_local_store(0, 2, 22)
        dev.on_eoi(0, 23)
        # thread 2
        dev.on_local_load(0, 1, 27)      # arc 27 - 19 = 8
        dev.on_eoi(0, 35)
        dev.on_eloop(0, 35)
        dev.finish()
        return dev.stats[0]

    def test_critical_arcs_match_figure(self):
        st = self._drive()
        # two threads carry critical arcs, both of length 8 (in_p wins
        # over out_p's 9, exactly as in the figure)
        assert st.arcs_prev == 2
        assert st.arc_len_prev == 16
        assert st.avg_arc_len_prev == 8.0
        assert st.arcs_earlier == 0

    def test_derived_values_match_figure(self):
        st = self._drive()
        assert st.threads == 3
        assert st.entries == 1
        assert st.cycles == 35
        assert st.avg_iters_per_entry == 3.0
        # figure: critical arc frequency to previous thread = 1.0
        assert st.arc_freq_prev == 1.0


class TestFigure4OverflowTrace:
    """Figure 4: the overflow analysis over the figure's LD/ST column
    trace, with tiny limits so the counters are observable."""

    def test_counters_follow_figure_columns(self):
        config = HydraConfig()
        stats = STLStats(0)
        bank = ComparatorBank(config, stats, DependencyProfile(0))
        bank.start_entry(0)
        # thread 0: LD new line, ST new line, LD same line again
        bank.observe_line_load(None)
        bank.observe_line_store(None)
        bank.observe_line_load(5)   # ts 5 >= thread start: this thread
        assert bank.load_lines == 1
        assert bank.store_lines == 1
        bank.end_iteration(100)
        # thread 1: the same lines are *new* again for this thread
        bank.observe_line_load(50)   # ts 50 < thread start 100
        bank.observe_line_store(60)
        assert bank.load_lines == 1
        assert bank.store_lines == 1
        bank.end_iteration(200)
        bank.end_entry(204)
        assert stats.load_lines_total == 2
        assert stats.store_lines_total == 2
        assert stats.overflow_threads == 0

    def test_overflow_increments_when_limits_exceeded(self):
        config = HydraConfig(store_buffer_lines=2)
        stats = STLStats(0)
        bank = ComparatorBank(config, stats, DependencyProfile(0))
        bank.start_entry(0)
        for _ in range(3):
            bank.observe_line_store(None)
        bank.end_iteration(100)
        bank.end_entry(110)
        assert stats.overflow_threads == 1


class TestTable3NestSelection:
    """Table 3: Equation 2 picks the outer Huffman loop over the inner
    one (and over staying serial)."""

    def test_outer_loop_wins(self, huffman_report):
        sel = huffman_report.selection
        table = huffman_report.candidates
        chosen = sel.selected_ids()
        # identify the decode nest: the loop with a child
        outers = [c for c in table.candidates() if c.child_ids]
        assert outers
        outer = outers[0]
        inner_id = outer.child_ids[0]
        assert outer.loop_id in chosen
        assert inner_id not in chosen
        # and the comparison mirrors Table 3: time(outer)/speedup(outer)
        # < time(inner)/speedup(inner) + serial remainder
        d_outer = sel.decisions[outer.loop_id]
        d_inner = sel.decisions[inner_id]
        delegate = (d_outer.stats.cycles - d_inner.stats.cycles) \
            + d_inner.best_time
        assert d_outer.time_if_speculated < delegate

    def test_inner_loop_estimate_below_outer(self, huffman_report):
        sel = huffman_report.selection
        table = huffman_report.candidates
        outer = [c for c in table.candidates() if c.child_ids][0]
        inner_id = outer.child_ids[0]
        est_outer = sel.decisions[outer.loop_id].estimate.speedup
        est_inner = sel.decisions[inner_id].estimate.speedup
        assert est_outer > est_inner


class TestFigure9Imprecision:
    """Figure 9: ``A[i] = A[i-1]`` except every nth iteration.

    Parallelism exists at every nth iteration, but TEST's averaged
    two-bin statistics see a high count of short previous-thread arcs
    and (the paper's point) conclude the loop is nearly serial.
    """

    SOURCE = """
    func main() {
      var a = array(512);
      a[0] = 7;
      for (var i = 1; i < 512; i = i + 1) {
        if (i %% %d != 0) {
          a[i] = a[i - 1];
        } else {
          a[i] = i;
        }
      }
      var s = 0;
      for (var k = 0; k < 512; k = k + 1) { s = s + a[k]; }
      return s;
    }
    """

    def _copy_loop_stats(self, n):
        rep = Jrpm(source=self.SOURCE % n, name="fig9-n%d" % n).run(
            simulate_tls=False)
        copy_stats = [st for st in rep.device.stats.values()
                      if st.arcs_prev > 0]
        assert copy_stats
        return max(copy_stats, key=lambda s: s.arcs_prev)

    def test_dependency_count_high_despite_parallelism(self):
        st = self._copy_loop_stats(8)
        # nearly every thread reports a critical arc to t-1 even though
        # one in every 8 iterations is independent
        assert st.arc_freq_prev > 0.8

    def test_analysis_blind_to_break_density(self):
        # the paper's point: temporal structure is lost — TEST's
        # averaged statistics barely distinguish a chain broken every
        # 2nd iteration from one broken every 8th, although the true
        # multi-iteration parallelism differs by 4x
        from repro.tracer import estimate_speedup
        sparse = estimate_speedup(self._copy_loop_stats(8)).speedup
        dense = estimate_speedup(self._copy_loop_stats(2)).speedup
        assert abs(sparse - dense) / dense < 0.25
