"""Integration tests for the Jrpm pipeline, reports, runtime patching,
the software profiler, and the per-PC dependency profiles."""

import pytest

from repro.errors import PipelineError
from repro.hydra import HydraConfig
from repro.jit import AnnotationLevel
from repro.jrpm import (
    Jrpm,
    render_characteristics_row,
    render_predicted_vs_actual,
    render_selection,
    render_summary,
    run_pipeline,
)
from repro.lang import compile_source
from repro.runtime import run_program
from repro.tracer import SoftwareProfiler
from repro.workloads.registry import get_workload

from tests.conftest import HUFFMAN_SOURCE, NEST_SOURCE


class TestPipeline:
    def test_constructor_validation(self):
        with pytest.raises(PipelineError):
            Jrpm()
        with pytest.raises(PipelineError):
            Jrpm(source="func main() { }",
                 program=compile_source("func main() { }"))

    def test_full_run_products(self, huffman_report):
        rep = huffman_report
        assert rep.program is not None
        assert rep.candidates.loop_count == 4
        assert rep.sequential_cycles > 0
        assert rep.profiled.cycles > rep.sequential.cycles
        assert rep.selection is not None
        assert rep.outcome is not None

    def test_semantics_preserved_through_pipeline(self, huffman_report):
        assert huffman_report.sequential.return_value \
            == huffman_report.profiled.return_value

    def test_outer_huffman_loop_chosen_over_inner(self, huffman_report):
        # Table 3's shape: the symbol loop beats the bit-chasing loop
        table = huffman_report.candidates
        chosen = huffman_report.selection.selected_ids()
        depths = {lid: table.by_id[lid].depth for lid in chosen}
        # the decode nest's outer loop (depth 1) is in the selection and
        # its inner (depth 2) is not
        decode_outer = [lid for lid in chosen
                        if table.by_id[lid].child_ids]
        assert decode_outer, "no outer loop selected: %r" % depths
        for lid in decode_outer:
            for child in table.by_id[lid].child_ids:
                assert child not in chosen

    def test_prediction_tracks_actual(self, huffman_report):
        pred = huffman_report.predicted_speedup
        act = huffman_report.actual_speedup
        assert pred == pytest.approx(act, rel=0.5)

    def test_coverage_bounded(self, huffman_report):
        assert 0.0 <= huffman_report.coverage <= 1.0

    def test_slowdown_in_plausible_band(self, huffman_report):
        # the paper reports 3-25%; allow modest overshoot for the
        # tightest loops
        assert 1.0 < huffman_report.profiling_slowdown < 1.45

    def test_no_tls_mode(self):
        rep = Jrpm(source=NEST_SOURCE).run(simulate_tls=False)
        assert rep.outcome is None
        assert rep.selection is not None

    def test_program_input_instead_of_source(self):
        program = compile_source(NEST_SOURCE)
        rep = Jrpm(program=program, name="nest").run()
        assert rep.sequential.return_value \
            == run_program(compile_source(NEST_SOURCE)).return_value

    def test_base_level_slower_than_optimized(self):
        jrpm = Jrpm(source=HUFFMAN_SOURCE)
        base = jrpm.measure_slowdown(AnnotationLevel.BASE)
        opt = jrpm.measure_slowdown(AnnotationLevel.OPTIMIZED)
        assert base.slowdown > opt.slowdown > 1.0

    @pytest.mark.parametrize("optimize", [False, True])
    def test_measure_slowdown_matches_run(self, optimize):
        """Figure 6's bars come from the same stages 1-2 as ``run``,
        optimizer included."""
        jrpm = Jrpm(source=get_workload("Huffman").source(),
                    optimize=optimize)
        bd = jrpm.measure_slowdown(jrpm.level)
        ran = jrpm.run(simulate_tls=False).slowdown
        assert bd.slowdown == ran.slowdown
        assert bd.extra_cycles == ran.extra_cycles
        assert vars(bd) == vars(ran)

    def test_slowdown_components_sum(self):
        jrpm = Jrpm(source=HUFFMAN_SOURCE)
        bd = jrpm.measure_slowdown(AnnotationLevel.OPTIMIZED)
        total = (bd.read_counters_cycles + bd.locals_cycles
                 + bd.annotations_cycles)
        assert total == bd.extra_cycles
        assert bd.annotations_cycles >= 0

    def test_custom_config_flows_through(self):
        # each iteration writes 4 widely spaced lines; a 2-line store
        # buffer must overflow on (nearly) every thread
        src = """
        func main() {
          var a = array(1024);
          var s = 0;
          for (var i = 0; i < 64; i = i + 1) {
            a[i] = i;
            a[i + 256] = i;
            a[i + 512] = i;
            a[i + 768] = i;
            s = s + a[i];
          }
          return s;
        }
        """
        tiny = HydraConfig(store_buffer_lines=2)
        rep = Jrpm(source=src, config=tiny).run()
        flagged = [st for st in rep.device.stats.values()
                   if st.overflow_threads > 0]
        assert flagged
        # and the estimator punishes the overflowing loop
        st = flagged[0]
        assert st.overflow_freq > 0.9
        from repro.tracer import estimate_speedup
        assert estimate_speedup(st, tiny).speedup < 1.3


class TestRenderers:
    def test_summary(self, huffman_report):
        text = render_summary(huffman_report)
        assert "huffman-nest" in text
        assert "predicted speedup" in text
        assert "actual speedup" in text

    def test_selection_table(self, huffman_report):
        text = render_selection(huffman_report)
        assert "serial" in text
        assert "L" in text

    def test_predicted_vs_actual(self, huffman_report):
        text = render_predicted_vs_actual(huffman_report)
        assert "predicted" in text
        assert "actual" in text

    def test_characteristics_row(self, huffman_report):
        row = render_characteristics_row(huffman_report)
        assert "loops=4" in row


class TestExtendedDevice:
    """Per-load-PC arc binning (the paper's extended TEST, Fig. 8b),
    which every device run collects."""

    def test_per_pc_binning(self):
        rep = Jrpm(source=HUFFMAN_SOURCE,
                   convergence_threshold=None).run(simulate_tls=False)
        dev = rep.device
        # the inner bit-chase loop carries in_p arcs: its profile must
        # name at least one load site
        profiles = [p for p in dev.profiles.values() if p.bins]
        assert profiles
        hottest = profiles[0].hottest(limit=1)[0]
        assert hottest.count > 0
        assert hottest.avg_length > 0
        assert hottest.fn == "main"

    def test_report_text(self):
        rep = Jrpm(source=HUFFMAN_SOURCE,
                   convergence_threshold=None).run(simulate_tls=False)
        lid = next(iter(rep.device.profiles))
        text = rep.device.report(lid)
        assert "Dependency profile" in text

    def test_limiting_sites_filter(self):
        rep = Jrpm(source=HUFFMAN_SOURCE,
                   convergence_threshold=None).run(simulate_tls=False)
        dev = rep.device
        for lid, profile in dev.profiles.items():
            st = dev.stats[lid]
            limiting = profile.limiting(st.avg_thread_size)
            for site in limiting:
                assert site.avg_length < 0.5 * st.avg_thread_size


class TestSoftwareProfiler:
    def test_slowdown_orders_of_magnitude_above_hardware(self):
        from repro.cfg import find_candidates
        from repro.jit import annotate_program

        program = compile_source(HUFFMAN_SOURCE)
        table = find_candidates(program)
        ann = annotate_program(program, table, AnnotationLevel.BASE)
        profiler = SoftwareProfiler()
        for lid, cand in ann.annotated_loops.items():
            profiler.register_loop_locals(lid, cand.tracked_locals)
        base = run_program(program)
        run_program(ann.program, listener=profiler)
        profiler.finish()
        software = profiler.slowdown(base.cycles)
        # hardware: ~1.1-1.3x; software: tens of x
        assert software > 10.0

    def test_analysis_identical_to_hardware(self):
        from repro.cfg import find_candidates
        from repro.jit import annotate_program
        from repro.tracer import TestDevice

        program = compile_source(NEST_SOURCE)
        table = find_candidates(program)
        ann = annotate_program(program, table)
        hard = TestDevice()
        soft = SoftwareProfiler()
        for lid, cand in ann.annotated_loops.items():
            hard.register_loop_locals(lid, cand.tracked_locals)
            soft.register_loop_locals(lid, cand.tracked_locals)
        run_program(ann.program, listener=hard)
        run_program(ann.program, listener=soft)
        for lid in hard.stats:
            h, s = hard.stats[lid], soft.stats[lid]
            assert (h.threads, h.arcs_prev, h.arc_len_prev,
                    h.overflow_threads) \
                == (s.threads, s.arcs_prev, s.arc_len_prev,
                    s.overflow_threads)
