"""Coverage for the supporting pieces: error hierarchy, event
multicasting, runtime code patching, program copying, stats merging,
and program-level TLS accounting."""

import pytest

from repro import errors
from repro.bytecode import Instr, Op
from repro.lang import compile_source
from repro.runtime import (
    ColumnarRecording,
    MulticastListener,
    run_program,
)
from repro.runtime.interpreter import Interpreter
from repro.jrpm.runtime import ProfilingRuntime
from repro.tracer.stats import STLStats


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(errors.LexError, errors.SourceError)
        assert issubclass(errors.ParseError, errors.SourceError)
        assert issubclass(errors.SemanticError, errors.SourceError)
        assert issubclass(errors.SourceError, errors.ReproError)
        assert issubclass(errors.HeapError, errors.ExecutionError)
        for name in ("CodegenError", "BytecodeError", "TracerError",
                     "SimulationError", "PipelineError"):
            assert issubclass(getattr(errors, name), errors.ReproError)

    def test_source_error_positions(self):
        err = errors.LexError("bad", 3, 7)
        assert err.line == 3 and err.column == 7
        assert "line 3" in str(err)

    def test_execution_error_location(self):
        err = errors.ExecutionError("boom", pc=12, function="main")
        assert "main" in str(err) and "12" in str(err)


class TestMulticast:
    def test_all_events_fan_out(self):
        a, b = ColumnarRecording(), ColumnarRecording()
        multi = MulticastListener([a, b])
        src = """
        func main() {
          var arr = array(4);
          var s = 0;
          for (var i = 0; i < 4; i = i + 1) { arr[i] = i; }
          for (var k = 0; k < 4; k = k + 1) { s = s + arr[k]; }
          return s;
        }
        """
        from repro.cfg import find_candidates
        from repro.jit import annotate_program
        program = compile_source(src)
        ann = annotate_program(program, find_candidates(program))
        run_program(ann.program, listener=multi)
        for column in ColumnarRecording.COLUMNS:
            assert getattr(a, column) == getattr(b, column), column
        assert len(a) and len(a.mark_kinds)


class TestProfilingRuntime:
    def _program_with_readstats(self):
        from repro.cfg import find_candidates
        from repro.jit import annotate_program
        src = ("func main() { var s = 0; "
               "for (var i = 0; i < 5; i = i + 1) { s = s + i; } "
               "return s; }")
        program = compile_source(src)
        ann = annotate_program(program, find_candidates(program))
        return ann.program

    def test_patches_readstats_to_nop(self):
        program = self._program_with_readstats()
        interp = Interpreter(program)
        runtime = ProfilingRuntime(program, interp)
        sites = [(fn, pc) for fn in program.functions.values()
                 for pc, ins in enumerate(fn.code)
                 if ins.op == Op.READSTATS]
        assert sites
        loop_id = sites[0][0].code[sites[0][1]].a
        runtime.on_converged(loop_id)
        for fn, pc in sites:
            assert fn.code[pc].op == Op.NOP
        assert runtime.patched == [loop_id]

    def test_patched_program_still_runs(self):
        program = self._program_with_readstats()
        interp = Interpreter(program)
        runtime = ProfilingRuntime(program, interp)
        runtime.on_converged(0)
        assert interp.run().return_value == 10

    def test_cost_cache_kept_coherent(self):
        program = self._program_with_readstats()
        interp = Interpreter(program)
        # force the cost cache to be built, then patch
        first = Interpreter(program).run()
        runtime = ProfilingRuntime(program, interp)
        costs = interp._costs_for(program.main)
        runtime.on_converged(0)
        nop_cost = interp.cost_model.cost(Op.NOP)
        for pc, ins in enumerate(program.main.code):
            if ins.op == Op.NOP:
                assert costs[pc] == nop_cost
        # and the patched run is cheaper than the unpatched one
        second = interp.run()
        assert second.cycles < first.cycles

    def test_unknown_loop_is_noop(self):
        program = self._program_with_readstats()
        runtime = ProfilingRuntime(program, Interpreter(program))
        runtime.on_converged(999)
        assert runtime.patched == [999]


class TestProgramCopy:
    def test_copy_is_deep(self):
        program = compile_source("func main() { return 1 + 2; }")
        clone = program.copy()
        clone.main.code[0] = Instr(Op.NOP)
        assert program.main.code[0].op != Op.NOP
        assert run_program(program).return_value == 3

    def test_copy_preserves_metadata(self):
        program = compile_source(
            "func f(a, b) { return a + b; } "
            "func main() { return f(1, 2); }")
        clone = program.copy()
        fn = clone.functions["f"]
        assert fn.n_params == 2
        assert fn.slot_names == program.functions["f"].slot_names


class TestStatsUtilities:
    def test_merge_accumulates(self):
        a, b = STLStats(0), STLStats(0)
        a.cycles, a.threads, a.entries = 100, 10, 1
        a.profiled_threads, a.profiled_entries = 10, 1
        a.arcs_prev, a.arc_len_prev = 4, 40
        b.cycles, b.threads, b.entries = 200, 20, 2
        b.profiled_threads, b.profiled_entries = 20, 2
        b.arcs_prev, b.arc_len_prev = 6, 30
        b.max_load_lines = 9
        a.merge(b)
        assert a.cycles == 300
        assert a.threads == 30
        assert a.arcs_prev == 10
        assert a.avg_arc_len_prev == 7.0
        assert a.max_load_lines == 9

    def test_render_contains_all_counters(self):
        st = STLStats(3)
        text = st.render()
        for field in ("# cycles", "# threads", "Critical arc freq",
                      "Overflow frequency"):
            assert field in text


class TestProgramOutcome:
    def test_actual_cycles_math(self, huffman_report):
        out = huffman_report.outcome
        covered = sum(r.sequential_cycles for r in out.results.values())
        parallel = sum(r.parallel_cycles for r in out.results.values())
        expected = max(0, out.total_cycles - covered) + parallel
        assert out.actual_cycles == expected

    def test_per_stl_rows_align_with_selection(self, huffman_report):
        out = huffman_report.outcome
        rows = out.per_stl_rows()
        assert [r[0] for r in rows] \
            == huffman_report.selection.selected_ids()
        for _, cycles, pred, actual, vrate in rows:
            assert cycles > 0
            assert pred >= 1.0 or pred > 0
            assert actual > 0
            assert vrate >= 0
