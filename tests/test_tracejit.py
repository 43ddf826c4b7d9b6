"""Trace-JIT unit and exactness tests.

The superblock JIT's contract is observational equivalence with the
generic dispatch loops at every exit — same values, same cycle and
instruction counts, same event stream, same errors.  These tests pin
that contract deterministically (guard failures, budget exits, live
code patching, blacklisting) and cover the surrounding plumbing:
trace verification, the on/off switch, cache-key separation, report and
service observability.
"""

import pytest

from repro.bytecode import BinOp, Op
from repro.bytecode.instructions import Instr
from repro.errors import ExecutionError
from repro.lang import compile_source
from repro.runtime import (
    ColumnarRecording,
    TraceListener,
    run_program,
)
from repro.runtime.interpreter import Interpreter
from repro.runtime.tracejit import (
    DEFAULT_HOT_THRESHOLD,
    TraceJIT,
    TraceJITError,
    verify_trace,
)
from repro.workloads.registry import get_workload

NESTED_LOOPS = """
func main() {
  var a = array(64);
  var s = 0;
  for (var r = 0; r < 6; r = r + 1) {
    for (var i = 0; i < 64; i = i + 1) {
      a[i] = (a[(i + 11) % 64] + r * i) % 997;
    }
  }
  for (var i = 0; i < 64; i = i + 1) { s = (s + a[i]) % 65536; }
  return s;
}
"""


def _observables(result):
    return (result.return_value, result.cycles, result.instructions,
            result.heap.snapshot(), result.printed)


class TestExactness:
    def test_fast_path_identical_with_jit(self):
        program = compile_source(NESTED_LOOPS)
        off = run_program(program, trace_jit=False)
        on = run_program(program, trace_jit=True,
                         trace_jit_threshold=2)
        assert _observables(on) == _observables(off)
        assert on.jit["traces_linked"] >= 1
        assert on.jit["iterations"] > 100

    def test_traced_path_identical_event_stream(self):
        program = compile_source(NESTED_LOOPS)
        ref, jit = ColumnarRecording(), ColumnarRecording()
        off = run_program(program, listener=ref, trace_jit=False)
        on = run_program(program, listener=jit, trace_jit=True,
                         trace_jit_threshold=2)
        assert _observables(on) == _observables(off)
        assert len(ref) > 0
        for column in ColumnarRecording.COLUMNS:
            assert getattr(jit, column) == getattr(ref, column), column
        assert on.jit["traces_linked"] >= 1

    def test_jit_disabled_reports_no_stats(self):
        program = compile_source("func main() { return 7; }")
        assert run_program(program, trace_jit=False).jit is None
        assert run_program(program, trace_jit=True).jit is not None

    def test_print_inside_hot_loop(self):
        src = "func main() { var s = 0; " \
              "for (var i = 0; i < 40; i = i + 1) " \
              "{ print i; s = s + i; } return s; }"
        program = compile_source(src)
        off = run_program(program, trace_jit=False)
        on = run_program(program, trace_jit=True, trace_jit_threshold=2)
        assert _observables(on) == _observables(off)
        assert on.printed == list(range(40))


class TestGuardFailure:
    """Guard exits, the payoff probe and tail traces in the fast loop.
    :class:`TestGuardFailureTraced` reruns every case in the traced
    loop, where superblocks and the recorder also publish events."""

    #: listener class attached to both runs of a case (None: fast loop)
    listener = None

    #: branch direction flips at i == 50: the linked trace speculated
    #: the i < 50 arm, so iteration 50 must abort through the guard
    FLIP = """
    func main() {
      var a = array(2);
      for (var i = 0; i < 100; i = i + 1) {
        if (i < 50) { a[0] = a[0] + 1; } else { a[1] = a[1] + 3; }
      }
      return a[0] + a[1];
    }
    """

    def _run(self, program, **kwargs):
        listener = self.listener() if self.listener else None
        return run_program(program, listener=listener, **kwargs), listener

    def _same_recordings(self, off, on):
        if self.listener is not None:
            for column in ColumnarRecording.COLUMNS:
                assert getattr(on, column) == getattr(off, column), column

    def _off_on(self, program):
        """JIT-off and JIT-on results with identical observables and,
        in traced mode, identical non-empty recordings."""
        off, rec_off = self._run(program, trace_jit=False)
        on, rec_on = self._run(program, trace_jit=True,
                               trace_jit_threshold=2)
        assert _observables(on) == _observables(off)
        self._same_recordings(rec_off, rec_on)
        if rec_on is not None:
            assert len(rec_on) > 0
        return off, on

    def _raises(self, program, **kwargs):
        """The JIT-off and JIT-on errors, recordings compared."""
        errors, recordings = [], []
        for flag in (False, True):
            listener = self.listener() if self.listener else None
            with pytest.raises(ExecutionError) as err:
                run_program(program, listener=listener, trace_jit=flag,
                            trace_jit_threshold=2, **kwargs)
            errors.append(str(err.value))
            recordings.append(listener)
        self._same_recordings(*recordings)
        return errors

    def test_guard_abort_restores_state_exactly(self):
        _off, on = self._off_on(compile_source(self.FLIP))
        assert on.return_value == 50 * 1 + 50 * 3
        assert on.jit["guard_failures"] >= 1

    def test_unprofitable_trace_gets_blacklisted(self, monkeypatch):
        # raise the payoff bar above anything this loop can commit:
        # every trace must miss it at the probe point, so the probe
        # must blacklist and execution must fall back to plain
        # dispatch — with identical observables
        import repro.runtime.interpreter as interp_mod
        monkeypatch.setattr(interp_mod, "BLACKLIST_MIN_OPS", 10 ** 6)
        src = """
        func main() {
          var a = array(2);
          for (var i = 0; i < 400; i = i + 1) {
            if (i < 8) { a[0] = a[0] + 1; } else { a[1] = a[1] + 2; }
          }
          return a[0] + a[1];
        }
        """
        _off, on = self._off_on(compile_source(src))
        assert on.jit["traces_blacklisted"] >= 1
        # blacklisted traces stop being invoked at the probe point
        for tr in on.jit["traces"]:
            assert tr["invocations"] <= 32

    def test_alternating_branch_loop_trace_stays_linked(self):
        # every other iteration takes the other arm, so half the
        # invocations side-exit — but each exit still commits the full
        # iteration recorded before it, so the loop trace pays for
        # itself and the payoff probe must keep it; the hot side exit
        # additionally links a tail trace covering the other arm
        src = """
        func main() {
          var a = array(2);
          for (var i = 0; i < 400; i = i + 1) {
            if (i % 2) { a[0] = a[0] + 1; } else { a[1] = a[1] + 2; }
          }
          return a[0] + a[1];
        }
        """
        _off, on = self._off_on(compile_source(src))
        loop_traces = [t for t in on.jit["traces"]
                       if t["exit_pc"] is None]
        tail_traces = [t for t in on.jit["traces"]
                       if t["exit_pc"] is not None]
        # invocations past the probe point == the payoff probe kept it
        assert loop_traces
        assert all(t["invocations"] > 32 for t in loop_traces)
        # the tail trace chains from the loop trace's side exit
        assert any(t["invocations"] > 32 for t in tail_traces)
        mode = "fast" if self.listener is None else "traced"
        assert {t["mode"] for t in on.jit["traces"]} == {mode}
        assert on.jit["guard_failures"] >= 100
        assert on.jit["ops_committed"] > 0

    def test_error_inside_superblock_is_canonical(self):
        # the faulting ASTORE deoptimizes before executing; the generic
        # loop re-raises with the canonical message and location
        src = "func main() { var a = array(32); var i = 0; " \
              "while (1) { a[i] = i; i = i + 1; } }"
        off, on = self._raises(compile_source(src))
        assert on == off

    def test_budget_exhausts_at_exact_instruction(self):
        src = "func main() { var a = array(1); " \
              "while (1) { a[0] = (a[0] + 1) % 7; } }"
        off, on = self._raises(compile_source(src), max_instructions=5000)
        assert on == off
        assert "budget" in on


class TestGuardFailureTraced(TestGuardFailure):
    listener = ColumnarRecording


class TestRecordingStopRules:
    def test_call_in_loop_blacklists_anchor(self):
        src = """
        func inc(x) { return x + 1; }
        func main() {
          var s = 0;
          for (var i = 0; i < 80; i = i + 1) { s = inc(s); }
          return s;
        }
        """
        program = compile_source(src)
        off = run_program(program, trace_jit=False)
        on = run_program(program, trace_jit=True, trace_jit_threshold=2)
        assert _observables(on) == _observables(off)
        assert on.jit["traces_linked"] == 0
        assert on.jit["traces_blacklisted"] >= 1

    def test_short_trip_loop_in_hot_callee_gets_linked(self):
        """A loop recording that runs off its loop into the callee's
        RET re-arms instead of blacklisting: 200 one-iteration calls
        (every recording lands on a RET) do not stop the loop from
        linking once longer calls arrive."""
        src = """
        func bump(a, lo, hi) {
          while (lo < hi) { a[lo] = a[lo] + lo; lo = lo + 1; }
          return 0;
        }
        func main() {
          var a = array(64);
          for (var k = 0; k < 200; k = k + 1) { bump(a, 63, 64); }
          for (var k = 0; k < 20; k = k + 1) { bump(a, 0, 64); }
          return a[63] + a[1];
        }
        """
        program = compile_source(src)
        off = run_program(program, trace_jit=False)
        on = run_program(program, trace_jit=True)
        assert _observables(on) == _observables(off)
        linked = [t for t in on.jit["traces"] if t["fn"] == "bump"]
        assert linked and linked[0]["iterations"] > 1000

    def test_numheapsort_sift_down_runs_in_superblocks(self):
        """NumHeapSort's heapify makes ~175 one-iteration sift_down
        calls in a row; its sequential run still spends most of its
        instructions in superblocks."""
        program = compile_source(get_workload("NumHeapSort").source())
        on = run_program(program, trace_jit=True)
        assert on.jit["ops_committed"] >= 0.70 * on.instructions

    def test_inner_loop_gets_its_own_trace(self):
        program = compile_source(NESTED_LOOPS)
        on = run_program(program, trace_jit=True, trace_jit_threshold=2)
        anchors = {(t["fn"], t["anchor"]) for t in on.jit["traces"]}
        assert len(anchors) >= 2  # inner and trailing loop at least

    def test_rerun_reuses_linked_traces(self):
        program = compile_source(NESTED_LOOPS)
        interp = Interpreter(program, trace_jit=True,
                             trace_jit_threshold=2)
        first = interp.run()
        second = interp.run()
        assert first.cycles == second.cycles
        assert first.return_value == second.return_value
        # same trace cache: linked superblocks are reused (invocation
        # counts accumulate, no new loop traces appear); anchors still
        # inside their foreign-backedge retry budget and side exits
        # that cross the tail hotness threshold may still record
        def loop_traces(result):
            return sum(1 for t in result.jit["traces"]
                       if t["exit_pc"] is None)
        assert loop_traces(second) == loop_traces(first)
        assert second.jit["invocations"] > first.jit["invocations"]


class TestPatchInvalidation:
    MUL_LOOP = "func main() { var s = 1; " \
               "for (var i = 0; i < 50; i = i + 1) " \
               "{ s = (s * 3) % 1000003; } return s; }"

    def _mul_site(self, program):
        fn = program.functions["main"]
        for pc, ins in enumerate(fn.code):
            if ins.op == Op.BIN and ins.sub == int(BinOp.MUL):
                return fn, pc
        raise AssertionError("no MUL emitted")

    def test_patch_after_warm_run_drops_stale_superblocks(self):
        # regression: a linked trace bakes cost prefixes in as
        # constants; patching a site after a warm run must invalidate
        # it, or the rerun would charge the old MUL cost
        program = compile_source(self.MUL_LOOP)
        fn, pc = self._mul_site(program)
        interp = Interpreter(program, trace_jit=True,
                             trace_jit_threshold=2)
        warm = interp.run()
        assert warm.jit["traces_linked"] >= 1
        fn.code[pc] = Instr(Op.NOP)
        interp.patch_cost(fn.name, pc, Op.NOP, fn.code[pc].sub)
        patched = interp.run()
        reference = Interpreter(program, trace_jit=False).run()
        assert patched.cycles == reference.cycles
        assert patched.cycles < warm.cycles
        assert patched.jit["invalidations"] == 1

    def test_mid_run_convergence_patching_stays_exact(self):
        # the profiling runtime rewrites READSTATS sites to NOPs while
        # the run is in flight; epoch side exits must keep the traced
        # superblocks cycle-exact through the patch
        from repro.cfg.candidates import find_candidates
        from repro.hydra.config import DEFAULT_HYDRA
        from repro.jit.annotate import AnnotationLevel, annotate_program
        from repro.jrpm.runtime import ProfilingRuntime
        from repro.runtime.events import (
            ColumnarRecording,
            MulticastListener,
        )
        from repro.tracer.device import TestDevice

        src = """
        func main() {
          var a = array(32);
          var s = 0;
          for (var r = 0; r < 40; r = r + 1) {
            for (var i = 0; i < 32; i = i + 1) {
              a[i] = (a[i] + r + i) % 4093;
            }
            s = (s + a[r % 32]) % 65536;
          }
          return s;
        }
        """

        def profiled(trace_jit):
            program = compile_source(src)
            candidates = find_candidates(program)
            annotated = annotate_program(program, candidates,
                                         AnnotationLevel.OPTIMIZED)
            device = TestDevice(DEFAULT_HYDRA)
            device.convergence_threshold = 8
            for lid, cand in annotated.annotated_loops.items():
                device.register_loop_locals(lid, cand.tracked_locals)
            recording = ColumnarRecording()
            interp = Interpreter(
                annotated.program,
                listener=MulticastListener([device, recording]),
                trace_jit=trace_jit, trace_jit_threshold=2)
            runtime = ProfilingRuntime(annotated.program, interp)
            device.on_converged = runtime.on_converged
            result = interp.run()
            device.finish()
            return result, len(recording)

        off, off_events = profiled(False)
        on, on_events = profiled(True)
        assert (on.return_value, on.cycles, on.instructions) == \
               (off.return_value, off.cycles, off.instructions)
        assert on_events == off_events
        # the convergence callback really fired mid-run
        assert on.jit["invalidations"] >= 1


class TestSwitches:
    """``trace_jit=`` and ``--trace-jit/--no-trace-jit`` are the only
    switches: the environment no longer steers the JIT."""

    def test_default_is_on(self):
        assert run_program(compile_source(NESTED_LOOPS)).jit is not None

    def test_jit_env_is_ignored(self, monkeypatch):
        from repro.jrpm import Jrpm
        monkeypatch.setenv("JRPM_TRACE_JIT", "0")
        assert run_program(compile_source(NESTED_LOOPS)).jit is not None
        assert Jrpm(source=NESTED_LOOPS).trace_jit is True

    def test_hot_threshold_ignores_env(self, monkeypatch):
        monkeypatch.setenv("JRPM_TRACE_JIT_THRESHOLD", "5")
        assert TraceJIT().threshold == DEFAULT_HOT_THRESHOLD
        assert TraceJIT(threshold=None).threshold == DEFAULT_HOT_THRESHOLD
        assert TraceJIT(threshold=9).threshold == 9
        assert TraceJIT(threshold=0).threshold == 1  # clamped


class TestVerifier:
    def _decoded(self, source="func main() { var s = 0; "
                              "for (var i = 0; i < 9; i = i + 1) "
                              "{ s = s + i; } return s; }"):
        from repro.runtime.interpreter import _decode_one
        program = compile_source(source)
        fn = program.functions["main"]
        return fn, [_decode_one(ins) for ins in fn.code]

    def test_empty_recording_rejected(self):
        fn, code = self._decoded()
        with pytest.raises(TraceJITError):
            verify_trace("main", 0, [], len(code), fn.n_slots)

    def test_call_in_trace_rejected(self):
        fn, code = self._decoded()
        call = (int(Op.CALL), 0, -1, -1, 0, None, "main", ())
        jmp = (int(Op.JMP), 1, -1, -1, 0, None, None, ())
        with pytest.raises(TraceJITError) as exc:
            verify_trace("main", 1, [(1, call, None), (2, jmp, None)],
                         len(code), fn.n_slots)
        assert "may not appear" in str(exc.value)

    def test_unclosed_trace_rejected(self):
        fn, code = self._decoded()
        mov = (int(Op.MOV), 0, 1, -1, 0, None, None, ())
        with pytest.raises(TraceJITError) as exc:
            verify_trace("main", 1, [(1, mov, None)], len(code),
                         fn.n_slots)
        assert "branch or jump" in str(exc.value)

    def test_out_of_frame_slot_rejected(self):
        fn, code = self._decoded()
        mov = (int(Op.MOV), fn.n_slots + 3, 0, -1, 0, None, None, ())
        jmp = (int(Op.JMP), 1, -1, -1, 0, None, None, ())
        with pytest.raises(TraceJITError) as exc:
            verify_trace("main", 1, [(1, mov, None), (2, jmp, None)],
                         len(code), fn.n_slots)
        assert "outside frame" in str(exc.value)

    def test_branch_without_direction_rejected(self):
        fn, code = self._decoded()
        br = (int(Op.BR), 0, 1, 3, 0, None, None, ())
        with pytest.raises(TraceJITError) as exc:
            verify_trace("main", 1, [(1, br, None)], len(code),
                         fn.n_slots)
        assert "no recorded direction" in str(exc.value)


class TestObservability:
    def test_report_carries_trace_jit_block(self, huffman_report):
        from repro.jrpm.report import report_to_dict, validate_report_dict
        data = report_to_dict(huffman_report)
        validate_report_dict(data)
        block = data["trace_jit"]
        assert block is not None
        assert block["sequential"]["traces_linked"] >= 1
        assert block["profiled"]["traces_linked"] >= 1
        for row in block["sequential"]["traces"]:
            assert row["mode"] == "fast"
            assert row["invocations"] >= 1

    def test_render_trace_jit(self, huffman_report):
        from repro.jrpm.report import render_trace_jit
        text = render_trace_jit(huffman_report)
        assert "trace jit" in text
        assert "linked=" in text

    def test_scheduler_merges_counters_into_metrics(self, huffman_report):
        from repro.jrpm.report import report_to_dict
        from repro.service.metrics import ServiceMetrics
        from repro.service.scheduler import RequestScheduler

        class _Shell:
            pass

        shell = _Shell()
        shell.metrics = ServiceMetrics()
        RequestScheduler._merge_trace_jit(shell,
                                          report_to_dict(huffman_report))
        counters = shell.metrics.counters
        assert counters["trace_jit_traces_linked"] >= 2
        assert counters["trace_jit_iterations"] > 0

    def test_cache_never_aliases_jit_modes(self, tmp_path):
        from repro.jrpm import ArtifactCache, Jrpm
        src = "func main() { var s = 0; " \
              "for (var i = 0; i < 30; i = i + 1) { s = s + i; } " \
              "return s; }"
        cache = ArtifactCache(directory=str(tmp_path))
        on = Jrpm(source=src, name="alias", cache=cache,
                  trace_jit=True).run(simulate_tls=False)
        off = Jrpm(source=src, name="alias", cache=cache,
                   trace_jit=False).run(simulate_tls=False)
        # a shared stage key would have served the JIT-on artifact
        # (with its counter snapshot) to the JIT-off run
        assert getattr(on.sequential, "jit", None) is not None
        assert getattr(off.sequential, "jit", None) is None
        assert on.sequential.cycles == off.sequential.cycles


class TestOptimizeJitComposition:
    """``optimize`` and ``trace_jit`` compose: the flags must neither
    perturb observable semantics together nor alias each other's
    cached artifacts."""

    SRC = NESTED_LOOPS

    def _observables(self, result):
        return (result.return_value, result.heap.snapshot(),
                result.printed)

    def test_all_four_combinations_agree(self):
        from repro.jrpm import Jrpm
        runs = {}
        for optimize in (False, True):
            for jit in (False, True):
                runs[optimize, jit] = Jrpm(
                    source=self.SRC, optimize=optimize,
                    trace_jit=jit).run(simulate_tls=False).sequential
        reference = self._observables(runs[False, False])
        for combo, result in runs.items():
            assert self._observables(result) == reference, combo
        # the JIT is timing-transparent at either optimize setting;
        # the optimizer is not (that is its job), but never slower
        for optimize in (False, True):
            assert runs[optimize, True].cycles \
                == runs[optimize, False].cycles
        assert runs[True, False].cycles <= runs[False, False].cycles
        # both flags really did engage in the combined run
        assert runs[True, True].jit["traces_linked"] >= 1

    def test_cache_keys_compose_without_aliasing(self):
        from repro.jrpm import ArtifactCache, Jrpm
        cache = ArtifactCache()  # memory-only
        combos = [(False, False), (False, True),
                  (True, False), (True, True)]
        for optimize, jit in combos:
            Jrpm(source=self.SRC, cache=cache, optimize=optimize,
                 trace_jit=jit).run(simulate_tls=False)
        # the compile artifact only depends on optimize: two keys,
        # each hit once by the second run sharing its optimize value
        assert cache.misses.get("compile") == 2
        assert cache.hits.get("compile") == 2
        # the sequential artifact depends on both flags: four distinct
        # composed keys, no combination served another's blob
        assert cache.misses.get("sequential") == 4
        assert not cache.hits.get("sequential")
        # warm repeat of every combination hits all stages
        for optimize, jit in combos:
            rerun = Jrpm(source=self.SRC, cache=cache,
                         optimize=optimize,
                         trace_jit=jit).run(simulate_tls=False)
            assert (getattr(rerun.sequential, "jit", None)
                    is not None) == jit
        assert cache.hits.get("sequential") == 4
        assert cache.misses.get("sequential") == 4


class TestFifthPath:
    def test_conformance_fifth_path_runs(self):
        from repro.conformance.invariants import check_source
        outcome = check_source(NESTED_LOOPS, name="tracejit-smoke")
        assert outcome.jit_traces >= 1

    def test_fifth_path_catches_injected_divergence(self, monkeypatch):
        # sanity-check the net itself: force the JIT to mis-handle
        # iteration accounting and the fifth path must trip
        from repro.conformance import invariants
        from repro.conformance.invariants import ConformanceViolation

        real = run_program

        def poisoned(program, **kwargs):
            result = real(program, **kwargs)
            if kwargs.get("trace_jit") is True:
                result.cycles += 1
            return result

        monkeypatch.setattr(invariants, "run_program", poisoned)
        with pytest.raises(ConformanceViolation) as exc:
            invariants.check_source(NESTED_LOOPS, name="poisoned")
        assert exc.value.kind == "trace-jit-divergence"
