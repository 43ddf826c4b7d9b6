"""Unit tests for the annotating JIT pass."""

from collections import Counter

import pytest

from repro.bytecode import Op, verify_program
from repro.cfg import find_candidates
from repro.jit import AnnotationLevel, annotate_program, compile_stl
from repro.lang import compile_source
from repro.runtime import run_program
from repro.runtime.events import (
    KIND_LLD,
    KIND_LST,
    ColumnarRecording,
    TraceListener,
)

from tests.conftest import NEST_SOURCE


def annotate(source, level=AnnotationLevel.OPTIMIZED, loops=None):
    program = compile_source(source)
    table = find_candidates(program)
    return program, table, annotate_program(program, table, level, loops)


#: mark kind code -> name (the recording's ``MARK_*`` order)
MARK_KINDS = ("sloop", "eoi", "eloop")


def marks_of(annotated):
    """``(kind name, loop id)`` of every mark of one run, in order."""
    rec = ColumnarRecording()
    run_program(annotated.program, listener=rec)
    return [(MARK_KINDS[kind], lid)
            for kind, lid in zip(rec.mark_kinds, rec.mark_loops)]


def mark_counter(annotated):
    return Counter(marks_of(annotated))


class TestMarkers:
    def test_balanced_sloop_eloop(self):
        _, _, ann = annotate(NEST_SOURCE)
        counts = mark_counter(ann)
        loops = {lid for _, lid in counts}
        for lid in loops:
            assert counts[("sloop", lid)] == counts[("eloop", lid)]

    def test_eoi_counts_match_iterations(self):
        _, _, ann = annotate(NEST_SOURCE)
        counts = mark_counter(ann)
        # outer loop: 8 iterations; inner: 8 entries x 8; sum loop: 64
        eois = sorted(v for (k, _), v in counts.items() if k == "eoi")
        assert eois == [8, 64, 64]

    def test_nesting_well_formed(self):
        _, _, ann = annotate(NEST_SOURCE)
        stack = []
        for kind, lid in marks_of(ann):
            if kind == "sloop":
                stack.append(lid)
            elif kind == "eloop":
                assert stack and stack[-1] == lid
                stack.pop()
            elif kind == "eoi":
                assert stack and stack[-1] == lid
        assert stack == []

    def test_semantics_preserved(self):
        program, _, ann = annotate(NEST_SOURCE)
        assert run_program(program).return_value \
            == run_program(ann.program).return_value

    def test_annotated_program_verifies(self):
        _, _, ann = annotate(NEST_SOURCE)
        verify_program(ann.program)

    def test_loop_subset_annotation(self):
        _, table, ann = annotate(NEST_SOURCE, loops=[0])
        counts = mark_counter(ann)
        loops_seen = {lid for _, lid in counts}
        assert loops_seen == {0}

    def test_excluded_loops_never_annotated(self):
        # a pure pointer chase is statically excluded (Section 4.1);
        # the array is initialized without loops so the chase is the
        # program's only natural loop
        src = ("func main() { var a = array(4); "
               "a[0] = 1; a[1] = 3; a[2] = 1; a[3] = 9; "
               "var p = 0; while (p < 8) { p = a[p % 4]; } return p; }")
        _, table, ann = annotate(src)
        assert ann.annotated_loops == {}
        counts = mark_counter(ann)
        assert not counts

    def test_loop_at_function_entry_gets_synthetic_preheader(self):
        src = """
        func spin(n) {
          while (n > 0) { n = n - 1; }
          return n;
        }
        func main() { return spin(5); }
        """
        _, _, ann = annotate(src)
        counts = mark_counter(ann)
        assert sum(v for (k, _), v in counts.items() if k == "sloop") == 1

    def test_return_inside_loop_closes_it(self):
        src = """
        func find(a, v) {
          for (var i = 0; i < len(a); i = i + 1) {
            if (a[i] == v) { return i; }
          }
          return -1;
        }
        func main() {
          var a = array(8);
          a[5] = 3;
          return find(a, 3);
        }
        """
        program, _, ann = annotate(src)
        assert run_program(ann.program).return_value == 5
        counts = mark_counter(ann)
        for (kind, lid), n in counts.items():
            if kind == "sloop":
                assert counts[("eloop", lid)] == n


class TestLocalsAnnotations:
    def test_base_has_more_lwl_than_optimized(self):
        _, _, base = annotate(NEST_SOURCE, AnnotationLevel.BASE)
        _, _, opt = annotate(NEST_SOURCE, AnnotationLevel.OPTIMIZED)

        def lwl_executed(ann):
            rec = ColumnarRecording()
            run_program(ann.program, listener=rec)
            return rec.kinds.count(KIND_LLD)

        assert lwl_executed(base) > lwl_executed(opt)

    def test_swl_never_dropped(self):
        # every write to a tracked local must refresh its timestamp
        _, _, base = annotate(NEST_SOURCE, AnnotationLevel.BASE)
        _, _, opt = annotate(NEST_SOURCE, AnnotationLevel.OPTIMIZED)

        def swl_executed(ann):
            rec = ColumnarRecording()
            run_program(ann.program, listener=rec)
            return rec.kinds.count(KIND_LST)

        assert swl_executed(base) == swl_executed(opt)

    def test_only_tracked_slots_annotated(self):
        _, table, ann = annotate(NEST_SOURCE)
        tracked = set()
        for cand in ann.annotated_loops.values():
            tracked |= set(cand.tracked_locals)
        for fn in ann.program.functions.values():
            for ins in fn.code:
                if ins.op in (Op.LWL, Op.SWL):
                    assert ins.a in tracked


class TestReadstatsHoisting:
    def test_optimized_hoists_inner_readstats(self):
        _, _, base = annotate(NEST_SOURCE, AnnotationLevel.BASE)
        _, _, opt = annotate(NEST_SOURCE, AnnotationLevel.OPTIMIZED)

        class ReadCount(TraceListener):
            def __init__(self):
                self.reads = 0

            def on_readstats(self, loop_id, cycle):
                self.reads += 1

        def reads(ann):
            rec = ReadCount()
            run_program(ann.program, listener=rec)
            return rec.reads

        assert reads(base) > reads(opt)

    def test_every_annotated_loop_has_readstats_site(self):
        _, _, ann = annotate(NEST_SOURCE)
        sites = set()
        for fn in ann.program.functions.values():
            for ins in fn.code:
                if ins.op == Op.READSTATS:
                    sites.add(ins.a)
        assert sites == set(ann.annotated_loops)


class TestSpeculativeCompilation:
    def test_inductors_and_invariants_eliminated(self):
        program = compile_source(NEST_SOURCE)
        table = find_candidates(program)
        for cand in table.candidates():
            comp = compile_stl(cand)
            for slot in cand.scalar.inductors:
                assert comp.is_eliminated_local(0, slot)
            for slot in cand.scalar.carried:
                assert comp.is_forwarded_local(slot)
                assert not comp.is_eliminated_local(0, slot)

    def test_overheads_from_config(self):
        program = compile_source(NEST_SOURCE)
        table = find_candidates(program)
        comp = compile_stl(table.candidates()[0])
        assert comp.per_entry_overhead == 50
        assert comp.per_thread_overhead == 5
