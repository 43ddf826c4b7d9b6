"""Unit tests for the interpreter, heap, values, and cost model."""

import hashlib

import pytest

from repro.bytecode import BinOp, Op, UnOp
from repro.errors import ExecutionError, HeapError
from repro.lang import compile_source
from repro.runtime import (
    CostModel,
    Heap,
    LINE_SIZE,
    RecordingListener,
    TraceListener,
    WORD_SIZE,
    line_of,
    run_program,
)
from repro.runtime.values import apply_binop, apply_unop, java_div, java_mod


class TestValues:
    def test_java_div_signs(self):
        assert java_div(7, 2) == 3
        assert java_div(-7, 2) == -3
        assert java_div(7, -2) == -3
        assert java_div(-7, -2) == 3

    def test_java_mod_signs(self):
        assert java_mod(7, 3) == 1
        assert java_mod(-7, 3) == -1
        assert java_mod(7, -3) == 1
        assert java_mod(-7, -3) == -1

    def test_division_by_zero(self):
        with pytest.raises(ExecutionError):
            java_div(1, 0)
        with pytest.raises(ExecutionError):
            java_mod(1, 0)

    def test_float_division(self):
        assert java_div(7.0, 2) == 3.5

    def test_bitops_require_ints(self):
        with pytest.raises(ExecutionError):
            apply_binop(BinOp.AND, 1.5, 2)
        with pytest.raises(ExecutionError):
            apply_binop(BinOp.SHL, 1, 2.0)

    def test_negative_shift_rejected(self):
        with pytest.raises(ExecutionError):
            apply_binop(BinOp.SHL, 1, -1)

    def test_unops(self):
        assert apply_unop(UnOp.NEG, 5) == -5
        assert apply_unop(UnOp.NOT, 0) == 1
        assert apply_unop(UnOp.NOT, 9) == 0
        assert apply_unop(UnOp.INV, 0) == -1
        assert apply_unop(UnOp.I2F, 3) == 3.0
        assert apply_unop(UnOp.F2I, 3.9) == 3


#: operands of the sub-opcode table: ints of both signs, zero, floats
SUBOP_OPERANDS = (-7, -2, -1, 0, 1, 3, 64, 2.5, -0.5, 0.0)

#: SHA-256 prefix of each sub-opcode's outcome table (see
#: ``_subop_tables``), recorded when apply_binop/apply_unop still
#: compared ``sub`` against the BinOp/UnOp members; "?" rows are
#: unknown sub-opcodes
SUBOP_PINS = {
    "BIN.ADD": "e0b02d252dc23d6d",
    "BIN.SUB": "a832ebd2aca2bd10",
    "BIN.MUL": "d808f1d7b9d2f832",
    "BIN.DIV": "2ec62abd1bc8b55d",
    "BIN.MOD": "e3fcb1d8798e3ea6",
    "BIN.AND": "2d7013ed125efdce",
    "BIN.OR": "021c43d85d9b63e1",
    "BIN.XOR": "d02eadc812662a37",
    "BIN.SHL": "ed4d1f9993344d6f",
    "BIN.SHR": "340e73dbbbab17bf",
    "BIN.LT": "7c0bad986e478836",
    "BIN.LE": "fb683068e990f1fe",
    "BIN.GT": "f83d3c5584163c7a",
    "BIN.GE": "51324af807f3733c",
    "BIN.EQ": "b7a386acd6e41e29",
    "BIN.NE": "19d069a28ab90098",
    "UN.NEG": "3f86c458f15e9c78",
    "UN.NOT": "8b922a3b6e769e94",
    "UN.INV": "4a54832ce3a6cff9",
    "UN.I2F": "83fb9140f99fa49b",
    "UN.F2I": "7bb79c7e86932348",
    "BIN.?": "0d0b5d24b0f549c8",
    "UN.?": "439ff5782764e09d",
}


def _subop_outcome(fn, *args):
    try:
        value = fn(*args)
    except ExecutionError as exc:
        return ("raise", str(exc))
    return (type(value).__name__, repr(value))


def _subop_tables():
    """Sub-opcode -> its outcome (value with its type, or the error)
    over every operand (pair), with ``sub`` passed both as the enum
    member and as a plain int."""
    grid = SUBOP_OPERANDS
    tables = {}
    for op in BinOp:
        tables["BIN." + op.name] = [
            _subop_outcome(apply_binop, sub, a, b)
            for sub in (op, int(op)) for a in grid for b in grid]
    for op in UnOp:
        tables["UN." + op.name] = [
            _subop_outcome(apply_unop, sub, a)
            for sub in (op, int(op)) for a in grid]
    tables["BIN.?"] = [_subop_outcome(apply_binop, s, 1, 2)
                       for s in (0, 17)]
    tables["UN.?"] = [_subop_outcome(apply_unop, s, 1) for s in (0, 6)]
    return tables


class TestSubOpcodeTable:
    def test_every_sub_opcode_matches_its_pin(self):
        tables = _subop_tables()
        assert sorted(tables) == sorted(SUBOP_PINS)
        for name, rows in tables.items():
            digest = hashlib.sha256(repr(rows).encode()).hexdigest()
            assert digest[:16] == SUBOP_PINS[name], name

    def test_table_spot_checks(self):
        """A readable slice of the pinned tables."""
        tables = _subop_tables()
        n = len(SUBOP_OPERANDS)
        at = {v: i for i, v in enumerate(SUBOP_OPERANDS)}
        cell = at[-7] * n + at[3]
        assert tables["BIN.DIV"][cell] == ("int", "-2")
        assert tables["BIN.MOD"][cell] == ("int", "-1")
        assert tables["BIN.LT"][cell] == ("int", "1")
        assert tables["BIN.SHL"][at[1] * n + at[-1]] == (
            "raise", "negative shift count -1")
        assert tables["BIN.AND"][at[2.5] * n + at[1]][0] == "raise"
        assert tables["UN.F2I"][at[-0.5]] == ("int", "0")
        assert tables["BIN.?"][1] == ("raise",
                                      "unknown BIN sub-opcode 17")


class TestHeap:
    def test_allocation_and_access(self):
        heap = Heap()
        h = heap.allocate(4)
        heap.store(h, 0, 42)
        assert heap.load(h, 0) == 42
        assert heap.load(h, 1) == 0
        assert heap.length(h) == 4

    def test_bounds_checking(self):
        heap = Heap()
        h = heap.allocate(4)
        with pytest.raises(HeapError):
            heap.load(h, 4)
        with pytest.raises(HeapError):
            heap.store(h, -1, 0)

    def test_invalid_handle(self):
        heap = Heap()
        with pytest.raises(HeapError):
            heap.load(12345, 0)

    def test_negative_length(self):
        with pytest.raises(HeapError):
            Heap().allocate(-1)

    def test_float_length_rejected(self):
        with pytest.raises(HeapError):
            Heap().allocate(2.5)

    def test_addresses_line_aligned_and_disjoint(self):
        heap = Heap()
        a = heap.allocate(10)
        b = heap.allocate(10)
        assert a % LINE_SIZE == 0
        assert b % LINE_SIZE == 0
        # no overlap: last byte of a is before b
        assert a + 9 * WORD_SIZE + WORD_SIZE <= b

    def test_element_addresses(self):
        heap = Heap()
        a = heap.allocate(8)
        # the traced accessors report element k at handle + k * WORD_SIZE
        assert heap.store_addr(a, 3, 7) == a + 3 * WORD_SIZE
        assert heap.load_addr(a, 3) == (7, a + 3 * WORD_SIZE)
        assert line_of(a) == a // LINE_SIZE

    def test_zero_length_array_allowed(self):
        heap = Heap()
        a = heap.allocate(0)
        assert heap.length(a) == 0


class TestInterpreter:
    def test_deterministic_cycles(self):
        src = "func main() { var s = 0; for (var i = 0; i < 100; " \
              "i = i + 1) { s = s + i; } return s; }"
        p1 = compile_source(src)
        r1 = run_program(p1)
        r2 = run_program(compile_source(src))
        assert r1.cycles == r2.cycles
        assert r1.instructions == r2.instructions
        assert r1.return_value == r2.return_value == 4950

    def test_instruction_budget(self):
        src = "func main() { while (1) { } }"
        with pytest.raises(ExecutionError) as exc:
            run_program(compile_source(src), max_instructions=1000)
        assert "budget" in str(exc.value)

    def test_runtime_error_carries_location(self):
        src = "func main() { var a = array(2); return a[5]; }"
        with pytest.raises(ExecutionError) as exc:
            run_program(compile_source(src))
        assert "main" in str(exc.value)

    def test_division_by_zero_at_runtime(self):
        src = "func main() { var x = 0; return 1 / x; }"
        with pytest.raises(ExecutionError):
            run_program(compile_source(src))

    def test_print_collects(self):
        src = "func main() { print 1; print 2 + 3; return 0; }"
        assert run_program(compile_source(src)).printed == [1, 5]

    def test_deep_recursion_does_not_blow_host_stack(self):
        src = """
        func down(n) { if (n == 0) { return 0; } return down(n - 1); }
        func main() { return down(5000); }
        """
        assert run_program(compile_source(src)).return_value == 0

    def test_cost_model_scales_cycles(self):
        src = "func main() { var a = array(8); var s = 0; " \
              "for (var i = 0; i < 8; i = i + 1) { s = s + a[i]; } " \
              "return s; }"
        program = compile_source(src)
        cheap = run_program(program, cost_model=CostModel())
        pricey = run_program(
            program, cost_model=CostModel(op_costs={Op.ALOAD: 50}))
        assert pricey.cycles > cheap.cycles
        assert pricey.return_value == cheap.return_value

    def test_listener_sees_heap_events_in_order(self):
        src = "func main() { var a = array(2); a[0] = 1; a[1] = 2; " \
              "return a[0] + a[1]; }"
        rec = RecordingListener()
        run_program(compile_source(src), listener=rec)
        kinds = [e.kind for e in rec.mem]
        assert kinds == ["st", "st", "ld", "ld"]
        cycles = [e.cycle for e in rec.mem]
        assert cycles == sorted(cycles)

    @pytest.mark.parametrize("trace_jit", [False, True],
                             ids=["jit-off", "jit-on"])
    def test_load_event_carries_the_address_read(self, trace_jit):
        # ``t = a[t]`` compiles to an ALOAD whose destination is its own
        # index slot: the event must name the element read, not the one
        # the loaded value points at
        src = "func main() { var a = array(8); " \
              "for (var i = 0; i < 8; i = i + 1) { a[i] = (i + 3) % 8; } " \
              "var t = 0; for (var k = 0; k < 40; k = k + 1) " \
              "{ t = a[t]; } return t; }"
        rec = RecordingListener()
        res = run_program(compile_source(src), listener=rec,
                          trace_jit=trace_jit)
        (handle,) = res.heap.snapshot()
        loads = [e.address for e in rec.mem if e.kind == "ld"]
        want, t = [], 0
        for _ in range(40):
            want.append(handle + WORD_SIZE * t)
            t = (t + 3) % 8
        assert loads == want

    def test_heap_state_in_result(self):
        src = "func main() { var a = array(3); a[2] = 9; return 0; }"
        res = run_program(compile_source(src))
        snapshot = res.heap.snapshot()
        assert list(snapshot.values()) == [[0, 0, 9]]


class TestDispatchPaths:
    """The interpreter has two specialized loops — no-listener and
    traced — plus batched memory-event delivery.  They must agree with
    each other on every observable."""

    MEMORY_HEAVY = """
    func main() {
      var a = array(512);
      var s = 0;
      for (var r = 0; r < 8; r = r + 1) {
        for (var i = 0; i < 512; i = i + 1) {
          a[i] = (a[(i + 37) % 512] + r * i) % 9973;
        }
      }
      for (var i = 0; i < 512; i = i + 1) { s = (s + a[i]) % 65536; }
      return s;
    }
    """

    def test_fast_and_traced_paths_agree(self):
        program = compile_source(self.MEMORY_HEAVY)
        fast = run_program(program)
        rec = RecordingListener()
        traced = run_program(program, listener=rec)
        assert fast.return_value == traced.return_value
        assert fast.cycles == traced.cycles
        assert fast.instructions == traced.instructions
        assert fast.heap.snapshot() == traced.heap.snapshot()
        # enough events to cross several flush boundaries, in cycle order
        assert len(rec.mem) > 2048
        cycles = [e.cycle for e in rec.mem]
        assert cycles == sorted(cycles)

    def test_errors_agree_across_paths(self):
        src = "func main() { var a = array(4); var i = 0; " \
              "while (1) { a[i] = i; i = i + 1; } }"
        program = compile_source(src)
        with pytest.raises(ExecutionError) as fast_exc:
            run_program(program)
        with pytest.raises(ExecutionError) as traced_exc:
            run_program(program, listener=RecordingListener())
        assert str(fast_exc.value) == str(traced_exc.value)
        assert "main" in str(fast_exc.value)

    def test_events_before_error_are_flushed(self):
        src = "func main() { var a = array(4); a[0] = 7; a[9] = 1; " \
              "return 0; }"
        rec = RecordingListener()
        with pytest.raises(ExecutionError):
            run_program(compile_source(src), listener=rec)
        assert [e.kind for e in rec.mem] == ["st"]

    @pytest.mark.parametrize("trace_jit", [False, True],
                             ids=["jit-off", "jit-on"])
    def test_listener_error_does_not_redeliver_batch(self, trace_jit):
        # a listener that raises has already been handed its batch: the
        # error path must not deliver the same events a second time
        class Refuses(TraceListener):
            def __init__(self):
                self.batches = []

            def on_mem_batch(self, events):
                self.batches.append(list(events))
                raise RuntimeError("listener failed")

        refuses = Refuses()
        with pytest.raises(RuntimeError):
            run_program(compile_source(self.MEMORY_HEAVY),
                        listener=refuses, trace_jit=trace_jit)
        assert len(refuses.batches) == 1
        assert len(refuses.batches[0]) >= 512

    def test_rerun_same_interpreter_instance(self):
        from repro.runtime.interpreter import Interpreter
        program = compile_source(self.MEMORY_HEAVY)
        interp = Interpreter(program)
        first = interp.run()
        second = interp.run()
        assert first.return_value == second.return_value
        assert first.cycles == second.cycles


class TestPatchCost:
    MUL_LOOP = "func main() { var s = 1; " \
               "for (var i = 0; i < 50; i = i + 1) " \
               "{ s = (s * 3) % 1000003; } return s; }"

    def _mul_site(self, program):
        fn = program.functions["main"]
        for pc, ins in enumerate(fn.code):
            if ins.op == Op.BIN and ins.sub == int(BinOp.MUL):
                return fn, pc
        raise AssertionError("no MUL emitted")

    def test_identity_repatch_keeps_cycles(self):
        # re-pricing an instruction as itself must be a no-op; the old
        # patch_cost dropped the sub operand, so a BIN MUL site fell
        # from the 4-cycle multiply cost to the 1-cycle default
        from repro.runtime.interpreter import Interpreter
        program = compile_source(self.MUL_LOOP)
        fn, pc = self._mul_site(program)
        interp = Interpreter(program)
        baseline = interp.run()
        interp.patch_cost(fn.name, pc, fn.code[pc].op, fn.code[pc].sub)
        assert interp.run().cycles == baseline.cycles

    def test_patched_cost_uses_sub_opcode(self):
        from repro.runtime.costs import DEFAULT_COSTS
        from repro.runtime.interpreter import Interpreter
        program = compile_source(self.MUL_LOOP)
        fn, pc = self._mul_site(program)
        interp = Interpreter(program)
        interp.run()
        interp.patch_cost(fn.name, pc, Op.BIN, int(BinOp.MUL))
        priced = interp._cost_cache[fn.name][pc]
        assert priced == DEFAULT_COSTS.bin_costs[BinOp.MUL]
        assert priced != DEFAULT_COSTS.bin_costs[BinOp.ADD]

    def test_patch_to_nop_changes_timing_and_decode(self):
        from repro.bytecode.instructions import Instr
        from repro.runtime.interpreter import Interpreter
        program = compile_source(self.MUL_LOOP)
        fn, pc = self._mul_site(program)
        interp = Interpreter(program)
        baseline = interp.run()
        # emulate ProfilingRuntime: overwrite the site and re-price it
        fn.code[pc] = Instr(Op.NOP)
        interp.patch_cost(fn.name, pc, Op.NOP, fn.code[pc].sub)
        patched = interp.run()
        assert patched.cycles < baseline.cycles
