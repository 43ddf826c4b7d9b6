"""Pass-pipeline tests: effects tables, differential equivalence and
LICM hoist-safety barriers.

The differential class is the optimizer's ground truth: every bundled
workload must produce the exact same observable behaviour (return
value, printed output, final heap) optimized and not, with a dynamic
instruction count that never increases — the same contract the
conformance suite's ``KIND_OPT_REGRESSION`` gate enforces on fuzzed
programs.
"""

from __future__ import annotations

import pytest

from repro.bytecode import (BinOp, FunctionBuilder, Instr, Op, Program,
                            UnOp, verify_program)
from repro.errors import BytecodeError
from repro.jit.effects import instr_reads, instr_writes
from repro.jit.licm import licm_function
from repro.jit.lvn import lvn_function
from repro.jit.optimize import OptimizeStats, optimize_program
from repro.runtime import run_program
from repro.workloads import workload_names, get_workload


# ---------------------------------------------------------------------------
# effects: the read/write tables are exhaustive over the ISA
# ---------------------------------------------------------------------------

def _plausible_instr(op: Op) -> Instr:
    """A well-formed instance of ``op`` for table coverage."""
    if op == Op.CONST:
        return Instr(op, a=0, imm=1)
    if op == Op.BIN:
        return Instr(op, sub=int(BinOp.ADD), a=0, b=1, c=2)
    if op == Op.UN:
        return Instr(op, sub=int(UnOp.NEG), a=0, b=1)
    if op == Op.CALL:
        return Instr(op, a=0, name="f", args=(1, 2))
    if op == Op.INTRIN:
        return Instr(op, a=0, name="abs", args=(1,))
    return Instr(op, a=0, b=1, c=2)


class TestEffects:
    @pytest.mark.parametrize("op", list(Op))
    def test_every_opcode_is_classified(self, op):
        # a new Op member without an effects entry must fail loudly in
        # this test, not silently mis-optimize — both tables raise on
        # anything they don't know
        ins = _plausible_instr(op)
        reads = instr_reads(ins)
        writes = instr_writes(ins)
        assert isinstance(reads, list)
        assert writes is None or isinstance(writes, int)

    def test_unhandled_opcode_raises(self):
        ins = _plausible_instr(Op.NOP)
        ins.op = 9999  # not an Op member
        with pytest.raises(BytecodeError, match="unhandled opcode"):
            instr_reads(ins)
        with pytest.raises(BytecodeError, match="unhandled opcode"):
            instr_writes(ins)

    def test_call_reads_args_and_writes_dst(self):
        ins = Instr(Op.CALL, a=4, name="f", args=(7, 8))
        assert instr_reads(ins) == [7, 8]
        assert instr_writes(ins) == 4
        ins_void = Instr(Op.CALL, a=-1, name="f", args=())
        assert instr_writes(ins_void) is None


# ---------------------------------------------------------------------------
# differential: optimized == unoptimized on every bundled workload
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", workload_names())
def test_workload_differential(name):
    program = get_workload(name).compile()
    clone = program.copy()
    optimize_program(clone)  # verifies after every pass internally
    verify_program(clone)
    base = run_program(program)
    opt = run_program(clone)
    assert opt.return_value == base.return_value
    assert opt.printed == base.printed
    assert opt.heap.snapshot() == base.heap.snapshot()
    # every rewrite is 1:1, removing, or motion into a dominating
    # preheader: the dynamic count may only go down
    assert opt.instructions <= base.instructions


# ---------------------------------------------------------------------------
# LICM: what hoists, and every barrier that stops a hoist
# ---------------------------------------------------------------------------

def _counting_loop(build_body, result_slot=None):
    """``for (i = 0; i < 10; i++) { body }`` built by hand so each test
    controls exactly what sits in the header and body blocks."""
    b = FunctionBuilder("main")
    i, n, one, t = (b.temp() for _ in range(4))
    header, body, done = b.label(), b.label(), b.label()
    slots = {"b": b, "i": i, "n": n, "one": one}
    b.const(i, 0)
    b.const(n, 10)
    b.const(one, 1)
    pre_extra = build_body(slots, "pre")
    b.jmp(header)
    b.mark(header)
    build_body(slots, "header")
    b.binop(BinOp.LT, t, i, n)
    b.br(t, body, done)
    b.mark(body)
    build_body(slots, "body")
    b.binop(BinOp.ADD, i, i, one)
    b.jmp(header)
    b.mark(done)
    ret = result_slot(slots) if result_slot else i
    b.ret(ret)
    del pre_extra
    fn = b.build()
    program = Program()
    program.add(fn)
    return program, fn


def _licm(fn):
    stats = OptimizeStats()
    changed = licm_function(fn, stats)
    return changed, stats


class TestLicmBarriers:
    def test_invariant_header_op_hoists(self):
        acc = {}

        def body(s, where):
            if where == "header":
                if "inv" not in acc:
                    acc["inv"] = s["b"].temp()
                s["b"].binop(BinOp.ADD, acc["inv"], s["n"], s["n"])

        program, fn = _counting_loop(body, result_slot=lambda s: acc["inv"])
        base = run_program(program.copy())
        changed, stats = _licm(fn)
        assert changed and stats.licm_hoisted == 1
        verify_program(program)
        opt = run_program(program)
        assert opt.return_value == base.return_value == 20
        assert opt.instructions < base.instructions

    def test_variant_operand_blocks_hoist(self):
        # t2 = i + n reads the induction variable: never invariant
        def body(s, where):
            if where == "header":
                if "t2" not in s:
                    s["t2"] = s["b"].temp()
                s["b"].binop(BinOp.ADD, s["t2"], s["i"], s["n"])

        program, fn = _counting_loop(body)
        changed, stats = _licm(fn)
        assert stats.licm_hoisted == 0

    def test_body_op_not_count_safe(self):
        # the body does not dominate the exit-edge source (the header):
        # a zero-trip loop would execute a hoisted copy it never ran
        def body(s, where):
            if where == "body":
                if "inv" not in s:
                    s["inv"] = s["b"].temp()
                s["b"].binop(BinOp.ADD, s["inv"], s["n"], s["n"])

        program, fn = _counting_loop(body)
        changed, stats = _licm(fn)
        assert stats.licm_hoisted == 0

    def test_store_in_loop_blocks_aload_hoist(self):
        arr = {}

        def body(s, where):
            b = s["b"]
            if where == "pre":
                arr["a"], arr["x"], ln = b.temp(), b.temp(), b.temp()
                b.const(ln, 4)
                b.newarr(arr["a"], ln)
            elif where == "header":
                b.aload(arr["x"], arr["a"], s["one"])
            elif where == "body":
                b.astore(arr["a"], s["one"], s["i"])

        program, fn = _counting_loop(body)
        changed, stats = _licm(fn)
        assert stats.licm_hoisted == 0

    def test_call_in_loop_blocks_aload_hoist(self):
        arr = {}

        def body(s, where):
            b = s["b"]
            if where == "pre":
                arr["a"], arr["x"], ln = b.temp(), b.temp(), b.temp()
                b.const(ln, 4)
                b.newarr(arr["a"], ln)
            elif where == "header":
                b.aload(arr["x"], arr["a"], s["one"])
            elif where == "body":
                b.call(-1, "poke", (arr["a"],))

        def build(s, where):
            return body(s, where)

        b = FunctionBuilder("poke", ("a",))
        b.ret()
        poke = b.build()
        program, fn = _counting_loop(build)
        program.add(poke)
        changed, stats = _licm(fn)
        assert stats.licm_hoisted == 0

    def test_aload_hoists_when_loop_is_heap_readonly(self):
        arr = {}

        def body(s, where):
            b = s["b"]
            if where == "pre":
                arr["a"], arr["x"], ln = b.temp(), b.temp(), b.temp()
                b.const(ln, 4)
                b.newarr(arr["a"], ln)
            elif where == "header":
                b.aload(arr["x"], arr["a"], s["one"])

        program, fn = _counting_loop(body)
        changed, stats = _licm(fn)
        assert stats.licm_hoisted >= 1
        verify_program(program)
        assert run_program(program).return_value == 10

    def test_observable_before_faulting_op_blocks_hoist(self):
        # PRINT, then an invariant DIV in the same block: hoisting the
        # DIV would fault before output the plain program produced
        def body(s, where):
            b = s["b"]
            if where == "header":
                if "q" not in s:
                    s["q"] = b.temp()
                b.print_(s["n"])
                b.binop(BinOp.DIV, s["q"], s["n"], s["one"])

        program, fn = _counting_loop(body)
        changed, stats = _licm(fn)
        assert stats.licm_hoisted == 0

    def test_faulting_op_hoists_without_observable(self):
        def body(s, where):
            b = s["b"]
            if where == "header":
                if "q" not in s:
                    s["q"] = b.temp()
                b.binop(BinOp.DIV, s["q"], s["n"], s["one"])

        program, fn = _counting_loop(body, result_slot=lambda s: s["q"])
        base = run_program(program.copy())
        changed, stats = _licm(fn)
        assert stats.licm_hoisted == 1
        verify_program(program)
        assert run_program(program).return_value == base.return_value == 10

    def test_annotated_function_is_skipped_wholesale(self):
        def body(s, where):
            if where == "header":
                if "inv" not in s:
                    s["inv"] = s["b"].temp()
                s["b"].binop(BinOp.ADD, s["inv"], s["n"], s["n"])

        program, fn = _counting_loop(body)
        fn.code.insert(0, Instr(Op.SLOOP, a=0))
        for pass_fn in (licm_function, lvn_function):
            stats = OptimizeStats()
            assert pass_fn(fn, stats) is False
            assert stats.total == 0
