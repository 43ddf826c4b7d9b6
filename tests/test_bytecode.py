"""Unit tests for the bytecode layer: builder, verifier, disassembler."""

import pytest

from repro.bytecode import (
    BinOp,
    Function,
    FunctionBuilder,
    Instr,
    Op,
    Program,
    UnOp,
    disassemble,
    disassemble_function,
    find_unreachable,
    verify_function,
    verify_program,
)
from repro.errors import BytecodeError, CodegenError
from repro.runtime import run_program


def count_to_ten():
    b = FunctionBuilder("main")
    i = b.named_local("i")
    b.const(i, 0)
    top = b.label()
    body = b.label()
    done = b.label()
    b.mark(top)
    limit = b.temp()
    b.const(limit, 10)
    cond = b.temp()
    b.binop(BinOp.LT, cond, i, limit)
    b.br(cond, body, done)
    b.mark(body)
    one = b.temp()
    b.const(one, 1)
    b.binop(BinOp.ADD, i, i, one)
    b.jmp(top)
    b.mark(done)
    b.ret(i)
    return b.build()


class TestBuilder:
    def test_forward_label_fixups(self):
        fn = count_to_ten()
        program = Program()
        program.add(fn)
        verify_program(program)
        assert run_program(program).return_value == 10

    def test_unmarked_label_rejected(self):
        b = FunctionBuilder("f")
        lab = b.label()
        b.jmp(lab)
        with pytest.raises(CodegenError):
            b.build()

    def test_label_marked_twice_rejected(self):
        b = FunctionBuilder("f")
        lab = b.label()
        b.mark(lab)
        with pytest.raises(CodegenError):
            b.mark(lab)

    def test_named_local_after_temp_rejected(self):
        b = FunctionBuilder("f")
        b.temp()
        with pytest.raises(CodegenError):
            b.named_local("x")

    def test_named_local_idempotent(self):
        b = FunctionBuilder("f")
        assert b.named_local("x") == b.named_local("x")

    def test_params_are_named_locals(self):
        b = FunctionBuilder("f", ("a", "b"))
        assert b.lookup("a") == 0
        assert b.lookup("b") == 1

    def test_unknown_local_lookup(self):
        b = FunctionBuilder("f")
        with pytest.raises(CodegenError):
            b.lookup("nope")

    def test_build_twice_rejected(self):
        b = FunctionBuilder("f")
        b.ret()
        b.build()
        with pytest.raises(CodegenError):
            b.build()

    def test_unknown_intrinsic_rejected(self):
        b = FunctionBuilder("f")
        with pytest.raises(CodegenError):
            b.intrin(0, "frobnicate", (1,))


class TestVerifier:
    def _fn(self, *instrs):
        fn = Function("f")
        fn.code = list(instrs)
        return fn

    def test_empty_function_rejected(self):
        with pytest.raises(BytecodeError):
            verify_function(self._fn())

    def test_fallthrough_end_rejected(self):
        with pytest.raises(BytecodeError):
            verify_function(self._fn(Instr(Op.NOP)))

    def test_branch_target_out_of_range(self):
        with pytest.raises(BytecodeError):
            verify_function(self._fn(Instr(Op.JMP, a=5)))

    def test_negative_slot_rejected(self):
        with pytest.raises(BytecodeError):
            verify_function(self._fn(
                Instr(Op.MOV, a=-1, b=0), Instr(Op.RET)))

    @pytest.mark.parametrize("ins", [
        Instr(Op.CONST, a=1 << 14, imm=0),
        Instr(Op.MOV, a=0, b=1 << 14),
        Instr(Op.PRINT, a=1 << 14),
    ], ids=["const-dst", "mov-src", "print"])
    def test_slot_beyond_local_address_range_rejected(self, ins):
        # a local's trace address holds slot * 4 in 16 bits: slot 16384
        # would alias slot 0 of the next frame
        program = Program()
        main = Function("main")
        main.code = [ins, Instr(Op.RET)]
        program.add(main)
        with pytest.raises(BytecodeError, match="not below 16384"):
            verify_program(program)

    def test_largest_slot_accepted(self):
        program = Program()
        main = Function("main")
        main.code = [Instr(Op.CONST, a=(1 << 14) - 1, imm=0),
                     Instr(Op.RET, a=(1 << 14) - 1)]
        program.add(main)
        verify_program(program)

    def test_call_and_ret_slots_bounded(self):
        for ins in (Instr(Op.CALL, a=1 << 14, name="main"),
                    Instr(Op.RET, a=1 << 14)):
            with pytest.raises(BytecodeError):
                verify_function(self._fn(ins, Instr(Op.RET)))

    def test_bad_bin_subopcode(self):
        with pytest.raises(BytecodeError):
            verify_function(self._fn(
                Instr(Op.BIN, sub=99, a=0, b=0, c=0), Instr(Op.RET)))

    def test_const_immediate_must_be_number(self):
        with pytest.raises(BytecodeError):
            verify_function(self._fn(
                Instr(Op.CONST, a=0, imm="hello"), Instr(Op.RET)))

    def test_lwl_on_temporary_rejected(self):
        fn = self._fn(Instr(Op.LWL, a=3), Instr(Op.RET))
        fn.n_named = 1
        with pytest.raises(BytecodeError):
            verify_function(fn)

    def test_eoi_without_sloop_rejected(self):
        with pytest.raises(BytecodeError):
            verify_function(self._fn(Instr(Op.EOI, a=0), Instr(Op.RET)))

    def test_call_arity_checked_against_program(self):
        program = Program()
        callee = Function("g", n_params=2)
        callee.code = [Instr(Op.RET)]
        program.functions["g"] = callee
        fn = self._fn(Instr(Op.CALL, a=-1, name="g", args=(0,)),
                      Instr(Op.RET))
        with pytest.raises(BytecodeError):
            verify_function(fn, program)

    def test_missing_entry(self):
        with pytest.raises(BytecodeError):
            verify_program(Program(entry="nope"))

    def test_entry_with_params_rejected(self):
        program = Program()
        fn = Function("main", n_params=1)
        fn.code = [Instr(Op.RET)]
        program.add(fn)
        with pytest.raises(BytecodeError):
            verify_program(program)


class TestProgramAndDisasm:
    def test_duplicate_function_rejected(self):
        program = Program()
        program.add(Function("f"))
        with pytest.raises(BytecodeError):
            program.add(Function("f"))

    def test_unknown_function_lookup(self):
        with pytest.raises(BytecodeError):
            Program().function("f")

    def test_n_slots_covers_all_operands(self):
        fn = count_to_ten()
        assert fn.n_slots >= 4

    def test_disassembly_mentions_names_and_targets(self):
        fn = count_to_ten()
        text = disassemble_function(fn)
        assert "i(s0)" in text
        assert "br" in text and "jmp" in text
        assert ">" in text  # branch-target markers

    def test_disassemble_program_entry_first(self, nest_program):
        text = disassemble(nest_program)
        assert text.startswith("func main")

    def test_every_opcode_renders(self):
        ins = [
            Instr(Op.CONST, a=0, imm=1),
            Instr(Op.MOV, a=0, b=1),
            Instr(Op.BIN, sub=int(BinOp.ADD), a=0, b=1, c=2),
            Instr(Op.UN, sub=int(UnOp.NEG), a=0, b=1),
            Instr(Op.NEWARR, a=0, b=1),
            Instr(Op.ALOAD, a=0, b=1, c=2),
            Instr(Op.ASTORE, a=0, b=1, c=2),
            Instr(Op.LEN, a=0, b=1),
            Instr(Op.JMP, a=0),
            Instr(Op.BR, a=0, b=1, c=2),
            Instr(Op.CALL, a=0, name="f", args=(1,)),
            Instr(Op.RET, a=0),
            Instr(Op.INTRIN, a=0, name="sqrt", args=(1,)),
            Instr(Op.SLOOP, a=0, b=1),
            Instr(Op.EOI, a=0),
            Instr(Op.ELOOP, a=0),
            Instr(Op.LWL, a=0),
            Instr(Op.SWL, a=0),
            Instr(Op.READSTATS, a=0),
            Instr(Op.PRINT, a=0),
            Instr(Op.NOP),
        ]
        for i in ins:
            assert i.render()

    def test_instr_copy_is_independent(self):
        a = Instr(Op.JMP, a=3)
        b = a.copy()
        b.a = 7
        assert a.a == 3


class TestVerifierOperands:
    """Malformed-operand paths not covered by TestVerifier."""

    def _fn(self, *instrs):
        fn = Function("f")
        fn.code = list(instrs)
        return fn

    def test_bad_un_subopcode(self):
        with pytest.raises(BytecodeError):
            verify_function(self._fn(
                Instr(Op.UN, sub=99, a=0, b=0), Instr(Op.RET)))

    def test_astore_negative_index_slot(self):
        with pytest.raises(BytecodeError):
            verify_function(self._fn(
                Instr(Op.ASTORE, a=0, b=-1, c=0), Instr(Op.RET)))

    def test_call_to_unknown_function(self):
        program = Program()
        fn = self._fn(Instr(Op.CALL, a=-1, name="nope", args=()),
                      Instr(Op.RET))
        with pytest.raises(BytecodeError):
            verify_function(fn, program)

    def test_unknown_intrinsic_name(self):
        with pytest.raises(BytecodeError):
            verify_function(self._fn(
                Instr(Op.INTRIN, a=0, name="nope", args=()),
                Instr(Op.RET)))

    def test_annotation_negative_loop_id(self):
        with pytest.raises(BytecodeError):
            verify_function(self._fn(
                Instr(Op.SLOOP, a=-1), Instr(Op.RET)))


class TestUnreachable:
    """Dead-code detection: rewriting passes must never orphan live
    code, while codegen's legal dead padding stays tolerated."""

    def _fn(self, *instrs):
        fn = Function("f")
        fn.code = list(instrs)
        return fn

    def test_fully_reachable_function(self):
        assert find_unreachable(count_to_ten()) == []

    def test_reports_skipped_pcs(self):
        fn = self._fn(Instr(Op.JMP, a=2), Instr(Op.NOP),
                      Instr(Op.RET))
        assert find_unreachable(fn) == [1]

    def test_ret_stops_the_walk(self):
        fn = self._fn(Instr(Op.RET), Instr(Op.NOP), Instr(Op.RET))
        assert find_unreachable(fn) == [1, 2]

    def test_live_dead_block_rejected_when_strict(self):
        fn = self._fn(
            Instr(Op.CONST, a=0, imm=1),
            Instr(Op.RET, a=0),
            Instr(Op.BIN, sub=BinOp.ADD, a=0, b=0, c=0),  # stranded
            Instr(Op.RET, a=0))
        verify_function(fn)  # tolerant by default
        with pytest.raises(BytecodeError) as exc:
            verify_function(fn, reject_unreachable=True)
        assert "unreachable block of live code" in str(exc.value)
        assert "pc(s) 2" in str(exc.value)

    def test_dead_nop_and_ret_padding_tolerated(self):
        fn = self._fn(Instr(Op.JMP, a=2), Instr(Op.NOP),
                      Instr(Op.RET), Instr(Op.RET))
        verify_function(fn, reject_unreachable=True)

    def test_implicit_return_epilogue_tolerated(self):
        # codegen's implicit `return 0` after exhaustive source returns
        fn = self._fn(
            Instr(Op.CONST, a=0, imm=7),
            Instr(Op.RET, a=0),
            Instr(Op.CONST, a=1, imm=0),
            Instr(Op.RET, a=1))
        verify_function(fn, reject_unreachable=True)

    def test_dead_const_outside_the_epilogue_rejected(self):
        # the CONST tolerance is trailing-suffix only
        fn = self._fn(
            Instr(Op.JMP, a=2),
            Instr(Op.CONST, a=0, imm=1),  # stranded mid-function
            Instr(Op.CONST, a=0, imm=0),
            Instr(Op.RET, a=0))
        with pytest.raises(BytecodeError):
            verify_function(fn, reject_unreachable=True)

    def test_codegen_output_passes_strict_program_verify(self):
        from repro.lang import compile_source

        program = compile_source(
            "func main() {"
            "  if (1 < 2) { return 1; } else { return 2; }"
            "}")
        verify_program(program, reject_unreachable=True)
