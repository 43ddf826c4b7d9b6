"""Bytecode verifier.

Checks structural invariants the interpreter, CFG builder, and annotating
JIT rely on.  Run after codegen and after every rewriting pass; a verifier
failure always indicates a library bug, never a user-program bug.
"""

from __future__ import annotations

from typing import List

from repro.bytecode.opcodes import ANNOTATION_OPS, INTRINSICS, BinOp, Op, UnOp
from repro.bytecode.program import MAX_SLOTS, Function, Program
from repro.errors import BytecodeError


def find_unreachable(fn: Function) -> List[int]:
    """Program counters that no path from pc 0 can reach.

    Control flows pc+1 except through ``JMP``/``BR`` (explicit targets)
    and ``RET`` (no successor).  Codegen legitimately emits a little
    dead *padding* — a trailing ``RET`` after a body whose every path
    already returns, or ``NOP``s left by rewriting passes — so callers
    that want rejection should filter on opcode (see
    :func:`verify_function`'s ``reject_unreachable``).
    """
    code = fn.code
    n = len(code)
    seen = [False] * n
    work = [0] if n else []
    while work:
        pc = work.pop()
        if pc < 0 or pc >= n or seen[pc]:
            continue
        seen[pc] = True
        op = code[pc].op
        if op == Op.RET:
            continue
        if op == Op.JMP:
            work.append(code[pc].a)
        elif op == Op.BR:
            work.append(code[pc].b)
            work.append(code[pc].c)
        else:
            work.append(pc + 1)
    return [pc for pc in range(n) if not seen[pc]]


#: opcodes tolerated in unreachable positions even under
#: ``reject_unreachable`` (structural padding, not live code):
#: stray ``RET``/``NOP``, plus ``JMP`` — codegen emits a dead join
#: jump after an ``if`` arm whose every path already returned, and a
#: jump computes nothing, so a dead one can never be orphaned work
_DEAD_PADDING_OPS = (Op.RET, Op.NOP, Op.JMP)

#: additionally tolerated in an unreachable *trailing* suffix only:
#: codegen ends every function with an implicit ``return 0`` epilogue
#: (``CONST x, 0; RET x``), dead when every source path returns
_DEAD_EPILOGUE_OPS = (Op.RET, Op.NOP, Op.CONST)


def verify_function(fn: Function, program: Program = None,
                    reject_unreachable: bool = False) -> None:
    """Raise :class:`BytecodeError` if ``fn`` is malformed.

    Invariants checked:

    * code is non-empty and every path ends in a terminator (the last
      instruction is ``RET``/``JMP``/``BR`` so the pc never falls off);
    * branch targets are in range;
    * slot operands are non-negative where required, and below
      :data:`~repro.bytecode.program.MAX_SLOTS`;
    * BIN/UN sub-opcodes are valid;
    * CALL targets exist when ``program`` is provided;
    * intrinsic names are known;
    * annotation instructions reference plausible loop ids / slots;
    * with ``reject_unreachable``, no unreachable block of live
      instructions exists — rewriting passes must not orphan code they
      meant to keep.  Off by default because codegen's dead padding is
      legal: stray ``RET``/``NOP``, dead join jumps after
      returning ``if`` arms, plus the implicit ``return 0`` epilogue
      (``CONST``/``RET`` trailing suffix) emitted after a body whose
      every path returns.  The conformance fuzz campaign turns it on.
    """
    code = fn.code
    if not code:
        raise BytecodeError("%s: empty function body" % fn.name)
    n = len(code)
    last = code[-1]
    if last.op not in (Op.RET, Op.JMP, Op.BR):
        raise BytecodeError(
            "%s: falls off the end (last op %s)" % (fn.name, last.op.name))

    def check_target(pc: int, target: int) -> None:
        if not 0 <= target < n:
            raise BytecodeError(
                "%s: pc=%d branch target %d out of range [0,%d)"
                % (fn.name, pc, target, n))

    def check_slot(pc: int, slot: int, what: str) -> None:
        if slot < 0:
            raise BytecodeError(
                "%s: pc=%d negative %s slot %d" % (fn.name, pc, what, slot))
        if slot >= MAX_SLOTS:
            raise BytecodeError(
                "%s: pc=%d %s slot %d is not below %d"
                % (fn.name, pc, what, slot, MAX_SLOTS))

    for pc, ins in enumerate(code):
        op = ins.op
        if op == Op.CONST:
            check_slot(pc, ins.a, "dst")
            if not isinstance(ins.imm, (int, float)):
                raise BytecodeError(
                    "%s: pc=%d CONST immediate %r is not a number"
                    % (fn.name, pc, ins.imm))
        elif op == Op.MOV:
            check_slot(pc, ins.a, "dst")
            check_slot(pc, ins.b, "src")
        elif op == Op.BIN:
            try:
                BinOp(ins.sub)
            except ValueError:
                raise BytecodeError(
                    "%s: pc=%d bad BIN sub-opcode %d"
                    % (fn.name, pc, ins.sub)) from None
            check_slot(pc, ins.a, "dst")
            check_slot(pc, ins.b, "lhs")
            check_slot(pc, ins.c, "rhs")
        elif op == Op.UN:
            try:
                UnOp(ins.sub)
            except ValueError:
                raise BytecodeError(
                    "%s: pc=%d bad UN sub-opcode %d"
                    % (fn.name, pc, ins.sub)) from None
            check_slot(pc, ins.a, "dst")
            check_slot(pc, ins.b, "src")
        elif op == Op.NEWARR:
            check_slot(pc, ins.a, "dst")
            check_slot(pc, ins.b, "length")
        elif op == Op.ALOAD:
            check_slot(pc, ins.a, "dst")
            check_slot(pc, ins.b, "array")
            check_slot(pc, ins.c, "index")
        elif op == Op.ASTORE:
            check_slot(pc, ins.a, "array")
            check_slot(pc, ins.b, "index")
            check_slot(pc, ins.c, "src")
        elif op == Op.LEN:
            check_slot(pc, ins.a, "dst")
            check_slot(pc, ins.b, "array")
        elif op == Op.JMP:
            check_target(pc, ins.a)
        elif op == Op.BR:
            check_slot(pc, ins.a, "cond")
            check_target(pc, ins.b)
            check_target(pc, ins.c)
        elif op == Op.CALL:
            if program is not None and ins.name not in program.functions:
                raise BytecodeError(
                    "%s: pc=%d call to unknown function %r"
                    % (fn.name, pc, ins.name))
            if program is not None:
                callee = program.functions.get(ins.name)
                if callee is not None and len(ins.args) != callee.n_params:
                    raise BytecodeError(
                        "%s: pc=%d call to %s with %d args, expects %d"
                        % (fn.name, pc, ins.name, len(ins.args),
                           callee.n_params))
            if ins.a >= 0:
                check_slot(pc, ins.a, "dst")
            for slot in ins.args:
                check_slot(pc, slot, "arg")
        elif op == Op.INTRIN:
            if ins.name not in INTRINSICS:
                raise BytecodeError(
                    "%s: pc=%d unknown intrinsic %r"
                    % (fn.name, pc, ins.name))
            check_slot(pc, ins.a, "dst")
            for slot in ins.args:
                check_slot(pc, slot, "arg")
        elif op == Op.RET:
            if ins.a >= 0:  # a may be -1 (void)
                check_slot(pc, ins.a, "src")
        elif op in (Op.SLOOP, Op.EOI, Op.ELOOP, Op.READSTATS):
            if ins.a < 0:
                raise BytecodeError(
                    "%s: pc=%d annotation with negative loop id"
                    % (fn.name, pc))
        elif op in (Op.LWL, Op.SWL):
            check_slot(pc, ins.a, "local")
            if ins.a >= fn.n_named:
                raise BytecodeError(
                    "%s: pc=%d %s annotates temporary slot %d"
                    % (fn.name, pc, op.name, ins.a))
        elif op == Op.PRINT:
            check_slot(pc, ins.a, "src")
        elif op == Op.NOP:
            pass
        else:  # pragma: no cover - exhaustive over Op
            raise BytecodeError(
                "%s: pc=%d unknown opcode %r" % (fn.name, pc, op))

    _check_loop_annotations(fn)

    if reject_unreachable:
        unreachable = find_unreachable(fn)
        deadset = set(unreachable)
        tail = n
        while tail - 1 in deadset \
                and code[tail - 1].op in _DEAD_EPILOGUE_OPS:
            tail -= 1
        dead = [pc for pc in unreachable if pc < tail
                and code[pc].op not in _DEAD_PADDING_OPS]
        if dead:
            raise BytecodeError(
                "%s: unreachable block of live code at pc(s) %s"
                % (fn.name, ", ".join(str(pc) for pc in dead)))


def _check_loop_annotations(fn: Function) -> None:
    """SLOOP/ELOOP must reference consistent loop ids.

    The tracer requires that every ``EOI``/``ELOOP``/``READSTATS`` names a
    loop id that some ``SLOOP`` in the same function also names.  (Proper
    nesting is a dynamic property enforced by the TEST device itself.)
    """
    started = set()
    referenced: List[tuple] = []
    for pc, ins in enumerate(fn.code):
        if ins.op == Op.SLOOP:
            started.add(ins.a)
        elif ins.op in (Op.EOI, Op.ELOOP, Op.READSTATS):
            referenced.append((pc, ins.op, ins.a))
    for pc, op, loop_id in referenced:
        if loop_id not in started:
            raise BytecodeError(
                "%s: pc=%d %s references loop L%d with no SLOOP"
                % (fn.name, pc, op.name, loop_id))


def verify_program(program: Program,
                   reject_unreachable: bool = False) -> None:
    """Verify every function plus program-level invariants."""
    if program.entry not in program.functions:
        raise BytecodeError("missing entry function %r" % program.entry)
    entry = program.functions[program.entry]
    if entry.n_params != 0:
        raise BytecodeError(
            "entry function %r must take no parameters" % program.entry)
    for fn in program.functions.values():
        verify_function(fn, program,
                        reject_unreachable=reject_unreachable)
