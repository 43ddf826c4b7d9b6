"""Exhaustive read/write/effect tables over the bytecode ISA.

Every optimizer pass needs to know, for each instruction, which slots
it reads, which slot it writes, and what effects it may have (fault,
observable side effect, heap mutation).  The legacy tables silently
treated unknown opcodes as "reads nothing / writes nothing", which
would turn any future opcode into dead-code bait the moment it was
added.  The tables here are exhaustive over :class:`Op` and raise
:class:`BytecodeError` on an unhandled opcode, so adding an opcode
without teaching the optimizer about it fails loudly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.bytecode.instructions import Instr
from repro.bytecode.opcodes import ANNOTATION_OPS, BinOp, Op, UnOp
from repro.bytecode.program import Function
from repro.bytecode.verifier import BytecodeError

# ---------------------------------------------------------------------------
# read / write slot tables
# ---------------------------------------------------------------------------

_READS: Dict[Op, Callable[[Instr], List[int]]] = {
    Op.CONST: lambda ins: [],
    Op.MOV: lambda ins: [ins.b],
    Op.BIN: lambda ins: [ins.b, ins.c],
    Op.UN: lambda ins: [ins.b],
    Op.NEWARR: lambda ins: [ins.b],
    Op.ALOAD: lambda ins: [ins.b, ins.c],
    Op.ASTORE: lambda ins: [ins.a, ins.b, ins.c],
    Op.LEN: lambda ins: [ins.b],
    Op.JMP: lambda ins: [],
    Op.BR: lambda ins: [ins.a],
    Op.CALL: lambda ins: list(ins.args),
    Op.RET: lambda ins: [] if ins.a < 0 else [ins.a],
    Op.INTRIN: lambda ins: list(ins.args),
    # annotation opcodes: LWL/SWL name the slot they annotate — treat
    # that as a read so no pass ever considers the slot's value dead
    # around an annotation (the tracer observes it).
    Op.SLOOP: lambda ins: [],
    Op.EOI: lambda ins: [],
    Op.ELOOP: lambda ins: [],
    Op.LWL: lambda ins: [ins.a],
    Op.SWL: lambda ins: [ins.a],
    Op.READSTATS: lambda ins: [],
    Op.PRINT: lambda ins: [ins.a],
    Op.NOP: lambda ins: [],
}

_WRITES: Dict[Op, Callable[[Instr], Optional[int]]] = {
    Op.CONST: lambda ins: ins.a,
    Op.MOV: lambda ins: ins.a,
    Op.BIN: lambda ins: ins.a,
    Op.UN: lambda ins: ins.a,
    Op.NEWARR: lambda ins: ins.a,
    Op.ALOAD: lambda ins: ins.a,
    Op.ASTORE: lambda ins: None,
    Op.LEN: lambda ins: ins.a,
    Op.JMP: lambda ins: None,
    Op.BR: lambda ins: None,
    Op.CALL: lambda ins: None if ins.a < 0 else ins.a,
    Op.RET: lambda ins: None,
    Op.INTRIN: lambda ins: ins.a,
    Op.SLOOP: lambda ins: None,
    Op.EOI: lambda ins: None,
    Op.ELOOP: lambda ins: None,
    Op.LWL: lambda ins: None,
    Op.SWL: lambda ins: None,
    Op.READSTATS: lambda ins: None,
    Op.PRINT: lambda ins: None,
    Op.NOP: lambda ins: None,
}


def instr_reads(ins: Instr) -> List[int]:
    """Slots read by ``ins`` (exhaustive; raises on unknown opcodes)."""
    try:
        fn = _READS[ins.op]
    except KeyError:
        raise BytecodeError(
            "instr_reads: unhandled opcode %r — teach "
            "repro.jit.effects about it" % (ins.op,))
    return fn(ins)


def instr_writes(ins: Instr) -> Optional[int]:
    """Slot written by ``ins``, or None (exhaustive; raises on unknown)."""
    try:
        fn = _WRITES[ins.op]
    except KeyError:
        raise BytecodeError(
            "instr_writes: unhandled opcode %r — teach "
            "repro.jit.effects about it" % (ins.op,))
    return fn(ins)


# ---------------------------------------------------------------------------
# effect classification
# ---------------------------------------------------------------------------

#: binary subops where op(a, b) == op(b, a) for every value pair
COMMUTATIVE_BIN = frozenset([
    BinOp.ADD, BinOp.MUL, BinOp.AND, BinOp.OR, BinOp.XOR,
    BinOp.EQ, BinOp.NE,
])

#: binary subops that can raise ExecutionError for some operand values
#: (division by zero, float operands to bitwise ops, negative shifts).
#: A dead instruction with one of these subops must survive DCE and may
#: never be speculatively hoisted past an observable effect.
FAULTING_BIN = frozenset([
    BinOp.DIV, BinOp.MOD, BinOp.SHL, BinOp.SHR,
    BinOp.AND, BinOp.OR, BinOp.XOR,
])

#: binary subops that are total over all runtime values
SAFE_BIN = frozenset(BinOp) - FAULTING_BIN

#: unary subops that can fault (INV on floats; F2I on inf/nan)
FAULTING_UN = frozenset([UnOp.INV, UnOp.F2I])

#: unary subops that are total
SAFE_UN = frozenset(UnOp) - FAULTING_UN

#: opcodes with effects an optimizer must keep in program order:
#: output (PRINT), heap mutation (ASTORE), allocation (NEWARR —
#: handle identity is observable in the final heap snapshot), and
#: calls (arbitrary callee effects).
OBSERVABLE_OPS = frozenset([Op.PRINT, Op.ASTORE, Op.CALL, Op.NEWARR])

#: opcodes that may mutate existing arrays (invalidate loads)
HEAP_WRITERS = frozenset([Op.ASTORE, Op.CALL])


def has_annotations(fn: Function) -> bool:
    """True when ``fn`` carries tracer annotation opcodes.

    Annotated functions are off-limits to every optimizer pass: the
    annotations encode loop entry/exit protocol and tracked-local
    read/write order, and any code motion would desynchronize the
    event stream the tracer analyzes.  (In the normal pipeline the
    optimizer runs strictly before annotation, so this only triggers
    for hand-built programs and barrier tests.)
    """
    return any(ins.op in ANNOTATION_OPS for ins in fn.code)
