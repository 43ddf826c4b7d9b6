"""Instruction representation.

Instructions are mutable (the JIT rewrites jump targets when it inserts
annotations) but very small: a single class with ``__slots__`` keeps the
interpreter's per-instruction overhead low.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.bytecode.opcodes import (
    BIN_SYMBOL,
    UN_SYMBOL,
    BinOp,
    Op,
    UnOp,
)


class Instr:
    """One bytecode instruction.

    Fields are generic operand slots; their meaning depends on ``op`` (see
    :class:`repro.bytecode.opcodes.Op`).  ``imm`` carries constants,
    ``name`` carries callee/intrinsic names, ``args`` carries call argument
    slots.
    """

    __slots__ = ("op", "sub", "a", "b", "c", "imm", "name", "args")

    def __init__(
        self,
        op: Op,
        sub: int = 0,
        a: int = -1,
        b: int = -1,
        c: int = -1,
        imm: object = None,
        name: str = "",
        args: Tuple[int, ...] = (),
    ):
        self.op = op
        self.sub = sub
        self.a = a
        self.b = b
        self.c = c
        self.imm = imm
        self.name = name
        self.args = args

    def copy(self) -> "Instr":
        """Return a shallow copy (used by the annotating JIT)."""
        return Instr(
            self.op, self.sub, self.a, self.b, self.c,
            self.imm, self.name, self.args,
        )

    def __reduce__(self):
        # one constructor call per instruction: a slotted class would
        # otherwise pickle as __newobj__ plus a slot-state dict, and
        # every warm run unpickles a whole program of them
        return (Instr, (self.op, self.sub, self.a, self.b, self.c,
                        self.imm, self.name, self.args))

    # -- rendering -----------------------------------------------------

    def render(self, names: Optional[dict] = None) -> str:
        """Human-readable form, used by the disassembler.

        ``names`` optionally maps slot index -> variable name.
        """

        def s(slot: int) -> str:
            if names and slot in names:
                return "%s(s%d)" % (names[slot], slot)
            return "s%d" % slot

        op = self.op
        if op == Op.CONST:
            return "const %s, %r" % (s(self.a), self.imm)
        if op == Op.MOV:
            return "mov %s, %s" % (s(self.a), s(self.b))
        if op == Op.BIN:
            return "bin %s, %s %s %s" % (
                s(self.a), s(self.b), BIN_SYMBOL[BinOp(self.sub)], s(self.c))
        if op == Op.UN:
            return "un %s, %s%s" % (
                s(self.a), UN_SYMBOL[UnOp(self.sub)], s(self.b))
        if op == Op.NEWARR:
            return "newarr %s, len=%s" % (s(self.a), s(self.b))
        if op == Op.ALOAD:
            return "aload %s, %s[%s]" % (s(self.a), s(self.b), s(self.c))
        if op == Op.ASTORE:
            return "astore %s[%s], %s" % (s(self.a), s(self.b), s(self.c))
        if op == Op.LEN:
            return "len %s, %s" % (s(self.a), s(self.b))
        if op == Op.JMP:
            return "jmp @%d" % self.a
        if op == Op.BR:
            return "br %s ? @%d : @%d" % (s(self.a), self.b, self.c)
        if op == Op.CALL:
            dst = s(self.a) + ", " if self.a >= 0 else ""
            return "call %s%s(%s)" % (
                dst, self.name, ", ".join(s(x) for x in self.args))
        if op == Op.RET:
            return "ret %s" % (s(self.a) if self.a >= 0 else "")
        if op == Op.INTRIN:
            return "intrin %s, %s(%s)" % (
                s(self.a), self.name, ", ".join(s(x) for x in self.args))
        if op == Op.SLOOP:
            return "sloop L%d, nlocals=%d" % (self.a, self.b)
        if op == Op.EOI:
            return "eoi L%d" % self.a
        if op == Op.ELOOP:
            return "eloop L%d" % self.a
        if op == Op.LWL:
            return "lwl %s" % s(self.a)
        if op == Op.SWL:
            return "swl %s" % s(self.a)
        if op == Op.READSTATS:
            return "readstats L%d" % self.a
        if op == Op.PRINT:
            return "print %s" % s(self.a)
        if op == Op.NOP:
            return "nop"
        raise AssertionError("unrenderable opcode %r" % (op,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Instr %s>" % self.render()
