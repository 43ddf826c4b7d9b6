"""Function and program containers for bytecode.

A :class:`Program` is what the minijava front-end produces, what the JIT
annotates, and what the interpreter executes.  Functions carry slot
metadata (how many slots are *named* locals vs. temporaries) because the
TEST annotation pass only instruments named locals (Section 5.1).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bytecode.instructions import Instr
from repro.errors import BytecodeError

#: slot operands must stay below this bound (the verifier enforces it):
#: the tracer names an annotated local by a synthetic address with two
#: bytes of ``slot * 4`` per frame
#: (:func:`repro.runtime.events.local_address`), which is invertible
#: only for ``slot < MAX_SLOTS``
MAX_SLOTS = 1 << 14


class Function:
    """A single bytecode function.

    Attributes
    ----------
    name:
        Unique function name within the program.
    n_params:
        Number of parameters; parameters occupy slots ``0..n_params-1``.
    n_named:
        Number of named local-variable slots (includes parameters).  Slots
        ``>= n_named`` are compiler temporaries.
    slot_names:
        Map of slot index -> source-level variable name for named slots.
    code:
        The instruction list.  Branch targets are absolute indices into
        this list.
    """

    def __init__(self, name: str, n_params: int = 0):
        self.name = name
        self.n_params = n_params
        self.n_named = n_params
        self.slot_names: Dict[int, str] = {}
        self.code: List[Instr] = []

    @property
    def n_slots(self) -> int:
        """Total slot count required to execute this function."""
        high = self.n_named
        for ins in self.code:
            for slot in (ins.a, ins.b, ins.c):
                if slot + 1 > high:
                    high = slot + 1
            for slot in ins.args:
                if slot + 1 > high:
                    high = slot + 1
        return high

    def slot_name(self, slot: int) -> str:
        """Source name for a slot, or a synthetic ``tN`` / ``sN`` name."""
        if slot in self.slot_names:
            return self.slot_names[slot]
        if slot >= self.n_named:
            return "t%d" % slot
        return "s%d" % slot

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Function %s: %d instrs>" % (self.name, len(self.code))


class Program:
    """A compiled program: a set of functions plus an entry point."""

    def __init__(self, entry: str = "main"):
        self.entry = entry
        self.functions: Dict[str, Function] = {}

    def add(self, fn: Function) -> Function:
        """Register ``fn``; names must be unique."""
        if fn.name in self.functions:
            raise BytecodeError("duplicate function %r" % fn.name)
        self.functions[fn.name] = fn
        return fn

    def function(self, name: Optional[str] = None) -> Function:
        """Look up a function (the entry point by default)."""
        key = name if name is not None else self.entry
        try:
            return self.functions[key]
        except KeyError:
            raise BytecodeError("unknown function %r" % key) from None

    @property
    def main(self) -> Function:
        """The entry function."""
        return self.function(self.entry)

    def copy(self) -> "Program":
        """Deep copy (new Function and Instr objects); used by passes
        that rewrite code in place."""
        clone = Program(entry=self.entry)
        for fn in self.functions.values():
            new = Function(fn.name, fn.n_params)
            new.n_named = fn.n_named
            new.slot_names = dict(fn.slot_names)
            new.code = [ins.copy() for ins in fn.code]
            clone.add(new)
        return clone

    def total_instructions(self) -> int:
        """Static instruction count over all functions."""
        return sum(len(f.code) for f in self.functions.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Program entry=%s functions=%d instrs=%d>" % (
            self.entry, len(self.functions), self.total_instructions())
