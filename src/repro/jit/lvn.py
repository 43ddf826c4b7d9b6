"""Superlocal value numbering (with constant folding, algebraic
identities and common-subexpression elimination).

The pass assigns a value number to every slot as a block is scanned;
two slots with the same number provably hold the same value at that
point.  Scope is *superlocal*: blocks are visited in reverse postorder
and a block whose only predecessor has already been scanned starts
from a clone of that predecessor's end-of-block state — a single
predecessor trivially dominates, so every numbered fact still holds on
entry.  This is what catches the cross-block redundancies codegen
leaves behind, e.g. a loop header that loads ``tree_left[node]`` for
its exit test and a branch arm that reloads the same address: the arm
inherits the header's heap facts and the second ``ALOAD`` becomes a
``MOV`` (one committed tracer event fewer per iteration).  Merge
points (several predecessors, loop headers) start fresh.

On top of the numbering we layer:

* **constant folding** — pure ops over known constants are evaluated at
  compile time via the *runtime's own* ``apply_binop``/``apply_unop``/
  ``apply_intrinsic``, so folded semantics (Java-style truncating
  division, float faults on bitwise ops) are exact by construction; an
  evaluation that raises simply doesn't fold, so faulting instructions
  always survive (the ``_FAULTING_BIN`` rule);
* **algebraic identities** — ``x+0``, ``x*1``, ``x/1`` and friends
  become ``MOV``s, guarded so the identity is value- *and type*-exact
  (``0.0 + x`` promotes ints to floats and is not an identity here);
* **CSE** — a recomputation of an available expression becomes a
  ``MOV`` from a slot still holding it.  Redundant ``ALOAD``s
  participate through a heap epoch that ``ASTORE``/``CALL`` advance,
  with store-to-load forwarding for the address just written.

A ``BR`` on a known constant stays a ``BR``: no registered workload
branches on one, so folding it would add code that changes nothing.

Every rewrite here is 1:1 or removing, so the dynamic instruction
count never increases — the conformance suite's strict
``KIND_OPT_REGRESSION`` gate relies on this.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.bytecode.instructions import Instr
from repro.bytecode.opcodes import BinOp, Op, UnOp
from repro.bytecode.program import Function
from repro.errors import ExecutionError
from repro.jit.effects import COMMUTATIVE_BIN, has_annotations
from repro.cfg.graph import build_cfg
from repro.jit.layout import relinearize
from repro.runtime.values import apply_binop, apply_intrinsic, apply_unop

#: exceptions a compile-time evaluation may raise; any of these means
#: "leave the instruction alone and let the runtime fault" (F2I of
#: inf/nan raises OverflowError/ValueError, not ExecutionError).
_FOLD_ERRORS = (ExecutionError, ValueError, OverflowError, ZeroDivisionError)

#: BIN sub-ops whose result is an int whatever the operand types
#: (comparisons yield 0/1; bitwise ops fault on floats)
_INT_RESULT = frozenset([BinOp.LT, BinOp.LE, BinOp.GT, BinOp.GE,
                         BinOp.EQ, BinOp.NE, BinOp.AND, BinOp.OR,
                         BinOp.XOR, BinOp.SHL, BinOp.SHR])


class _BlockState:
    """Value-numbering state for one basic block scan."""

    def __init__(self):
        self.next_vn = 0
        self.vn_of_slot: Dict[int, int] = {}
        self.slots_of_vn: Dict[int, List[int]] = {}
        self.key_to_vn: Dict[Tuple, int] = {}
        self.const_of: Dict[int, object] = {}
        self.int_vns: Set[int] = set()
        self.heap_epoch = 0

    def clone(self) -> "_BlockState":
        """Independent copy for a sole successor block."""
        st = _BlockState.__new__(_BlockState)
        st.next_vn = self.next_vn
        st.vn_of_slot = dict(self.vn_of_slot)
        st.slots_of_vn = {vn: list(slots)
                          for vn, slots in self.slots_of_vn.items()}
        st.key_to_vn = dict(self.key_to_vn)
        st.const_of = dict(self.const_of)
        st.int_vns = set(self.int_vns)
        st.heap_epoch = self.heap_epoch
        return st

    # -- value numbers ---------------------------------------------------

    def fresh(self) -> int:
        vn = self.next_vn
        self.next_vn += 1
        return vn

    def vn_of(self, slot: int) -> int:
        vn = self.vn_of_slot.get(slot)
        if vn is None:
            vn = self.fresh()
            self.bind(slot, vn)
        return vn

    def bind(self, slot: int, vn: int) -> None:
        self.vn_of_slot[slot] = vn
        self.slots_of_vn.setdefault(vn, []).append(slot)

    def rep(self, vn: int) -> Optional[int]:
        """Earliest slot still holding ``vn``, pruning stale entries."""
        slots = self.slots_of_vn.get(vn)
        if not slots:
            return None
        keep = [s for s in slots if self.vn_of_slot.get(s) == vn]
        self.slots_of_vn[vn] = keep
        return keep[0] if keep else None

    def const_vn(self, value) -> int:
        # the type tag keeps 0 and 0.0 apart and the repr keeps 0.0
        # and -0.0 apart (each pair is equal as dict keys in Python but
        # not interchangeable: printing, float promotion and the sign
        # of a product all observe the difference)
        key = ("const", type(value).__name__, repr(value))
        vn = self.key_to_vn.get(key)
        if vn is None:
            vn = self.fresh()
            self.key_to_vn[key] = vn
            self.const_of[vn] = value
            if isinstance(value, int):
                self.int_vns.add(vn)
        return vn

    def is_int(self, vn: int) -> bool:
        return vn in self.int_vns

    def mark(self, vn: int, is_int: bool) -> None:
        if is_int:
            self.int_vns.add(vn)


def lvn_function(fn: Function, stats) -> bool:
    """Run LVN over every block of ``fn``; returns True when changed."""
    if has_annotations(fn):
        return False
    cfg = build_cfg(fn)
    preds = cfg.predecessors_map()
    changed = False
    end_states: Dict[int, _BlockState] = {}
    for bid in cfg.reverse_postorder():
        block = cfg.blocks[bid]
        p = preds.get(bid, ())
        # sole already-scanned predecessor: its facts hold on entry
        # (back-edge sole predecessors are unscanned and start fresh)
        state = (end_states[p[0]].clone()
                 if len(p) == 1 and p[0] in end_states and p[0] != bid
                 else None)
        ch, end = _lvn_block(block.instrs, stats, state)
        end_states[bid] = end
        changed = changed or ch
    if changed:
        fn.code = relinearize(cfg)
    return changed


# ---------------------------------------------------------------------------
# one block
# ---------------------------------------------------------------------------

def _lvn_block(instrs: List[Instr], stats,
               state: Optional[_BlockState] = None,
               ) -> Tuple[bool, _BlockState]:
    if state is None:
        state = _BlockState()
    changed = False

    def resolve(slot: int) -> Tuple[int, int, bool]:
        """Return (slot', vn, rewritten) with slot' the canonical holder."""
        vn = state.vn_of(slot)
        r = state.rep(vn)
        if r is not None and r != slot:
            return r, vn, True
        return slot, vn, False

    pc = 0
    while pc < len(instrs):
        ins = instrs[pc]
        op = ins.op

        if op == Op.CONST:
            state.bind(ins.a, state.const_vn(ins.imm))

        elif op == Op.MOV:
            b, vn, rw = resolve(ins.b)
            if rw:
                ins.b = b
                stats.copies_propagated += 1
                changed = True
            state.bind(ins.a, vn)

        elif op == Op.BIN:
            ch2, again = _lvn_bin(instrs, pc, state, resolve, stats)
            changed = changed or ch2
            if again:
                continue  # instruction was replaced; reprocess it

        elif op == Op.UN:
            b, vb, rw = resolve(ins.b)
            if rw:
                ins.b = b
                stats.copies_propagated += 1
                changed = True
            if vb in state.const_of:
                try:
                    value = apply_unop(ins.sub, state.const_of[vb])
                except _FOLD_ERRORS:
                    value = _NOFOLD
                if value is not _NOFOLD:
                    instrs[pc] = Instr(Op.CONST, a=ins.a, imm=value)
                    stats.folded += 1
                    changed = True
                    continue
            key = ("un", int(ins.sub), vb)
            if _try_cse(instrs, pc, key, state, stats):
                changed = True
                continue
            vn = state.fresh()
            state.key_to_vn[key] = vn
            sub = UnOp(ins.sub)
            state.mark(vn, sub in (UnOp.NOT, UnOp.INV, UnOp.F2I)
                       or (sub == UnOp.NEG and state.is_int(vb)))
            state.bind(ins.a, vn)

        elif op == Op.LEN:
            b, vb, rw = resolve(ins.b)
            if rw:
                ins.b = b
                stats.copies_propagated += 1
                changed = True
            key = ("len", vb)  # array lengths are immutable: no epoch
            if _try_cse(instrs, pc, key, state, stats):
                changed = True
                continue
            vn = state.fresh()
            state.key_to_vn[key] = vn
            state.mark(vn, True)
            state.bind(ins.a, vn)

        elif op == Op.ALOAD:
            (b, vb, rw1) = resolve(ins.b)
            (c, vc, rw2) = resolve(ins.c)
            if rw1:
                ins.b = b
            if rw2:
                ins.c = c
            if rw1 or rw2:
                stats.copies_propagated += rw1 + rw2
                changed = True
            key = ("aload", vb, vc, state.heap_epoch)
            if _try_cse(instrs, pc, key, state, stats):
                changed = True
                continue
            vn = state.fresh()
            state.key_to_vn[key] = vn
            state.bind(ins.a, vn)

        elif op == Op.ASTORE:
            for field in ("a", "b", "c"):
                s, _vn, rw = resolve(getattr(ins, field))
                if rw:
                    setattr(ins, field, s)
                    stats.copies_propagated += 1
                    changed = True
            va = state.vn_of(ins.a)
            vb = state.vn_of(ins.b)
            vc = state.vn_of(ins.c)
            state.heap_epoch += 1
            # store-to-load forwarding: a successful store proves the
            # index is in bounds, so a following load of the same
            # address in the new epoch yields the stored value
            state.key_to_vn[("aload", va, vb, state.heap_epoch)] = vc

        elif op == Op.NEWARR:
            b, _vb, rw = resolve(ins.b)
            if rw:
                ins.b = b
                stats.copies_propagated += 1
                changed = True
            state.bind(ins.a, state.fresh())

        elif op == Op.CALL:
            new_args = []
            for s in ins.args:
                s2, _vn, rw = resolve(s)
                if rw:
                    stats.copies_propagated += 1
                    changed = True
                new_args.append(s2)
            ins.args = tuple(new_args)
            state.heap_epoch += 1  # the callee may mutate any array
            if ins.a >= 0:
                state.bind(ins.a, state.fresh())

        elif op == Op.INTRIN:
            new_args = []
            arg_vns = []
            for s in ins.args:
                s2, vn, rw = resolve(s)
                if rw:
                    stats.copies_propagated += 1
                    changed = True
                new_args.append(s2)
                arg_vns.append(vn)
            ins.args = tuple(new_args)
            if all(v in state.const_of for v in arg_vns):
                try:
                    value = apply_intrinsic(
                        ins.name, [state.const_of[v] for v in arg_vns])
                except _FOLD_ERRORS:
                    value = _NOFOLD
                if value is not _NOFOLD:
                    instrs[pc] = Instr(Op.CONST, a=ins.a, imm=value)
                    stats.folded += 1
                    changed = True
                    continue
            key = ("intrin", ins.name, tuple(arg_vns))
            if _try_cse(instrs, pc, key, state, stats):
                changed = True
                continue
            vn = state.fresh()
            state.key_to_vn[key] = vn
            state.bind(ins.a, vn)

        elif op == Op.PRINT:
            a, _vn, rw = resolve(ins.a)
            if rw:
                ins.a = a
                stats.copies_propagated += 1
                changed = True

        elif op == Op.BR:
            a, _vn, rw = resolve(ins.a)
            if rw:
                ins.a = a
                stats.copies_propagated += 1
                changed = True

        elif op == Op.RET:
            if ins.a >= 0:
                a, _vn, rw = resolve(ins.a)
                if rw:
                    ins.a = a
                    stats.copies_propagated += 1
                    changed = True

        # JMP / NOP / annotations: nothing to do (annotated functions
        # never reach here — lvn_function bails out up front)
        pc += 1

    return changed, state


_NOFOLD = object()


def _try_cse(instrs: List[Instr], pc: int, key: Tuple,
             state: _BlockState, stats) -> bool:
    """Replace instrs[pc] with a MOV from an available prior result."""
    vn = state.key_to_vn.get(key)
    if vn is None:
        return False
    r = state.rep(vn)
    if r is None:
        # the value exists as a number but no slot still holds it
        # (e.g. store-to-load forwarding of an overwritten slot)
        return False
    ins = instrs[pc]
    instrs[pc] = Instr(Op.MOV, a=ins.a, b=r)
    state.bind(ins.a, vn)
    stats.cse_replaced += 1
    return True


# ---------------------------------------------------------------------------
# BIN: fold / identities / CSE
# ---------------------------------------------------------------------------

def _lvn_bin(instrs, pc, state, resolve, stats) -> Tuple[bool, bool]:
    """Process a BIN.  Returns (changed, reprocess_same_pc)."""
    ins = instrs[pc]
    changed = False
    b, vb, rw1 = resolve(ins.b)
    c, vc, rw2 = resolve(ins.c)
    if rw1:
        ins.b = b
    if rw2:
        ins.c = c
    if rw1 or rw2:
        stats.copies_propagated += rw1 + rw2
        changed = True
    sub = BinOp(ins.sub)
    cb = state.const_of.get(vb, _NOFOLD)
    cc = state.const_of.get(vc, _NOFOLD)

    # ---- constant folding ----------------------------------------------
    if cb is not _NOFOLD and cc is not _NOFOLD:
        try:
            value = apply_binop(sub, cb, cc)
        except _FOLD_ERRORS:
            value = _NOFOLD
        if value is not _NOFOLD:
            instrs[pc] = Instr(Op.CONST, a=ins.a, imm=value)
            stats.folded += 1
            return True, True

    # ---- algebraic identities ------------------------------------------
    repl = _identity(sub, ins, state, vb, vc, cb, cc)
    if repl is not None:
        instrs[pc] = repl
        stats.algebraic += 1
        return True, True

    # ---- CSE ------------------------------------------------------------
    if sub in COMMUTATIVE_BIN:
        lo, hi = (vb, vc) if vb <= vc else (vc, vb)
        key = ("bin", int(sub), lo, hi)
    else:
        key = ("bin", int(sub), vb, vc)
    if _try_cse(instrs, pc, key, state, stats):
        return True, False

    # ---- define ----------------------------------------------------------
    vn = state.fresh()
    state.key_to_vn[key] = vn
    # arithmetic (ADD/SUB/MUL/DIV/MOD) is int exactly when both operands are
    state.mark(vn, sub in _INT_RESULT
               or (state.is_int(vb) and state.is_int(vc)))
    state.bind(ins.a, vn)
    return changed, False


def _is_int_zero(v) -> bool:
    return type(v) is int and v == 0


def _is_int_one(v) -> bool:
    return type(v) is int and v == 1


def _identity(sub, ins, state, vb, vc, cb, cc) -> Optional[Instr]:
    """Value- and type-exact simplification of one BIN, or None.

    Only int constants participate: ``0.0 + x`` promotes an int ``x``
    to float, so it is *not* the identity.  ``int 0 + x`` is ``x`` for
    both int and float ``x``; likewise ``x * 1`` and ``x / 1``.
    Anything that can fault for the surviving operand's possible types
    (bitwise/shift ops on floats) additionally requires an int proof.
    """
    a = ins.a
    if sub == BinOp.ADD:
        if _is_int_zero(cb):
            return Instr(Op.MOV, a=a, b=ins.c)
        if _is_int_zero(cc):
            return Instr(Op.MOV, a=a, b=ins.b)
    elif sub == BinOp.SUB:
        if _is_int_zero(cc):
            return Instr(Op.MOV, a=a, b=ins.b)
    elif sub == BinOp.MUL:
        if _is_int_one(cb):
            return Instr(Op.MOV, a=a, b=ins.c)
        if _is_int_one(cc):
            return Instr(Op.MOV, a=a, b=ins.b)
        if (_is_int_zero(cb) and state.is_int(vc)) or \
                (_is_int_zero(cc) and state.is_int(vb)):
            return Instr(Op.CONST, a=a, imm=0)
    elif sub == BinOp.DIV:
        if _is_int_one(cc):
            return Instr(Op.MOV, a=a, b=ins.b)
    elif sub == BinOp.MOD:
        if _is_int_one(cc) and state.is_int(vb):
            return Instr(Op.CONST, a=a, imm=0)
    elif sub in (BinOp.SHL, BinOp.SHR):
        if _is_int_zero(cc) and state.is_int(vb):
            return Instr(Op.MOV, a=a, b=ins.b)
    elif sub in (BinOp.OR, BinOp.XOR):
        if _is_int_zero(cb) and state.is_int(vc):
            return Instr(Op.MOV, a=a, b=ins.c)
        if _is_int_zero(cc) and state.is_int(vb):
            return Instr(Op.MOV, a=a, b=ins.b)
    elif sub == BinOp.AND:
        if (_is_int_zero(cb) and state.is_int(vc)) or \
                (_is_int_zero(cc) and state.is_int(vb)):
            return Instr(Op.CONST, a=a, imm=0)
    return None

