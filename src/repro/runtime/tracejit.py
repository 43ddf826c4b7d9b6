"""Trace-recording speculative fast path for the interpreter (trace JIT).

The dispatch loops in :mod:`repro.runtime.interpreter` pay per
instruction: a dispatch-table index, an opcode compare chain, a cost
lookup, and two counter updates.  The steady state of every hot loop
repeats the same linear instruction path, so that per-instruction tax
buys nothing.  This module removes it with the classic trace-JIT
recipe — the same speculate/guard/commit structure the paper applies to
threads, applied here to the interpreter itself:

1. **Hotness.**  Backedges (a ``JMP``/``BR`` whose target is at or
   before the branch) carry a per-target countdown.  When a target —
   the *anchor* — gets hot, the interpreter switches to recording mode.
2. **Recording.**  The recorder executes instructions with exactly the
   interpreter's semantics while capturing the linear path taken.
   Recording stops successfully when control returns to the anchor
   (a loop closed), and is abandoned at a ``CALL``/``RET``, at a
   backedge to any *other* pc (an inner loop — it gets its own trace),
   at the length limit, or when live code patching invalidates the
   function mid-recording.  A loop recording stopped by a ``RET`` ran
   off its loop, so its anchor re-arms for the next backedge (see
   :data:`MAX_RET_MISSES`).
3. **Linking.**  A successful recording is verified
   (:func:`verify_trace`) and compiled into a *guarded superblock*: a
   Python function, generated and ``exec``-compiled at link time, that
   runs the straight-line loop body with branches converted to guards.
   Every guard carries its abort pc and the exact cycle/instruction
   prefix to charge, so a failing guard returns control to the generic
   loop with the interpreter state — pc, cycle counter, instruction
   counter, pending event batch — exactly as if the generic loop had
   executed every instruction itself.  Cost lookups and name/pc
   constants are hoisted into the superblock at link time.
4. **Abort statistics / blacklisting.**  Each linked trace counts
   invocations, committed ops, completed iterations, and mid-iteration
   guard failures.  A trace that fails to commit an average of
   :data:`BLACKLIST_MIN_OPS` ops per invocation by its
   :data:`BLACKLIST_PROBE`-th call is discarded and its anchor
   blacklisted, so pathological branch behaviour degrades to plain
   dispatch instead of thrashing.  The metric is committed ops — not
   completed iterations — because a side exit still commits its guard
   prefix at superblock speed; a frequently-aborting trace can pay for
   itself as long as each call retires enough work to cover the call
   overhead.
5. **Tail traces / exit chaining.**  A side exit that gets hot becomes
   an anchor of its own: a *tail trace* records from the exit pc to the
   first taken backedge and compiles to a superblock that runs once and
   exits at the backedge target instead of looping.  The trace point
   chains superblocks — after any invocation it dispatches the exit pc
   to the next linked trace (loop or tail) before falling back to
   generic dispatch, so a loop whose body has a data-dependent branch
   executes entirely at superblock speed: the loop trace covers the
   recorded arm and a tail trace covers the other arm's path back to
   the loop header.  Tail hotness state lives in a separate per-pc
   array (``mode + TAIL``), so it never collides with backedge
   anchors, and tail traces use the same guard, payoff-probe, and
   invalidation machinery as loop traces.

Both interpreter loops enter this module through one trace point
(:func:`repro.runtime.interpreter._trace_point`), parameterized by the
mode: fast-mode superblocks publish nothing, traced-mode ones publish
the event stream.  The JIT is on unless a caller passes
``trace_jit=False`` (``--no-trace-jit`` on the CLI); the environment
does not steer it.

Exactness contract
------------------
A superblock must be observationally identical to the generic loop:

* same return value, heap, printed output;
* same cycle and instruction counts at every exit;
* in traced mode, the identical event stream — memory events and the
  ``sloop``/``eoi``/``readstats`` markers are appended to the *same*
  pending batch buffer as the same ``(code, cycle, a, f, p)`` entries
  (a load's address is the element read, a local's its
  ``local_address``, whose frame base a superblock computes once per
  call), and ``eloop`` flushes that buffer and then calls the listener
  directly, exactly as the generic loop does.  Where a full batch is
  flushed is not observable (every entry carries its cycle), so a
  superblock checks the batch size once per iteration.  ``eloop`` is the one synchronous marker
  because its handler may fire the Sec. 5.2 convergence callback,
  which patches code;
* any instruction that would raise is **not** executed speculatively:
  the superblock deoptimizes *before* it (charging only the preceding
  prefix) and the generic loop re-executes it, producing the canonical
  error with the canonical location.

Live code patching (:meth:`Interpreter.patch_cost`) drops exactly the
linked traces that cover the patched pc (their baked-in decoded form
and cost prefixes are stale from that instant) by flipping each one's
validity cell; running traced-mode superblocks check the cell after
every listener call and side-exit as soon as their own code is
patched.  Traces elsewhere in the function stay linked, and the JIT
epoch — bumped on every patch — only aborts in-flight recordings,
whose captured instruction tuples alias the patched decoded cache.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bytecode.opcodes import BinOp, Op
from repro.errors import ExecutionError, ReproError
from repro.runtime.events import (
    EV_EOI,
    EV_LD,
    EV_LLD,
    EV_LST,
    EV_READSTATS,
    EV_SLOOP,
    EV_ST,
    LOCAL_ADDRESS_BASE,
)

#: plain-int opcodes for the interpreter's dispatch loops, the
#: recorder and the emitter (enum compares are slow)
_CONST = int(Op.CONST)
_MOV = int(Op.MOV)
_BIN = int(Op.BIN)
_UN = int(Op.UN)
_NEWARR = int(Op.NEWARR)
_ALOAD = int(Op.ALOAD)
_ASTORE = int(Op.ASTORE)
_LEN = int(Op.LEN)
_JMP = int(Op.JMP)
_BR = int(Op.BR)
_CALL = int(Op.CALL)
_RET = int(Op.RET)
_INTRIN = int(Op.INTRIN)
_SLOOP = int(Op.SLOOP)
_EOI = int(Op.EOI)
_ELOOP = int(Op.ELOOP)
_LWL = int(Op.LWL)
_SWL = int(Op.SWL)
_READSTATS = int(Op.READSTATS)
_PRINT = int(Op.PRINT)
_NOP = int(Op.NOP)

#: memory events buffered before delivery (shared with the interpreter)
FLUSH_AT = 512

#: backedge executions before an anchor is recorded
DEFAULT_HOT_THRESHOLD = 16

#: recorded ops before a recording is abandoned as too long
MAX_TRACE_OPS = 384

#: invocation count at which a linked trace's payoff is judged
BLACKLIST_PROBE = 32

#: average committed ops per invocation a trace must reach by the
#: probe point to stay linked — roughly the invocation overhead
#: expressed in generic-dispatch op costs, so a trace below this line
#: is slower than not calling it at all
BLACKLIST_MIN_OPS = 4

#: recording attempts an anchor gets before a foreign-backedge abort
#: becomes a blacklist.  Hitting another loop's backedge is usually
#: bad luck — the recording started on the entry's final iteration and
#: ran off the loop exit — so the anchor re-warms and tries again; only
#: an anchor that *always* reaches a foreign backedge (a genuinely
#: outer loop, whose body contains the inner loop) exhausts the budget
MAX_RECORD_ATTEMPTS = 4

#: loop recordings an anchor may lose to a ``RET`` before it is
#: blacklisted.  A loop recording reaches ``RET`` only after it ran off
#: its loop (the last header test or an early return): a short-trip
#: loop in a hot callee, which can run one-iteration entries for
#: hundreds of calls in a row before a long one.  Such an anchor is
#: re-armed for its very next backedge instead of re-warming, so it
#: records again inside the next multi-iteration entry.
MAX_RET_MISSES = 256

#: execution-mode tags; fast and traced superblocks never alias
MODE_FAST = "fast"
MODE_TRACED = "traced"

#: state-array key suffix for tail-trace hotness: side-exit pcs are
#: armed in their own per-pc array (``mode + TAIL``) so they never
#: collide with backedge anchors (a pc can be a blacklisted loop anchor
#: and a profitable tail anchor at the same time)
TAIL = ":tail"


class TraceJITError(ReproError):
    """A recorded trace failed verification at link time."""


class LinkedTrace:
    """One compiled superblock plus its abort statistics."""

    __slots__ = ("fn", "n_ops", "anchor", "fn_name", "mode", "exit_pc",
                 "invocations", "ops", "iterations", "aborts", "pcs",
                 "valid")

    def __init__(self, fn, n_ops: int, anchor: int, fn_name: str,
                 mode: str, pcs: frozenset, valid: List,
                 exit_pc: Optional[int] = None):
        self.fn = fn
        self.n_ops = n_ops
        self.anchor = anchor
        self.fn_name = fn_name
        self.mode = mode
        #: None for a loop trace; for a tail trace, the backedge target
        #: the straightline exits to after its single pass
        self.exit_pc = exit_pc
        #: every pc this trace baked in (decoded form and cost) — a
        #: patch outside this set leaves the superblock exact
        self.pcs = pcs
        #: one-cell validity flag closed over by the compiled
        #: superblock; flipped by targeted invalidation so a superblock
        #: already on the stack side-exits at its next check
        self.valid = valid
        self.invocations = 0
        #: ops committed inside the superblock across all invocations
        self.ops = 0
        #: completed loop iterations across all invocations
        self.iterations = 0
        #: mid-iteration guard failures (exits not at a loop boundary)
        self.aborts = 0


class TraceJIT:
    """Per-interpreter trace cache, hotness state, and counters.

    The cache key is ``(function name, mode, anchor pc)``: the state
    array for a (function, mode) pair holds, per pc, either an ``int``
    countdown (warming), a :class:`LinkedTrace`, or ``None``
    (blacklisted / never a trace anchor).  One :class:`TraceJIT` serves
    one interpreter, so the cost model and decoded form it bakes into
    superblocks are fixed by construction; targeted invalidation drops
    the covering traces when :meth:`Interpreter.patch_cost` rewrites
    live code.
    """

    def __init__(self, threshold: Optional[int] = None,
                 max_ops: int = MAX_TRACE_OPS):
        self.threshold = max(1, DEFAULT_HOT_THRESHOLD if threshold is None
                             else int(threshold))
        self.max_ops = max_ops
        #: bumped on every live-code patch; traced superblocks compare
        #: against their link-time value after each listener call
        self.epoch = [0]
        self._state: Dict[Tuple[str, str], List] = {}
        #: (fn, mode, anchor) -> failed recording attempts so far
        self._attempts: Dict[Tuple[str, str, int], int] = {}
        #: (fn, mode, anchor) -> loop recordings stopped by a RET so far
        self._ret_misses: Dict[Tuple[str, str, int], int] = {}
        self._all: List[LinkedTrace] = []
        self.recordings = 0
        self.linked = 0
        self.blacklisted = 0
        self.recordings_aborted = 0
        self.invalidations = 0

    def state_for(self, fn_name: str, mode: str, n: int) -> List:
        """The per-pc anchor state array for (``fn_name``, ``mode``)."""
        key = (fn_name, mode)
        state = self._state.get(key)
        if state is None:
            state = [self.threshold] * n
            self._state[key] = state
        return state

    def blacklist(self, state: List, anchor: int) -> None:
        state[anchor] = None
        self.blacklisted += 1

    def invalidate_function(self, fn_name: str,
                            pc: Optional[int] = None) -> None:
        """Drop the linked traces of ``fn_name`` that cover ``pc`` and
        re-arm their anchors; called after live code/cost patching.
        Traces that never touch the patched pc baked nothing stale and
        stay linked — so does every blacklist decision and warming
        countdown.  Flipping a dropped trace's validity cell side-exits
        a superblock already on the stack; the epoch bump aborts any
        in-flight recording (its captured instruction tuples alias the
        decoded cache the patch just rewrote)."""
        self.epoch[0] += 1
        self.invalidations += 1
        threshold = self.threshold
        for (fn, _mode), state in self._state.items():
            if fn != fn_name:
                continue
            for anchor, entry in enumerate(state):
                if entry.__class__ is LinkedTrace and \
                        (pc is None or pc in entry.pcs):
                    entry.valid[0] = False
                    state[anchor] = threshold

    def __getstate__(self) -> Dict:
        # linked superblocks are exec-compiled closures and cannot
        # cross a pickle boundary; they are a cache, so a pickled JIT
        # ships its counters and re-warms its anchors on the other side
        return {
            "threshold": self.threshold,
            "max_ops": self.max_ops,
            "epoch": list(self.epoch),
            "recordings": self.recordings,
            "linked": self.linked,
            "blacklisted": self.blacklisted,
            "recordings_aborted": self.recordings_aborted,
            "invalidations": self.invalidations,
        }

    def __setstate__(self, state: Dict) -> None:
        self.threshold = state["threshold"]
        self.max_ops = state["max_ops"]
        self.epoch = list(state["epoch"])
        self._state = {}
        self._attempts = {}
        self._ret_misses = {}
        self._all = []
        self.recordings = state["recordings"]
        self.linked = state["linked"]
        self.blacklisted = state["blacklisted"]
        self.recordings_aborted = state["recordings_aborted"]
        self.invalidations = state["invalidations"]

    def snapshot(self) -> Dict:
        """Deterministic counters for :class:`RunResult` / reports."""
        invocations = ops_committed = iterations = aborts = 0
        per_trace = []
        for tr in self._all:
            invocations += tr.invocations
            ops_committed += tr.ops
            iterations += tr.iterations
            aborts += tr.aborts
            per_trace.append({
                "fn": tr.fn_name,
                "anchor": tr.anchor,
                "mode": tr.mode,
                "exit_pc": tr.exit_pc,
                "ops": tr.n_ops,
                "invocations": tr.invocations,
                "ops_committed": tr.ops,
                "iterations": tr.iterations,
                "guard_failures": tr.aborts,
            })
        per_trace.sort(key=lambda d: (d["fn"], d["anchor"], d["mode"]))
        return {
            "enabled": True,
            "threshold": self.threshold,
            "recordings": self.recordings,
            "recordings_aborted": self.recordings_aborted,
            "traces_linked": self.linked,
            "traces_blacklisted": self.blacklisted,
            "invalidations": self.invalidations,
            "invocations": invocations,
            "ops_committed": ops_committed,
            "iterations": iterations,
            "guard_failures": aborts,
            "traces": per_trace,
        }


# ---------------------------------------------------------------------------
# trace verification
# ---------------------------------------------------------------------------

#: ops legal inside a trace (CALL/RET stop recording before execution)
_TRACEABLE = frozenset([
    _CONST, _MOV, _BIN, _UN, _NEWARR, _ALOAD, _ASTORE, _LEN, _JMP, _BR,
    _INTRIN, _SLOOP, _EOI, _ELOOP, _LWL, _SWL, _READSTATS, _PRINT, _NOP,
])


def _slot_operands(ins: tuple) -> List[int]:
    """Slot indices an instruction reads or writes."""
    op = ins[0]
    if op == _CONST:
        return [ins[1]]
    if op in (_MOV, _UN, _NEWARR, _LEN):
        return [ins[1], ins[2]]
    if op in (_BIN, _ALOAD, _ASTORE):
        return [ins[1], ins[2], ins[3]]
    if op == _INTRIN:
        return [ins[1]] + list(ins[7])
    if op == _BR:
        return [ins[1]]
    if op in (_PRINT, _LWL, _SWL):
        return [ins[1]]
    return []


def verify_trace(fn_name: str, anchor: int, entries: List[tuple],
                 code_len: int, n_slots: int,
                 exit_pc: Optional[int] = None) -> None:
    """Validate a recorded trace before it is linked.

    The superblock representation never reaches the bytecode verifier
    (it is not bytecode), so this is its equivalent gate: every pc and
    guard abort target must be inside the function, every slot operand
    inside the frame, calls/returns must be absent, branch entries must
    carry a recorded direction, and the trace must close — back to its
    anchor for a loop trace, or to ``exit_pc`` for a tail trace.
    Raises :class:`TraceJITError` on violation.
    """
    def bad(msg: str) -> None:
        raise TraceJITError("trace %s+%d: %s" % (fn_name, anchor, msg))

    if not entries:
        bad("empty recording")
    if not 0 <= anchor < code_len:
        bad("anchor outside code of %d instructions" % code_len)
    if entries[0][0] != anchor:
        bad("first entry at pc %d, not the anchor" % entries[0][0])
    for i, (pc, ins, taken) in enumerate(entries):
        if not 0 <= pc < code_len:
            bad("entry %d at pc %d outside code" % (i, pc))
        op = ins[0]
        if op not in _TRACEABLE:
            bad("entry %d op %d may not appear in a trace" % (i, op))
        if op == _BR:
            if taken not in (True, False):
                bad("entry %d branch has no recorded direction" % i)
            for target in (ins[2], ins[3]):
                if not 0 <= target < code_len:
                    bad("entry %d branch target %d outside code"
                        % (i, target))
        elif op == _JMP:
            if not 0 <= ins[1] < code_len:
                bad("entry %d jump target %d outside code" % (i, ins[1]))
        elif taken is not None:
            bad("entry %d records a direction for a non-branch" % i)
        for slot in _slot_operands(ins):
            if op == _CALL:  # pragma: no cover - excluded above
                continue
            if not (isinstance(slot, int) and 0 <= slot < n_slots):
                bad("entry %d slot %r outside frame of %d slots"
                    % (i, slot, n_slots))
    closes_to = anchor if exit_pc is None else exit_pc
    last_pc, last_ins, last_taken = entries[-1]
    if last_ins[0] == _JMP:
        if last_ins[1] != closes_to:
            bad("final jump targets %d, not %d" % (last_ins[1],
                                                   closes_to))
    elif last_ins[0] == _BR:
        closing = last_ins[2] if last_taken else last_ins[3]
        if closing != closes_to:
            bad("final branch continues to %d, not %d" % (closing,
                                                          closes_to))
    else:
        bad("final entry is not a branch or jump")


# ---------------------------------------------------------------------------
# superblock code generation
# ---------------------------------------------------------------------------

_ARITH_SYMBOL = {int(BinOp.ADD): "+", int(BinOp.SUB): "-",
                 int(BinOp.MUL): "*"}
_CMP_SYMBOL = {int(BinOp.LT): "<", int(BinOp.LE): "<=",
               int(BinOp.GT): ">", int(BinOp.GE): ">=",
               int(BinOp.EQ): "==", int(BinOp.NE): "!="}
_INT_SYMBOL = {int(BinOp.AND): "&", int(BinOp.OR): "|",
               int(BinOp.XOR): "^", int(BinOp.SHL): "<<",
               int(BinOp.SHR): ">>"}


class _Emitter:
    """Builds the superblock source for one recorded trace."""

    def __init__(self, mode: str, fn_name: str, anchor: int,
                 entries: List[tuple], costs: List[int],
                 exit_pc: Optional[int] = None):
        self.mode = mode
        self.fn_name = fn_name
        self.anchor = anchor
        #: tail traces run their straightline once and exit here
        self.exit_pc = exit_pc
        self.entries = entries
        self.costs = [costs[pc] for pc, _ins, _taken in entries]
        self.consts: List = []
        self.lines: List[str] = []
        #: slot -> literal text, when the slot's latest write in this
        #: straightline was a small-int CONST; lets later operands read
        #: the literal instead of the slot (the slot write itself is
        #: still emitted, so deopt exits see canonical frame state)
        self._const_slots: Dict[int, str] = {}

    def _read(self, slot: int) -> str:
        lit = self._const_slots.get(slot)
        return lit if lit is not None else "slots[%d]" % slot

    def _wrote(self, slot: int) -> None:
        self._const_slots.pop(slot, None)

    def const(self, value) -> str:
        """Reference ``value`` from the hoisted constant pool.  Small
        ints inline as literals (faster and more readable)."""
        if isinstance(value, int) and not isinstance(value, bool) \
                and -2**31 < value < 2**31:
            return repr(value)
        self.consts.append(value)
        return "K[%d]" % (len(self.consts) - 1)

    def emit(self, line: str, depth: int = 3) -> None:
        self.lines.append("    " * depth + line)

    # -- exit helpers ----------------------------------------------------

    def _exit(self, pc: int, charged: int, ops: int) -> str:
        """An exit tuple charging ``charged`` cycles / ``ops``
        instructions of this iteration's prefix, resuming at ``pc``."""
        cyc = "cycles" if charged == 0 else "cycles + %d" % charged
        exe = "executed" if ops == 0 else "executed + %d" % ops
        return "return (%d, %s, %s)" % (pc, cyc, exe)

    def _guarded(self, stmt: str, pc: int, before: int, i: int,
                 depth: int = 3) -> None:
        """Emit ``stmt`` so that any exception deoptimizes *before* the
        instruction: the generic loop re-executes it and raises the
        canonical error with the canonical location."""
        self.emit("try:", depth)
        self.emit("    " + stmt, depth)
        self.emit("except Exception:", depth)
        self.emit("    " + self._exit(pc, before, i), depth)

    # -- traced-mode event plumbing --------------------------------------

    def _eloop(self, loop_id: int, pc: int, after: int, i: int) -> None:
        """Flush-then-notify for ``eloop``, with a patch check: its
        convergence callback may rewrite this very function."""
        self.emit("if buf:")
        self.emit("    on_mem_batch(buf)")
        self.emit("    buf.clear()")
        self.emit("on_eloop(%d, cycles + %d)" % (loop_id, after))
        self.emit("if not _valid[0]:")
        self.emit("    " + self._exit(pc + 1, after, i + 1))

    # -- per-op lowering -------------------------------------------------

    def lower(self, i: int, pc: int, ins: tuple, taken,
              before: int, after: int, last: bool) -> None:
        op = ins[0]
        traced = self.mode == MODE_TRACED
        if op == _BIN:
            sub = ins[4]
            dst = ins[1]
            lhs, rhs = self._read(ins[2]), self._read(ins[3])
            self._wrote(dst)
            sym = _ARITH_SYMBOL.get(sub)
            if sym is not None:
                self.emit("slots[%d] = %s %s %s" % (dst, lhs, sym, rhs))
                return
            sym = _CMP_SYMBOL.get(sub)
            if sym is not None:
                self.emit("slots[%d] = 1 if %s %s %s else 0"
                          % (dst, lhs, sym, rhs))
                return
            sym = _INT_SYMBOL.get(sub)
            if sym is not None:
                stmt = "slots[%d] = %s %s %s" % (dst, lhs, sym, rhs)
            elif sub == int(BinOp.DIV):
                stmt = "slots[%d] = java_div(%s, %s)" % (dst, lhs, rhs)
            elif sub == int(BinOp.MOD):
                stmt = "slots[%d] = java_mod(%s, %s)" % (dst, lhs, rhs)
            else:
                stmt = "slots[%d] = apply_binop(%d, %s, %s)" \
                    % (dst, sub, lhs, rhs)
            self._guarded(stmt, pc, before, i)
        elif op == _CONST:
            text = self.const(ins[5])
            self.emit("slots[%d] = %s" % (ins[1], text))
            if text.lstrip("-").isdigit():
                self._const_slots[ins[1]] = text
            else:
                self._wrote(ins[1])
        elif op == _MOV:
            src = self._read(ins[2])
            self.emit("slots[%d] = %s" % (ins[1], src))
            if src.lstrip("-").isdigit():
                self._const_slots[ins[1]] = src
            else:
                self._wrote(ins[1])
        elif op == _BR:
            ref = self._read(ins[1])
            cond = "not " + ref if taken else ref
            off = ins[3] if taken else ins[2]
            self.emit("if %s:" % cond)
            self.emit("    " + self._exit(off, after, i + 1))
        elif op == _JMP:
            pass  # cost-only inside a trace; control flow is implicit
        elif op == _ALOAD:
            handle, index = self._read(ins[2]), self._read(ins[3])
            self._wrote(ins[1])
            if traced:
                self._guarded(
                    "slots[%d], _a = heap_load_addr(%s, %s)"
                    % (ins[1], handle, index), pc, before, i)
                self.emit("buf_append((%d, cycles + %d, _a, %s, %d))"
                          % (EV_LD, after, self.const(self.fn_name), pc))
            else:
                self._guarded("slots[%d] = heap_load(%s, %s)"
                              % (ins[1], handle, index), pc, before, i)
        elif op == _ASTORE:
            handle, index = self._read(ins[1]), self._read(ins[2])
            value = self._read(ins[3])
            if traced:
                self._guarded("_a = heap_store_addr(%s, %s, %s)"
                              % (handle, index, value), pc, before, i)
                self.emit("buf_append((%d, cycles + %d, _a, %s, %d))"
                          % (EV_ST, after, self.const(self.fn_name), pc))
            else:
                self._guarded("heap_store(%s, %s, %s)"
                              % (handle, index, value), pc, before, i)
        elif op == _UN:
            sub = ins[4]
            dst = ins[1]
            src = self._read(ins[2])
            self._wrote(dst)
            from repro.bytecode.opcodes import UnOp
            if sub == int(UnOp.NEG):
                self.emit("slots[%d] = -%s" % (dst, src))
            elif sub == int(UnOp.NOT):
                self.emit("slots[%d] = 0 if %s else 1" % (dst, src))
            elif sub == int(UnOp.INV):
                self._guarded("slots[%d] = ~%s" % (dst, src),
                              pc, before, i)
            elif sub == int(UnOp.I2F):
                self._guarded("slots[%d] = float(%s)" % (dst, src),
                              pc, before, i)
            elif sub == int(UnOp.F2I):
                self._guarded("slots[%d] = int(%s)" % (dst, src),
                              pc, before, i)
            else:
                self._guarded("slots[%d] = apply_unop(%d, %s)"
                              % (dst, sub, src), pc, before, i)
        elif op == _NEWARR:
            length = self._read(ins[2])
            self._wrote(ins[1])
            self._guarded("slots[%d] = heap_allocate(%s)"
                          % (ins[1], length), pc, before, i)
        elif op == _LEN:
            handle = self._read(ins[2])
            self._wrote(ins[1])
            self._guarded("slots[%d] = heap_length(%s)"
                          % (ins[1], handle), pc, before, i)
        elif op == _INTRIN:
            args = ", ".join(self._read(s) for s in ins[7])
            self._wrote(ins[1])
            self._guarded("slots[%d] = apply_intrinsic(%s, [%s])"
                          % (ins[1], self.const(ins[6]), args),
                          pc, before, i)
        elif op == _PRINT:
            self.emit("printed.append(%s)" % self._read(ins[1]))
        elif op == _LWL or op == _SWL:
            if traced:
                self.emit("buf_append((%d, cycles + %d, frame_base + %d, "
                          "%s, %d))"
                          % (EV_LLD if op == _LWL else EV_LST, after,
                             4 * ins[1], self.const(self.fn_name), pc))
        elif op == _SLOOP:
            if traced:
                self.emit("buf_append((%d, cycles + %d, %d, %d, frame_id))"
                          % (EV_SLOOP, after, ins[1], ins[2]))
        elif op == _EOI:
            if traced:
                self.emit("buf_append((%d, cycles + %d, %d, 0, 0))"
                          % (EV_EOI, after, ins[1]))
        elif op == _ELOOP:
            if traced:
                self._eloop(ins[1], pc, after, i)
        elif op == _READSTATS:
            if traced:
                self.emit("buf_append((%d, cycles + %d, %d, 0, 0))"
                          % (EV_READSTATS, after, ins[1]))
        # NOP and fast-mode annotations: cost-only, no code

    # -- assembly --------------------------------------------------------

    def build(self) -> Tuple[str, List]:
        n = len(self.entries)
        total = sum(self.costs)
        lines = self.lines
        lines.append("def _factory(K, java_div, java_mod, apply_binop, "
                     "apply_unop, apply_intrinsic):")
        # both modes share one signature; fast superblocks ignore
        # frame_id (only annotated-local events carry it)
        lines.append("    def _superblock(slots, cycles, executed, "
                     "frame_id, env):")
        if self.mode == MODE_TRACED:
            lines.append("        (limit, heap_load_addr, "
                         "heap_store_addr, heap_allocate, heap_length,")
            lines.append("         printed, buf, buf_append, "
                         "on_mem_batch, on_eloop) = env")
            # local_address(frame_id, 0); a local's event address is
            # this plus four bytes per slot
            lines.append("        frame_base = %d + (frame_id << 16)"
                         % LOCAL_ADDRESS_BASE)
        else:
            lines.append("        (limit, heap_load, heap_store, "
                         "heap_allocate, heap_length, printed) = env")
        lines.append("        while True:")
        lines.append("            if executed + %d > limit:" % n)
        lines.append("                " + self._exit(self.anchor, 0, 0))
        prefix = 0
        for i, (pc, ins, taken) in enumerate(self.entries):
            before = prefix
            after = prefix + self.costs[i]
            self.lower(i, pc, ins, taken, before, after,
                       last=(i == n - 1))
            prefix = after
        lines.append("            cycles += %d" % total)
        lines.append("            executed += %d" % n)
        if self.exit_pc is not None:
            # tail trace: one straightline pass, then hand the backedge
            # target back to the trace point for chaining.  Everything
            # is committed at this point, so no validity check is
            # needed after the flush — we exit either way
            if self.mode == MODE_TRACED:
                lines.append("            if len(buf) >= %d:" % FLUSH_AT)
                lines.append("                on_mem_batch(buf)")
                lines.append("                buf.clear()")
            lines.append("            return (%d, cycles, executed)"
                         % self.exit_pc)
        elif self.mode == MODE_TRACED:
            # one flush check per iteration instead of one per event:
            # batch boundaries are not observable (each entry carries
            # its exact cycle), only order is, and eloop flushes
            # synchronously above
            lines.append("            if len(buf) >= %d:" % FLUSH_AT)
            lines.append("                on_mem_batch(buf)")
            lines.append("                buf.clear()")
            lines.append("                if not _valid[0]:")
            lines.append("                    "
                         + self._exit(self.anchor, 0, 0))
        lines.append("    return _superblock")
        return "\n".join(lines) + "\n", self.consts


def link_trace(jit: TraceJIT, mode: str, fn_name: str, anchor: int,
               entries: List[tuple], costs: List[int],
               n_slots: int, code_len: int,
               exit_pc: Optional[int] = None) -> LinkedTrace:
    """Verify a recording, compile its superblock, register the trace."""
    from repro.runtime.values import (
        apply_binop,
        apply_intrinsic,
        apply_unop,
        java_div,
        java_mod,
    )
    verify_trace(fn_name, anchor, entries, code_len, n_slots, exit_pc)
    emitter = _Emitter(mode, fn_name, anchor, entries, costs, exit_pc)
    source, consts = emitter.build()
    valid = [True]
    namespace: Dict = {"_valid": valid}
    code = compile(source, "<trace %s+%d %s>" % (fn_name, anchor, mode),
                   "exec")
    exec(code, namespace)  # noqa: S102 - our own generated source
    fn = namespace["_factory"](tuple(consts), java_div, java_mod,
                               apply_binop, apply_unop, apply_intrinsic)
    trace = LinkedTrace(fn, len(entries), anchor, fn_name, mode,
                        frozenset(pc for pc, _ins, _t in entries), valid,
                        exit_pc)
    jit._all.append(trace)
    jit.linked += 1
    return trace


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------

def record_and_link(jit: TraceJIT, mode: str, fn_name: str, anchor: int,
                    code: List[tuple], costs: List[int], n_slots: int,
                    slots: List, heap, printed: List,
                    cycles: int, executed: int, limit: int,
                    listener, buf: Optional[List], frame_id: int,
                    tail: bool = False) -> Tuple[int, int, int]:
    """Execute from ``anchor`` with full interpreter semantics while
    recording the path taken; link a superblock if the trace closes.

    A loop trace (``tail=False``) closes when control returns to the
    anchor; a tail trace (``tail=True``) closes at the *first* taken
    backedge, wherever it leads — the straightline from a hot side
    exit back to some loop header.  In fast mode ``listener`` and
    ``buf`` are None and ``frame_id`` is -1: nothing is published.

    Returns ``(pc, cycles, executed)`` for the interpreter to resume
    from — the recorder *is* execution, so all side effects (heap,
    printed output, published events) are real whether or not the
    recording succeeds.  Failure modes update the anchor state:
    blacklisted (``None``) for structural failures, re-armed countdown
    for a mid-recording code patch.
    """
    from repro.runtime.values import (
        apply_binop,
        apply_intrinsic,
        apply_unop,
    )
    from repro.errors import HeapError

    jit.recordings += 1
    state = jit.state_for(fn_name, mode + TAIL if tail else mode,
                          len(code))
    epoch0 = jit.epoch[0]
    traced = mode == MODE_TRACED
    entries: List[tuple] = []
    max_ops = jit.max_ops

    heap_load_addr = heap.load_addr
    heap_store_addr = heap.store_addr
    frame_base = LOCAL_ADDRESS_BASE + (frame_id << 16)
    if traced:
        on_mem_batch = listener.on_mem_batch

        def publish(entry):
            buf.append(entry)
            if len(buf) >= FLUSH_AT:
                on_mem_batch(buf)
                buf.clear()

    pc = anchor
    while True:
        ins = code[pc]
        op = ins[0]
        if op == _CALL or op == _RET or len(entries) >= max_ops:
            # structural stop before executing: the generic loop takes
            # over at this pc, and the anchor never records again --
            # unless a loop recording ran off its loop into the RET
            # (see MAX_RET_MISSES), which re-arms for the next backedge
            jit.recordings_aborted += 1
            if op == _RET and not tail:
                key = (fn_name, mode, anchor)
                misses = jit._ret_misses.get(key, 0) + 1
                if misses < MAX_RET_MISSES:
                    jit._ret_misses[key] = misses
                    state[anchor] = 1
                    return pc, cycles, executed
            jit.blacklist(state, anchor)
            return pc, cycles, executed
        cycles += costs[pc]
        executed += 1
        if executed > limit:
            raise ExecutionError(
                "instruction budget exceeded (%d)" % limit, pc, fn_name)
        taken = None
        npc = pc + 1
        if op == _BIN:
            try:
                slots[ins[1]] = apply_binop(
                    ins[4], slots[ins[2]], slots[ins[3]])
            except ExecutionError as exc:
                raise ExecutionError(str(exc), pc, fn_name) from None
        elif op == _CONST:
            slots[ins[1]] = ins[5]
        elif op == _MOV:
            slots[ins[1]] = slots[ins[2]]
        elif op == _BR:
            taken = bool(slots[ins[1]])
            npc = ins[2] if taken else ins[3]
        elif op == _JMP:
            npc = ins[1]
        elif op == _ALOAD:
            try:
                slots[ins[1]], address = heap_load_addr(slots[ins[2]],
                                                        slots[ins[3]])
            except HeapError as exc:
                raise ExecutionError(str(exc), pc, fn_name) from None
            if traced:
                publish((EV_LD, cycles, address, fn_name, pc))
        elif op == _ASTORE:
            try:
                address = heap_store_addr(slots[ins[1]], slots[ins[2]],
                                          slots[ins[3]])
            except HeapError as exc:
                raise ExecutionError(str(exc), pc, fn_name) from None
            if traced:
                publish((EV_ST, cycles, address, fn_name, pc))
        elif op == _UN:
            try:
                slots[ins[1]] = apply_unop(ins[4], slots[ins[2]])
            except ExecutionError as exc:
                raise ExecutionError(str(exc), pc, fn_name) from None
        elif op == _NEWARR:
            try:
                slots[ins[1]] = heap.allocate(slots[ins[2]])
            except HeapError as exc:
                raise ExecutionError(str(exc), pc, fn_name) from None
        elif op == _LEN:
            try:
                slots[ins[1]] = heap.length(slots[ins[2]])
            except HeapError as exc:
                raise ExecutionError(str(exc), pc, fn_name) from None
        elif op == _INTRIN:
            try:
                slots[ins[1]] = apply_intrinsic(
                    ins[6], [slots[s] for s in ins[7]])
            except ExecutionError as exc:
                raise ExecutionError(str(exc), pc, fn_name) from None
        elif op == _PRINT:
            printed.append(slots[ins[1]])
        elif traced and op == _LWL:
            publish((EV_LLD, cycles, frame_base + 4 * ins[1], fn_name, pc))
        elif traced and op == _SWL:
            publish((EV_LST, cycles, frame_base + 4 * ins[1], fn_name, pc))
        elif traced and op == _SLOOP:
            publish((EV_SLOOP, cycles, ins[1], ins[2], frame_id))
        elif traced and op == _EOI:
            publish((EV_EOI, cycles, ins[1], 0, 0))
        elif traced and op == _ELOOP:
            if buf:
                on_mem_batch(buf)
                buf.clear()
            listener.on_eloop(ins[1], cycles)
        elif traced and op == _READSTATS:
            publish((EV_READSTATS, cycles, ins[1], 0, 0))
        elif op == _NOP or op >= _SLOOP:
            pass  # fast mode: annotations are pure cost
        else:  # pragma: no cover - exhaustive
            raise ExecutionError("unknown opcode %r" % op, pc, fn_name)

        entries.append((pc, ins, taken))
        if traced and jit.epoch[0] != epoch0:
            # a convergence callback patched this function while we
            # were recording: the captured instructions and costs are
            # stale — abandon and re-warm the anchor
            state[anchor] = jit.threshold
            jit.recordings_aborted += 1
            return npc, cycles, executed
        if op == _BR or op == _JMP:
            if tail:
                if npc <= pc:
                    break  # first taken backedge: the tail is complete
            elif npc == anchor:
                break  # the loop closed: a complete linear trace
            elif npc <= pc:
                # a backedge belonging to a different anchor.  Usually
                # the recording just started on an entry's final
                # iteration and ran off the loop exit into surrounding
                # code — re-warm and retry; an anchor that hits a
                # foreign backedge on every attempt (a genuinely outer
                # loop) exhausts its budget and blacklists
                jit.recordings_aborted += 1
                key = (fn_name, mode, anchor)
                attempts = jit._attempts.get(key, 0) + 1
                if attempts >= MAX_RECORD_ATTEMPTS:
                    jit.blacklist(state, anchor)
                else:
                    jit._attempts[key] = attempts
                    # re-warm with a phase shift: a loop with a fixed
                    # trip count revisits its anchor a fixed number of
                    # times per entry, so an unchanged countdown would
                    # re-trigger recording on the same (final)
                    # iteration of a later entry forever
                    state[anchor] = jit.threshold + attempts
                return npc, cycles, executed
        pc = npc

    exit_pc = npc if tail else None
    try:
        state[anchor] = link_trace(jit, mode, fn_name, anchor, entries,
                                   costs, n_slots, len(code), exit_pc)
    except TraceJITError:
        jit.blacklist(state, anchor)
    return (anchor if exit_pc is None else exit_pc), cycles, executed
