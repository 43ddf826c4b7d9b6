"""Sequential cycle-cost interpreter.

This is the reproduction's stand-in for a single Hydra core running
JIT-compiled native code.  It executes bytecode deterministically,
accumulates a cycle count from :class:`~repro.runtime.costs.CostModel`,
and — when a :class:`~repro.runtime.events.TraceListener` is attached —
publishes exactly the events the TEST hardware would observe.

Design notes
------------
* The call stack is explicit (no Python recursion), so deeply recursive
  workloads cannot blow the host stack.
* Each function's instruction stream is predecoded once into a dispatch
  table of flat operand tuples ``(op, a, b, c, sub, imm, name, args)``
  with the opcode as a plain int, alongside a flat cycle-cost list.
  The hot loop dispatches on the precomputed int — no per-instruction
  attribute lookups, no enum comparisons.
* One execution loop serves both modes.  With no listener attached,
  annotation opcodes reduce to a cost charge and a pc bump and heap
  accesses publish nothing — the path plain sequential runs take.
  With one, the loop publishes trace events, batching heap and
  annotated-local accesses and the ``sloop``/``eoi``/``readstats``
  markers into one ordered buffer that is delivered via
  :meth:`~repro.runtime.events.TraceListener.on_mem_batch`, so
  per-event Python call overhead is paid once per batch instead of once
  per access.  The mode is a local fixed at entry and tested only in
  the heap-access and annotation arms.  Every entry has the shape
  ``(code, cycle, a, f, p)``: a memory entry is
  ``(EV_*, cycle, address, fn, pc)``, with an annotated local already
  in its ``local_address(frame_id, slot)`` form (the loop keeps the
  current frame's base address), and a marker carries its loop id in
  ``a``.
* A batch is flushed at 512 entries and before every ``eloop``, the one
  marker delivered synchronously: its handler may fire the Sec. 5.2
  convergence callback, which patches ``READSTATS`` sites mid-run and
  so changes the cycles of every instruction that follows.  A batch may
  span loop entries and iterations; listeners track the activation
  stack at its marker entries.
* The loop hands a hot backedge target to one trace point,
  :func:`_trace_point`, which warms, records, runs and chains the
  :mod:`~repro.runtime.tracejit` superblocks of the run's mode; fast
  and traced superblocks share one signature, and fast ones ignore the
  frame id.  ``trace_jit=False`` turns the JIT off and leaves the plain
  loop, the reference the JIT is checked against.
* The cycle counter only ever increases, so the event stream (and each
  batch) is emitted in non-decreasing cycle order.  The columnar trace
  engine depends on this invariant: ``ColumnarRecording`` appends
  batches straight into flat columns and the cycles column is sorted by
  construction, which is what lets thread windowing bisect it without
  building a separate index.
* ``max_instructions`` bounds runaway programs with a clear error.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.bytecode.opcodes import Op
from repro.bytecode.program import Function, Program
from repro.errors import ExecutionError, HeapError
from repro.runtime.costs import DEFAULT_COSTS, CostModel
from repro.runtime.events import (
    EV_EOI,
    EV_LD,
    EV_LLD,
    EV_LST,
    EV_READSTATS,
    EV_SLOOP,
    EV_ST,
    LOCAL_ADDRESS_BASE,
    TraceListener,
)
from repro.runtime.heap import Heap
from repro.runtime.tracejit import (
    _ALOAD,
    _ASTORE,
    _BIN,
    _BR,
    _CALL,
    _CONST,
    _ELOOP,
    _EOI,
    _INTRIN,
    _JMP,
    _LEN,
    _LWL,
    _MOV,
    _NEWARR,
    _NOP,
    _PRINT,
    _READSTATS,
    _RET,
    _SLOOP,
    _SWL,
    _UN,
    BLACKLIST_MIN_OPS,
    BLACKLIST_PROBE,
    FLUSH_AT,
    MODE_FAST,
    MODE_TRACED,
    TAIL,
    TraceJIT,
    record_and_link,
)
from repro.runtime.values import apply_binop, apply_intrinsic, apply_unop


def _decode_one(ins) -> tuple:
    """One instruction as a flat dispatch-table entry."""
    return (int(ins.op), ins.a, ins.b, ins.c, ins.sub, ins.imm,
            ins.name, ins.args)


class RunResult:
    """Outcome of one program execution.

    ``jit`` is a deterministic trace-JIT counter snapshot (see
    :meth:`~repro.runtime.tracejit.TraceJIT.snapshot`), or ``None``
    when the trace JIT was disabled for the run.
    """

    def __init__(self, cycles: int, instructions: int, return_value,
                 heap: Heap, printed: List, jit=None):
        self.cycles = cycles
        self.instructions = instructions
        self.return_value = return_value
        self.heap = heap
        self.printed = printed
        self.jit = jit

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<RunResult cycles=%d instrs=%d ret=%r>" % (
            self.cycles, self.instructions, self.return_value)


def _trace_point(jit, mode, jstate, anchor, fn_name, code, costs, slots,
                 heap, printed, cycles, executed, limit, jenv, listener,
                 buf, frame_id):
    """Handle a hot backedge target in the dispatch loop.

    The inline site has already filtered blacklisted anchors; here the
    anchor is either warming (int countdown), due for recording, or
    linked.  Linked traces *chain*: after each invocation the exit pc
    is dispatched to the next linked trace — the loop trace at a
    backedge target, or a tail trace at a hot side exit — so control
    only returns to the generic loop when no superblock covers the
    exit.  A listener-less run passes ``listener=None`` and its
    (always empty) buffer; fast superblocks ignore ``frame_id``.
    Returns ``(pc, cycles, executed)`` for the loop to adopt.
    """
    trace = jstate[anchor]
    if trace.__class__ is int:
        if trace > 1:
            jstate[anchor] = trace - 1
            return anchor, cycles, executed
        return record_and_link(jit, mode, fn_name, anchor, code, costs,
                               len(slots), slots, heap, printed, cycles,
                               executed, limit, listener, buf, frame_id)
    tstate = jit.state_for(fn_name, mode + TAIL, len(code))
    state = jstate
    while True:
        res = trace.fn(slots, cycles, executed, frame_id, jenv)
        delta = res[2] - executed
        trace.invocations += 1
        trace.ops += delta
        full = delta // trace.n_ops
        trace.iterations += full
        if delta - full * trace.n_ops:
            trace.aborts += 1
        if trace.invocations == BLACKLIST_PROBE and \
                trace.ops < BLACKLIST_PROBE * BLACKLIST_MIN_OPS:
            jit.blacklist(state, trace.anchor)
        if delta == 0:
            # budget exit: no progress was committed, so chaining would
            # spin — the generic loop re-executes and raises exactly
            return res
        npc = res[0]
        cycles = res[1]
        executed = res[2]
        nxt = jstate[npc]
        if nxt is not None and nxt.__class__ is not int:
            trace = nxt
            state = jstate
            continue
        nxt = tstate[npc]
        if nxt is None:
            return res
        if nxt.__class__ is int:
            if nxt > 1:
                tstate[npc] = nxt - 1
                return res
            return record_and_link(jit, mode, fn_name, npc, code, costs,
                                   len(slots), slots, heap, printed,
                                   cycles, executed, limit, listener,
                                   buf, frame_id, tail=True)
        trace = nxt
        state = tstate


class Interpreter:
    """Executes a :class:`~repro.bytecode.program.Program`."""

    def __init__(self, program: Program,
                 cost_model: CostModel = None,
                 listener: Optional[TraceListener] = None,
                 max_instructions: int = 200_000_000,
                 trace_jit: bool = True,
                 trace_jit_threshold: Optional[int] = None):
        self.program = program
        self.cost_model = cost_model if cost_model is not None \
            else DEFAULT_COSTS
        self.listener = listener
        self.max_instructions = max_instructions
        self._cost_cache = {}
        self._decoded_cache = {}
        # linked traces persist across run() calls of this instance,
        # like the decoded/cost caches they are compiled from
        self.trace_jit = trace_jit
        self._jit = TraceJIT(threshold=trace_jit_threshold) \
            if self.trace_jit else None

    def patch_cost(self, fn_name: str, pc: int, op: Op,
                   sub: int = 0) -> None:
        """Refresh one cached instruction after code patching (the
        runtime overwrites converged loops' READSTATS with NOPs, and
        running frames hold references to the cached cost and dispatch
        lists).  ``sub`` is the sub-opcode (BIN/UN) of the new
        instruction — cycle costs depend on it."""
        cached = self._cost_cache.get(fn_name)
        if cached is not None:
            cached[pc] = self.cost_model.cost(op, sub)
        decoded = self._decoded_cache.get(fn_name)
        if decoded is not None:
            fn = self.program.functions.get(fn_name)
            if fn is not None:
                # the cached slot count stays valid: the runtime's
                # READSTATS -> NOP patch can only lower it
                decoded[0][pc] = _decode_one(fn.code[pc])
        if self._jit is not None:
            # superblocks covering this pc baked the old decoded form
            # and cost prefixes in as constants: drop them and re-arm
            # their anchors (one already on the stack side-exits at its
            # next validity check); traces elsewhere stay linked
            self._jit.invalidate_function(fn_name, pc)

    def _costs_for(self, fn: Function) -> List[int]:
        cached = self._cost_cache.get(fn.name)
        if cached is None:
            cost = self.cost_model.cost
            cached = [cost(ins.op, ins.sub) for ins in fn.code]
            self._cost_cache[fn.name] = cached
        return cached

    def _decoded_for(self, fn: Function) -> Tuple[List[tuple], int]:
        """``(dispatch table, slot count)`` of ``fn``, decoded once:
        :attr:`Function.n_slots` rescans the whole code."""
        cached = self._decoded_cache.get(fn.name)
        if cached is None:
            cached = ([_decode_one(ins) for ins in fn.code], fn.n_slots)
            self._decoded_cache[fn.name] = cached
        return cached

    def run(self) -> RunResult:
        """Execute from the entry function to completion, publishing
        trace events when a listener is attached."""
        heap = Heap()
        printed: List = []
        listener = self.listener
        traced = listener is not None
        mode = MODE_TRACED if traced else MODE_FAST
        functions = self.program.functions
        next_frame_id = 0

        entry = self.program.main
        fn_name = entry.name
        code, n_slots = self._decoded_for(entry)
        costs = self._costs_for(entry)
        slots = [0] * n_slots
        dst = -1
        pc = 0
        frame_id = next_frame_id
        next_frame_id += 1
        #: local_address(frame_id, 0): an annotated local's event
        #: address is this plus four bytes per slot
        frame_base = LOCAL_ADDRESS_BASE + (frame_id << 16)
        #: (code, costs, slots, return pc, dst, fn_name, frame_id,
        #: jstate)
        stack: List[tuple] = []

        cycles = 0
        executed = 0
        limit = self.max_instructions

        heap_load = heap.load
        heap_store = heap.store
        heap_load_addr = heap.load_addr
        heap_store_addr = heap.store_addr
        flush_at = FLUSH_AT

        # one ordered buffer for heap and local accesses and every loop
        # marker but eloop; flushed when full and before each eloop, so
        # listeners observe the exact order the unbatched interface did.
        # Without a listener it stays empty
        buf: List[tuple] = []
        buf_append = buf.append
        if traced:
            on_mem_batch = listener.on_mem_batch
            on_eloop = listener.on_eloop

        jit = self._jit
        if jit is None:
            jstate = None
            jenv = None
        else:
            jstate = jit.state_for(fn_name, mode, len(code))
            if traced:
                # superblocks share buf by identity (cleared, never
                # rebound), so events they append survive the error
                # flush
                jenv = (limit, heap_load_addr, heap_store_addr,
                        heap.allocate, heap.length, printed, buf,
                        buf_append, on_mem_batch, on_eloop)
            else:
                jenv = (limit, heap_load, heap_store, heap.allocate,
                        heap.length, printed)

        try:
            while True:
                ins = code[pc]
                op = ins[0]
                cycles += costs[pc]
                executed += 1
                if executed > limit:
                    raise ExecutionError(
                        "instruction budget exceeded (%d)" % limit,
                        pc, fn_name)
                if op == _BIN:
                    try:
                        slots[ins[1]] = apply_binop(
                            ins[4], slots[ins[2]], slots[ins[3]])
                    except ExecutionError as exc:
                        raise ExecutionError(
                            str(exc), pc, fn_name) from None
                    pc += 1
                elif op == _CONST:
                    slots[ins[1]] = ins[5]
                    pc += 1
                elif op == _MOV:
                    slots[ins[1]] = slots[ins[2]]
                    pc += 1
                elif op == _BR:
                    npc = ins[2] if slots[ins[1]] else ins[3]
                    if npc <= pc and jstate is not None \
                            and jstate[npc] is not None:
                        pc, cycles, executed = _trace_point(
                            jit, mode, jstate, npc, fn_name, code,
                            costs, slots, heap, printed, cycles,
                            executed, limit, jenv, listener, buf,
                            frame_id)
                    else:
                        pc = npc
                elif op == _JMP:
                    npc = ins[1]
                    if npc <= pc and jstate is not None \
                            and jstate[npc] is not None:
                        pc, cycles, executed = _trace_point(
                            jit, mode, jstate, npc, fn_name, code,
                            costs, slots, heap, printed, cycles,
                            executed, limit, jenv, listener, buf,
                            frame_id)
                    else:
                        pc = npc
                elif op == _ALOAD:
                    try:
                        if traced:
                            slots[ins[1]], address = heap_load_addr(
                                slots[ins[2]], slots[ins[3]])
                        else:
                            slots[ins[1]] = heap_load(
                                slots[ins[2]], slots[ins[3]])
                    except HeapError as exc:
                        raise ExecutionError(
                            str(exc), pc, fn_name) from None
                    if traced:
                        buf_append((EV_LD, cycles, address, fn_name, pc))
                        if len(buf) >= flush_at:
                            on_mem_batch(buf)
                            buf.clear()
                    pc += 1
                elif op == _ASTORE:
                    try:
                        if traced:
                            address = heap_store_addr(
                                slots[ins[1]], slots[ins[2]],
                                slots[ins[3]])
                        else:
                            heap_store(slots[ins[1]], slots[ins[2]],
                                       slots[ins[3]])
                    except HeapError as exc:
                        raise ExecutionError(
                            str(exc), pc, fn_name) from None
                    if traced:
                        buf_append((EV_ST, cycles, address, fn_name, pc))
                        if len(buf) >= flush_at:
                            on_mem_batch(buf)
                            buf.clear()
                    pc += 1
                elif op == _UN:
                    try:
                        slots[ins[1]] = apply_unop(ins[4], slots[ins[2]])
                    except ExecutionError as exc:
                        raise ExecutionError(
                            str(exc), pc, fn_name) from None
                    pc += 1
                elif op == _NEWARR:
                    try:
                        slots[ins[1]] = heap.allocate(slots[ins[2]])
                    except HeapError as exc:
                        raise ExecutionError(
                            str(exc), pc, fn_name) from None
                    pc += 1
                elif op == _LEN:
                    try:
                        slots[ins[1]] = heap.length(slots[ins[2]])
                    except HeapError as exc:
                        raise ExecutionError(
                            str(exc), pc, fn_name) from None
                    pc += 1
                elif op == _INTRIN:
                    try:
                        slots[ins[1]] = apply_intrinsic(
                            ins[6], [slots[s] for s in ins[7]])
                    except ExecutionError as exc:
                        raise ExecutionError(
                            str(exc), pc, fn_name) from None
                    pc += 1
                elif op == _CALL:
                    callee = functions.get(ins[6])
                    if callee is None:
                        raise ExecutionError(
                            "call to unknown function %r" % ins[6],
                            pc, fn_name)
                    callee_code, n_slots = self._decoded_for(callee)
                    new_slots = [0] * n_slots
                    for i, arg_slot in enumerate(ins[7]):
                        new_slots[i] = slots[arg_slot]
                    stack.append((code, costs, slots, pc + 1, dst,
                                  fn_name, frame_id, jstate))
                    dst = ins[1]
                    fn_name = callee.name
                    code = callee_code
                    costs = self._costs_for(callee)
                    slots = new_slots
                    pc = 0
                    frame_id = next_frame_id
                    next_frame_id += 1
                    frame_base = LOCAL_ADDRESS_BASE + (frame_id << 16)
                    if jit is not None:
                        jstate = jit.state_for(fn_name, mode, len(code))
                elif op == _RET:
                    value = slots[ins[1]] if ins[1] >= 0 else None
                    if not stack:
                        if buf:
                            on_mem_batch(buf)
                            buf.clear()
                        return RunResult(
                            cycles, executed, value, heap, printed,
                            None if jit is None else jit.snapshot())
                    (code, costs, slots, pc, ret_dst, fn_name,
                     frame_id, jstate) = stack.pop()
                    frame_base = LOCAL_ADDRESS_BASE + (frame_id << 16)
                    if dst >= 0:
                        slots[dst] = value
                    dst = ret_dst
                # --- annotations: pure cost without a listener -------
                elif op == _LWL:
                    if traced:
                        buf_append((EV_LLD, cycles,
                                    frame_base + 4 * ins[1], fn_name, pc))
                        if len(buf) >= flush_at:
                            on_mem_batch(buf)
                            buf.clear()
                    pc += 1
                elif op == _SWL:
                    if traced:
                        buf_append((EV_LST, cycles,
                                    frame_base + 4 * ins[1], fn_name, pc))
                        if len(buf) >= flush_at:
                            on_mem_batch(buf)
                            buf.clear()
                    pc += 1
                elif op == _EOI:
                    if traced:
                        buf_append((EV_EOI, cycles, ins[1], 0, 0))
                        if len(buf) >= flush_at:
                            on_mem_batch(buf)
                            buf.clear()
                    pc += 1
                elif op == _SLOOP:
                    if traced:
                        buf_append((EV_SLOOP, cycles, ins[1], ins[2],
                                    frame_id))
                        if len(buf) >= flush_at:
                            on_mem_batch(buf)
                            buf.clear()
                    pc += 1
                elif op == _ELOOP:
                    if traced:
                        # the one synchronous marker: its handler may
                        # patch code (Sec. 5.2 convergence), so
                        # everything before it is delivered first
                        if buf:
                            on_mem_batch(buf)
                            buf.clear()
                        on_eloop(ins[1], cycles)
                    pc += 1
                elif op == _READSTATS:
                    if traced:
                        buf_append((EV_READSTATS, cycles, ins[1], 0, 0))
                        if len(buf) >= flush_at:
                            on_mem_batch(buf)
                            buf.clear()
                    pc += 1
                elif op == _PRINT:
                    printed.append(slots[ins[1]])
                    pc += 1
                elif op == _NOP:
                    pc += 1
                else:  # pragma: no cover - exhaustive
                    raise ExecutionError(
                        "unknown opcode %r" % op, pc, fn_name)
        except ExecutionError:
            # deliver events observed before the program faulted.  Only
            # the interpreter's own errors flush: when a listener
            # raises, its batch was already handed over
            if buf:
                on_mem_batch(buf)
                buf.clear()
            raise


def run_program(program: Program,
                cost_model: CostModel = None,
                listener: Optional[TraceListener] = None,
                max_instructions: int = 200_000_000,
                trace_jit: bool = True,
                trace_jit_threshold: Optional[int] = None) -> RunResult:
    """One-call convenience wrapper around :class:`Interpreter`."""
    interp = Interpreter(program, cost_model=cost_model, listener=listener,
                         max_instructions=max_instructions,
                         trace_jit=trace_jit,
                         trace_jit_threshold=trace_jit_threshold)
    return interp.run()
