"""Trace-event listener protocol.

The interpreter publishes the events the TEST hardware observes
(Section 5.1 / Table 4 of the paper):

* heap loads and stores with byte addresses (communicated automatically
  by the memory instructions when tracing is enabled);
* annotated local-variable loads/stores (``lwl``/``swl``);
* STL markers (``sloop``/``eoi``/``eloop``) and statistics reads.

Every callback receives the current cycle timestamp.  The per-event
callbacks identify a local variable by ``(frame_id, slot)``, so
recursion never aliases; the batched entries carry the same pair as
one synthetic :func:`local_address`.
"""

from __future__ import annotations

from array import array
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple)


class TraceListener:
    """Base listener; every callback defaults to a no-op.

    Subclasses: the TEST device (:class:`repro.tracer.device.TestDevice`),
    the software-only profiler, and the recording listener below.
    """

    def on_load(self, address: int, cycle: int,
                fn: str = "", pc: int = -1) -> None:
        """A heap load of ``address`` completed at ``cycle``.

        ``fn``/``pc`` identify the load instruction — the TEST device
        bins dependency statistics by load PC (Section 6.3); other
        listeners ignore them.
        """

    def on_store(self, address: int, cycle: int,
                 fn: str = "", pc: int = -1) -> None:
        """A heap store to ``address`` completed at ``cycle``."""

    def on_local_load(self, frame_id: int, slot: int, cycle: int,
                      fn: str = "", pc: int = -1) -> None:
        """An annotated local-variable load (``lwl``)."""

    def on_local_store(self, frame_id: int, slot: int, cycle: int,
                       fn: str = "", pc: int = -1) -> None:
        """An annotated local-variable store (``swl``)."""

    def on_sloop(self, loop_id: int, n_locals: int, cycle: int,
                 frame_id: int = -1) -> None:
        """Entry into a potential STL (``sloop``).

        ``frame_id`` is the activation record executing the loop; banks
        use it to ignore same-numbered local slots of other frames.
        """

    def on_eoi(self, loop_id: int, cycle: int) -> None:
        """End of one STL iteration (``eoi``)."""

    def on_eloop(self, loop_id: int, cycle: int) -> None:
        """Exit from a potential STL (``eloop``)."""

    def on_readstats(self, loop_id: int, cycle: int) -> None:
        """The program read collected statistics for ``loop_id``."""

    def on_mem_batch(self, events) -> None:
        """A batch of trace events in program order.

        The interpreter buffers heap and annotated-local accesses and
        the ``sloop``/``eoi``/``readstats`` markers in one ordered list
        and delivers it in one call per batch, which drops the
        per-event Python call overhead.  Every entry has one shape,
        ``(code, cycle, a, f, p)``::

            (EV_LD,  cycle, address, fn, pc)
            (EV_ST,  cycle, address, fn, pc)
            (EV_LLD, cycle, local_address(frame_id, slot), fn, pc)
            (EV_LST, cycle, local_address(frame_id, slot), fn, pc)
            (EV_SLOOP, cycle, loop_id, n_locals, frame_id)
            (EV_EOI, cycle, loop_id, 0, 0)
            (EV_READSTATS, cycle, loop_id, 0, 0)

        The four memory codes equal the recording's ``KIND_*`` codes
        and sort below the marker codes, so ``code < EV_SLOOP`` selects
        the memory entries.  A local access arrives in its
        :func:`local_address` form, computed once where the event is
        emitted; :func:`local_slot` inverts it.

        A batch is flushed when it reaches 512 entries and before every
        ``eloop``, which alone stays a direct :meth:`on_eloop` call: its
        handler may fire the Sec. 5.2 convergence callback, which
        patches code and so changes the cycles of what runs next.  A
        batch can therefore span loop entries and iterations; listeners
        that keep per-activation state must update it at the marker
        entries.

        ``events`` is only valid for the duration of the call (the
        interpreter reuses the buffer); listeners that retain events
        must copy them.  The default implementation replays the batch
        through the per-event callbacks (decoding each local address
        back to its ``(frame_id, slot)``), so per-event listeners work
        unchanged and see the same callback stream an unbatched
        interpreter would produce.  The device and the columnar
        recording override it with one loop over the entries.
        """
        on_load = self.on_load
        on_store = self.on_store
        on_local_load = self.on_local_load
        on_local_store = self.on_local_store
        for code, cycle, a, f, p in events:
            if code == EV_LD:
                on_load(a, cycle, f, p)
            elif code == EV_ST:
                on_store(a, cycle, f, p)
            elif code == EV_LLD:
                frame_id, slot = local_slot(a)
                on_local_load(frame_id, slot, cycle, f, p)
            elif code == EV_LST:
                frame_id, slot = local_slot(a)
                on_local_store(frame_id, slot, cycle, f, p)
            elif code == EV_EOI:
                self.on_eoi(a, cycle)
            elif code == EV_SLOOP:
                self.on_sloop(a, f, cycle, p)
            else:
                self.on_readstats(a, cycle)


class MemEvent(NamedTuple):
    """One recorded memory/local event, for trace-driven TLS simulation."""

    cycle: int
    kind: str          # 'ld', 'st', 'lld', 'lst'
    address: int       # byte address; locals use a synthetic space


class LoopMark(NamedTuple):
    """One recorded loop marker."""

    cycle: int
    kind: str          # 'sloop', 'eoi', 'eloop'
    loop_id: int


#: Synthetic address space for local variables: far above any heap
#: address, one "word" per (frame, slot).
LOCAL_ADDRESS_BASE = 1 << 40


def local_address(frame_id: int, slot: int) -> int:
    """Synthetic byte address for a local variable.  Invertible (see
    :func:`local_slot`) for ``0 <= slot < 1 << 14``, which the bytecode
    verifier enforces (:data:`repro.bytecode.program.MAX_SLOTS`)."""
    return LOCAL_ADDRESS_BASE + (frame_id << 16) + slot * 4


def local_slot(address: int) -> Tuple[int, int]:
    """``(frame_id, slot)`` of a :func:`local_address`."""
    off = address - LOCAL_ADDRESS_BASE
    return off >> 16, (off & 0xFFFF) >> 2


class RecordingListener(TraceListener):
    """Records the full event stream as rows, for the reference trace
    splitter (:mod:`repro.tls.thread_trace`) and for tests."""

    def __init__(self):
        self.mem: List[MemEvent] = []
        self.marks: List[LoopMark] = []
        #: frame id of each recorded sloop mark, in order
        self.sloop_frames: List[int] = []

    def on_load(self, address, cycle, fn="", pc=-1):
        self.mem.append(MemEvent(cycle, "ld", address))

    def on_store(self, address, cycle, fn="", pc=-1):
        self.mem.append(MemEvent(cycle, "st", address))

    def on_local_load(self, frame_id, slot, cycle, fn="", pc=-1):
        self.mem.append(
            MemEvent(cycle, "lld", local_address(frame_id, slot)))

    def on_local_store(self, frame_id, slot, cycle, fn="", pc=-1):
        self.mem.append(
            MemEvent(cycle, "lst", local_address(frame_id, slot)))

    def on_sloop(self, loop_id, n_locals, cycle, frame_id=-1):
        self.marks.append(LoopMark(cycle, "sloop", loop_id))
        self.sloop_frames.append(frame_id)

    def on_eoi(self, loop_id: int, cycle: int) -> None:
        self.marks.append(LoopMark(cycle, "eoi", loop_id))

    def on_eloop(self, loop_id: int, cycle: int) -> None:
        self.marks.append(LoopMark(cycle, "eloop", loop_id))


#: integer kind codes of the columnar trace layout (one byte per event)
KIND_LD, KIND_ST, KIND_LLD, KIND_LST = 0, 1, 2, 3
KIND_NAMES = ("ld", "st", "lld", "lst")

#: batch entry codes (see :meth:`TraceListener.on_mem_batch`): the
#: memory codes are the recording's kind codes, the markers sort above
EV_LD, EV_ST, EV_LLD, EV_LST = KIND_LD, KIND_ST, KIND_LLD, KIND_LST
EV_SLOOP, EV_EOI, EV_READSTATS = 4, 5, 6

#: integer kind codes of the columnar mark layout (one byte per mark)
MARK_SLOOP, MARK_EOI, MARK_ELOOP = 0, 1, 2
MARK_NAMES = ("sloop", "eoi", "eloop")


class ColumnarRecording(TraceListener):
    """Structure-of-arrays recording of the full event stream.

    Instead of one :class:`MemEvent` tuple per access, events land in
    three parallel flat columns fed directly from the interpreter's
    batched delivery:

    * ``kinds`` — one byte per event (:data:`KIND_LD` .. ``KIND_LST``);
    * ``cycles`` — ``array('q')`` of completion timestamps;
    * ``addresses`` — ``array('q')`` of byte addresses (locals use the
      synthetic :func:`local_address` space).

    The interpreter's cycle counter only ever increases, so ``cycles``
    is sorted by construction: it doubles as the shared cycle index the
    trace splitter bisects, with no per-call rebuild and no per-thread
    event materialization (see :mod:`repro.tls.thread_trace`).

    Loop marks are columns too, because they are not rare: the 26
    Table 6 programs record 320,231 marks against ~1.69M events, about
    1:5.  Stored as :class:`LoopMark` rows they made unpickling those
    26 profile artifacts take ~0.5 s; as columns it takes ~0.035 s
    (both on a shared 2-CPU x86-64 host).

    The mark columns:

    * ``mark_kinds`` — one byte per mark (:data:`MARK_SLOOP` ..
      ``MARK_ELOOP``);
    * ``mark_cycles`` — ``array('q')`` of mark timestamps;
    * ``mark_loops`` — ``array('i')`` of loop ids;
    * ``sloop_frames`` — ``array('q')``, the frame id of each sloop
      mark, in order.

    :meth:`loop_marks` serves one loop's mark positions from a per-loop
    index (one ``array('i')`` per loop), built in one pass on first use,
    so the splitter reads only the marks of the loop it windows.  The
    index is pickled with the columns: a cached profile's recording
    splits without rebuilding it, and a pickle saved without it
    rebuilds it on first use.
    ``marks`` materializes the row view (tests / debugging only).
    """

    #: the seven columns, event columns first
    COLUMNS = ("kinds", "cycles", "addresses", "mark_kinds",
               "mark_cycles", "mark_loops", "sloop_frames")

    def __init__(self):
        self.kinds = bytearray()
        self.cycles = array("q")
        self.addresses = array("q")
        self.mark_kinds = bytearray()
        self.mark_cycles = array("q")
        self.mark_loops = array("i")
        self.sloop_frames = array("q")
        #: (mark count, loop id -> mark positions), built on first use
        self._loop_index: Optional[Tuple[int, Dict[int, array]]] = None

    def __getstate__(self):
        # the index ships with the columns, so an unpickled recording
        # splits without a pass over every mark; a state saved without
        # it (None) rebuilds on first use
        self._index()
        return self.__dict__

    def __len__(self) -> int:
        return len(self.kinds)

    def events(self) -> Iterator[MemEvent]:
        """Row view of the columns (tests / debugging; not a hot path)."""
        names = KIND_NAMES
        for i in range(len(self.kinds)):
            yield MemEvent(self.cycles[i], names[self.kinds[i]],
                           self.addresses[i])

    @property
    def marks(self) -> List[LoopMark]:
        """Row view of the mark columns (tests / debugging only)."""
        names = MARK_NAMES
        return [LoopMark(cycle, names[kind], loop_id)
                for kind, cycle, loop_id in zip(
                    self.mark_kinds, self.mark_cycles, self.mark_loops)]

    def loop_marks(self, loop_id: int) -> Sequence[int]:
        """Positions in the mark columns of ``loop_id``'s marks, in
        order."""
        return self._index().get(loop_id, ())

    def _index(self) -> Dict[int, array]:
        """The per-loop mark index: built on first use, rebuilt when
        more marks arrive."""
        loops = self.mark_loops
        cached = self._loop_index
        if cached is None or cached[0] != len(loops):
            index: Dict[int, array] = {lid: array("i")
                                       for lid in set(loops)}
            for pos, lid in enumerate(loops):
                index[lid].append(pos)
            cached = self._loop_index = (len(loops), index)
        return cached[1]

    # -- memory events ---------------------------------------------------

    def on_load(self, address, cycle, fn="", pc=-1):
        self.kinds.append(KIND_LD)
        self.cycles.append(cycle)
        self.addresses.append(address)

    def on_store(self, address, cycle, fn="", pc=-1):
        self.kinds.append(KIND_ST)
        self.cycles.append(cycle)
        self.addresses.append(address)

    def on_local_load(self, frame_id, slot, cycle, fn="", pc=-1):
        self.kinds.append(KIND_LLD)
        self.cycles.append(cycle)
        self.addresses.append(local_address(frame_id, slot))

    def on_local_store(self, frame_id, slot, cycle, fn="", pc=-1):
        self.kinds.append(KIND_LST)
        self.cycles.append(cycle)
        self.addresses.append(local_address(frame_id, slot))

    def on_mem_batch(self, events):
        kinds_append = self.kinds.append
        cycles_append = self.cycles.append
        addr_append = self.addresses.append
        mark_kinds_append = self.mark_kinds.append
        mark_cycles_append = self.mark_cycles.append
        mark_loops_append = self.mark_loops.append
        for code, cycle, a, _f, p in events:
            if code < EV_SLOOP:
                kinds_append(code)
                cycles_append(cycle)
                addr_append(a)
            elif code == EV_EOI:
                mark_kinds_append(MARK_EOI)
                mark_cycles_append(cycle)
                mark_loops_append(a)
            elif code == EV_SLOOP:
                mark_kinds_append(MARK_SLOOP)
                mark_cycles_append(cycle)
                mark_loops_append(a)
                self.sloop_frames.append(p)

    # -- loop marks ------------------------------------------------------

    def on_sloop(self, loop_id, n_locals, cycle, frame_id=-1):
        self.mark_kinds.append(MARK_SLOOP)
        self.mark_cycles.append(cycle)
        self.mark_loops.append(loop_id)
        self.sloop_frames.append(frame_id)

    def on_eoi(self, loop_id: int, cycle: int) -> None:
        self.mark_kinds.append(MARK_EOI)
        self.mark_cycles.append(cycle)
        self.mark_loops.append(loop_id)

    def on_eloop(self, loop_id: int, cycle: int) -> None:
        self.mark_kinds.append(MARK_ELOOP)
        self.mark_cycles.append(cycle)
        self.mark_loops.append(loop_id)


class MulticastListener(TraceListener):
    """Fans one event stream out to several listeners."""

    def __init__(self, listeners):
        self.listeners = list(listeners)

    def on_load(self, address, cycle, fn="", pc=-1):
        for lst in self.listeners:
            lst.on_load(address, cycle, fn, pc)

    def on_store(self, address, cycle, fn="", pc=-1):
        for lst in self.listeners:
            lst.on_store(address, cycle, fn, pc)

    def on_local_load(self, frame_id, slot, cycle, fn="", pc=-1):
        for lst in self.listeners:
            lst.on_local_load(frame_id, slot, cycle, fn, pc)

    def on_local_store(self, frame_id, slot, cycle, fn="", pc=-1):
        for lst in self.listeners:
            lst.on_local_store(frame_id, slot, cycle, fn, pc)

    def on_mem_batch(self, events):
        for lst in self.listeners:
            lst.on_mem_batch(events)

    def on_sloop(self, loop_id, n_locals, cycle, frame_id=-1):
        for lst in self.listeners:
            lst.on_sloop(loop_id, n_locals, cycle, frame_id)

    def on_eoi(self, loop_id, cycle):
        for lst in self.listeners:
            lst.on_eoi(loop_id, cycle)

    def on_eloop(self, loop_id, cycle):
        for lst in self.listeners:
            lst.on_eloop(loop_id, cycle)

    def on_readstats(self, loop_id, cycle):
        for lst in self.listeners:
            lst.on_readstats(loop_id, cycle)
