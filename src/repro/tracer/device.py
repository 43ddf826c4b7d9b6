"""The TEST device: an array of comparator banks behind the trace-event
interface (paper Section 5, Figure 2's dark blocks).

The device is a :class:`~repro.runtime.events.TraceListener`: attach it
to the interpreter running an annotated program and it performs the load
dependency analysis and the speculative-state overflow analysis for
every active potential STL, exactly as the hardware would:

* ``sloop`` allocates a comparator bank (outermost loops get precedence
  because they arrive first; when no bank is free, the activation is
  traced *unbanked* — no statistics — matching the hardware's behaviour
  of disabling analysis for deeply nested loops).  A bank whose STL
  consistently overflows the speculative buffers can be freed and handed
  to a deeper loop.
* heap loads/stores consult and refresh the shared timestamp stores of
  Section 5.3; an active bank is handed each event whose timestamps
  its comparisons can act on.
* ``eoi``/``eloop`` drive the per-thread accumulation, and each
  thread's critical arcs are binned by load site into the loop's
  :class:`~repro.tracer.stats.DependencyProfile` (Section 6.3).

The device also records the *dynamic* loop nesting (which STL was active
when another was entered, including nesting through calls) — this feeds
Equation 2's nest comparison and Table 6's executed loop depth.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.errors import TracerError
from repro.hydra.config import DEFAULT_HYDRA, HydraConfig
from repro.runtime.events import (
    EV_EOI,
    EV_LD,
    EV_LLD,
    EV_LST,
    EV_SLOOP,
    EV_ST,
    TraceListener,
    local_address,
)
from repro.runtime.heap import LINE_SIZE
from repro.tracer.bank import ComparatorBank
from repro.tracer.stats import DependencyProfile, STLStats
from repro.tracer.timestamps import (
    LineTimestampTable,
    LocalTimestampTable,
    StoreTimestampFIFO,
)


class _Activation:
    """One dynamic STL activation on the device's loop stack."""

    __slots__ = ("loop_id", "bank", "local_addresses", "entry_cycle")

    def __init__(self, loop_id: int, bank: Optional[ComparatorBank],
                 local_addresses, entry_cycle: int):
        self.loop_id = loop_id
        self.bank = bank
        #: local addresses whose loads this activation's bank observes:
        #: the slots its loop reserved in its own frame, or the whole
        #: frame when none were registered (None when unbanked)
        self.local_addresses = local_addresses
        #: sloop cycle (lightweight accounting for converged loops)
        self.entry_cycle = entry_cycle


class TestDevice(TraceListener):
    """Functional model of the TEST tracer hardware."""

    #: not a unit-test class, despite the paper's naming (pytest hint)
    __test__ = False

    def __init__(self, config: HydraConfig = DEFAULT_HYDRA,
                 strict: bool = True,
                 convergence_threshold: Optional[int] = None,
                 on_converged=None):
        self.config = config
        self.strict = strict
        #: profiled-thread count after which a loop's statistics are
        #: declared converged and its analysis is disabled (Section 5.2:
        #: "the annotations marking it can be disabled dynamically");
        #: None keeps profiling for the whole run
        self.convergence_threshold = convergence_threshold
        #: callback(loop_id) fired once per loop at convergence — the
        #: runtime uses it to overwrite READSTATS sites with nops
        self.on_converged = on_converged
        #: loops whose statistics converged (lightweight tracking only)
        self.converged: Set[int] = set()
        #: after convergence, one entry in ``sample_every`` is still
        #: fully analyzed so the statistics keep tracking phase changes
        #: (heapify -> extract in a heap sort, say) at a sliver of the
        #: profiling cost
        self.sample_every = 16
        self._entry_counters: Dict[int, int] = {}

        self.heap_ts = StoreTimestampFIFO(config.heap_ts_fifo_entries)
        self.ld_line_ts = LineTimestampTable(config.line_ts_ld_entries)
        self.st_line_ts = LineTimestampTable(config.line_ts_st_entries)
        self.local_ts = LocalTimestampTable(config.local_ts_lines)

        #: persistent per-loop statistics (accumulated across activations)
        self.stats: Dict[int, STLStats] = {}
        #: per-loop critical arcs binned by load site (Figure 8b)
        self.profiles: Dict[int, DependencyProfile] = {}
        #: dynamic nesting: loop -> {parent loop (-1 = top level): count}
        self.dynamic_parents: Dict[int, Dict[int, int]] = {}
        #: loops whose analysis the runtime disabled
        self.disabled: Set[int] = set()
        #: loop id -> frozenset of reserved local slots (sloop n's
        #: reservation, registered out-of-band by the JIT)
        self.loop_locals: Dict[int, frozenset] = {}

        self._stack: List[_Activation] = []
        self._banks_in_use = 0
        #: event counters (diagnostics; the software-profiler model uses
        #: these to cost out a software-only implementation)
        self.n_loads = 0
        self.n_stores = 0
        self.n_local_loads = 0
        self.n_local_stores = 0
        self.n_unbanked_activations = 0
        self.n_bank_steals = 0
        #: executed annotation-marker counts (Figure 6's slowdown
        #: decomposition reads these instead of multicasting the event
        #: stream to a dedicated counting listener)
        self.n_sloop = 0
        self.n_eoi = 0
        self.n_eloop = 0
        self.n_readstats = 0

    # -- bookkeeping ---------------------------------------------------------

    def stats_for(self, loop_id: int) -> STLStats:
        """The persistent stats record for a loop (created on demand)."""
        st = self.stats.get(loop_id)
        if st is None:
            st = STLStats(loop_id)
            self.stats[loop_id] = st
        return st

    def profile_for(self, loop_id: int) -> DependencyProfile:
        """The dependency profile of one loop (empty if never armed)."""
        return self.profiles.get(loop_id, DependencyProfile(loop_id))

    def register_loop_locals(self, loop_id: int, slots) -> None:
        """Tell the device which local slots ``sloop n`` reserved for a
        loop; its bank then ignores other frames' and loops' locals."""
        self.loop_locals[loop_id] = frozenset(slots)

    def disable_loop(self, loop_id: int) -> None:
        """Stop allocating banks for ``loop_id`` (the runtime judged its
        statistics converged, Section 5.2)."""
        self.disabled.add(loop_id)

    @property
    def active_loops(self) -> List[int]:
        """Loop ids currently on the activation stack, outermost first."""
        return [act.loop_id for act in self._stack]

    def _new_bank(self, stats: STLStats) -> ComparatorBank:
        profile = self.profiles.get(stats.loop_id)
        if profile is None:
            profile = DependencyProfile(stats.loop_id)
            self.profiles[stats.loop_id] = profile
        return ComparatorBank(self.config, stats, profile)

    def _try_allocate_bank(self, stats: STLStats) -> Optional[ComparatorBank]:
        if self._banks_in_use < self.config.n_comparator_banks:
            self._banks_in_use += 1
            return self._new_bank(stats)
        # bank stealing: free a consistently-overflowing outer bank so a
        # deeper loop can be analyzed (Section 5.2)
        for act in self._stack:
            bank = act.bank
            if bank is not None and bank.consistently_overflowing():
                act.bank = None
                self.n_bank_steals += 1
                return self._new_bank(stats)
        return None

    # -- loop markers ----------------------------------------------------------

    def on_sloop(self, loop_id: int, n_locals: int, cycle: int,
                 frame_id: int = -1) -> None:
        self.n_sloop += 1
        parent = self._stack[-1].loop_id if self._stack else -1
        parents = self.dynamic_parents.setdefault(loop_id, {})
        parents[parent] = parents.get(parent, 0) + 1

        stats = self.stats_for(loop_id)
        depth = len(self._stack) + 1
        if depth > stats.dynamic_depth:
            stats.dynamic_depth = depth

        bank: Optional[ComparatorBank] = None
        if loop_id in self.converged:
            # converged: keep the cheap counters current (cycles,
            # entries, threads) so Equation 2 sees whole-run coverage;
            # re-arm a bank for every sample_every-th entry so arc and
            # overflow frequencies keep tracking phase changes
            count = self._entry_counters.get(loop_id, 0) + 1
            self._entry_counters[loop_id] = count
            if self.sample_every and count % self.sample_every == 0:
                bank = self._try_allocate_bank(stats)
            if bank is not None:
                bank.start_entry(cycle)
            else:
                stats.entries += 1
        elif loop_id not in self.disabled:
            bank = self._try_allocate_bank(stats)
            if bank is None:
                self.n_unbanked_activations += 1
            else:
                bank.start_entry(cycle)
        addresses = None
        if bank is not None:
            slots = self.loop_locals.get(loop_id)
            if slots is None:
                addresses = range(local_address(frame_id, 0),
                                  local_address(frame_id + 1, 0), 4)
            else:
                addresses = frozenset(local_address(frame_id, slot)
                                      for slot in slots)
        self._stack.append(_Activation(loop_id, bank, addresses, cycle))

    def on_eoi(self, loop_id: int, cycle: int) -> None:
        self.n_eoi += 1
        act = self._top(loop_id, "eoi")
        if act is None:
            return
        if act.bank is not None:
            act.bank.end_iteration(cycle)
        elif loop_id in self.converged:
            self.stats_for(loop_id).threads += 1

    def on_eloop(self, loop_id: int, cycle: int) -> None:
        self.n_eloop += 1
        act = self._top(loop_id, "eloop")
        if act is None:
            return
        if act.bank is not None:
            act.bank.end_entry(cycle)
            self._banks_in_use -= 1
        elif loop_id in self.converged:
            self.stats_for(loop_id).cycles += cycle - act.entry_cycle
        self._stack.pop()
        self._maybe_converge(loop_id)

    def _maybe_converge(self, loop_id: int) -> None:
        threshold = self.convergence_threshold
        if threshold is None or loop_id in self.converged:
            return
        stats = self.stats.get(loop_id)
        if stats is None:
            return
        # converged once enough iterations have been analyzed OR enough
        # whole entries — short-trip loops (a few iterations per entry)
        # stabilize by entry count long before they would by threads
        entry_threshold = max(50, threshold // 20)
        if stats.profiled_threads < threshold \
                and stats.profiled_entries < entry_threshold:
            return
        if any(act.loop_id == loop_id for act in self._stack):
            return  # still active in an outer activation (recursion)
        self.converged.add(loop_id)
        if self.on_converged is not None:
            self.on_converged(loop_id)

    def _top(self, loop_id: int, what: str) -> Optional[_Activation]:
        if not self._stack or self._stack[-1].loop_id != loop_id:
            if self.strict:
                top = self._stack[-1].loop_id if self._stack else None
                raise TracerError(
                    "%s for loop L%d but innermost active loop is %r"
                    % (what, loop_id, top))
            return None
        return self._stack[-1]

    def on_readstats(self, loop_id: int, cycle: int) -> None:
        self.n_readstats += 1

    # -- memory events ---------------------------------------------------------

    # The per-event hooks are one-entry batches through the device's own
    # loop (named explicitly, so a subclass that replays batches through
    # these hooks does not recurse).

    def on_load(self, address, cycle, fn="", pc=-1):
        TestDevice.on_mem_batch(self, ((EV_LD, cycle, address, fn, pc),))

    def on_store(self, address, cycle, fn="", pc=-1):
        TestDevice.on_mem_batch(self, ((EV_ST, cycle, address, fn, pc),))

    def on_local_load(self, frame_id, slot, cycle, fn="", pc=-1):
        TestDevice.on_mem_batch(self, ((
            EV_LLD, cycle, local_address(frame_id, slot), fn, pc),))

    def on_local_store(self, frame_id, slot, cycle, fn="", pc=-1):
        TestDevice.on_mem_batch(self, ((
            EV_LST, cycle, local_address(frame_id, slot), fn, pc),))

    def _armed(self):
        """The armed banks, outermost first, and ``(bank, local
        addresses)`` for those that can observe a local load."""
        banks = []
        local_banks = []
        for act in self._stack:
            bank = act.bank
            if bank is not None:
                banks.append(bank)
                if act.local_addresses:
                    local_banks.append((bank, act.local_addresses))
        return banks, local_banks

    def on_mem_batch(self, events):
        """Process one interpreter event batch.

        One unpacking loop over the ``(code, cycle, a, f, p)`` entries,
        with the table accessors hoisted; the marker entries go to
        ``self.on_sloop`` / ``on_eoi`` / ``on_readstats``.  The armed
        banks are collected once per batch and again after each
        ``sloop``, the only entry that can arm or steal a bank
        (``eloop``, which frees one, is never inside a batch).

        The timestamp tables are kept current for every event, but a
        bank is called only when its comparison can change its state
        (Sec. 4.2): ``observe_load`` when the producer store lies in
        ``[entry_time, thread_start)``, a t-1 or <t-1 arc, and
        ``observe_line_load`` / ``observe_line_store`` when the line's
        old timestamp is missing or older than ``thread_start``, a line
        new to the thread.  :class:`ComparatorBank` keeps the full rule
        set.  Every armed bank has ``entry_time >= 0``, and a missing
        producer reads as -1, below any entry time.

        The line tables and the local-store FIFO are looked up and
        refreshed inline (the steps of their ``lookup`` and ``record``;
        a call per access cost about 12% of the loop's time), and their
        conflict and eviction counts are added once per batch.
        """
        heap_record = self.heap_ts.record
        heap_get = self.heap_ts.get
        ld_tags, ld_times, ld_mask, ld_shift = self.ld_line_ts.parts
        st_tags, st_times, st_mask, st_shift = self.st_line_ts.parts
        local_entries = self.local_ts.entries
        local_get = local_entries.get
        local_capacity = self.local_ts.capacity
        line_size = LINE_SIZE
        n_loads = n_stores = n_local_loads = n_local_stores = 0
        ld_conflicts = st_conflicts = local_evictions = 0
        banks, local_banks = self._armed()
        for code, cycle, a, f, p in events:
            # most frequent codes first (26 Table 6 programs: local
            # loads, heap loads, local stores, eoi, heap stores)
            if code == EV_LLD:
                n_local_loads += 1
                if local_banks:
                    ts = local_get(a, -1)
                    for bank, addresses in local_banks:
                        if bank.entry_time <= ts < bank.thread_start \
                                and a in addresses:
                            bank.observe_load(ts, cycle, True, f, p)
            elif code == EV_LD:
                n_loads += 1
                line = a // line_size
                idx = line & ld_mask
                tag = line >> ld_shift
                old_tag = ld_tags[idx]
                if old_tag == tag:
                    old_line = ld_times[idx]
                else:
                    old_line = None
                    if old_tag is not None:
                        ld_conflicts += 1
                    ld_tags[idx] = tag
                ld_times[idx] = cycle
                if banks:
                    store_ts = heap_get(a, -1)
                    for bank in banks:
                        start = bank.thread_start
                        if bank.entry_time <= store_ts < start:
                            bank.observe_load(store_ts, cycle, False, f, p)
                        if old_line is None or old_line < start:
                            bank.observe_line_load(old_line)
            elif code == EV_LST:
                n_local_stores += 1
                if a in local_entries:
                    del local_entries[a]
                elif len(local_entries) >= local_capacity:
                    local_entries.popitem(last=False)
                    local_evictions += 1
                local_entries[a] = cycle
            elif code == EV_EOI:
                self.on_eoi(a, cycle)
            elif code == EV_ST:
                n_stores += 1
                line = a // line_size
                idx = line & st_mask
                tag = line >> st_shift
                old_tag = st_tags[idx]
                if old_tag == tag:
                    old_line = st_times[idx]
                else:
                    old_line = None
                    if old_tag is not None:
                        st_conflicts += 1
                    st_tags[idx] = tag
                st_times[idx] = cycle
                for bank in banks:
                    if old_line is None or old_line < bank.thread_start:
                        bank.observe_line_store(old_line)
                heap_record(a, cycle)
            elif code == EV_SLOOP:
                self.on_sloop(a, f, cycle, p)
                banks, local_banks = self._armed()
            else:
                self.on_readstats(a, cycle)
        self.ld_line_ts.conflicts += ld_conflicts
        self.st_line_ts.conflicts += st_conflicts
        self.local_ts.evictions += local_evictions
        self.n_loads += n_loads
        self.n_stores += n_stores
        self.n_local_loads += n_local_loads
        self.n_local_stores += n_local_stores

    # -- results ------------------------------------------------------------

    def finish(self) -> None:
        """Validate end-of-run invariants (all activations closed)."""
        if self._stack and self.strict:
            raise TracerError(
                "program ended with %d open STL activations: %r"
                % (len(self._stack), self.active_loops))

    def dominant_parent(self, loop_id: int) -> int:
        """The most frequent dynamic parent of ``loop_id`` (-1 = none)."""
        parents = self.dynamic_parents.get(loop_id)
        if not parents:
            return -1
        return max(parents.items(), key=lambda kv: (kv[1], -kv[0]))[0]

    def max_dynamic_depth(self) -> int:
        """Deepest executed STL nest (Table 6 column d)."""
        return max((s.dynamic_depth for s in self.stats.values()),
                   default=0)

    def report(self, loop_id: int, limit: int = 8) -> str:
        """Human-readable optimization guidance for one STL: its
        hottest load sites (Section 6.3)."""
        stats = self.stats.get(loop_id)
        profile = self.profile_for(loop_id)
        lines = ["Dependency profile for STL L%d" % loop_id]
        if stats is not None:
            lines.append("  avg thread size: %.1f cycles"
                         % stats.avg_thread_size)
        if not profile.bins:
            lines.append("  (no critical arcs recorded)")
            return "\n".join(lines)
        lines.append("  %-28s %6s %10s %8s" %
                     ("load site", "arcs", "avg length", "bin"))
        for (fn, pc, kind), b in sorted(
                profile.bins.items(),
                key=lambda kv: -kv[1].count)[:limit]:
            lines.append("  %-28s %6d %10.1f %8s" %
                         ("%s:%d" % (fn, pc), b.count, b.avg_length, kind))
        return "\n".join(lines)
