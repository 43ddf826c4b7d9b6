"""Replay plans: the part of a loop's replay no timing knob can change.

Replaying one selected STL (:mod:`repro.tls.simulator`) reads the
loop's recorded events, but almost everything it learns from them is
fixed by the trace, the loop's speculative compilation and the Table 1
buffer geometry alone:

* which events never matter: eliminated and invariant locals, other
  frames' locals, and loads a thread's own earlier store forwards;
* for every other load, the latest earlier thread that stored its
  address and that store's offset in its thread — an *exposed
  dependence*;
* each thread's first speculative-buffer overflow offset;
* for a local dependence, how the live-in predictor covered the
  producer's store.  The predictor sees the same stores and consumes
  in the same order whatever the timing, so its outcome is part of
  the trace, not of the schedule.

:func:`build_plan` extracts that once, walking every event of the
loop, into a :class:`ReplayPlan` of ``array`` columns.  The timing pass
then schedules the threads under any ``n_cpus``, Table 2 overheads,
``synchronize_heap`` and dependence policy without reading an event:
one compaction per plan and policy (:func:`fold_waits`, kept on the
plan as a :class:`WaitPlan`), then O(threads + wait entries) per
configuration.  :func:`plan_key` names what a plan depends on;
:class:`~repro.tls.engine.TraceEngine` memoises plans under it.

The first overflow is found by counting distinct lines per load-buffer
set and distinct store-buffer lines.  That is exact for the LRU
buffers of :mod:`repro.hydra.cache`: a speculative line is only ever
evicted by an overflow, so LRU order cannot matter before the first
one fires.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, compress, islice, repeat
from operator import sub
from typing import FrozenSet, Iterable, List, Optional, Tuple

from repro.hydra.config import HydraConfig
from repro.jit.speculative import STLCompilation
from repro.runtime.events import (
    KIND_LD,
    KIND_LLD,
    KIND_LST,
    local_address,
)
from repro.runtime.heap import LINE_SIZE
from repro.tls.predictor import LiveInPredictor
from repro.tls.thread_trace import EntryTrace

#: dependence kinds: a local arc the predictor did not predict, one it
#: predicted right, one it predicted wrong, and a heap arc
DEP_LOCAL, DEP_HIT, DEP_MISS, DEP_HEAP = range(4)

#: overflow offset of a thread that never overflows
NO_OVERFLOW = -1

#: dependence policies of the timing pass: restart-on-violation (Hydra
#: TLS), the same under ``synchronize_heap``, and post/wait (DOACROSS)
RESTART, RESTART_SYNC, POST_WAIT = range(3)

_PREDICTED = {None: DEP_LOCAL, "hit": DEP_HIT, "miss": DEP_MISS}


class ReplayPlan:
    """One loop's exposed dependences and thread shapes, in columns.

    Threads are numbered across the loop's entries in order; entry
    ``e`` owns the next ``entry_threads[e]`` of them.  Thread ``t``
    owns the next ``dep_counts[t]`` dependences; a dependence's
    ``producer`` is the number of the thread whose store it reads
    (always in the same entry), and ``load_rel``/``store_rel`` are the
    load's and the store's cycle offsets in their threads.

    The timing pass reads the dependences through :meth:`waits`: per
    dependence policy, a :class:`WaitPlan` of ``array`` columns folded
    from them on first use and kept with the plan, so a plan memoised
    across runs keeps its folds too.
    """

    __slots__ = ("entry_cycles", "entry_threads", "sizes", "overflow",
                 "dep_counts", "load_rel", "producer", "store_rel",
                 "kinds", "_waits")

    def __init__(self):
        #: sequential cycles of each entry, sloop to eloop
        self.entry_cycles = array("q")
        self.entry_threads = array("l")
        #: sequential cycle length of each thread
        self.sizes = array("q")
        #: first overflow offset of each thread, or NO_OVERFLOW
        self.overflow = array("q")
        self.dep_counts = array("l")
        self.load_rel = array("q")
        self.producer = array("l")
        self.store_rel = array("q")
        #: DEP_LOCAL, DEP_HIT, DEP_MISS or DEP_HEAP
        self.kinds = array("b")
        #: each policy's :class:`WaitPlan`, folded on first use
        self._waits: List[Optional[WaitPlan]] = [None, None, None]

    def waits(self, policy: int) -> "WaitPlan":
        """The plan's dependences as ``policy`` times them (see
        :func:`fold_waits`), folded once and kept with the plan."""
        waits = self._waits[policy]
        if waits is None:
            waits = self._waits[policy] = fold_waits(self, policy)
        return waits

    def overflow_points(self) -> List[Tuple[int, int]]:
        """``(overflow rel, thread size)`` of every thread that
        overflows its speculative buffers, in thread order."""
        return [(ov, size) for ov, size in zip(self.overflow, self.sizes)
                if ov != NO_OVERFLOW]


def dropped_slots(compilation: STLCompilation) -> FrozenSet[int]:
    """Local slots a replay drops: eliminated (inductors, reductions)
    plus register-allocated invariants."""
    return compilation.eliminated_slots | compilation.invariant_slots


def plan_key(compilation: STLCompilation, config: HydraConfig) -> Tuple:
    """Everything a loop's plan depends on besides its trace: the loop,
    its dropped slots and the Table 1 buffer geometry."""
    return (compilation.loop_id, dropped_slots(compilation),
            config.load_buffer_lines, config.load_buffer_assoc,
            config.store_buffer_lines)


def build_plan(entries: List[EntryTrace], compilation: STLCompilation,
               config: HydraConfig) -> ReplayPlan:
    """Walk every event of ``entries`` once and extract their plan (see
    the module docstring).  One live-in predictor runs across the
    entries, as a persistent hardware table would."""
    plan = ReplayPlan()
    eliminated = dropped_slots(compilation)
    line_size = LINE_SIZE
    assoc = config.load_buffer_assoc
    n_sets = config.load_buffer_lines // assoc
    store_capacity = config.store_buffer_lines
    predictor = LiveInPredictor()
    histories = predictor.histories
    consume = predictor.consume
    load_rel = plan.load_rel.append
    producer = plan.producer.append
    store_rel = plan.store_rel.append
    kinds = plan.kinds.append
    overflow = plan.overflow.append
    dep_counts = plan.dep_counts.append
    thread = 0

    for entry in entries:
        plan.entry_cycles.append(entry.total_cycles)
        plan.entry_threads.append(len(entry.sizes))
        plan.sizes.extend(entry.sizes)
        if not entry.sizes:
            continue
        # one stream over the entry's events; each thread takes the
        # next bounds[j + 1] - bounds[j] of them
        rec, bounds = entry.recording, entry.bounds
        lo, hi = bounds[0], bounds[-1]
        events = zip(rec.kinds[lo:hi], rec.addresses[lo:hi],
                     rec.cycles[lo:hi])
        # the entry frame's locals, minus the dropped slots; every other
        # frame's locals are a callee's (frame ids are unique per
        # activation), so they never carry a cross-thread arc
        frame_lo = local_address(entry.frame_id, 0)
        frame_hi = local_address(entry.frame_id + 1, 0)
        dropped = {local_address(entry.frame_id, slot)
                   for slot in eliminated}
        #: address -> the latest earlier thread that stored it, and the
        #: offset of that thread's last store of it
        last_thread = {}
        last_rel = {}

        for count, w_start in zip(map(sub, bounds[1:], bounds),
                                  entry.starts):
            #: address -> offset of this thread's latest store to it:
            #: published when the thread ends, and the own-store
            #: forwarding set
            stored = {}
            deps = len(plan.kinds)
            overflow_at = NO_OVERFLOW
            tracking = True
            load_lines = set()
            set_fill = {}
            store_lines = set()

            for kind, addr, cyc in islice(events, count):
                if kind == KIND_LLD:
                    # a dropped local is never stored, so it never finds
                    # a producer here and needs no filtering
                    if addr in stored:
                        continue
                    rel = last_rel.get(addr)
                    if rel is None:
                        continue
                    load_rel(cyc - w_start)
                    producer(last_thread[addr])
                    store_rel(rel)
                    kinds(_PREDICTED[consume(addr)])
                elif kind == KIND_LST:
                    if frame_lo <= addr < frame_hi and addr not in dropped:
                        rel = cyc - w_start
                        stored[addr] = rel
                        # the thread's own later loads of addr are
                        # forwarded, so no consume sees this early
                        histories[addr].append(rel)
                elif kind == KIND_LD:
                    if tracking:
                        line = addr // line_size
                        if line not in load_lines:
                            load_lines.add(line)
                            s = line % n_sets
                            fill = set_fill.get(s, 0) + 1
                            set_fill[s] = fill
                            if fill > assoc:
                                overflow_at = cyc - w_start
                                tracking = False
                    if addr in stored:
                        continue
                    rel = last_rel.get(addr)
                    if rel is None:
                        continue
                    load_rel(cyc - w_start)
                    producer(last_thread[addr])
                    store_rel(rel)
                    kinds(DEP_HEAP)
                else:  # KIND_ST
                    if tracking:
                        line = addr // line_size
                        if line not in store_lines:
                            if len(store_lines) >= store_capacity:
                                overflow_at = cyc - w_start
                                tracking = False
                            else:
                                store_lines.add(line)
                    stored[addr] = cyc - w_start

            overflow(overflow_at)
            dep_counts(len(plan.kinds) - deps)
            last_rel.update(stored)
            last_thread.update(zip(stored, repeat(thread)))
            thread += 1
    return plan


class WaitPlan:
    """One dependence policy's view of a :class:`ReplayPlan`, folded
    for the timing pass.

    The timing pass keeps two *bases* per thread ``k`` of the plan's
    ``n`` threads: ``base[k]`` is its start time, and ``base[n + k]``
    the time its stores after its overflow point drain (``resume -
    overflow``) under restart-on-violation, or its start time plus the
    restart penalty under post/wait.  A dependence on a store at
    ``store_rel`` in producer ``k``, loaded at ``load_rel``, compares
    its consumer's start with ``base[slot] + store_rel - load_rel``,
    and every dependence of one consumer on one slot shares
    ``base[slot]``, so only the largest ``store_rel - load_rel`` (the
    *lag*) can bind.

    * Waits: thread ``t`` owns the next ``counts[t]`` of the ``(slots,
      lags)`` entries, one per slot it waits on; its start becomes at
      least each entry's base plus lag plus the store-load delay.
    * Heap checks, under restart-on-violation without
      ``synchronize_heap``: thread ``t`` owns the next ``checks[t]``
      of the ``(check_slots, check_lags)`` entries, folded the same
      way.  A load ran before its store iff an entry's base plus lag
      exceeds the thread's start; only then does the timing pass run
      the restart fixed point, over the thread's heap dependences one
      by one (:meth:`heap_rows`, from the plan's columns, where thread
      ``t``'s dependences start at ``firsts[t]``).

    ``posts``, ``hits`` and ``misses`` count post/wait's plain waits,
    correctly predicted (skipped) and mispredicted local arcs; no
    timing knob changes them.  The check columns are empty under the
    other policies.
    """

    __slots__ = ("counts", "slots", "lags", "checks", "check_slots",
                 "check_lags", "firsts", "posts", "hits", "misses")

    def __init__(self):
        # thread numbers, slots and counts fit 32 bits; a plan memo
        # keeps these columns for every loop it holds
        self.counts = array("i")
        self.slots = array("i")
        self.lags = array("q")
        self.checks = array("i")
        self.check_slots = array("i")
        self.check_lags = array("q")
        self.firsts = array("i")
        self.posts = self.hits = self.misses = 0

    def heap_rows(self, plan: ReplayPlan,
                  thread: int) -> List[Tuple[int, int, int]]:
        """``(load_rel, slot, store_rel)`` of each heap dependence of
        ``thread``, one by one, for the restart fixed point."""
        lo, hi = self.firsts[thread], self.firsts[thread + 1]
        stores = plan.store_rel[lo:hi]
        slots = _drained(plan.producer[lo:hi], stores, plan.overflow,
                         len(plan.sizes))
        return [(load, slot, store) for load, slot, store, kind in zip(
                    plan.load_rel[lo:hi], slots, stores, plan.kinds[lo:hi])
                if kind == DEP_HEAP]


def fold_waits(plan: ReplayPlan, policy: int) -> WaitPlan:
    """Fold ``plan``'s dependences into the :class:`WaitPlan` the
    timing pass reads under ``policy`` (:data:`RESTART`,
    :data:`RESTART_SYNC` or :data:`POST_WAIT`), in one walk over the
    dependences."""
    waits = WaitPlan()
    kinds = plan.kinds
    second = len(plan.sizes)
    if policy == POST_WAIT:
        waits.hits = kinds.count(DEP_HIT)
        waits.misses = kinds.count(DEP_MISS)
        waits.posts = len(kinds) - waits.hits - waits.misses
        # a correctly predicted live-in skips its wait; a mispredicted
        # one waits for the second base, its producer's start plus the
        # restart penalty
        skip, penalized, aside = DEP_HIT, DEP_MISS, -1
    else:
        # restart-on-violation checks heap arcs instead of waiting
        # for them, unless they are synchronized
        skip = penalized = -1
        aside = DEP_HEAP if policy == RESTART else -1
    counts = [0] * second
    checks = [0] * second
    wait_slots, wait_lags = [], []
    check_slots, check_lags = [], []
    deps = zip(plan.producer if policy == POST_WAIT
               else _drained_slots(plan), plan.store_rel, plan.load_rel,
               kinds)
    dep_counts = plan.dep_counts
    # only the threads with dependences
    for t, n in compress(enumerate(dep_counts), dep_counts):
        latest = {}
        apart = {}
        for slot, store, load, kind in islice(deps, n):
            if kind == skip:
                continue
            lag = store - load
            if kind != aside:
                if kind == penalized:
                    slot += second
                if slot not in latest or lag > latest[slot]:
                    latest[slot] = lag
            elif slot not in apart or lag > apart[slot]:
                apart[slot] = lag
        counts[t] = len(latest)
        wait_slots.extend(latest)
        wait_lags.extend(latest.values())
        if apart:
            checks[t] = len(apart)
            check_slots.extend(apart)
            check_lags.extend(apart.values())
    waits.counts.extend(counts)
    waits.slots.extend(wait_slots)
    waits.lags.extend(wait_lags)
    if check_slots:
        waits.checks.extend(checks)
        waits.check_slots.extend(check_slots)
        waits.check_lags.extend(check_lags)
        waits.firsts.extend(accumulate(dep_counts, initial=0))
    return waits


def _drained_slots(plan: ReplayPlan) -> Iterable[int]:
    """Each dependence's slot under restart-on-violation (see
    :func:`_drained`); the plain producers when no thread overflows."""
    overflow = plan.overflow
    if overflow.count(NO_OVERFLOW) == len(overflow):
        return plan.producer
    return _drained(plan.producer, plan.store_rel, overflow,
                    len(plan.sizes))


def _drained(producer: Iterable[int], store_rel: Iterable[int],
             overflow: array, second: int) -> List[int]:
    """The drained-base rule: a dependence whose store ran after its
    producer's overflow point waits on the producer's drain base, slot
    ``k + second`` (the :class:`WaitPlan` second base), else on its
    start, slot ``k``."""
    return [k + second if 0 <= overflow[k] < store else k
            for k, store in zip(producer, store_rel)]
