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
``synchronize_heap`` and dependence policy in O(threads + dependences),
without reading an event.  :func:`plan_key` names what a plan depends
on; :class:`~repro.tls.engine.TraceEngine` memoises plans under it.

The first overflow is found by counting distinct lines per load-buffer
set and distinct store-buffer lines.  That is exact for the LRU
buffers of :mod:`repro.hydra.cache`: a speculative line is only ever
evicted by an overflow, so LRU order cannot matter before the first
one fires.
"""

from __future__ import annotations

from array import array
from itertools import islice, repeat
from operator import sub
from typing import FrozenSet, List, Tuple

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

_PREDICTED = {None: DEP_LOCAL, "hit": DEP_HIT, "miss": DEP_MISS}


class ReplayPlan:
    """One loop's exposed dependences and thread shapes, in columns.

    Threads are numbered across the loop's entries in order; entry
    ``e`` owns the next ``entry_threads[e]`` of them.  Thread ``t``
    owns the next ``dep_counts[t]`` dependences; a dependence's
    ``producer`` is the number of the thread whose store it reads
    (always in the same entry), and ``load_rel``/``store_rel`` are the
    load's and the store's cycle offsets in their threads.
    """

    __slots__ = ("entry_cycles", "entry_threads", "sizes", "overflow",
                 "dep_counts", "load_rel", "producer", "store_rel",
                 "kinds")

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
