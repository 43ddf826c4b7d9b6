"""Trace-driven speculative-execution simulator for Hydra (the "Actual"
series of Figure 11).

Given the thread windows of one selected STL (split from the columnar
recording, see :mod:`repro.tls.thread_trace`) and its speculative
compilation summary, :class:`TraceSimulator` schedules the threads over
the CMP's ``p`` CPUs.  Both speculative models replay through its one
per-entry loop:

* threads are dispatched in sequential order, round-robin over CPUs; a
  CPU is busy until its previous thread *commits*, and threads commit
  in order; loop startup/shutdown and per-thread EOI overheads from
  Table 2 are charged;
* compiler-eliminated locals (inductors, reductions, invariants) never
  conflict, and loads a thread's own store already covered never leave
  its store buffer;
* globalized (forwarded) locals synchronize with the store-load
  communication delay.

The model fixes the *dependence policy* for the rest:

* Restart-on-violation (Hydra TLS, the default).  A RAW violation — a
  speculative thread loaded a heap address before an earlier thread's
  store to it — restarts the consumer at the store time plus the
  Table 2 violation/restart penalty, unless the compilation applies
  the Section 6.3 ``synchronize_heap`` optimization, which makes heap
  arcs wait like locals.  Per-thread speculative state is tracked in
  the set-associative L1 read state and the fully associative store
  buffer; a thread that overflows stalls at the overflow point until
  it becomes the head thread, and its stores after that point are
  published at their drained times.
* Post/wait (``post_wait=True``: speculative DOACROSS, see
  :mod:`repro.models.doacross`).  Every cross-thread arc waits for its
  producer's post.  One :class:`~repro.tls.predictor.LiveInPredictor`,
  shared across the STL's entries, gates local arcs: a correct
  confident prediction skips the wait, a wrong one waits and pays the
  restart penalty on top.  The predictor is fed at each kept local
  store event, as the thread streams through: a consume of an address
  only happens before the thread's own store of it (later loads are
  forwarded), and addresses never interact, so this equals training at
  the end of the thread.  Iterations commit as they go, so nothing
  overflows.

Because the estimators work from *averaged* statistics while this
simulator replays the *actual* per-iteration behaviour (thread-size
variance, real violation timing, associativity), their disagreement
reproduces the imprecision effects of Section 6.2.

Each thread is replayed in one pass over its slice of the recording's
columns.  As an event streams through it is classified (eliminated and
other-frame locals dropped, loads covered by the thread's own store
forwarded), checked against the Table 1 speculative buffers, and
resolved against the latest visible store of its address; only the
thread's kept stores are buffered, to be published once its start time
is known.  An entry's windows are index lists (event bounds, start
cycles, sizes) and contiguous, so the three event columns are sliced
once per entry and each thread consumes its share of one ``zip``; no
per-thread object is built.

The first overflow is found by counting distinct lines per load-buffer
set and distinct store-buffer lines.  That is exact for the LRU
buffers of :mod:`repro.hydra.cache`: a speculative line is only ever
evicted by an overflow, so LRU order cannot matter before the first
one fires.
"""

from __future__ import annotations

import time
from itertools import islice
from operator import sub
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.hydra.cache import FullyAssocBuffer, SetAssocCache
from repro.hydra.config import DEFAULT_HYDRA, HydraConfig
from repro.jit.speculative import STLCompilation
from repro.runtime.events import (
    KIND_LD,
    KIND_LLD,
    KIND_LST,
    KIND_ST,
    local_address,
)
from repro.runtime.heap import LINE_SIZE
from repro.tls.predictor import LiveInPredictor
from repro.tls.thread_trace import EntryTrace


class EntryResult:
    """Timing outcome of one STL entry under TLS."""

    __slots__ = ("parallel_cycles", "sequential_cycles", "violations",
                 "overflows", "threads")

    def __init__(self, parallel_cycles: int, sequential_cycles: int,
                 violations: int, overflows: int, threads: int):
        self.parallel_cycles = parallel_cycles
        self.sequential_cycles = sequential_cycles
        self.violations = violations
        self.overflows = overflows
        self.threads = threads


class TLSResult:
    """Aggregate TLS outcome for one STL across all its entries."""

    def __init__(self, loop_id: int):
        self.loop_id = loop_id
        self.parallel_cycles = 0
        self.sequential_cycles = 0
        self.violations = 0
        self.overflows = 0
        self.threads = 0
        self.entries = 0

    def add(self, entry: EntryResult) -> None:
        self.parallel_cycles += entry.parallel_cycles
        self.sequential_cycles += entry.sequential_cycles
        self.violations += entry.violations
        self.overflows += entry.overflows
        self.threads += entry.threads
        self.entries += 1

    @property
    def speedup(self) -> float:
        """Measured speculative speedup over sequential execution."""
        if self.parallel_cycles <= 0:
            return 1.0
        return self.sequential_cycles / self.parallel_cycles

    @property
    def violation_rate(self) -> float:
        """Violations per thread."""
        return self.violations / self.threads if self.threads else 0.0

    def invariant_errors(self, config: HydraConfig = DEFAULT_HYDRA
                         ) -> list:
        """Scheduling-model violations in this aggregate (empty = ok).

        The conformance fuzz campaign runs this after every simulated
        STL.  Each rule is a consequence of Hydra's execution model, so
        a violation always indicates a simulator bug:

        * counters are non-negative and overflowing threads are a
          subset of scheduled threads;
        * ``p`` CPUs cannot speed anything up more than ``p``-fold;
        * an entry with threads pays at least the Table 2 loop
          startup + shutdown overhead, so the aggregate parallel time
          is bounded below by ``entries`` times that.
        """
        errors = []

        def need(cond: bool, rule: str) -> None:
            if not cond:
                errors.append("L%d: %s" % (self.loop_id, rule))

        need(self.parallel_cycles >= 0 and self.sequential_cycles >= 0,
             "negative cycle counters (%d parallel, %d sequential)"
             % (self.parallel_cycles, self.sequential_cycles))
        need(self.violations >= 0,
             "negative violation count %d" % self.violations)
        need(0 <= self.overflows <= self.threads,
             "overflows (%d) outside [0, threads=%d]"
             % (self.overflows, self.threads))
        need(self.entries >= 0 and self.threads >= 0,
             "negative entry/thread counters")
        need(self.speedup <= config.n_cpus + 1e-9,
             "speedup %.3f exceeds the %d-CPU bound"
             % (self.speedup, config.n_cpus))
        if self.threads > 0:
            floor = config.startup_overhead + config.shutdown_overhead
            need(self.parallel_cycles >= floor,
                 "parallel time %d below one entry's %d-cycle "
                 "startup+shutdown floor"
                 % (self.parallel_cycles, floor))
            # every thread occupies its CPU for >= 1 cycle plus the EOI
            # overhead, so the busiest of the p round-robin chains
            # bounds the schedule length from below
            chain = -(-self.threads // config.n_cpus)  # ceil
            need(self.parallel_cycles
                 >= chain * (1 + config.eoi_overhead),
                 "parallel time %d cannot cover %d committed threads "
                 "on %d CPUs"
                 % (self.parallel_cycles, self.threads, config.n_cpus))
        return errors

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return ("<TLSResult L%d %.2fx viol/thread=%.3f ovf=%d>"
                % (self.loop_id, self.speedup, self.violation_rate,
                   self.overflows))


class DoacrossResult(TLSResult):
    """TLS-shaped aggregate with post/wait and predictor accounting.

    ``violations`` counts live-in mispredictions (each charges the
    restart penalty, the DOACROSS analogue of a TLS violation);
    ``overflows`` is structurally zero.
    """

    model = "doacross"

    def __init__(self, loop_id):
        TLSResult.__init__(self, loop_id)
        #: arcs synchronized by a plain post/wait — every heap arc and
        #: every local arc without a confident prediction — counted
        #: whether or not the wait delayed the consumer
        self.posts = 0
        #: confident live-in predictions consumed by a waiter
        self.predictions = 0
        #: of those, predictions that were correct (wait skipped)
        self.predicted_hits = 0

    @property
    def prediction_hit_rate(self):
        if self.predictions == 0:
            return 0.0
        return self.predicted_hits / self.predictions

    def __repr__(self):  # pragma: no cover - debugging aid
        return ("<DoacrossResult L%d %.2fx posts=%d pred=%d/%d>"
                % (self.loop_id, self.speedup, self.posts,
                   self.predicted_hits, self.predictions))


class TraceSimulator:
    """Replays one STL's thread traces on the CMP under one dependence
    policy (see the module docstring).

    With ``engine`` attached (a :class:`~repro.tls.engine.TraceEngine`
    over the columnar recording the entries were split from), the
    replay's wall-clock is booked under the engine's ``resolve`` phase.
    """

    def __init__(self, compilation: STLCompilation,
                 config: HydraConfig = DEFAULT_HYDRA,
                 engine=None, post_wait: bool = False):
        self.compilation = compilation
        self.config = config
        self.engine = engine
        #: dependence policy: post/wait (DOACROSS) when set, else
        #: restart-on-violation (Hydra TLS)
        self.post_wait = post_wait
        #: local slots the replay drops: eliminated (inductors,
        #: reductions) plus register-allocated invariants
        self._eliminated = (compilation.eliminated_slots
                            | compilation.invariant_slots)
        if not post_wait:
            # reject a malformed Table 1 geometry up front, as the
            # buffer models of repro.hydra.cache do
            SetAssocCache(config.load_buffer_lines, config.load_buffer_assoc)
            FullyAssocBuffer(config.store_buffer_lines)
        #: ``(overflow rel, thread size)`` of every thread that
        #: overflowed during the last :meth:`simulate`
        self.overflow_points: List[Tuple[int, int]] = []

    def simulate(self, entries: List[EntryTrace]) -> TLSResult:
        """Simulate every entry of the STL.  Post/wait shares one
        live-in predictor across the entries, so it warms on early
        entries exactly as a persistent hardware table would."""
        loop_id = self.compilation.loop_id
        if self.post_wait:
            result = DoacrossResult(loop_id)
            predictor = LiveInPredictor()
        else:
            result = TLSResult(loop_id)
            predictor = None
        self.overflow_points = []
        t0 = time.perf_counter()
        for entry in entries:
            self._simulate_entry(entry, result, predictor)
        if self.engine is not None:
            self.engine.stats.book("resolve", time.perf_counter() - t0)
        return result

    def _simulate_entry(self, entry: EntryTrace, result: TLSResult,
                        predictor: Optional[LiveInPredictor]) -> None:
        cfg = self.config
        n = len(entry.sizes)
        if n == 0:
            result.add(EntryResult(0, entry.total_cycles, 0, 0, 0))
            return

        # one stream over the entry's events; thread j takes the next
        # bounds[j + 1] - bounds[j] of them
        rec, bounds = entry.recording, entry.bounds
        lo, hi = bounds[0], bounds[-1]
        events = zip(rec.kinds[lo:hi], rec.addresses[lo:hi],
                     rec.cycles[lo:hi])
        windows = zip(map(sub, bounds[1:], bounds), entry.starts,
                      entry.sizes)
        # the entry frame's locals, minus the eliminated slots; every
        # other frame's locals are a callee's (frame ids are unique per
        # activation), so they never carry a cross-thread arc
        frame_lo = local_address(entry.frame_id, 0)
        frame_hi = frame_lo + 0x10000
        dropped = {local_address(entry.frame_id, slot)
                   for slot in self._eliminated}
        line_size = LINE_SIZE
        # post/wait commits iterations as they go: no speculative buffer
        buffered = not self.post_wait
        assoc = cfg.load_buffer_assoc
        n_sets = cfg.load_buffer_lines // assoc
        store_capacity = cfg.store_buffer_lines

        p = cfg.n_cpus
        comm = cfg.store_load_comm_overhead
        restart = cfg.violation_restart_overhead
        eoi = cfg.eoi_overhead
        # post/wait waits on every heap arc; restart-on-violation does
        # only under the Section 6.3 synchronization optimization
        wait_heap = self.post_wait or self.compilation.synchronize_heap
        if predictor is not None:
            consume = predictor.consume
            histories = predictor.histories
        else:
            consume = histories = None

        #: address -> absolute time its latest store became visible
        last_store: Dict[int, int] = {}
        cpu_free = [0] * p
        commit_prev = 0
        prev_start = cfg.startup_overhead  # loop startup before thread 0
        violations = overflows = posts = hits = 0

        for j, (count, w_start, size) in enumerate(windows):
            start = max(cpu_free[j % p], prev_start)
            #: address -> rel of this thread's latest store to it: the
            #: kept stores, published once the thread is placed, and the
            #: own-store forwarding set
            stored: Dict[int, int] = {}
            heap_deps: List[Tuple[int, int]] = []
            # first overflow: distinct lines per load-buffer set and in
            # the store buffer, counted until one exceeds its capacity
            overflow_at = None
            tracking = buffered
            load_lines = set()
            set_fill: Dict[int, int] = {}
            store_lines = set()

            for kind, addr, cyc in islice(events, count):
                if kind == KIND_LLD:
                    # a dropped local is never stored, so it never finds
                    # a producer here and needs no filtering
                    if addr in stored:
                        continue
                    store_abs = last_store.get(addr)
                    if store_abs is None:
                        continue
                    # Locals wait for the producer's store plus the
                    # store-load communication delay.  A confident
                    # live-in prediction skips the wait when right, and
                    # waits and restarts from the load when wrong.
                    need = store_abs + comm - (cyc - w_start)
                    if consume is not None:
                        outcome = consume(addr)
                        if outcome == "hit":
                            hits += 1
                            continue
                        if outcome == "miss":
                            violations += 1
                            need += restart
                        else:
                            posts += 1
                    else:
                        posts += 1
                    if need > start:
                        start = need
                elif kind == KIND_LST:
                    if frame_lo <= addr < frame_hi and addr not in dropped:
                        rel = cyc - w_start
                        stored[addr] = rel
                        if histories is not None:
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
                    store_abs = last_store.get(addr)
                    if store_abs is None:
                        continue
                    if wait_heap:
                        posts += 1
                        need = store_abs + comm - (cyc - w_start)
                        if need > start:
                            start = need
                    else:
                        heap_deps.append((cyc - w_start, store_abs))
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

            # Restart on violation: a heap violation fires when the
            # producing store executes and the consumer has already
            # read the address; the consumer restarts *then* (store
            # time + restart penalty) and re-executes, so later loads
            # land later and may no longer violate.  Each restart
            # strictly raises the start time, so this converges; the
            # bound only protects against a modelling bug.
            if heap_deps:
                for _ in range(100_000):
                    violated = [store_abs for rel, store_abs in heap_deps
                                if start + rel < store_abs]
                    if not violated:
                        break
                    violations += 1
                    start = min(violated) + restart
                else:  # pragma: no cover - safety net
                    raise SimulationError(
                        "violation resolution did not converge")

            # publish this thread's stores for later consumers; stores
            # issued after an overflow point only drain once the thread
            # resumes as head, so their visible time shifts accordingly
            if overflow_at is None:
                finish = start + size + eoi
                for addr, rel in stored.items():
                    last_store[addr] = start + rel
            else:
                overflows += 1
                self.overflow_points.append((overflow_at, size))
                # stall at the overflow point until head, then drain
                resume = max(start + overflow_at, commit_prev)
                finish = resume + (size - overflow_at) + eoi
                for addr, rel in stored.items():
                    last_store[addr] = (resume + (rel - overflow_at)
                                        if rel > overflow_at
                                        else start + rel)

            if finish > commit_prev:
                commit_prev = finish
            cpu_free[j % p] = commit_prev
            prev_start = start

        result.add(EntryResult(commit_prev + cfg.shutdown_overhead,
                               entry.total_cycles, violations,
                               overflows, n))
        if predictor is not None:
            # consumption-side books: a prediction counts when a waiter
            # used it, and every post/wait violation is a misprediction,
            # so violations == predictions - hits by construction (the
            # predictor's own counters are the training-side view and
            # include unconsumed predictions)
            result.predictions += hits + violations
            result.predicted_hits += hits
            result.posts += posts


def simulate_stl(compilation: STLCompilation, entries: List[EntryTrace],
                 config: HydraConfig = DEFAULT_HYDRA,
                 engine=None) -> TLSResult:
    """One-call wrapper: replay all entries of one selected STL under
    the restart-on-violation (Hydra TLS) dependence policy."""
    return TraceSimulator(compilation, config, engine=engine) \
        .simulate(entries)
