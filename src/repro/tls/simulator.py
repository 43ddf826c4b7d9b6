"""Trace-driven speculative-execution simulator for Hydra (the "Actual"
series of Figure 11).

Given the thread traces of one selected STL and its speculative
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
  arcs wait like locals.  Per-thread speculative state is tracked in a
  true 4-way LRU model of the L1 read state and a fully associative
  store-buffer model; a thread that overflows stalls at the overflow
  point until it becomes the head thread, and its stores after that
  point are published at their drained times.
* Post/wait (``post_wait=True``: speculative DOACROSS, see
  :mod:`repro.models.doacross`).  Every cross-thread arc waits for its
  producer's post.  One :class:`~repro.tls.predictor.LiveInPredictor`,
  shared across the STL's entries, gates local arcs: a correct
  confident prediction skips the wait, a wrong one waits and pays the
  restart penalty on top.  Iterations commit as they go, so nothing
  overflows.

Because the estimators work from *averaged* statistics while this
simulator replays the *actual* per-iteration behaviour (thread-size
variance, real violation timing, associativity), their disagreement
reproduces the imprecision effects of Section 6.2.

Per-thread analysis is factored into two pure kernels so the columnar
:class:`~repro.tls.engine.TraceEngine` can memoize them across
configuration sweeps:

* :func:`prepare_thread` / :func:`prepare_view` — classification: drop
  compiler-eliminated locals and other frames' locals, pre-resolve
  own-store forwarding, and project the heap event sequence.  Depends
  only on the thread's events, its entry's frame and the compilation's
  eliminated-slot sets.
* :func:`overflow_point` — first speculative-buffer overflow of the
  prepared heap sequence.  Depends only on the Table 1 buffer geometry
  (``load_buffer_lines``, ``load_buffer_assoc``, ``store_buffer_lines``).

Everything else (dependency resolution, scheduling) is cheap per config
and re-runs on every sweep point.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.hydra.cache import FullyAssocBuffer, SetAssocCache
from repro.hydra.config import DEFAULT_HYDRA, HydraConfig
from repro.jit.speculative import STLCompilation
from repro.runtime.events import KIND_LD, KIND_LLD, KIND_ST
from repro.runtime.heap import line_of
from repro.tls.predictor import LiveInPredictor
from repro.tls.thread_trace import (
    LOCAL_ADDRESS_BASE,
    EntryTrace,
    ThreadView,
    local_frame_of,
    local_slot_of,
)


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


#: classification kernel output: own-filtered dependency loads, stores
#: in program order, and the heap event projection — each entry is
#: (rel, address, is_local) for the first two and (rel, is_store, line)
#: for the third.  Tuples so memoized values are immutable.
PreparedEvents = Tuple[Tuple[Tuple[int, int, bool], ...],
                       Tuple[Tuple[int, int, bool], ...],
                       Tuple[Tuple[int, bool, int], ...]]


def elimination_key(compilation: STLCompilation) -> frozenset:
    """The slots classification actually reads from a compilation:
    eliminated (inductors/reductions) plus register-allocated
    invariants.  Identical across configuration sweeps of one STL, so
    it doubles as the memo-key projection (the same trick the pipeline
    :class:`~repro.jrpm.cache.ArtifactCache` plays with
    ``profile_config_key``)."""
    return compilation.eliminated_slots | compilation.invariant_slots


def prepare_thread(events, eliminated: frozenset, frame_id: int
                   ) -> PreparedEvents:
    """Classify one row-shaped thread (list of ``(rel, kind, addr)``)
    of an entry executed by frame ``frame_id``.

    Drops compiler-eliminated local accesses and every local of another
    frame (a callee's: frame ids are unique per activation, so those can
    never carry a cross-thread arc), resolves own-store forwarding (a
    load preceded by this thread's own store to the same address never
    leaves the store buffer), and projects the heap event sequence for
    the overflow model.
    """
    dep_loads: List[Tuple[int, int, bool]] = []
    stores: List[Tuple[int, int, bool]] = []
    heap_seq: List[Tuple[int, bool, int]] = []
    own = set()
    for rel, kind, addr in events:
        if kind == "ld":
            heap_seq.append((rel, False, line_of(addr)))
            if addr not in own:
                dep_loads.append((rel, addr, False))
        elif kind == "st":
            heap_seq.append((rel, True, line_of(addr)))
            stores.append((rel, addr, False))
            own.add(addr)
        else:
            if local_frame_of(addr) != frame_id \
                    or local_slot_of(addr) in eliminated:
                continue
            if kind == "lld":
                if addr not in own:
                    dep_loads.append((rel, addr, True))
            else:
                stores.append((rel, addr, True))
                own.add(addr)
    return tuple(dep_loads), tuple(stores), tuple(heap_seq)


def prepare_view(view: ThreadView, eliminated: frozenset, frame_id: int
                 ) -> PreparedEvents:
    """Classify one columnar thread window (same rules as
    :func:`prepare_thread`), reading the shared columns directly — no
    per-event tuple or string materialization.  The window is sliced
    out of the arrays once so the loop iterates a C-level ``zip``
    instead of indexing three columns per event."""
    rec = view.recording
    lo, hi = view.lo, view.hi
    start = view.start
    dep_loads: List[Tuple[int, int, bool]] = []
    stores: List[Tuple[int, int, bool]] = []
    heap_seq: List[Tuple[int, bool, int]] = []
    dep_append = dep_loads.append
    stores_append = stores.append
    heap_append = heap_seq.append
    own = set()
    own_add = own.add
    _line_of = line_of
    for kind, addr, cyc in zip(rec.kinds[lo:hi], rec.addresses[lo:hi],
                               rec.cycles[lo:hi]):
        rel = cyc - start
        if kind == KIND_LD:
            heap_append((rel, False, _line_of(addr)))
            if addr not in own:
                dep_append((rel, addr, False))
        elif kind == KIND_ST:
            heap_append((rel, True, _line_of(addr)))
            stores_append((rel, addr, False))
            own_add(addr)
        else:
            if addr < LOCAL_ADDRESS_BASE:
                continue
            if (addr - LOCAL_ADDRESS_BASE) >> 16 != frame_id:
                continue
            if ((addr & 0xFFFF) >> 2) in eliminated:
                continue
            if kind == KIND_LLD:
                if addr not in own:
                    dep_append((rel, addr, True))
            else:
                stores_append((rel, addr, True))
                own_add(addr)
    return tuple(dep_loads), tuple(stores), tuple(heap_seq)


def overflow_point(heap_seq, config: HydraConfig) -> Optional[int]:
    """Thread-relative cycle of the first speculative-buffer overflow,
    if any (true associativity modelled)."""
    cache = SetAssocCache(config.load_buffer_lines,
                          config.load_buffer_assoc)
    store_buf = FullyAssocBuffer(config.store_buffer_lines)
    cache_touch = cache.touch
    store_touch = store_buf.touch
    for rel, is_store, line in heap_seq:
        if is_store:
            if store_touch(line):
                return rel
        elif cache_touch(line):
            return rel
    return None


class TraceSimulator:
    """Replays one STL's thread traces on the CMP under one dependence
    policy (see the module docstring).

    With ``engine`` attached (a :class:`~repro.tls.engine.TraceEngine`
    over the columnar recording the entries were split from), the
    per-thread classification and overflow kernels are memoized across
    simulator instances — i.e. across the configurations of a sweep.
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
        self._eliminated = elimination_key(compilation)

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
        engine = self.engine
        if engine is None:
            for entry in entries:
                self._simulate_entry(entry, result, predictor)
            return result
        with engine.stats.timed_exclusive("resolve"):
            for entry in entries:
                self._simulate_entry(entry, result, predictor)
        return result

    def _simulate_entry(self, entry: EntryTrace, result: TLSResult,
                        predictor: Optional[LiveInPredictor]) -> None:
        cfg = self.config
        threads = entry.threads
        n = len(threads)
        if n == 0:
            result.add(EntryResult(0, entry.total_cycles, 0, 0, 0))
            return

        engine = self.engine
        eliminated = self._eliminated
        memoized = engine is not None and type(threads[0]) is ThreadView
        if memoized:
            prepared = engine.prepare_entry(
                self.compilation.loop_id, entry, eliminated)
        else:
            frame_id = entry.frame_id
            prepared = [
                prepare_view(t, eliminated, frame_id)
                if type(t) is ThreadView
                else prepare_thread(t.events, eliminated, frame_id)
                for t in threads]
        if self.post_wait:
            # iterations commit as they go: no speculative buffer
            overflow_ats = repeat(None, n)
        elif memoized:
            overflow_ats = engine.overflow_entry(
                self.compilation.loop_id, entry, prepared, cfg)
        else:
            overflow_ats = [overflow_point(p[2], cfg) for p in prepared]

        p = cfg.n_cpus
        comm = cfg.store_load_comm_overhead
        restart = cfg.violation_restart_overhead
        eoi = cfg.eoi_overhead
        # post/wait waits on every heap arc; restart-on-violation does
        # only under the Section 6.3 synchronization optimization
        wait_heap = self.post_wait or self.compilation.synchronize_heap
        consume = predictor.consume if predictor is not None else None

        #: address -> absolute time its latest store became visible
        last_store: Dict[int, int] = {}
        cpu_free = [0] * p
        commit_prev = 0
        prev_start = cfg.startup_overhead  # loop startup before thread 0
        violations = overflows = posts = hits = 0

        for j, (thread, (dep_loads, stores, _), overflow_at) in \
                enumerate(zip(threads, prepared, overflow_ats)):
            start = max(cpu_free[j % p], prev_start)

            # Locals, and heap arcs under ``wait_heap``, wait for the
            # producer's store plus the store-load communication delay.
            # A confident live-in prediction skips the wait when right,
            # and waits and restarts from the load when wrong.
            heap_deps = []
            for rel, addr, is_local in dep_loads:
                store_abs = last_store.get(addr)
                if store_abs is None:
                    continue
                if not (is_local or wait_heap):
                    heap_deps.append((rel, store_abs))
                    continue
                need = store_abs + comm - rel
                if is_local and consume is not None:
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
                finish = start + thread.size + eoi
                for rel, addr, _ in stores:
                    last_store[addr] = start + rel
            else:
                overflows += 1
                # stall at the overflow point until head, then drain
                resume = max(start + overflow_at, commit_prev)
                finish = resume + (thread.size - overflow_at) + eoi
                for rel, addr, _ in stores:
                    last_store[addr] = (resume + (rel - overflow_at)
                                        if rel > overflow_at
                                        else start + rel)
            if consume is not None:
                for rel, addr, is_local in stores:
                    if is_local:
                        predictor.observe(addr, rel)

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
