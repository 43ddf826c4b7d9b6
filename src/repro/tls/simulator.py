"""Trace-driven speculative-execution simulator for Hydra (the "Actual"
series of Figure 11).

A replay of one selected STL is two pure steps:

* the **plan** (:mod:`repro.tls.plan`) walks the loop's events once and
  keeps only what no timing knob can change: thread sizes, each
  thread's first buffer-overflow offset, and each exposed dependence
  (load offset, producer thread, store offset, and for a local arc the
  live-in predictor's outcome).  Compiler-eliminated locals
  (inductors, reductions, invariants) and other frames' locals never
  conflict, and loads a thread's own store already covered never leave
  its store buffer, so none of them reaches the plan;
* the **timing pass** (:func:`schedule`) reads only the plan: one
  compaction per plan and policy (:meth:`ReplayPlan.waits
  <repro.tls.plan.ReplayPlan.waits>` folds a thread's dependences on
  one producer to the one that arrives last), then O(threads + wait
  entries) per configuration.  It is the only place ``n_cpus``, the
  Table 2 overheads, ``synchronize_heap`` and the dependence policy
  are read.

:meth:`repro.tls.engine.TraceEngine.replay` runs the two over the
engine's memoised plan, so every model and configuration with the same
buffer geometry shares one event walk per loop, and every configuration
with the same policy shares one compaction.

The timing pass fixes these rules for both models:

* threads are dispatched in sequential order, round-robin over CPUs; a
  CPU is busy until its previous thread *commits*, and threads commit
  in order; loop startup/shutdown and per-thread EOI overheads from
  Table 2 are charged;
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
  trained across the STL's entries as the plan is built, gates local
  arcs: a correct confident prediction skips the wait, a wrong one
  waits and pays the restart penalty on top.  Iterations commit as
  they go, so nothing overflows.

Because the estimators work from *averaged* statistics while this
simulator replays the *actual* per-iteration behaviour (thread-size
variance, real violation timing, associativity), their disagreement
reproduces the imprecision effects of Section 6.2.
"""

from __future__ import annotations

from itertools import islice, repeat
from typing import List, Tuple

from repro.errors import SimulationError
from repro.hydra.config import DEFAULT_HYDRA, HydraConfig
from repro.jit.speculative import STLCompilation
from repro.tls.plan import (
    NO_OVERFLOW,
    POST_WAIT,
    RESTART,
    RESTART_SYNC,
    ReplayPlan,
)


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

    def add(self, parallel_cycles: int, sequential_cycles: int,
            violations: int, overflows: int, threads: int) -> None:
        """Add one entry's timing outcome."""
        self.parallel_cycles += parallel_cycles
        self.sequential_cycles += sequential_cycles
        self.violations += violations
        self.overflows += overflows
        self.threads += threads
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


def schedule(plan: ReplayPlan, compilation: STLCompilation,
             config: HydraConfig, post_wait: bool = False) -> TLSResult:
    """The timing pass: schedule ``plan``'s threads under ``config``.
    The dependence policy is post/wait (DOACROSS) when ``post_wait`` is
    set, else restart-on-violation (Hydra TLS), with heap arcs waiting
    under ``synchronize_heap``.  The pass reads the policy's
    :class:`~repro.tls.plan.WaitPlan`, folded once per plan and policy,
    in O(threads + wait entries)."""
    loop_id = compilation.loop_id
    if post_wait:
        result = DoacrossResult(loop_id)
        policy = POST_WAIT
    else:
        result = TLSResult(loop_id)
        policy = RESTART_SYNC if compilation.synchronize_heap \
            else RESTART
    waits = plan.waits(policy)
    p = config.n_cpus
    comm = config.store_load_comm_overhead
    restart = config.violation_restart_overhead
    eoi = config.eoi_overhead
    # post/wait commits iterations as they go: nothing overflows, and a
    # thread's second base is its start plus the restart penalty a
    # mispredicted live-in pays on top of its wait
    overflow = repeat(NO_OVERFLOW) if post_wait else plan.overflow
    penalty = restart if post_wait else 0
    #: each thread's two bases (see WaitPlan): its start time at
    #: ``t``, its drain base or its start plus the penalty at
    #: ``second + t``
    second = len(plan.sizes)
    bases = [0] * (2 * second)
    threads = zip(plan.sizes, overflow, waits.counts,
                  waits.checks or repeat(0))
    entries = zip(waits.slots, waits.lags)
    checks = zip(waits.check_slots, waits.check_lags)
    first = 0

    for total, n in zip(plan.entry_cycles, plan.entry_threads):
        if n == 0:
            result.add(0, total, 0, 0, 0)
            continue
        cpu_free = [0] * p
        commit_prev = 0
        prev_start = config.startup_overhead  # loop startup first
        violations = overflows = 0

        # round-robin: thread t runs on CPU t % p, so each entry's
        # first thread takes any CPU, all being free
        for t, (size, ov, count, check) in enumerate(islice(threads, n),
                                                     first):
            cpu = t % p
            start = cpu_free[cpu]
            if prev_start > start:
                start = prev_start
            if count:
                # wait for each producer's latest store plus the
                # store-load communication delay
                for slot, lag in islice(entries, count):
                    ready = bases[slot] + lag + comm
                    if ready > start:
                        start = ready
            # a heap load that ran before its store violated
            if check and max([bases[slot] + lag for slot, lag
                              in islice(checks, check)]) > start:
                start, restarts = _restart(start, [
                    (load, bases[slot] + store) for load, slot, store
                    in waits.heap_rows(plan, t)], restart)
                violations += restarts

            if ov == NO_OVERFLOW:
                finish = start + size + eoi
                bases[second + t] = start + penalty
            else:
                # stall at the overflow point until head, then drain
                overflows += 1
                resume = max(start + ov, commit_prev)
                finish = resume + (size - ov) + eoi
                bases[second + t] = resume - ov
            bases[t] = start
            if finish > commit_prev:
                commit_prev = finish
            cpu_free[cpu] = commit_prev
            prev_start = start
        first += n

        result.add(commit_prev + config.shutdown_overhead, total,
                   violations, overflows, n)
    if post_wait:
        # consumption-side books: a prediction counts when a waiter
        # used it, and every post/wait violation is a misprediction,
        # so violations == predictions - hits by construction
        result.violations += waits.misses
        result.predictions += waits.hits + waits.misses
        result.predicted_hits += waits.hits
        result.posts += waits.posts
    return result


def _restart(start: int, heap_deps: List[Tuple[int, int]],
             restart: int) -> Tuple[int, int]:
    """Restart on violation: ``(start, violations)`` of a thread that
    starts at ``start`` and loads at ``(load rel, store time)``
    ``heap_deps``.

    A heap violation fires when the producing store executes and the
    consumer has already read the address; the consumer restarts
    *then* (store time + restart penalty) and re-executes, so later
    loads land later and may no longer violate.  Each restart strictly
    raises the start time, so this converges; the bound only protects
    against a modelling bug.
    """
    for violations in range(100_000):
        violated = [store_abs for load, store_abs in heap_deps
                    if start + load < store_abs]
        if not violated:
            return start, violations
        start = min(violated) + restart
    raise SimulationError(  # pragma: no cover - safety net
        "violation resolution did not converge")

