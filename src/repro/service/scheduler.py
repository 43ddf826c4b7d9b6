"""Request scheduling: coalescing, batching, backpressure.

The scheduler is the service's core.  Requests flow through four
states::

    submit ──▶ coalesced      (identical request already in flight:
               │               attach to it, no new work)
               ├─▶ cached     (identical request completed recently:
               │               served from the result cache, O(lookup))
               ├─▶ queued     (admitted to the bounded queue)
               │     │
               │     ▼
               │   running    (dispatcher drained it into a batch and
               │     │         submitted the batch as one fleet)
               │     ▼
               │   resolved   (result stored, waiters woken, key
               │               published to the result cache)
               └─▶ REJECTED   (queue full: QueueFullError → HTTP 429,
                               or shutting down: SchedulerClosedError)

Coalescing rule: two requests coalesce iff their content-addressed
``key`` matches (same workload, config, stages, level, optimize,
models) and the first is still unresolved.  ``fresh=true`` requests
skip the result cache but still coalesce — two concurrent fresh
requests are one computation.

Batching rule: the single dispatcher thread drains up to ``max_batch``
queued entries sharing the head entry's *execution profile* (equal
config/stages/level/optimize/models —
:attr:`AnalyzeRequest.profile_key`) into one :meth:`FleetExecutor.run`
call, amortizing pool dispatch and letting distinct workloads run in
parallel across the warm worker pool.  Entries with other profiles
keep their queue position.

Load shedding: ``submit`` never blocks.  When ``queue_depth`` entries
are already waiting, it raises :class:`QueueFullError` carrying a
``retry_after`` estimate (queue length x recent mean latency), which
the HTTP layer turns into ``429 Retry-After: N`` — the daemon degrades
by refusing, never by collapsing.

Shutdown: :meth:`stop` closes admission (new submits raise
:class:`SchedulerClosedError`), then either drains the queue
(``drain=True``: every admitted request still gets its result) or
fails the queued entries immediately; the dispatcher exits and the
executor's resident pool is closed.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from typing import Any, Callable, Dict, List, Optional

from repro.jrpm.cache import ArtifactCache, diff_stats
from repro.jrpm.executor import FleetExecutor
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import AnalyzeRequest


class QueueFullError(RuntimeError):
    """Admission control refused the request (queue at its bound)."""

    def __init__(self, depth: int, retry_after: float):
        super().__init__(
            "analysis queue is full (%d waiting); retry in ~%.0fs"
            % (depth, retry_after))
        self.depth = depth
        self.retry_after = retry_after


class SchedulerClosedError(RuntimeError):
    """The scheduler is shutting down and admits no new work."""


class _Entry:
    """One in-flight computation and everyone waiting on it."""

    __slots__ = ("key", "request", "event", "outcome", "coalesced",
                 "enqueued_at", "waiters")

    def __init__(self, request: AnalyzeRequest):
        self.key = request.key
        self.request = request
        self.event = threading.Event()
        #: set exactly once by the dispatcher (or shutdown):
        #: {"status": "ok"|"error", ...}
        self.outcome: Optional[Dict[str, Any]] = None
        #: how many later submits attached to this computation
        self.coalesced = 0
        self.enqueued_at = time.monotonic()
        #: handlers still waiting on the outcome; the submitter plus
        #: one per coalesced attachment.  A 504'd handler abandons its
        #: claim; when every claim is abandoned the computation is an
        #: orphan — it still runs to completion (the pool can't cancel
        #: it), but nobody will read the result
        self.waiters = 1


class Ticket:
    """A handle on one submitted request; ``wait()`` for its outcome.

    ``cached`` marks a result served from the result cache without
    touching the queue; ``coalesced`` marks attachment to an earlier
    identical in-flight request.
    """

    def __init__(self, entry: Optional[_Entry] = None,
                 outcome: Optional[Dict[str, Any]] = None,
                 cached: bool = False, coalesced: bool = False,
                 scheduler: Optional["RequestScheduler"] = None):
        self._entry = entry
        self._outcome = outcome
        self._scheduler = scheduler
        self.cached = cached
        self.coalesced = coalesced

    def wait(self, timeout: Optional[float] = None
             ) -> Optional[Dict[str, Any]]:
        """The outcome dict, or None if ``timeout`` expired first."""
        if self._outcome is not None:
            return self._outcome
        if not self._entry.event.wait(timeout):
            return None
        return self._entry.outcome

    def abandon(self) -> None:
        """Release this waiter's claim on the computation (the handler
        timed out and already answered 504; nobody will read the
        outcome through this ticket)."""
        if self._entry is None or self._scheduler is None:
            return
        self._scheduler._abandon(self._entry)


class RequestScheduler:
    """Coalescing, batching, bounded-queue scheduler over a resident
    :class:`FleetExecutor`.

    ``runner`` (tests, benches) replaces the fleet path: a callable
    ``runner(requests) -> [outcome dict, ...]`` invoked by the
    dispatcher with each batch.
    """

    def __init__(self, jobs: int = 1,
                 queue_depth: int = 64,
                 max_batch: int = 8,
                 result_cache_size: int = 256,
                 cache: Optional[ArtifactCache] = None,
                 metrics: Optional[ServiceMetrics] = None,
                 timeout: Optional[float] = None,
                 retries: int = 0,
                 backoff: float = 0.25,
                 rng=None,
                 runner: Optional[Callable[[List[AnalyzeRequest]],
                                           List[Dict[str, Any]]]] = None,
                 trace_jit: bool = True):
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1, got %d"
                             % queue_depth)
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1, got %d" % max_batch)
        self.queue_depth = queue_depth
        self.max_batch = max_batch
        self.result_cache_size = result_cache_size
        self.cache = cache if cache is not None else ArtifactCache()
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        #: resident executor: the worker pool and its PR-3 fault
        #: semantics (timeout/retry/crash recovery) survive across
        #: requests; on_error="row" so one bad workload in a batch
        #: fails only its own requests
        #: interpreter trace JIT for every analysis this service runs
        self.trace_jit = trace_jit
        self.executor = FleetExecutor(
            jobs=jobs, cache=self.cache, on_error="row",
            timeout=timeout, retries=retries, backoff=backoff,
            rng=rng, persistent=True)
        self._runner = runner or self._run_batch

        self._cond = threading.Condition()
        self._queue: deque = deque()          # _Entry, FIFO
        self._inflight: Dict[str, _Entry] = {}  # key -> queued/running
        self._results: OrderedDict = OrderedDict()  # key -> outcome (LRU)
        #: requests of the batch the dispatcher holds (taken off the
        #: queue, not yet resolved)
        self._running = 0
        self._open = True
        self._drain = True
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="jrpm-dispatcher",
            daemon=True)
        self._dispatcher.start()

    # -- admission -------------------------------------------------------

    def submit(self, request: AnalyzeRequest) -> Ticket:
        """Admit one request; never blocks.

        Raises :class:`SchedulerClosedError` after :meth:`stop`, and
        :class:`QueueFullError` when the bounded queue is at depth.
        """
        metrics = self.metrics
        with self._cond:
            if not self._open:
                raise SchedulerClosedError(
                    "scheduler is shutting down")
            entry = self._inflight.get(request.key)
            if entry is not None:
                entry.coalesced += 1
                entry.waiters += 1
                metrics.inc("coalesced")
                return Ticket(entry=entry, coalesced=True,
                              scheduler=self)
            if not request.fresh:
                outcome = self._results.get(request.key)
                if outcome is not None:
                    self._results.move_to_end(request.key)
                    metrics.inc("result_cache_hits")
                    return Ticket(outcome=outcome, cached=True)
            if len(self._queue) >= self.queue_depth:
                metrics.inc("load_shed")
                raise QueueFullError(
                    len(self._queue), self._retry_after_estimate())
            entry = _Entry(request)
            self._inflight[request.key] = entry
            self._queue.append(entry)
            metrics.set_gauge("queue_depth", len(self._queue))
            self._cond.notify()
        return Ticket(entry=entry, scheduler=self)

    def _abandon(self, entry: _Entry) -> None:
        with self._cond:
            entry.waiters -= 1
            if entry.waiters <= 0:
                self.metrics.inc("requests_abandoned")

    # -- result LRU (cross-replica warm handoff) --------------------------

    def install_result(self, key: str, outcome: Dict[str, Any]) -> None:
        """Adopt a completed outcome pushed by a replica, so the local
        result LRU warms without recomputing."""
        with self._cond:
            self._remember_locked(key, outcome)

    def _remember_locked(self, key: str, outcome: Dict[str, Any]) -> None:
        """Publish an ok outcome to the result LRU, evicting the least
        recently used past ``result_cache_size``."""
        if outcome.get("status") != "ok" or self.result_cache_size <= 0:
            return
        self._results[key] = outcome
        self._results.move_to_end(key)
        while len(self._results) > self.result_cache_size:
            self._results.popitem(last=False)

    def _retry_after_estimate(self) -> float:
        """Seconds until the queue has plausibly drained: queued work
        times recent mean latency, clamped to [1, 120]."""
        mean = self.metrics.avg_latency("analyze") or 1.0
        return min(120.0, max(1.0, len(self._queue) * mean))

    # -- introspection ---------------------------------------------------

    @property
    def queued(self) -> int:
        with self._cond:
            return len(self._queue)

    @property
    def running(self) -> int:
        """Requests the dispatcher has taken off the queue and not yet
        resolved."""
        with self._cond:
            return self._running

    @property
    def in_flight(self) -> int:
        """Distinct computations admitted but unresolved."""
        with self._cond:
            return len(self._inflight)

    # -- dispatch --------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while self._open and not self._queue:
                    self._cond.wait()
                if not self._queue:
                    return  # closed and drained
                if not self._open and not self._drain:
                    self._fail_queued_locked("scheduler shut down "
                                             "before this request ran")
                    return
                batch = self._take_batch_locked()
                self._running = len(batch)
                self.metrics.set_gauge("queue_depth", len(self._queue))
                self.metrics.set_gauge("batch_in_flight", len(batch))
            try:
                outcomes = self._runner([e.request for e in batch])
                if len(outcomes) != len(batch):
                    raise RuntimeError(
                        "runner returned %d outcomes for %d requests"
                        % (len(outcomes), len(batch)))
            except Exception as exc:  # noqa: BLE001 - must resolve waiters
                outcomes = [{"status": "error",
                             "error": "scheduler runner failed: %r" % exc,
                             "trace": "", "attempts": 1}
                            for _ in batch]
            self._resolve(batch, outcomes)

    def _take_batch_locked(self) -> List[_Entry]:
        """Pop the head entry plus every same-profile entry behind it,
        up to ``max_batch``; other profiles keep their positions."""
        head = self._queue.popleft()
        batch = [head]
        profile = head.request.profile_key
        if len(batch) < self.max_batch:
            keep: List[_Entry] = []
            while self._queue:
                entry = self._queue.popleft()
                if len(batch) < self.max_batch \
                        and entry.request.profile_key == profile:
                    batch.append(entry)
                else:
                    keep.append(entry)
            self._queue.extend(keep)
        if len(batch) > 1:
            self.metrics.inc("batched_requests", len(batch))
        self.metrics.inc("batches")
        return batch

    def _resolve(self, batch: List[_Entry],
                 outcomes: List[Dict[str, Any]]) -> None:
        with self._cond:
            for entry, outcome in zip(batch, outcomes):
                entry.outcome = outcome
                self._inflight.pop(entry.key, None)
                abandoned = entry.waiters <= 0
                if abandoned:
                    self.metrics.inc("abandoned_results")
                # an abandoned fresh=true computation must not smuggle
                # its result into the cache: the client asked for a
                # recompute-and-bypass, nobody received the answer,
                # and a later non-fresh request would otherwise see a
                # result no response ever carried
                if not (abandoned and entry.request.fresh):
                    self._remember_locked(entry.key, outcome)
                entry.event.set()
            self._running = 0
            self.metrics.inc("analyze_completed", len(batch))
            self.metrics.set_gauge("batch_in_flight", 0)

    def _fail_queued_locked(self, message: str) -> None:
        while self._queue:
            entry = self._queue.popleft()
            entry.outcome = {"status": "error", "error": message,
                             "trace": "", "attempts": 0}
            self._inflight.pop(entry.key, None)
            entry.event.set()
        self.metrics.set_gauge("queue_depth", 0)

    # -- the fleet path --------------------------------------------------

    def _run_batch(self, requests: List[AnalyzeRequest]
                   ) -> List[Dict[str, Any]]:
        """Run one same-profile batch through the resident executor."""
        first = requests[0]
        before = self.cache.snapshot()
        started = time.monotonic()
        result = self.executor.run(
            [r.workload for r in requests],
            config=first.config,
            simulate_tls=first.simulate_tls,
            level=first.level,
            trace_jit=self.trace_jit,
            optimize=first.optimize,
            models=first.models)
        elapsed = time.monotonic() - started
        self.metrics.merge_cache(
            diff_stats(self.cache.snapshot(), before))
        self.metrics.merge_faults(result.exec_stats)
        outcomes: List[Dict[str, Any]] = []
        for request, row in zip(requests, result.rows):
            if row.ok:
                self._merge_trace_jit(row.report)
                self._merge_optimize(row.report)
                self._merge_models(row.report)
                outcomes.append({
                    "status": "ok",
                    "workload": row.name,
                    "report": row.report,
                    "attempts": 1,
                    "batch_size": len(requests),
                    "compute_s": round(elapsed, 6),
                })
            else:
                outcomes.append({
                    "status": "error",
                    "workload": row.name,
                    "error": row.error,
                    "trace": row.trace,
                    "attempts": row.attempts,
                })
        return outcomes

    def _merge_trace_jit(self, report: Dict[str, Any]) -> None:
        """Fold one report's interpreter trace-JIT counters into the
        service metrics (surfaced on /metrics next to the trace-engine
        stats)."""
        for jit in (report["trace_jit"] or {}).values():
            if not jit:
                continue
            inc = self.metrics.inc
            inc("trace_jit_recordings", jit["recordings"])
            inc("trace_jit_traces_linked", jit["traces_linked"])
            inc("trace_jit_traces_blacklisted", jit["traces_blacklisted"])
            inc("trace_jit_invocations", jit["invocations"])
            inc("trace_jit_iterations", jit["iterations"])
            inc("trace_jit_guard_failures", jit["guard_failures"])

    def _merge_optimize(self, report: Dict[str, Any]) -> None:
        """Fold one report's optimizer pass counters into the service
        metrics (surfaced on /metrics as ``optimize_*``)."""
        for key, value in (report["optimize_stats"] or {}).items():
            self.metrics.inc("optimize_%s" % key, value)

    def _merge_models(self, report: Dict[str, Any]) -> None:
        """Fold one report's per-loop winners into the service metrics
        (surfaced on /metrics as ``model_selected_*`` and
        ``model_won_*``): how often each execution model won the
        argmax, and how often its winner was actually scheduled."""
        for loop in report["models"]["per_loop"]:
            self.metrics.inc("model_won_%s" % loop["model"])
            if loop["selected"]:
                self.metrics.inc("model_selected_%s" % loop["model"])

    # -- shutdown --------------------------------------------------------

    def stop(self, drain: bool = True,
             timeout: Optional[float] = 30.0) -> None:
        """Close admission and stop the dispatcher.

        ``drain=True`` lets every queued request finish first; False
        fails queued (not yet running) requests immediately.  Either
        way the currently running batch completes — the executor has
        its own wall-clock timeout for runaway work.
        """
        with self._cond:
            if not self._open:
                self._cond.notify_all()
            self._open = False
            self._drain = drain
            self._cond.notify_all()
        self._dispatcher.join(timeout=timeout)
        with self._cond:
            # belt and braces: if the dispatcher died or join timed
            # out, nobody may be left hanging on a queued entry
            self._fail_queued_locked("scheduler stopped")
        self.executor.close()
