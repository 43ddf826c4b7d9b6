"""Parallel fleet execution with bounded-failure recovery.

The Section 6 evaluation is embarrassingly parallel: each benchmark's
pipeline run is independent of every other's.  :class:`FleetExecutor`
fans the fleet over a :class:`concurrent.futures.ProcessPoolExecutor`
while keeping three properties the serial loop had for free:

* **deterministic ordering** — rows come back in workload order no
  matter which worker finishes first (results are keyed by submission
  index, not completion order);
* **failure isolation** — with ``on_error="row"`` a crashing workload
  becomes a :class:`~repro.jrpm.batch.FleetErrorRow` carrying the
  worker's traceback instead of killing the whole sweep;
  ``on_error="raise"`` (the default, matching the historical serial
  semantics) re-raises the first failure in *workload* order after the
  sweep drains, with the merged cache/execution counters attached to
  the raised :class:`~repro.errors.PipelineError` (``.cache_stats`` /
  ``.exec_stats``);
* **shared caching** — workers cannot share an in-memory
  :class:`~repro.jrpm.cache.ArtifactCache`, so parallel runs pass a
  ``cache_dir`` and each worker opens the same disk-backed cache.
  Each submission's cache logs its hit/miss/corrupt counters to its
  own ledger file in ``cache_dir``; the parent merges every ledger
  into the :class:`~repro.jrpm.batch.FleetResult` and deletes it, so
  a worker lost to a crash or a timeout keeps the counters it logged.

Failure model
-------------
The parallel path mirrors how the traced systems themselves treat
misspeculation: a failure is squashed and re-executed with bounded
cost, never propagated.  Work is submitted one future per workload
(at most ``jobs`` in flight, so a submitted task is running, not
queued — which is what makes wall-clock deadlines meaningful):

* **worker crash** — a worker dying mid-task (OOM, segfault, an
  injected ``os._exit``) breaks the pool; every in-flight workload is
  charged an attempt (the pool cannot attribute the crash) and
  resubmitted to a freshly spawned pool, so the crasher converges to a
  ``FleetErrorRow`` once its retries exhaust while bystanders complete
  normally;
* **timeout** — a workload exceeding ``timeout`` seconds of wall
  clock is abandoned: the pool's processes are terminated (the hung
  interpreter cannot be interrupted politely), the timed-out workload
  is charged an attempt, and the other in-flight workloads are
  resubmitted *without* being charged (the expiry attributes blame
  precisely);
* **retry** — a failed attempt (exception, crash, timeout) is retried
  up to ``retries`` times with exponential backoff plus jitter
  (``backoff * 2**(attempt-1)``, +0..25% jitter) before the workload
  is declared failed.

``jobs=1`` executes inline in the calling process — no pool, no
pickling, no timeouts (there is no second process to do the killing) —
and is byte-identical to the historical ``run_fleet`` loop, retries
aside.

Deterministic tests drive every one of these paths through
:class:`~repro.jrpm.faults.FaultPlan` (``fault_plan=``), which injects
worker kills, hangs, in-stage exceptions, and cache-blob truncation.
"""

from __future__ import annotations

import heapq
import itertools
import os
import random
import time
import traceback
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import PipelineError
from repro.hydra.config import DEFAULT_HYDRA, HydraConfig
from repro.jrpm.cache import (
    LEDGER_SUFFIX,
    ArtifactCache,
    diff_stats,
    merge_stats,
    read_ledger,
)
from repro.jrpm.faults import FaultPlan
from repro.jrpm.pipeline import Jrpm
from repro.jrpm.report import report_to_dict
from repro.workloads.registry import Workload, all_workloads

#: per-process fleet-run serial: with the pid it names each run's
#: ledger files apart from any other fleet sharing the cache directory
_RUNS = itertools.count()


def _attempt(workload: Workload, config: HydraConfig,
             simulate_tls: bool, cache: Optional[ArtifactCache],
             fault_plan: Optional[FaultPlan], task: Optional[Callable],
             jrpm_kwargs: Dict, in_worker: bool):
    """One attempt at one workload, serial or in a pool worker: fire
    the fault plan's pre-run faults, then run ``task`` or the Jrpm
    pipeline, whose row carries the run's canonical report dict.
    Returns the row; raises what the attempt raised."""
    from repro.jrpm.batch import FleetRow

    kwargs = dict(jrpm_kwargs)
    if fault_plan is not None:
        fault_plan.on_workload_start(
            workload.name, cache.directory if cache else None,
            in_worker=in_worker)
        kwargs.setdefault("stage_hook",
                          fault_plan.stage_hook(workload.name))
    if task is not None:
        return task(workload, config=config, simulate_tls=simulate_tls,
                    cache=cache, **kwargs)
    jrpm = Jrpm(source=workload.source(), name=workload.name,
                config=config, cache=cache, **kwargs)
    return FleetRow(workload,
                    report_to_dict(jrpm.run(simulate_tls=simulate_tls)))


def _execute_workload(payload: Tuple) -> Tuple:
    """Pool worker: run one workload's pipeline.

    Module-level (picklable) and fully self-describing: the payload
    carries everything needed so workers built by ``spawn`` work as
    well as ``fork``.  Returns ``(index, row_or_error)`` where
    ``row_or_error`` is a FleetRow on success or an ``(exc_repr,
    traceback_text)`` pair on failure.  The cache logs its counters to
    the ``ledger`` file, which the parent reads whether or not the
    worker returned.
    """
    (index, workload, config, simulate_tls, cache_dir, ledger,
     fault_plan, task, jrpm_kwargs) = payload
    cache = None
    if cache_dir is not None:
        cache = ArtifactCache(directory=cache_dir)
        cache.ledger = ledger
    try:
        row = _attempt(workload, config, simulate_tls, cache, fault_plan,
                       task, jrpm_kwargs, in_worker=True)
        return index, row
    except Exception as exc:  # noqa: BLE001 - shipped to the parent
        return index, (repr(exc), traceback.format_exc())


def _remove(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass  # never written: the attempt counted nothing


class FleetExecutor:
    """Runs a fleet of workloads serially or across worker processes.

    Parameters mirror :func:`~repro.jrpm.batch.run_fleet`; extra
    keyword arguments flow into every :class:`Jrpm`.

    ``timeout`` bounds each workload attempt's wall-clock seconds
    (parallel path only); ``retries`` re-runs a failed/crashed/timed-
    out workload up to N extra times with ``backoff``-seconds
    exponential backoff; ``fault_plan`` injects deterministic failures
    for testing (see :mod:`repro.jrpm.faults`).
    """

    def __init__(self, jobs: int = 1,
                 config: HydraConfig = DEFAULT_HYDRA,
                 simulate_tls: bool = True,
                 cache: Optional[ArtifactCache] = None,
                 on_error: str = "raise",
                 timeout: Optional[float] = None,
                 retries: int = 0,
                 backoff: float = 0.25,
                 fault_plan: Optional[FaultPlan] = None,
                 persistent: bool = False,
                 rng: Optional[random.Random] = None,
                 task: Optional[Callable] = None,
                 **jrpm_kwargs):
        if jobs < 1:
            raise ValueError("jobs must be >= 1, got %d" % jobs)
        if on_error not in ("raise", "row"):
            raise ValueError(
                "on_error must be 'raise' or 'row', got %r" % on_error)
        if jobs > 1 and cache is not None and cache.directory is None:
            raise ValueError(
                "parallel fleets need a disk-backed cache "
                "(ArtifactCache(directory=...)) so worker processes "
                "can share artifacts")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive, got %r" % timeout)
        if retries < 0:
            raise ValueError("retries must be >= 0, got %d" % retries)
        if backoff < 0:
            raise ValueError("backoff must be >= 0, got %r" % backoff)
        self.jobs = jobs
        self.config = config
        self.simulate_tls = simulate_tls
        self.cache = cache
        self.on_error = on_error
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.fault_plan = fault_plan
        #: keep the worker pool alive across :meth:`run` calls (the
        #: analysis service submits many fleets through one executor;
        #: respawning processes per request would forfeit the warm
        #: start).  Callers own the lifetime: call :meth:`close` (or
        #: use the executor as a context manager) when done.  run()
        #: itself is not thread-safe — serialize calls (the service's
        #: single dispatcher thread does).
        self.persistent = persistent
        #: per-workload unit of work.  ``None`` runs the Jrpm pipeline
        #: and yields a FleetRow; the conformance campaign substitutes
        #: its differential checker.  The callable receives
        #: ``(workload, config=, simulate_tls=, cache=, **jrpm_kwargs)``
        #: and must return a row object exposing ``.ok`` and ``.name``;
        #: for parallel fleets it must be a picklable module-level
        #: function (workers import it by reference).
        self.task = task
        self._pool: Optional[ProcessPoolExecutor] = None
        #: jitter source for retry backoff; pass ``random.Random(seed)``
        #: to make retry timing deterministic in tests
        self._rng = rng if rng is not None else random
        self.jrpm_kwargs = jrpm_kwargs

    # -- shared helpers ----------------------------------------------------

    def _retry_delay(self, attempt: int) -> float:
        """Backoff before attempt ``attempt + 1``: exponential in the
        attempts already burned, with up-to-25% jitter so a fleet of
        retries doesn't stampede the pool in lockstep."""
        if self.backoff <= 0:
            return 0.0
        return self.backoff * (2 ** (attempt - 1)) \
            * (1.0 + 0.25 * self._rng.random())

    # -- the two execution strategies -------------------------------------

    def _run_serial(self, workloads: List[Workload],
                    config: HydraConfig, simulate_tls: bool,
                    jrpm_kwargs: Dict) -> Tuple[List, Dict, Dict]:
        from repro.jrpm.batch import FleetErrorRow

        cache = self.cache
        before = cache.snapshot() if cache else {}
        exec_stats = {"retries": 0, "timeouts": 0, "crashes": 0}
        rows: List = []
        for w in workloads:
            attempt = 0
            while True:
                attempt += 1
                try:
                    rows.append(_attempt(
                        w, config, simulate_tls, cache, self.fault_plan,
                        self.task, jrpm_kwargs, in_worker=False))
                    break
                except Exception as exc:  # noqa: BLE001 - isolated per row
                    if attempt <= self.retries:
                        exec_stats["retries"] += 1
                        delay = self._retry_delay(attempt)
                        if delay:
                            time.sleep(delay)
                        continue
                    if self.on_error == "raise":
                        raise
                    rows.append(FleetErrorRow(
                        w, repr(exc), traceback.format_exc(),
                        attempts=attempt))
                    break
        stats = diff_stats(cache.snapshot(), before) if cache else {}
        return rows, stats, exec_stats

    def _spawn_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.jobs)

    def _acquire_pool(self) -> ProcessPoolExecutor:
        """The pool for this run: the resident one (persistent mode,
        warm from earlier runs) or a fresh throwaway."""
        if self.persistent and self._pool is not None:
            return self._pool
        return self._spawn_pool()

    def close(self) -> None:
        """Tear down the resident pool (persistent mode).  Idempotent;
        a later :meth:`run` simply spawns a new pool."""
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # noqa: BLE001 - broken pools may refuse
                pass

    def __enter__(self) -> "FleetExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _respawn_pool(self, pool: ProcessPoolExecutor
                      ) -> ProcessPoolExecutor:
        """Tear a (broken or hung) pool down hard and start fresh.

        ``_processes`` is private API, but it is the only handle on a
        worker stuck inside an interpreter loop — shutdown() alone
        would block behind it forever.
        """
        try:
            for proc in list(getattr(pool, "_processes", {}).values()):
                proc.terminate()
        except Exception:  # noqa: BLE001 - already-dead workers
            pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 - broken pools may refuse
            pass
        return self._spawn_pool()

    def _run_parallel(self, workloads: List[Workload],
                      config: HydraConfig, simulate_tls: bool,
                      jrpm_kwargs: Dict) -> Tuple[List, Dict, Dict]:
        cache_dir = self.cache.directory if self.cache else None
        count = len(workloads)
        max_attempts = self.retries + 1
        #: terminal outcome per index: ("row", FleetRow) or
        #: ("error", exc_repr, trace, attempts)
        results: List = [None] * count
        stats: Dict = {}
        exec_stats = {"retries": 0, "timeouts": 0, "crashes": 0}
        attempts = [0] * count
        pending = deque(range(count))     # ready to (re)submit
        delayed: List[Tuple[float, int]] = []  # backoff heap
        #: future -> (index, deadline)
        in_flight: Dict = {}
        #: every submission's ledger file: the one record of the
        #: worker caches' counters, returned or lost
        ledgers: List[str] = []
        run = "%d.%d" % (os.getpid(), next(_RUNS))
        submissions = itertools.count()
        pool = self._acquire_pool()

        def payload(index: int, log: Optional[str]) -> Tuple:
            return (index, workloads[index], config,
                    simulate_tls, cache_dir, log,
                    self.fault_plan, self.task, jrpm_kwargs)

        def requeue_or_fail(index: int, error: str,
                            trace: str = "") -> None:
            """A charged attempt failed; back off and retry, or write
            the terminal error outcome."""
            if attempts[index] < max_attempts:
                exec_stats["retries"] += 1
                delay = self._retry_delay(attempts[index])
                heapq.heappush(delayed,
                               (time.monotonic() + delay, index))
            else:
                results[index] = ("error", error, trace,
                                  attempts[index])

        try:
            while pending or delayed or in_flight:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    _, index = heapq.heappop(delayed)
                    pending.append(index)
                while pending and len(in_flight) < self.jobs:
                    index = pending.popleft()
                    attempts[index] += 1
                    # each submission logs its counters to its own ledger
                    log = None
                    if cache_dir is not None:
                        log = os.path.join(cache_dir, "%s.%d%s" % (
                            run, next(submissions), LEDGER_SUFFIX))
                        ledgers.append(log)
                    try:
                        future = pool.submit(_execute_workload,
                                             payload(index, log))
                    except BrokenProcessPool:
                        pool = self._respawn_pool(pool)
                        future = pool.submit(_execute_workload,
                                             payload(index, log))
                    deadline = (time.monotonic() + self.timeout) \
                        if self.timeout is not None else None
                    in_flight[future] = (index, deadline)
                if not in_flight:
                    if delayed:  # only backoff waits remain
                        time.sleep(max(
                            0.0, delayed[0][0] - time.monotonic()))
                    continue

                wake_at = [d for _, d in in_flight.values()
                           if d is not None]
                if delayed:
                    wake_at.append(delayed[0][0])
                wait_for = max(0.0, min(wake_at) - time.monotonic()) \
                    if wake_at else None
                done, _ = wait(set(in_flight), timeout=wait_for,
                               return_when=FIRST_COMPLETED)

                pool_broke = False
                for future in done:
                    index, _ = in_flight.pop(future)
                    try:
                        _, outcome = future.result()
                    except BrokenProcessPool:
                        pool_broke = True
                        requeue_or_fail(
                            index,
                            "worker process died (BrokenProcessPool)")
                        continue
                    if isinstance(outcome, tuple):
                        requeue_or_fail(index, *outcome)
                    else:
                        results[index] = ("row", outcome)

                if pool_broke:
                    # the pool cannot say which task killed it, so
                    # every in-flight workload is charged and retried;
                    # the true crasher re-crashes until its retries
                    # exhaust, bystanders complete on the fresh pool
                    exec_stats["crashes"] += 1
                    for index, _ in in_flight.values():
                        requeue_or_fail(
                            index,
                            "worker process died (BrokenProcessPool)")
                    in_flight.clear()
                    pool = self._respawn_pool(pool)
                elif not done and self.timeout is not None:
                    now = time.monotonic()
                    expired = [(future, index)
                               for future, (index, deadline)
                               in in_flight.items()
                               if deadline is not None
                               and deadline <= now]
                    if expired:
                        # hung workers only die with the pool; blame
                        # is exact here, so bystanders requeue with
                        # their attempt refunded
                        exec_stats["timeouts"] += len(expired)
                        expired_futures = {f for f, _ in expired}
                        for future, (index, _) in in_flight.items():
                            if future not in expired_futures:
                                attempts[index] -= 1
                                pending.append(index)
                        for _, index in expired:
                            requeue_or_fail(
                                index,
                                "timed out after %.1fs (attempt %d/%d)"
                                % (self.timeout, attempts[index],
                                   max_attempts))
                        in_flight.clear()
                        pool = self._respawn_pool(pool)
        finally:
            if self.persistent:
                # keep whichever pool survived the run (respawns
                # included) resident for the next submission
                self._pool = pool
            else:
                try:
                    pool.shutdown(wait=False, cancel_futures=True)
                except Exception:  # noqa: BLE001 - broken pools may refuse
                    pass
            # every worker's counters, including those of a worker
            # that died before it could return, are on disk
            for log in ledgers:
                merge_stats(stats, read_ledger(log))
                _remove(log)

        return (self._rows_from_results(workloads, results, stats,
                                        exec_stats),
                stats, exec_stats)

    def _rows_from_results(self, workloads: List[Workload],
                           results: List, stats: Dict,
                           exec_stats: Dict) -> List:
        from repro.jrpm.batch import FleetErrorRow

        rows: List = []
        first_error = None
        for w, outcome in zip(workloads, results):
            if outcome[0] == "row":
                rows.append(outcome[1])
                continue
            _, error, trace, used = outcome
            rows.append(FleetErrorRow(w, error, trace, attempts=used))
            if first_error is None:
                first_error = (w, error, trace)
        if first_error is not None and self.on_error == "raise":
            w, error, trace = first_error
            exc = PipelineError(
                "workload %r failed in a fleet worker: %s\n%s"
                % (w.name, error, trace))
            # the sweep drained before raising: completed rows' merged
            # counters ride along for callers that want partial credit
            exc.cache_stats = stats
            exc.exec_stats = exec_stats
            raise exc
        return rows

    # -- entry point -------------------------------------------------------

    def run(self, workloads: Optional[Iterable[Workload]] = None, *,
            config: Optional[HydraConfig] = None,
            simulate_tls: Optional[bool] = None,
            **jrpm_overrides):
        """Execute the fleet; returns a
        :class:`~repro.jrpm.batch.FleetResult` in workload order.

        ``config`` / ``simulate_tls`` / extra keyword arguments
        override the constructor defaults for this run only — a
        persistent executor (the analysis service's) serves requests
        with differing configurations from one warm pool.
        """
        from repro.jrpm.batch import FleetResult

        fleet = list(workloads) if workloads is not None \
            else all_workloads()
        run_config = self.config if config is None else config
        run_tls = self.simulate_tls if simulate_tls is None \
            else simulate_tls
        kwargs = dict(self.jrpm_kwargs)
        kwargs.update(jrpm_overrides)
        if self.jobs == 1:
            rows, stats, exec_stats = self._run_serial(
                fleet, run_config, run_tls, kwargs)
        else:
            rows, stats, exec_stats = self._run_parallel(
                fleet, run_config, run_tls, kwargs)
        return FleetResult(rows, cache_stats=stats,
                           exec_stats=exec_stats)
