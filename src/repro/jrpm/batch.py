"""Fleet runs: the whole evaluation as one call.

The paper's Section 6 is a batch experiment — the pipeline over every
benchmark, summarized per Table 6 / Figures 10-11.  :func:`run_fleet`
performs that experiment programmatically and returns row objects the
benches (and downstream users sweeping configurations) can consume.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.hydra.config import DEFAULT_HYDRA, HydraConfig
from repro.jrpm.cache import ArtifactCache
from repro.jrpm.faults import FaultPlan
from repro.workloads.registry import Workload


class FleetRow:
    """One benchmark's Table 6 / Fig 10 / Fig 11 numbers.

    ``report`` is the run's canonical report dict
    (:func:`~repro.jrpm.report.report_to_dict`), built where the run
    ran, so a row crossing the pool carries numbers, not the run."""

    #: this row carries a report (vs. a failure); aggregates filter on it
    ok = True

    def __init__(self, workload: Workload, report: Dict[str, Any]):
        self.workload = workload
        self.report = report

    @property
    def name(self) -> str:
        return self.workload.name

    # -- Figures 6 / 10 / 11 ------------------------------------------------

    @property
    def slowdown(self) -> float:
        return self.report["profiling_slowdown"]

    @property
    def predicted_speedup(self) -> float:
        return self.report["predicted_speedup"]

    @property
    def actual_speedup(self) -> float:
        """1.0 when TLS was not simulated, as on the report object."""
        actual = self.report["actual_speedup"]
        return 1.0 if actual is None else actual

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<FleetRow %s pred=%.2f act=%.2f>" % (
            self.name, self.predicted_speedup, self.actual_speedup)


class FleetErrorRow:
    """Placeholder for a workload whose pipeline raised.

    Produced under ``on_error="row"`` so one bad workload doesn't kill
    a long sweep; carries enough context to reproduce the failure."""

    ok = False

    def __init__(self, workload: Workload, error: str,
                 trace: str = "", attempts: int = 1):
        self.workload = workload
        self.error = error
        #: the worker's formatted traceback (parallel runs cross a
        #: process boundary, so the original exception object is gone)
        self.trace = trace
        #: attempts burned before giving up (1 = no retries configured
        #: or the first failure was terminal)
        self.attempts = attempts

    @property
    def name(self) -> str:
        return self.workload.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<FleetErrorRow %s %s>" % (self.name, self.error)


class FleetResult:
    """All rows plus cross-benchmark aggregates.

    ``rows`` preserves workload order and may mix :class:`FleetRow`
    with :class:`FleetErrorRow`; aggregates cover the successful rows.
    ``cache_stats`` holds this run's artifact-cache counters as
    ``{stage: {"hits": n, "misses": n, "corrupt": n}}`` (empty without
    a cache).  A parallel worker lost to a pool break or a timeout takes
    its ``hits`` and ``misses`` with it; only its ``corrupt`` count is
    recovered, from the quarantined blobs on disk.  ``exec_stats``
    holds the executor's fault counters (``retries`` / ``timeouts`` /
    ``crashes``, all zero on a clean run).
    """

    def __init__(self, rows: List[FleetRow],
                 cache_stats: Optional[Dict[str, Dict[str, int]]] = None,
                 exec_stats: Optional[Dict[str, int]] = None):
        self.rows = rows
        self.by_name: Dict[str, FleetRow] = {r.name: r for r in rows}
        self.cache_stats = cache_stats or {}
        self.exec_stats = exec_stats or {}

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def ok_rows(self) -> List[FleetRow]:
        return [r for r in self.rows if r.ok]

    @property
    def errors(self) -> List[FleetErrorRow]:
        return [r for r in self.rows if not r.ok]

    @property
    def cache_hits(self) -> int:
        return sum(c.get("hits", 0) for c in self.cache_stats.values())

    @property
    def cache_misses(self) -> int:
        return sum(c.get("misses", 0) for c in self.cache_stats.values())

    @property
    def cache_corrupt(self) -> int:
        """Cache blobs quarantined as corrupt during this run."""
        return sum(c.get("corrupt", 0) for c in self.cache_stats.values())

    @property
    def retry_count(self) -> int:
        """Workload attempts that were retried (any failure kind)."""
        return self.exec_stats.get("retries", 0)

    @property
    def timeout_count(self) -> int:
        """Workload attempts abandoned at the wall-clock timeout."""
        return self.exec_stats.get("timeouts", 0)

    @property
    def crash_count(self) -> int:
        """Worker-pool breakages (a worker process died) survived."""
        return self.exec_stats.get("crashes", 0)

    @property
    def median_slowdown(self) -> float:
        slows = sorted(r.slowdown for r in self.ok_rows)
        if not slows:
            return 1.0
        mid = len(slows) // 2
        if len(slows) % 2:
            return slows[mid]
        return (slows[mid - 1] + slows[mid]) / 2

    @property
    def geomean_prediction_ratio(self) -> float:
        """Geometric mean of actual/predicted speedup (1.0 = perfect)."""
        import math
        ratios = [r.actual_speedup / r.predicted_speedup
                  for r in self.ok_rows if r.predicted_speedup > 0]
        if not ratios:
            return 1.0
        return math.exp(sum(math.log(x) for x in ratios) / len(ratios))

    def render(self) -> str:
        """Table 6-shaped text summary."""
        lines = ["%-14s %5s %5s %4s %6s %10s %9s %8s %8s" % (
            "Benchmark", "Loops", "Depth", "Sel", "Height",
            "Thr/entry", "Size(cy)", "Pred", "Actual")]
        for r in self.rows:
            if not r.ok:
                lines.append("%-14s FAILED: %s" % (r.name, r.error))
                continue
            c = r.report["characteristics"]
            lines.append(
                "%-14s %5d %5d %4d %6.1f %10.0f %9.0f %7.2fx %7.2fx"
                % (r.name, c["loop_count"], c["dynamic_depth"],
                   c["selected_count"], c["avg_selected_height"],
                   c["threads_per_entry"], c["thread_size"],
                   r.predicted_speedup, r.actual_speedup))
        return "\n".join(lines)


def run_fleet(workloads: Optional[Iterable[Workload]] = None,
              config: HydraConfig = DEFAULT_HYDRA,
              simulate_tls: bool = True,
              jobs: int = 1,
              cache: Optional[ArtifactCache] = None,
              on_error: str = "raise",
              timeout: Optional[float] = None,
              retries: int = 0,
              backoff: float = 0.25,
              fault_plan: Optional[FaultPlan] = None,
              **jrpm_kwargs) -> FleetResult:
    """Run the pipeline over ``workloads`` (default: all 26).

    Extra keyword arguments flow into every :class:`Jrpm` (annotation
    level, convergence threshold, optimizer, ...), so one call sweeps
    the whole evaluation under a new configuration.

    ``jobs`` > 1 fans workloads over worker processes (rows still come
    back in workload order); ``cache`` memoizes pipeline stages across
    workloads and sweeps (parallel runs need a disk-backed cache);
    ``on_error="row"`` turns a crashing workload into a
    :class:`FleetErrorRow` instead of aborting the fleet.

    ``timeout`` bounds each attempt's wall clock (parallel path);
    ``retries``/``backoff`` re-run failed, crashed, or timed-out
    workloads with exponential backoff; ``fault_plan`` injects
    deterministic failures for testing — see
    :class:`~repro.jrpm.executor.FleetExecutor` for the full failure
    model.
    """
    from repro.jrpm.executor import FleetExecutor

    executor = FleetExecutor(jobs=jobs, config=config,
                             simulate_tls=simulate_tls, cache=cache,
                             on_error=on_error, timeout=timeout,
                             retries=retries, backoff=backoff,
                             fault_plan=fault_plan, **jrpm_kwargs)
    return executor.run(workloads)
