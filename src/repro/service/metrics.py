"""Live service metrics: counters, latency histograms, gauges.

One :class:`ServiceMetrics` registry is shared by the HTTP handlers,
the scheduler, and the fleet executor path.  All mutation goes through
a single lock (handler threads race the dispatcher); rendering
snapshots under the same lock, so ``/metrics`` is always internally
consistent.

The exposition format is Prometheus text (stable names under a
``jrpm_`` prefix), plus :meth:`ServiceMetrics.to_dict` for JSON
consumers (the bench client records it into ``BENCH_service.json``).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.jrpm.cache import merge_stats

#: log-spaced latency bucket upper bounds, in seconds (the last,
#: implicit bucket is +Inf) — spans a cache hit (~1 ms) to a cold
#: profile of a long-running workload (tens of seconds)
DEFAULT_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)


class LatencyHistogram:
    """Fixed-bucket histogram (cumulative, Prometheus-style).

    Not internally locked — the owning :class:`ServiceMetrics` holds
    its lock around every observe/snapshot.
    """

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS):
        self.bounds = tuple(buckets)
        self.counts = [0] * (len(self.bounds) + 1)  # +1: +Inf
        self.count = 0
        self.total = 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        for i, bound in enumerate(self.bounds):
            if seconds <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q`` quantile (the
        usual histogram-quantile approximation); the last finite bound
        when it lands in +Inf; 0.0 when empty."""
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for i, bound in enumerate(self.bounds):
            seen += self.counts[i]
            if seen >= target:
                return bound
        return self.bounds[-1]

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": round(self.total, 6),
            "mean": round(self.mean, 6),
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class ServiceMetrics:
    """The daemon's one metrics registry."""

    def __init__(self):
        self._lock = threading.Lock()
        self.started = time.monotonic()
        #: (endpoint, status) -> count
        self.requests: Dict[Tuple[str, int], int] = {}
        #: endpoint -> latency histogram
        self.latency: Dict[str, LatencyHistogram] = {}
        #: named monotonic counters (coalesced, result_cache_hits,
        #: load_shed, batches, batched_requests, ...)
        self.counters: Dict[str, int] = {}
        #: named point-in-time gauges (queue_depth, in_flight, ...)
        self.gauges: Dict[str, float] = {}
        #: artifact-cache lookups, {stage: {hits,misses,corrupt}}
        self.cache: Dict[str, Dict[str, int]] = {}
        #: fleet fault counters accumulated across submissions
        self.faults: Dict[str, int] = {"retries": 0, "timeouts": 0,
                                       "crashes": 0}

    # -- recording -------------------------------------------------------

    def observe_request(self, endpoint: str, status: int,
                        seconds: float) -> None:
        with self._lock:
            key = (endpoint, status)
            self.requests[key] = self.requests.get(key, 0) + 1
            hist = self.latency.get(endpoint)
            if hist is None:
                hist = self.latency[endpoint] = LatencyHistogram()
            hist.observe(seconds)

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = value

    def merge_cache(self, delta: Optional[Dict[str, Dict[str, int]]]
                    ) -> None:
        """Fold an artifact-cache counter delta (diff_stats shape) in."""
        with self._lock:
            merge_stats(self.cache, delta)

    def merge_faults(self, exec_stats: Optional[Dict[str, int]]) -> None:
        """Fold a FleetResult's executor fault counters in."""
        if not exec_stats:
            return
        with self._lock:
            for field in ("retries", "timeouts", "crashes"):
                self.faults[field] += exec_stats.get(field, 0)

    # -- derived ---------------------------------------------------------

    def avg_latency(self, endpoint: str) -> float:
        with self._lock:
            hist = self.latency.get(endpoint)
            return hist.mean if hist else 0.0

    @property
    def uptime(self) -> float:
        return time.monotonic() - self.started

    def counter(self, name: str) -> int:
        with self._lock:
            return self.counters.get(name, 0)

    # -- exposition ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON snapshot of every metric."""
        with self._lock:
            cache_hits = sum(c["hits"] for c in self.cache.values())
            cache_misses = sum(c["misses"] for c in self.cache.values())
            lookups = cache_hits + cache_misses
            coalesced = self.counters.get("coalesced", 0)
            served = self.counters.get("analyze_completed", 0)
            return {
                "uptime_s": round(self.uptime, 3),
                "requests": {
                    "%s_%d" % (endpoint, status): count
                    for (endpoint, status), count
                    in sorted(self.requests.items())
                },
                "latency": {endpoint: hist.snapshot()
                            for endpoint, hist
                            in sorted(self.latency.items())},
                "counters": dict(sorted(self.counters.items())),
                "gauges": dict(sorted(self.gauges.items())),
                "cache": {stage: dict(counts) for stage, counts
                          in sorted(self.cache.items())},
                "cache_hit_rate": (cache_hits / lookups
                                   if lookups else 0.0),
                "coalesce_rate": (coalesced / (served + coalesced)
                                  if served + coalesced else 0.0),
                "faults": dict(self.faults),
            }

    def render_prometheus(self) -> str:
        """Prometheus text exposition of every metric."""
        lines: List[str] = []
        with self._lock:
            lines.append("# HELP jrpm_uptime_seconds Daemon uptime.")
            lines.append("# TYPE jrpm_uptime_seconds gauge")
            lines.append("jrpm_uptime_seconds %.3f" % self.uptime)

            lines.append("# HELP jrpm_requests_total Requests served "
                         "by endpoint and status.")
            lines.append("# TYPE jrpm_requests_total counter")
            for (endpoint, status), count in sorted(self.requests.items()):
                lines.append(
                    'jrpm_requests_total{endpoint="%s",status="%d"} %d'
                    % (endpoint, status, count))

            lines.append("# HELP jrpm_request_latency_seconds Request "
                         "latency by endpoint.")
            lines.append("# TYPE jrpm_request_latency_seconds histogram")
            for endpoint, hist in sorted(self.latency.items()):
                cumulative = 0
                for bound, count in zip(hist.bounds, hist.counts):
                    cumulative += count
                    lines.append(
                        'jrpm_request_latency_seconds_bucket'
                        '{endpoint="%s",le="%g"} %d'
                        % (endpoint, bound, cumulative))
                lines.append(
                    'jrpm_request_latency_seconds_bucket'
                    '{endpoint="%s",le="+Inf"} %d'
                    % (endpoint, hist.count))
                lines.append(
                    'jrpm_request_latency_seconds_sum{endpoint="%s"} %.6f'
                    % (endpoint, hist.total))
                lines.append(
                    'jrpm_request_latency_seconds_count{endpoint="%s"} %d'
                    % (endpoint, hist.count))

            for name, value in sorted(self.counters.items()):
                metric = "jrpm_%s_total" % name
                lines.append("# TYPE %s counter" % metric)
                lines.append("%s %d" % (metric, value))

            for name, value in sorted(self.gauges.items()):
                metric = "jrpm_%s" % name
                lines.append("# TYPE %s gauge" % metric)
                lines.append("%s %g" % (metric, value))

            lines.append("# HELP jrpm_cache_lookups_total Artifact-"
                         "cache lookups by stage and result.")
            lines.append("# TYPE jrpm_cache_lookups_total counter")
            for stage, counts in sorted(self.cache.items()):
                for result in ("hits", "misses", "corrupt"):
                    lines.append(
                        'jrpm_cache_lookups_total'
                        '{stage="%s",result="%s"} %d'
                        % (stage, result, counts[result]))

            lines.append("# HELP jrpm_fleet_faults_total Executor "
                         "faults survived, by kind.")
            lines.append("# TYPE jrpm_fleet_faults_total counter")
            for kind in ("retries", "timeouts", "crashes"):
                lines.append('jrpm_fleet_faults_total{kind="%s"} %d'
                             % (kind, self.faults[kind]))
        return "\n".join(lines) + "\n"


def aggregate_snapshots(snapshots: Iterable[Dict[str, Any]]
                        ) -> Dict[str, Any]:
    """Cluster-wide sums over per-shard :meth:`ServiceMetrics.to_dict`
    snapshots: counters, request counts, cache stages, and faults are
    additive; latency keeps only the mergeable moments (count, sum,
    mean) — bucket-less snapshot percentiles cannot be combined, so
    per-shard percentiles live in the per-shard blocks."""
    counters: Dict[str, int] = {}
    requests: Dict[str, int] = {}
    cache: Dict[str, Dict[str, int]] = {}
    faults = {"retries": 0, "timeouts": 0, "crashes": 0}
    latency: Dict[str, Dict[str, float]] = {}
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snap.get("requests", {}).items():
            requests[name] = requests.get(name, 0) + value
        merge_stats(cache, snap.get("cache"))
        for field in faults:
            faults[field] += snap.get("faults", {}).get(field, 0)
        for endpoint, hist in snap.get("latency", {}).items():
            slot = latency.setdefault(endpoint,
                                      {"count": 0, "sum": 0.0})
            slot["count"] += hist.get("count", 0)
            slot["sum"] += hist.get("sum", 0.0)
    for slot in latency.values():
        slot["sum"] = round(slot["sum"], 6)
        slot["mean"] = round(slot["sum"] / slot["count"], 6) \
            if slot["count"] else 0.0
    cache_hits = sum(c["hits"] for c in cache.values())
    lookups = cache_hits + sum(c["misses"] for c in cache.values())
    return {
        "counters": dict(sorted(counters.items())),
        "requests": dict(sorted(requests.items())),
        "cache": {stage: counts for stage, counts
                  in sorted(cache.items())},
        "cache_hit_rate": cache_hits / lookups if lookups else 0.0,
        "latency": dict(sorted(latency.items())),
        "faults": faults,
    }
