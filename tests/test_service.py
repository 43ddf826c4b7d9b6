"""Tests for the analysis service: protocol, metrics, scheduler
(coalescing / batching / backpressure / shutdown), the HTTP daemon end
to end, and the ``jrpm serve`` process (SIGTERM drain)."""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.jrpm.report import (
    REPORT_SCHEMA_VERSION,
    dumps_canonical,
    validate_report_dict,
)
from repro.service.metrics import LatencyHistogram, ServiceMetrics
from repro.service.protocol import (
    AnalyzeRequest,
    ProtocolError,
    parse_analyze_request,
)
from repro.service.scheduler import (
    QueueFullError,
    RequestScheduler,
    SchedulerClosedError,
)
from repro.service.server import AnalysisService


def _body(**kwargs) -> bytes:
    return json.dumps(kwargs).encode()


def _fake_report(name):
    """Minimal dict satisfying REPORT_SCHEMA (the HTTP handler
    validates every 200 response against it)."""
    return {"schema_version": REPORT_SCHEMA_VERSION, "name": name,
            "sequential_cycles": 1, "profiled_cycles": 1,
            "profiling_slowdown": 1.0, "loops_profiled": 0,
            "coverage": 0.0, "predicted_speedup": 1.0,
            "actual_speedup": None,
            "selection": {"total_cycles": 1, "serial_cycles": 1,
                          "selected": []},
            "predicted_vs_actual": None, "engine": None,
            "trace_jit": None, "optimize_stats": None,
            "models": {"requested": ["hydra-tls"],
                       "selected_counts": {}, "per_loop": []},
            "characteristics": {"loop_count": 0, "dynamic_depth": 0,
                                "selected_count": 0,
                                "avg_selected_height": 0.0,
                                "threads_per_entry": 0.0,
                                "thread_size": 0.0}}


def _request(port: int, method: str, path: str, body=None,
             headers=None, host: str = "127.0.0.1"):
    """One HTTP exchange; returns (status, parsed_json, headers)."""
    conn = http.client.HTTPConnection(host, port, timeout=120)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload, headers=headers or {})
        resp = conn.getresponse()
        raw = resp.read()
        try:
            parsed = json.loads(raw)
        except ValueError:
            parsed = raw.decode("utf-8", "replace")
        return resp.status, parsed, dict(resp.getheaders())
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_minimal_request(self):
        req = parse_analyze_request(_body(workload="Huffman"))
        assert req.workload.name == "Huffman"
        assert req.simulate_tls is True
        assert req.config_overrides == {}
        assert not req.fresh

    def test_full_request(self):
        req = parse_analyze_request(_body(
            workload="IDEA", config={"n_cpus": 8},
            stages=["profile"], level="base", fresh=True))
        assert req.config.n_cpus == 8
        assert req.simulate_tls is False
        assert req.level.value == "base"
        assert req.fresh

    def test_key_is_content_addressed(self):
        a = parse_analyze_request(_body(workload="Huffman"))
        b = parse_analyze_request(_body(workload="Huffman",
                                        config={}, stages=["profile",
                                                           "tls"]))
        c = parse_analyze_request(_body(workload="Huffman",
                                        config={"n_cpus": 8}))
        assert a.key == b.key       # defaults spelled out == omitted
        assert a.key != c.key       # config participates in identity
        # fresh does not change identity (it only bypasses the result
        # cache), so fresh requests still coalesce with others
        d = parse_analyze_request(_body(workload="Huffman", fresh=True))
        assert a.key == d.key

    def test_default_models_share_key(self):
        """Omitting ``models`` is the same computation as naming the
        default hydra-tls alone: one key, so the two coalesce and share
        the result cache."""
        a = parse_analyze_request(_body(workload="Huffman"))
        b = parse_analyze_request(_body(workload="Huffman",
                                        models=["hydra-tls"]))
        c = parse_analyze_request(_body(workload="Huffman",
                                        models=["doacross"]))
        assert a.models == b.models == ("hydra-tls",)
        assert a.key == b.key and a.profile_key == b.profile_key
        assert a.describe() == b.describe()
        assert a.key != c.key

    def test_profile_key_groups_compatible_requests(self):
        a = parse_analyze_request(_body(workload="Huffman"))
        b = parse_analyze_request(_body(workload="IDEA"))
        c = parse_analyze_request(_body(workload="IDEA",
                                        config={"n_cpus": 8}))
        assert a.profile_key == b.profile_key
        assert b.profile_key != c.profile_key

    @pytest.mark.parametrize("body,fragment", [
        (b"not json", "not valid JSON"),
        (b"[1, 2]", "JSON object"),
        (_body(), "'workload' is required"),
        (_body(workload="zzz"), "unknown workload"),
        (_body(workload="Huffman", zzz=1), "unknown request key"),
        # per-PC profiles are always on; the old switch is refused
        (_body(workload="Huffman", extended=True),
         "unknown request key(s) 'extended'"),
        (_body(workload="Huffman", config={"bogus": 1}),
         "unknown config field"),
        (_body(workload="Huffman", config={"n_cpus": "four"}),
         "must be a number"),
        (_body(workload="Huffman", config={"n_cpus": 1}),
         "invalid config"),
        (_body(workload="Huffman", config={"load_buffer_lines": 2,
                                           "load_buffer_assoc": 4}),
         "invalid config"),
        (_body(workload="Huffman", config={"store_buffer_lines": 0}),
         "invalid config"),
        (_body(workload="Huffman", stages=["zzz"]), "unknown stage"),
        (_body(workload="Huffman", stages="tls"), "list"),
        (_body(workload="Huffman", level="zzz"), "unknown level"),
        (_body(workload="Huffman", fresh="yes"), "boolean"),
        (_body(workload="Huffman", models=[]), "non-empty list"),
        (_body(workload="Huffman", models=["warp"]), "unknown model"),
    ])
    def test_rejects_malformed(self, body, fragment):
        with pytest.raises(ProtocolError) as exc:
            parse_analyze_request(body)
        assert fragment in str(exc.value)
        assert exc.value.status == 400


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_histogram_buckets_and_quantiles(self):
        hist = LatencyHistogram(buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.05, 0.5, 2.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.counts == [2, 1, 1, 0]
        assert hist.quantile(0.5) == 0.1
        assert hist.quantile(0.99) == 10.0
        hist.observe(100.0)  # lands in +Inf; quantile caps at last bound
        assert hist.quantile(1.0) == 10.0

    def test_registry_roundtrip(self):
        metrics = ServiceMetrics()
        metrics.observe_request("analyze", 200, 0.2)
        metrics.observe_request("analyze", 429, 0.001)
        metrics.inc("coalesced", 3)
        metrics.set_gauge("queue_depth", 7)
        metrics.merge_cache({"profile": {"hits": 2, "misses": 1,
                                         "corrupt": 0}})
        metrics.merge_faults({"retries": 1, "timeouts": 0, "crashes": 2})
        snap = metrics.to_dict()
        assert snap["requests"]["analyze_200"] == 1
        assert snap["requests"]["analyze_429"] == 1
        assert snap["counters"]["coalesced"] == 3
        assert snap["gauges"]["queue_depth"] == 7
        assert snap["cache"]["profile"]["hits"] == 2
        assert snap["faults"] == {"retries": 1, "timeouts": 0,
                                  "crashes": 2}
        text = metrics.render_prometheus()
        assert ('jrpm_requests_total{endpoint="analyze",status="200"} 1'
                in text)
        assert 'jrpm_coalesced_total 3' in text
        assert 'jrpm_queue_depth 7' in text
        assert ('jrpm_cache_lookups_total{stage="profile",result="hits"}'
                ' 2' in text)
        assert 'jrpm_fleet_faults_total{kind="crashes"} 2' in text

    def test_thread_safety_under_contention(self):
        metrics = ServiceMetrics()

        def hammer():
            for _ in range(500):
                metrics.inc("coalesced")
                metrics.observe_request("analyze", 200, 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert metrics.counter("coalesced") == 4000
        assert metrics.to_dict()["requests"]["analyze_200"] == 4000


# ---------------------------------------------------------------------------
# scheduler (fake runner: deterministic, no pipelines)
# ---------------------------------------------------------------------------

def _req(workload="Huffman", **kwargs) -> AnalyzeRequest:
    return parse_analyze_request(_body(workload=workload, **kwargs))


def _ok_outcomes(requests):
    return [{"status": "ok", "workload": r.workload.name,
             "report": {"name": r.workload.name}, "attempts": 1}
            for r in requests]


class TestScheduler:
    def test_runs_and_caches_results(self):
        calls = []

        def runner(requests):
            calls.append([r.workload.name for r in requests])
            return _ok_outcomes(requests)

        sched = RequestScheduler(runner=runner, queue_depth=8)
        try:
            first = sched.submit(_req()).wait(timeout=10)
            assert first["status"] == "ok"
            # identical repeat: result cache, no second execution
            ticket = sched.submit(_req())
            assert ticket.cached
            assert ticket.wait(timeout=10) is first
            assert calls == [["Huffman"]]
            assert sched.metrics.counter("result_cache_hits") == 1
        finally:
            sched.stop()

    def test_fresh_bypasses_result_cache(self):
        calls = []

        def runner(requests):
            calls.append(1)
            return _ok_outcomes(requests)

        sched = RequestScheduler(runner=runner)
        try:
            sched.submit(_req()).wait(timeout=10)
            ticket = sched.submit(_req(fresh=True))
            assert not ticket.cached
            ticket.wait(timeout=10)
            assert len(calls) == 2
        finally:
            sched.stop()

    def test_coalesces_concurrent_identical_requests(self):
        release = threading.Event()
        calls = []

        def runner(requests):
            calls.append([r.workload.name for r in requests])
            release.wait(timeout=30)
            return _ok_outcomes(requests)

        sched = RequestScheduler(runner=runner)
        try:
            first = sched.submit(_req())
            # wait until the dispatcher has the entry running
            deadline = time.monotonic() + 10
            while not calls and time.monotonic() < deadline:
                time.sleep(0.005)
            assert calls == [["Huffman"]]
            dup = sched.submit(_req())
            fresh_dup = sched.submit(_req(fresh=True))
            assert dup.coalesced and fresh_dup.coalesced
            release.set()
            results = [t.wait(timeout=10)
                       for t in (first, dup, fresh_dup)]
            assert all(r["status"] == "ok" for r in results)
            assert results[0] is results[1] is results[2]
            assert len(calls) == 1  # one computation for all three
            assert sched.metrics.counter("coalesced") == 2
        finally:
            release.set()
            sched.stop()

    def test_batches_compatible_requests(self):
        release = threading.Event()
        calls = []

        def runner(requests):
            calls.append(sorted(r.workload.name for r in requests))
            release.wait(timeout=30)
            release.clear()
            return _ok_outcomes(requests)

        sched = RequestScheduler(runner=runner, max_batch=4)
        try:
            # first entry occupies the dispatcher...
            blocker = sched.submit(_req("BitOps"))
            deadline = time.monotonic() + 10
            while not calls and time.monotonic() < deadline:
                time.sleep(0.005)
            # ...so these queue up: two share the default profile, one
            # (different config) must not join their batch
            same1 = sched.submit(_req("Huffman"))
            same2 = sched.submit(_req("IDEA"))
            other = sched.submit(_req("monteCarlo",
                                      config={"n_cpus": 8}))
            release.set()
            for ticket in (blocker, same1, same2, other):
                assert ticket.wait(timeout=10)["status"] == "ok"
                release.set()
            assert calls[0] == ["BitOps"]
            assert ["Huffman", "IDEA"] in calls
            assert ["monteCarlo"] in calls
            assert sched.metrics.counter("batched_requests") == 2
        finally:
            release.set()
            sched.stop()

    def test_queue_bound_sheds_load(self):
        release = threading.Event()

        def runner(requests):
            release.wait(timeout=30)
            return _ok_outcomes(requests)

        sched = RequestScheduler(runner=runner, queue_depth=2)
        try:
            running = sched.submit(_req("BitOps"))
            deadline = time.monotonic() + 10
            while sched.queued and time.monotonic() < deadline:
                time.sleep(0.005)
            q1 = sched.submit(_req("Huffman"))
            q2 = sched.submit(_req("IDEA"))
            with pytest.raises(QueueFullError) as exc:
                sched.submit(_req("monteCarlo"))
            assert exc.value.retry_after >= 1.0
            assert sched.metrics.counter("load_shed") == 1
            # coalescing still admits duplicates of queued work even
            # at the bound (they add no queue entry)
            assert sched.submit(_req("Huffman")).coalesced
            release.set()
            for ticket in (running, q1, q2):
                assert ticket.wait(timeout=10)["status"] == "ok"
            # queue drained: new work admits again
            assert sched.submit(_req("monteCarlo")).wait(
                timeout=10)["status"] == "ok"
        finally:
            release.set()
            sched.stop()

    def test_runner_exception_resolves_waiters(self):
        def runner(requests):
            raise RuntimeError("boom")

        sched = RequestScheduler(runner=runner)
        try:
            outcome = sched.submit(_req()).wait(timeout=10)
            assert outcome["status"] == "error"
            assert "boom" in outcome["error"]
            # errors are not cached: the next submit recomputes
            assert not sched.submit(_req()).cached
        finally:
            sched.stop()

    def test_stop_drains_queued_work(self):
        started = threading.Event()
        release = threading.Event()

        def runner(requests):
            started.set()
            release.wait(timeout=30)
            return _ok_outcomes(requests)

        sched = RequestScheduler(runner=runner)
        running = sched.submit(_req("BitOps"))
        assert started.wait(timeout=10)
        queued = sched.submit(_req("Huffman"))

        stopper = threading.Thread(target=sched.stop,
                                   kwargs={"drain": True})
        stopper.start()
        with pytest.raises(SchedulerClosedError):
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:  # stop flips _open
                sched.submit(_req("IDEA"))
                time.sleep(0.01)
        release.set()
        stopper.join(timeout=10)
        assert not stopper.is_alive()
        assert running.wait(timeout=10)["status"] == "ok"
        assert queued.wait(timeout=10)["status"] == "ok"

    def test_stop_without_drain_fails_queued_work(self):
        release = threading.Event()

        def runner(requests):
            release.wait(timeout=30)
            return _ok_outcomes(requests)

        sched = RequestScheduler(runner=runner)
        running = sched.submit(_req("BitOps"))
        deadline = time.monotonic() + 10
        while sched.queued and time.monotonic() < deadline:
            time.sleep(0.005)
        queued = sched.submit(_req("Huffman"))
        release.set()
        sched.stop(drain=False)
        assert running.wait(timeout=10)["status"] == "ok"
        outcome = queued.wait(timeout=10)
        assert outcome["status"] == "error"

    def test_real_pipeline_batch(self):
        """The default fleet runner produces schema-valid reports and
        feeds cache/fault counters into the metrics registry."""
        sched = RequestScheduler(queue_depth=8)
        try:
            outcome = sched.submit(_req("BitOps")).wait(timeout=300)
            assert outcome["status"] == "ok"
            validate_report_dict(outcome["report"])
            assert outcome["report"]["name"] == "BitOps"
            snap = sched.metrics.to_dict()
            assert snap["cache"]  # profile/compile/... misses recorded
        finally:
            sched.stop()

    def test_merge_counters_match_in_process_run(self):
        """The trace-JIT, optimizer and model counters a real request
        folds into /metrics are the ones an in-process run of the same
        settings reports."""
        from repro.jrpm import Jrpm
        from repro.models import model_names

        workload = _req("Huffman").workload
        report = Jrpm(source=workload.source(), name=workload.name,
                      models="all", optimize=True, trace_jit=True).run()
        expected = {}

        def add(name, amount=1):
            expected[name] = expected.get(name, 0) + amount

        for jit in (report.sequential.jit, report.profiled.jit):
            for field in ("recordings", "traces_linked",
                          "traces_blacklisted", "invocations",
                          "iterations", "guard_failures"):
                add("trace_jit_" + field, jit[field])
        for key, value in report.optimize_stats.items():
            add("optimize_" + key, value)
        chosen = {s.loop_id for s in report.selection.selected}
        for loop_id, decision in report.selection.decisions.items():
            add("model_won_" + decision.model)
            if loop_id in chosen:
                add("model_selected_" + decision.model)
        # the run exercises every kind of counter
        assert expected["optimize_total"] > 0
        assert expected["trace_jit_recordings"] > 0
        assert len({k for k in expected
                    if k.startswith("model_won_")}) > 1

        sched = RequestScheduler(jobs=1, queue_depth=8)
        try:
            outcome = sched.submit(_req(
                "Huffman", models=list(model_names()),
                optimize=True)).wait(timeout=300)
            assert outcome["status"] == "ok"
            counters = sched.metrics.to_dict()["counters"]
        finally:
            sched.stop()
        merged = {k: v for k, v in counters.items()
                  if k.startswith(("trace_jit_", "optimize_",
                                   "model_won_", "model_selected_"))}
        assert merged == expected


# ---------------------------------------------------------------------------
# HTTP end to end
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def service():
    svc = AnalysisService(port=0, queue_depth=64, max_batch=8).start()
    yield svc
    svc.stop()


class TestHTTP:
    def test_healthz(self, service):
        status, body, _ = _request(service.port, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["queued"] == 0

    def test_workloads_endpoint(self, service):
        status, body, _ = _request(service.port, "GET", "/workloads")
        assert status == 200
        names = body["workloads"]
        assert "Huffman" in names
        # the 26 Table 6 workloads first, synthetic instances after
        assert len([n for n in names if not n.startswith("synth-")]) == 26
        assert "synth-stencil-000" in names
        # the 26 Table 6 workloads lead; synthetic instances follow
        assert not names[0].startswith("synth-")
        assert names[-1].startswith("synth-")

    def test_unknown_paths_404(self, service):
        assert _request(service.port, "GET", "/zzz")[0] == 404
        assert _request(service.port, "POST", "/zzz")[0] == 404

    def test_analyze_roundtrip_and_schema(self, service):
        status, body, _ = _request(service.port, "POST", "/analyze",
                                   body={"workload": "BitOps"})
        assert status == 200
        assert body["request"]["workload"] == "BitOps"
        validate_report_dict(body["report"])
        assert body["report"]["predicted_speedup"] > 1.0
        assert body["report"]["actual_speedup"] is not None

    def test_analyze_matches_cli_json_bytes(self, service, capsys):
        """The service's report field and ``jrpm run --json`` are the
        same serializer: byte-identical for the same request."""
        from repro.jrpm.cli import main
        _, body, _ = _request(service.port, "POST", "/analyze",
                              body={"workload": "NumHeapSort"})
        assert main(["run", "NumHeapSort", "--json"]) == 0
        cli_text = capsys.readouterr().out.strip()
        assert dumps_canonical(body["report"]) == cli_text

    def test_analyze_no_tls_stage(self, service):
        status, body, _ = _request(
            service.port, "POST", "/analyze",
            body={"workload": "BitOps", "stages": ["profile"]})
        assert status == 200
        assert body["report"]["actual_speedup"] is None
        assert body["report"]["predicted_vs_actual"] is None

    def test_analyze_rejects_bad_request(self, service):
        status, body, _ = _request(service.port, "POST", "/analyze",
                                   body={"workload": "zzz"})
        assert status == 400
        assert "unknown workload" in body["error"]

    def test_repeat_serves_from_result_cache(self, service):
        body = {"workload": "BitOps", "config": {"n_cpus": 6}}
        t0 = time.perf_counter()
        status1, first, _ = _request(service.port, "POST", "/analyze",
                                     body=body)
        cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        status2, second, _ = _request(service.port, "POST", "/analyze",
                                      body=body)
        warm = time.perf_counter() - t0
        assert status1 == status2 == 200
        assert not first["meta"]["cached"]
        assert second["meta"]["cached"]
        assert second["report"] == first["report"]
        assert warm < cold

    def test_smoke_concurrent_duplicates_coalesce(self, service):
        """The CI smoke contract: concurrent duplicate /analyze
        requests all answer 200 and the coalesce counter moves."""
        before = service.metrics.counter("coalesced")
        results = []
        lock = threading.Lock()

        def client():
            got = _request(service.port, "POST", "/analyze",
                           body={"workload": "Huffman", "fresh": True})
            with lock:
                results.append(got)

        threads = [threading.Thread(target=client) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert [status for status, _, _ in results] == [200] * 8
        reports = [body["report"] for _, body, _ in results]
        assert all(r == reports[0] for r in reports)
        assert service.metrics.counter("coalesced") > before

    def test_32_concurrent_mixed_requests_zero_drops(self, service):
        """Acceptance: >= 32 concurrent mixed requests, zero dropped
        responses below the queue bound (queue_depth=64 here)."""
        mix = ["BitOps", "NumHeapSort", "Huffman", "IDEA"]
        results = []
        lock = threading.Lock()

        def client(i):
            name = mix[i % len(mix)]
            body = {"workload": name}
            if i % 8 < len(mix):  # half the traffic varies the config
                body["config"] = {"n_cpus": 4 + (i % 3)}
            got = _request(service.port, "POST", "/analyze", body=body)
            with lock:
                results.append((name, got))

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(32)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        statuses = [status for _, (status, _, _) in results]
        assert statuses == [200] * 32
        for name, (_, body, _) in results:
            assert body["report"]["name"] == name
            validate_report_dict(body["report"])

    def test_metrics_exposition(self, service):
        status, text, _ = _request(service.port, "GET", "/metrics")
        assert status == 200
        assert "jrpm_requests_total" in text
        assert "jrpm_request_latency_seconds_bucket" in text
        assert "jrpm_cache_lookups_total" in text
        status, snap, _ = _request(
            service.port, "GET", "/metrics",
            headers={"Accept": "application/json"})
        assert status == 200
        assert snap["counters"]["analyze_completed"] > 0
        assert 0.0 <= snap["cache_hit_rate"] <= 1.0


class TestBackpressure:
    """429 + Retry-After beyond the queue bound, deterministic via an
    injected runner (no timing races on real pipelines)."""

    def test_sheds_with_429_and_retry_after(self):
        release = threading.Event()

        def runner(requests):
            release.wait(timeout=60)
            return [{"status": "ok", "workload": r.workload.name,
                     "report": _fake_report(r.workload.name),
                     "attempts": 1} for r in requests]

        # max_batch=1 so the dispatcher takes exactly one request at a
        # time: the three clients share a profile_key and would
        # otherwise batch, leaving fewer than two queued
        sched = RequestScheduler(runner=runner, queue_depth=2,
                                 max_batch=1)
        svc = AnalysisService(port=0, scheduler=sched).start()
        try:
            tickets = []
            lock = threading.Lock()

            def client(name):
                got = _request(svc.port, "POST", "/analyze",
                               body={"workload": name})
                with lock:
                    tickets.append(got)

            # one running + two queued fills the bound; both counts
            # are waited on, since two can be queued before the
            # dispatcher has taken the first
            threads = [threading.Thread(target=client, args=(n,))
                       for n in ("BitOps", "Huffman", "IDEA")]
            for t in threads:
                t.start()
            deadline = time.monotonic() + 10
            while (sched.running, sched.queued) != (1, 2) \
                    and time.monotonic() < deadline:
                time.sleep(0.005)
            assert (sched.running, sched.queued) == (1, 2)
            status, body, headers = _request(
                svc.port, "POST", "/analyze",
                body={"workload": "monteCarlo"})
            assert status == 429
            assert "queue is full" in body["error"]
            assert int(headers["Retry-After"]) >= 1
            release.set()
            for t in threads:
                t.join(timeout=30)
            assert [s for s, _, _ in tickets] == [200] * 3
        finally:
            release.set()
            svc.stop()

    def test_draining_service_returns_503(self):
        svc = AnalysisService(port=0).start()
        port = svc.port
        svc.stop()  # drains and marks draining; server is closed
        status, payload, _ = svc.handle_analyze(
            _body(workload="BitOps"))
        assert status == 503
        assert "draining" in payload["error"]
        assert svc.health()[0] == 503


# ---------------------------------------------------------------------------
# HTTP-layer bugfix regressions (keep-alive drain, body cap, 504
# abandonment, Retry-After rounding) — each fails on the pre-fix code
# ---------------------------------------------------------------------------

def _blocked_runner_scheduler(release, **kwargs):
    """A scheduler whose runner blocks until ``release`` is set, then
    answers with schema-valid fake reports."""

    def runner(requests):
        release.wait(timeout=60)
        return [{"status": "ok", "workload": r.workload.name,
                 "report": _fake_report(r.workload.name),
                 "attempts": 1} for r in requests]

    return RequestScheduler(runner=runner, **kwargs)


class TestKeepAliveDrain:
    def test_404_post_with_body_keeps_connection_usable(self, service):
        """A POST to an unknown path must drain its body before the
        404: on a keep-alive connection unread body bytes would be
        parsed as the next request line (desync)."""
        before = service.metrics.to_dict()["requests"].get(
            "other_404", 0)
        conn = http.client.HTTPConnection("127.0.0.1", service.port,
                                          timeout=30)
        try:
            junk = json.dumps({"junk": "x" * 256}).encode()
            conn.request("POST", "/zzz", body=junk)
            resp = conn.getresponse()
            assert resp.status == 404
            resp.read()
            # same connection: with the body undrained these bytes
            # would land mid-stream and the exchange would not parse
            conn.request("POST", "/analyze",
                         body=json.dumps({"workload": "zzz"}).encode())
            resp = conn.getresponse()
            payload = json.loads(resp.read())
            assert resp.status == 400
            assert "unknown workload" in payload["error"]
        finally:
            conn.close()
        # the early-return path records its request metric too
        after = service.metrics.to_dict()["requests"].get(
            "other_404", 0)
        assert after == before + 1

    def test_keepalive_round_trips_are_not_delayed(self, service):
        """Headers and body of a response must not wait on the
        client's delayed ACK: with Nagle's algorithm on, the body's
        second small send sat behind the header send for ~40 ms on
        every keep-alive exchange."""
        conn = http.client.HTTPConnection("127.0.0.1", service.port,
                                          timeout=30)
        try:
            times = []
            for _ in range(20):
                start = time.perf_counter()
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                resp.read()
                times.append(time.perf_counter() - start)
                assert resp.status == 200
        finally:
            conn.close()
        times.sort()
        median = times[len(times) // 2]
        assert median < 0.015, "median keep-alive round trip %.1f ms" % (
            1000 * median)

    def test_malformed_content_length_400_and_close(self, service):
        conn = http.client.HTTPConnection("127.0.0.1", service.port,
                                          timeout=30)
        try:
            conn.putrequest("POST", "/analyze")
            conn.putheader("Content-Length", "banana")
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
            assert "Content-Length" in json.loads(resp.read())["error"]
            # the unread wire state is unknowable: must not keep alive
            assert resp.getheader("Connection") == "close"
        finally:
            conn.close()


class TestBodyCap:
    def test_oversized_content_length_413_without_reading(self, service):
        """A hostile Content-Length must answer 413 immediately, not
        allocate: no body is sent at all, so a pre-fix server would
        block inside rfile.read()."""
        conn = http.client.HTTPConnection("127.0.0.1", service.port,
                                          timeout=30)
        try:
            conn.putrequest("POST", "/analyze")
            conn.putheader("Content-Length", str(1 << 30))
            conn.endheaders()
            resp = conn.getresponse()
            payload = json.loads(resp.read())
            assert resp.status == 413
            assert "exceeds" in payload["error"]
            assert resp.getheader("Connection") == "close"
        finally:
            conn.close()
        snap = service.metrics.to_dict()
        assert snap["requests"].get("analyze_413", 0) >= 1

    def test_cap_is_configurable(self):
        release = threading.Event()
        release.set()
        sched = _blocked_runner_scheduler(release)
        svc = AnalysisService(port=0, scheduler=sched,
                              max_body_bytes=64).start()
        try:
            status, payload, _ = _request(
                svc.port, "POST", "/analyze",
                body={"workload": "x" * 128})
            assert status == 413
            # an in-bounds body still parses on a fresh connection
            status, payload, _ = _request(
                svc.port, "POST", "/analyze", body={"workload": "zz"})
            assert status == 400
        finally:
            svc.stop()


class TestTimeoutAbandonment:
    def test_504_counts_and_fresh_result_is_not_cached(self):
        release = threading.Event()
        sched = _blocked_runner_scheduler(release)
        svc = AnalysisService(port=0, scheduler=sched,
                              request_timeout=0.2).start()
        try:
            request = parse_analyze_request(
                _body(workload="BitOps", fresh=True))
            status, payload, _ = svc.handle_analyze(
                _body(workload="BitOps", fresh=True))
            assert status == 504
            assert "timed out" in payload["error"]
            assert svc.metrics.counter("request_timeouts") == 1
            assert svc.metrics.counter("requests_abandoned") == 1
            # the orphaned computation still completes...
            release.set()
            deadline = time.monotonic() + 10
            while sched.in_flight and time.monotonic() < deadline:
                time.sleep(0.005)
            deadline = time.monotonic() + 10
            while svc.metrics.counter("abandoned_results") < 1 \
                    and time.monotonic() < deadline:
                time.sleep(0.005)
            # ...is accounted on /metrics...
            snap = svc.metrics.to_dict()
            assert snap["counters"]["abandoned_results"] == 1
            assert "jrpm_abandoned_results_total 1" \
                in svc.metrics.render_prometheus()
            # ...but must NOT repopulate the result cache: the client
            # asked fresh=true and nobody received this result, so a
            # non-fresh repeat misses the LRU
            repeat = parse_analyze_request(_body(workload="BitOps"))
            assert repeat.key == request.key
            assert not sched.submit(repeat).cached
        finally:
            release.set()
            svc.stop()

    def test_non_fresh_abandoned_result_still_caches(self):
        release = threading.Event()
        sched = _blocked_runner_scheduler(release)
        svc = AnalysisService(port=0, scheduler=sched,
                              request_timeout=0.2).start()
        try:
            request = parse_analyze_request(_body(workload="BitOps"))
            status, _, _ = svc.handle_analyze(_body(workload="BitOps"))
            assert status == 504
            release.set()
            deadline = time.monotonic() + 10
            while sched.in_flight and time.monotonic() < deadline:
                time.sleep(0.005)
            # a cacheable (non-fresh) result is kept: the next repeat
            # legitimately serves it from the LRU
            assert sched.submit(request).cached
        finally:
            release.set()
            svc.stop()

    def test_surviving_coalesced_waiter_keeps_entry_live(self):
        """One waiter timing out must not mark the computation
        abandoned while a coalesced twin still waits."""
        release = threading.Event()
        sched = _blocked_runner_scheduler(release)
        svc = AnalysisService(port=0, scheduler=sched,
                              request_timeout=0.3).start()
        try:
            patient = {}

            def waiter():
                ticket = sched.submit(parse_analyze_request(
                    _body(workload="BitOps", fresh=True)))
                patient["outcome"] = ticket.wait(timeout=30)

            thread = threading.Thread(target=waiter)
            thread.start()
            deadline = time.monotonic() + 10
            while not sched.in_flight \
                    and time.monotonic() < deadline:
                time.sleep(0.005)
            # this handler coalesces onto the same entry, then 504s
            status, _, _ = svc.handle_analyze(
                _body(workload="BitOps", fresh=True))
            assert status == 504
            release.set()
            thread.join(timeout=30)
            assert patient["outcome"]["status"] == "ok"
            # the patient waiter was served: not an abandoned entry
            assert svc.metrics.counter("requests_abandoned") == 0
            assert svc.metrics.counter("abandoned_results") == 0
        finally:
            release.set()
            svc.stop()


class TestRetryAfterRounding:
    def test_header_and_body_agree_and_round_up(self, monkeypatch):
        release = threading.Event()
        release.set()
        sched = _blocked_runner_scheduler(release)
        svc = AnalysisService(port=0, scheduler=sched).start()
        try:
            for estimate, expected in ((1.5, 2), (0.9, 1), (3.0, 3)):
                def fail(request, _estimate=estimate):
                    raise QueueFullError(3, _estimate)

                monkeypatch.setattr(sched, "submit", fail)
                status, payload, headers = svc.handle_analyze(
                    _body(workload="BitOps"))
                assert status == 429
                # ceil, consistently: a 1.5s estimate must not tell
                # the client to come back in 1s
                assert headers["Retry-After"] == str(expected)
                assert payload["retry_after"] == expected
        finally:
            svc.stop()


# ---------------------------------------------------------------------------
# the real daemon process: startup banner, SIGTERM drain, exit 0
# ---------------------------------------------------------------------------

class TestServeCLI:
    def test_serve_sigterm_drains_cleanly(self, tmp_path):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep * bool(
            env.get("PYTHONPATH")) + env.get("PYTHONPATH", "")
        dump = tmp_path / "metrics.json"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.jrpm.cli", "serve",
             "--port", "0", "--queue-depth", "8",
             "--metrics-dump", str(dump)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True)
        try:
            banner = proc.stdout.readline()
            assert "jrpm-serve listening on http://" in banner
            port = int(banner.split("http://127.0.0.1:")[1].split()[0])
            status, body, _ = _request(port, "POST", "/analyze",
                                       body={"workload": "BitOps"})
            assert status == 200
            validate_report_dict(body["report"])
            assert _request(port, "GET", "/healthz")[0] == 200
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0
            assert "drained and stopped" in out
            snap = json.loads(dump.read_text())
            assert snap["counters"]["analyze_completed"] >= 1
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
