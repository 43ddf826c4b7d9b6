"""Tests for the sharded serving tier: the consistent-hash ring
(stability, balance, replica sets), the routing frontend end to end
(byte-identity with a single-shard daemon, stable routing, metrics and
health aggregation), cross-replica result pushes, and the
``jrpm serve --shards N`` process."""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.jrpm.report import dumps_canonical, validate_report_dict
from repro.service.protocol import parse_analyze_request
from repro.service.router import HashRing, ShardedFrontend
from repro.service.server import AnalysisService


def _request(port: int, method: str, path: str, body=None,
             headers=None, host: str = "127.0.0.1"):
    """One HTTP exchange; returns (status, parsed_json, headers)."""
    conn = http.client.HTTPConnection(host, port, timeout=300)
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


#: cheap request for end-to-end tests: profile stage only, no TLS sim
FAST_BODY = {"workload": "BitOps", "stages": ["profile"]}


# ---------------------------------------------------------------------------
# the ring
# ---------------------------------------------------------------------------

class TestHashRing:
    KEYS = ["key-%d" % i for i in range(2000)]

    def test_deterministic_and_reasonably_balanced(self):
        ring = HashRing(["0", "1", "2", "3"])
        owners = [ring.primary(k) for k in self.KEYS]
        assert owners == [ring.primary(k) for k in self.KEYS]
        counts = {n: owners.count(n) for n in ring.nodes}
        # vnodes keep the split far from degenerate: every shard owns
        # a substantial slice (exact balance is not the contract)
        assert all(count > len(self.KEYS) * 0.10
                   for count in counts.values())

    def test_replica_sets_are_distinct_and_primary_first(self):
        ring = HashRing(["0", "1", "2", "3"])
        for key in self.KEYS[:200]:
            replicas = ring.replicas(key, 3)
            assert len(replicas) == 3
            assert len(set(replicas)) == 3
            assert replicas[0] == ring.primary(key)
        # k capped at the ring size
        assert len(ring.replicas("x", 99)) == 4

    def test_adding_a_shard_remaps_about_one_nth(self):
        """The consistent-hash contract: growing 4 -> 5 shards moves
        ~1/5 of the key space, all of it onto the new shard."""
        ring = HashRing(["0", "1", "2", "3"])
        before = {k: ring.primary(k) for k in self.KEYS}
        ring.add("4")
        after = {k: ring.primary(k) for k in self.KEYS}
        moved = [k for k in self.KEYS if before[k] != after[k]]
        fraction = len(moved) / len(self.KEYS)
        assert 0.10 < fraction < 0.35   # ideal 0.20
        # every remapped key landed on the new shard — nothing
        # shuffled between the surviving shards
        assert all(after[k] == "4" for k in moved)

    def test_removing_the_shard_restores_the_mapping(self):
        ring = HashRing(["0", "1", "2", "3"])
        before = {k: ring.primary(k) for k in self.KEYS}
        ring.add("4")
        ring.remove("4")
        assert {k: ring.primary(k) for k in self.KEYS} == before

    def test_empty_and_invalid(self):
        with pytest.raises(ValueError):
            HashRing([]).primary("x")
        with pytest.raises(ValueError):
            HashRing(vnodes=0)
        ring = HashRing(["0"])
        with pytest.raises(ValueError):
            ring.add("0")


# ---------------------------------------------------------------------------
# the frontend, end to end over two real shard processes
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def frontend():
    fe = ShardedFrontend(port=0, shards=2, replicas=2,
                         shard_options={"queue_depth": 32}).start()
    yield fe
    fe.stop()


class TestShardedFrontend:
    def test_healthz_aggregates_every_shard(self, frontend):
        status, body, _ = _request(frontend.port, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["shard_count"] == 2
        assert sorted(body["shards"]) == ["0", "1"]
        assert all(s["up"] for s in body["shards"].values())

    def test_workloads_and_404(self, frontend):
        status, body, _ = _request(frontend.port, "GET", "/workloads")
        assert status == 200
        assert "Huffman" in body["workloads"]
        assert _request(frontend.port, "GET", "/zzz")[0] == 404
        assert _request(frontend.port, "POST", "/zzz")[0] == 404

    def test_analyze_routes_by_key_and_matches_single_shard_bytes(
            self, frontend):
        """The sharded tier's contract: an /analyze report is byte-
        identical to the single-shard daemon's for the same request."""
        status, body, headers = _request(frontend.port, "POST",
                                         "/analyze", body=FAST_BODY)
        assert status == 200
        assert headers["X-Jrpm-Shard"] in ("0", "1")
        validate_report_dict(body["report"])

        single = AnalysisService(port=0).start()
        try:
            status2, body2, headers2 = _request(
                single.port, "POST", "/analyze", body=FAST_BODY)
        finally:
            single.stop()
        assert status2 == 200
        assert "X-Jrpm-Shard" not in headers2
        assert dumps_canonical(body2["report"]) \
            == dumps_canonical(body["report"])

    def test_repeat_hits_the_same_shards_result_cache(self, frontend):
        body = {"workload": "BitOps", "stages": ["profile"],
                "config": {"n_cpus": 4}}
        status1, first, headers1 = _request(frontend.port, "POST",
                                            "/analyze", body=body)
        status2, second, headers2 = _request(frontend.port, "POST",
                                             "/analyze", body=body)
        assert status1 == status2 == 200
        # consistent hashing pins the key to one shard, so the repeat
        # lands on the warm result LRU
        assert headers1["X-Jrpm-Shard"] == headers2["X-Jrpm-Shard"]
        assert not first["meta"]["cached"]
        assert second["meta"]["cached"]
        assert second["report"] == first["report"]

    def test_frontend_rejects_malformed_before_routing(self, frontend):
        status, body, headers = _request(frontend.port, "POST",
                                         "/analyze",
                                         body={"workload": "zzz"})
        assert status == 400
        assert "unknown workload" in body["error"]
        # rejected at the frontend: no shard saw it
        assert "X-Jrpm-Shard" not in headers

    def test_metrics_aggregation(self, frontend):
        status, snap, _ = _request(
            frontend.port, "GET", "/metrics",
            headers={"Accept": "application/json"})
        assert status == 200
        assert snap["shard_count"] == 2
        assert sorted(snap["shards"]) == ["0", "1"]
        agg = snap["aggregate"]
        per_shard = sum(
            s["counters"].get("analyze_completed", 0)
            for s in snap["shards"].values())
        assert agg["counters"].get("analyze_completed", 0) == per_shard
        assert agg["counters"].get("analyze_completed", 0) >= 1
        assert snap["frontend"]["requests"].get("analyze_200", 0) >= 1
        # routing counters name the shard each request landed on
        routed = [name for name in snap["frontend"]["counters"]
                  if name.startswith("routed_shard_")]
        assert routed

        status, text, _ = _request(frontend.port, "GET", "/metrics")
        assert status == 200
        assert 'jrpm_shard_up{shard="0"} 1' in text
        assert 'jrpm_shard_up{shard="1"} 1' in text
        assert 'jrpm_cluster_counter_total{counter="analyze_completed"}' \
            in text

    def test_keepalive_404_then_analyze_on_frontend(self, frontend):
        """The keep-alive body-drain fix applies to the frontend's
        proxy handler too."""
        conn = http.client.HTTPConnection("127.0.0.1", frontend.port,
                                          timeout=30)
        try:
            conn.request("POST", "/nope",
                         body=json.dumps({"j": "x" * 128}).encode())
            resp = conn.getresponse()
            assert resp.status == 404
            resp.read()
            conn.request("POST", "/analyze",
                         body=json.dumps({"workload": "zzz"}).encode())
            resp = conn.getresponse()
            assert resp.status == 400
            assert "unknown workload" in json.loads(resp.read())["error"]
        finally:
            conn.close()


class TestFrontendFailover:
    def test_result_push_warms_secondary_before_failover(self):
        """Push-only replica warming: a fresh compute PUSHES its result
        to the replica set, so when the primary later dies the
        secondary serves the key from its own LRU — cached, no
        recompute, no dependence on the (dead) primary."""
        fe = ShardedFrontend(port=0, shards=2, replicas=2).start()
        try:
            body = {"workload": "BitOps", "stages": ["profile"],
                    "config": {"n_cpus": 5}}
            request = parse_analyze_request(json.dumps(body).encode())
            primary, secondary = fe.ring.replicas(request.key, 2)
            status, first, headers = _request(fe.port, "POST",
                                              "/analyze", body=body)
            assert status == 200
            assert headers["X-Jrpm-Shard"] == primary
            assert not first["meta"]["cached"]
            # the fresh compute pushed the outcome to the secondary
            snap = fe.metrics_snapshot()
            assert snap["shards"][primary]["counters"][
                "replica_pushes"] >= 1
            assert snap["shards"][secondary]["counters"][
                "replica_push_received"] >= 1
            # kill the primary: the failover target is already warm
            fe._procs[int(primary)].request_stop()
            fe._procs[int(primary)].wait(timeout=30)
            started = time.perf_counter()
            status, served, headers = _request(fe.port, "POST",
                                               "/analyze", body=body)
            elapsed = time.perf_counter() - started
            assert status == 200
            assert headers["X-Jrpm-Shard"] == secondary
            assert served["meta"]["cached"]
            assert served["report"] == first["report"]
            assert elapsed < 2.5  # LRU hit, not a recompute
        finally:
            fe.stop()

    def test_failover_to_secondary_when_primary_dies(self):
        fe = ShardedFrontend(port=0, shards=2, replicas=2).start()
        try:
            body = {"workload": "BitOps", "stages": ["profile"]}
            request = parse_analyze_request(json.dumps(body).encode())
            primary, secondary = fe.ring.replicas(request.key, 2)
            # kill the primary out from under the frontend
            fe._procs[int(primary)].request_stop()
            fe._procs[int(primary)].wait(timeout=30)
            status, served, headers = _request(fe.port, "POST",
                                               "/analyze", body=body)
            assert status == 200
            assert headers["X-Jrpm-Shard"] == secondary
            assert fe.metrics.counter("failovers") >= 1
            # health reflects the dead shard
            status, health, _ = _request(fe.port, "GET", "/healthz")
            assert status == 503
            assert health["status"] == "degraded"
            assert not health["shards"][primary]["up"]
            assert health["shards"][secondary]["up"]
        finally:
            fe.stop()


# ---------------------------------------------------------------------------
# the real sharded daemon process: banner, traffic, SIGTERM drain
# ---------------------------------------------------------------------------

class TestServeShardedCLI:
    def test_serve_shards_2_sigterm_drains_cleanly(self, tmp_path):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep * bool(
            env.get("PYTHONPATH")) + env.get("PYTHONPATH", "")
        dump = tmp_path / "metrics.json"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.jrpm.cli", "serve",
             "--port", "0", "--shards", "2", "--replicas", "2",
             "--queue-depth", "8", "--metrics-dump", str(dump)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True)
        try:
            banner = proc.stdout.readline()
            assert "jrpm-serve listening on http://" in banner
            assert "shards=2" in banner
            port = int(banner.split("http://127.0.0.1:")[1].split()[0])
            status, body, headers = _request(port, "POST", "/analyze",
                                             body=FAST_BODY)
            assert status == 200
            validate_report_dict(body["report"])
            assert headers["X-Jrpm-Shard"] in ("0", "1")
            status, health, _ = _request(port, "GET", "/healthz")
            assert status == 200
            assert health["shard_count"] == 2
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0
            assert "drained and stopped" in out
            snap = json.loads(dump.read_text())
            counters = snap["aggregate"]["counters"]
            assert counters.get("analyze_completed", 0) >= 1
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
