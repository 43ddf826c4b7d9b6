"""Tests for the parallel fleet executor.

The contract: jobs=N must be an implementation detail — rows come back
in workload order with field-for-field the same numbers as the serial
loop, and a crashing workload either aborts the fleet (on_error=
"raise") or becomes an error row (on_error="row") without disturbing
its neighbours.
"""

import pickle

import pytest

from repro.errors import PipelineError
from repro.jrpm.batch import FleetErrorRow, FleetRow, run_fleet
from repro.jrpm.cache import STAGE_PROFILE, STAGE_RECORDING, ArtifactCache
from repro.jrpm.executor import FleetExecutor
from repro.jrpm.faults import FaultPlan
from repro.jrpm.report import validate_report_dict
from repro.workloads import get_workload
from repro.workloads.registry import Workload

SAMPLE = ["IDEA", "monteCarlo", "raytrace"]

#: a FleetRow's figure columns and its whole canonical report dict
ROW_FIELDS = [
    "name", "slowdown", "predicted_speedup", "actual_speedup", "report",
]

BROKEN = Workload(
    name="broken", category="synthetic",
    description="fails in the parser, for failure-isolation tests",
    source_text="func main( {")


@pytest.fixture(scope="module")
def sample_workloads():
    return [get_workload(n) for n in SAMPLE]


@pytest.fixture(scope="module")
def serial(sample_workloads):
    return run_fleet(sample_workloads, simulate_tls=True)


class TestParallelMatchesSerial:
    def test_rows_field_by_field(self, sample_workloads, serial,
                                 tmp_path_factory):
        cache = ArtifactCache(
            directory=str(tmp_path_factory.mktemp("fleet-cache")))
        parallel = run_fleet(sample_workloads, simulate_tls=True,
                             jobs=2, cache=cache)
        assert len(parallel) == len(serial)
        for s_row, p_row in zip(serial, parallel):
            for field in ROW_FIELDS:
                assert getattr(s_row, field) == getattr(p_row, field), \
                    field

    def test_warm_parallel_rows_equal_cold_ones(self, sample_workloads,
                                                tmp_path):
        """A warm worker's replay fetches the recording its plans need
        (a worker's cache starts with no plans); its rows match the
        cold fleet's, which profiled."""
        cache = ArtifactCache(directory=str(tmp_path))
        cold = run_fleet(sample_workloads, simulate_tls=True, jobs=2,
                         cache=cache)
        warm = run_fleet(sample_workloads, simulate_tls=True, jobs=2,
                         cache=cache)
        assert warm.cache_misses == 0
        assert warm.cache_stats[STAGE_RECORDING]["hits"] == len(SAMPLE)
        for c_row, w_row in zip(cold, warm):
            for field in ROW_FIELDS:
                assert getattr(c_row, field) == getattr(w_row, field), \
                    field

    def test_rows_cross_the_pool_as_report_dicts(self, tmp_path):
        """A row carries the run's canonical report dict, not the run
        (program, device, engine, recording): cold and warm, every
        row pickles small."""
        cache = ArtifactCache(directory=str(tmp_path))
        workloads = [get_workload(n) for n in ("IDEA", "monteCarlo")]
        for _ in ("cold", "warm"):
            result = run_fleet(workloads, simulate_tls=True, jobs=2,
                               cache=cache)
            for row in result:
                assert len(pickle.dumps(row)) < 32_000, row.name
                validate_report_dict(row.report)

    def test_order_is_workload_order_not_completion_order(
            self, sample_workloads):
        # reversed submission must still yield reversed (i.e. given)
        # order, whatever finishes first
        flipped = list(reversed(sample_workloads))
        result = run_fleet(flipped, simulate_tls=False, jobs=2)
        assert [r.name for r in result] == list(reversed(SAMPLE))

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            FleetExecutor(jobs=0)

    def test_parallel_memory_cache_rejected(self):
        with pytest.raises(ValueError):
            FleetExecutor(jobs=2, cache=ArtifactCache())


class TestFailureIsolation:
    def test_serial_raise_default(self, sample_workloads):
        with pytest.raises(Exception):
            run_fleet([BROKEN] + sample_workloads, simulate_tls=False)

    def test_serial_error_row(self, sample_workloads):
        result = run_fleet([sample_workloads[0], BROKEN,
                            sample_workloads[1]],
                           simulate_tls=False, on_error="row")
        assert [type(r) for r in result.rows] == [
            FleetRow, FleetErrorRow, FleetRow]
        assert [r.name for r in result] == [SAMPLE[0], "broken",
                                            SAMPLE[1]]
        bad = result.rows[1]
        assert not bad.ok
        assert bad.error
        assert result.errors == [bad]
        # aggregates cover the healthy rows only
        assert result.median_slowdown > 1.0
        assert "FAILED" in result.render()

    def test_parallel_error_row(self, sample_workloads):
        result = run_fleet([BROKEN, sample_workloads[0]],
                           simulate_tls=False, jobs=2, on_error="row")
        assert not result.rows[0].ok
        assert result.rows[0].trace  # worker traceback shipped home
        assert result.rows[1].ok

    def test_parallel_raise(self, sample_workloads):
        with pytest.raises(PipelineError):
            run_fleet([BROKEN, sample_workloads[0]],
                      simulate_tls=False, jobs=2, on_error="raise")

    def test_invalid_on_error(self):
        with pytest.raises(ValueError):
            FleetExecutor(on_error="ignore")

    def test_invalid_timeout_retries_backoff(self):
        with pytest.raises(ValueError):
            FleetExecutor(timeout=0)
        with pytest.raises(ValueError):
            FleetExecutor(retries=-1)
        with pytest.raises(ValueError):
            FleetExecutor(backoff=-0.1)


class TestRaiseSemantics:
    """on_error="raise" contracts on the parallel path: the sweep
    drains, then the first failure *in workload order* surfaces with
    the worker's traceback, carrying the merged cache stats of the
    rows that did complete."""

    def test_first_failure_in_workload_order_not_completion_order(
            self, sample_workloads, tmp_path):
        # IDEA fails late (injected in the profile stage) while BROKEN
        # fails instantly in the parser — completion order is BROKEN
        # first, workload order is IDEA first, and workload order must
        # win
        plan = FaultPlan(str(tmp_path / "faults"))
        plan.raise_in_stage("IDEA", STAGE_PROFILE)
        cache = ArtifactCache(directory=str(tmp_path / "cache"))
        with pytest.raises(PipelineError) as excinfo:
            run_fleet([sample_workloads[0], BROKEN,
                       sample_workloads[1]],
                      simulate_tls=False, jobs=2, cache=cache,
                      fault_plan=plan, on_error="raise")
        message = str(excinfo.value)
        assert "'IDEA'" in message
        assert "broken" not in message.split("Traceback")[0]

    def test_worker_traceback_preserved(self, sample_workloads,
                                        tmp_path):
        cache = ArtifactCache(directory=str(tmp_path / "cache"))
        with pytest.raises(PipelineError) as excinfo:
            run_fleet([BROKEN, sample_workloads[0]],
                      simulate_tls=False, jobs=2, cache=cache,
                      on_error="raise")
        assert "Traceback" in str(excinfo.value)

    def test_merged_cache_stats_ride_on_the_exception(
            self, sample_workloads, tmp_path):
        cache = ArtifactCache(directory=str(tmp_path / "cache"))
        with pytest.raises(PipelineError) as excinfo:
            run_fleet([BROKEN] + sample_workloads[:2],
                      simulate_tls=False, jobs=2, cache=cache,
                      on_error="raise")
        stats = excinfo.value.cache_stats
        # the two healthy workloads completed and their worker
        # counters were merged before the raise
        assert sum(c.get("misses", 0) for c in stats.values()) >= 8
        assert excinfo.value.exec_stats == {
            "retries": 0, "timeouts": 0, "crashes": 0}


class TestRetrySemantics:
    def test_transient_parallel_failure_retried_to_success(
            self, sample_workloads, tmp_path):
        plan = FaultPlan(str(tmp_path / "faults"))
        plan.raise_in_stage("IDEA", STAGE_PROFILE)
        cache = ArtifactCache(directory=str(tmp_path / "cache"))
        result = run_fleet(sample_workloads[:2], simulate_tls=False,
                           jobs=2, cache=cache, retries=1,
                           backoff=0.0, fault_plan=plan)
        assert all(r.ok for r in result.rows)
        assert result.retry_count == 1

    def test_exhausted_retries_report_attempts(self, sample_workloads,
                                               tmp_path):
        plan = FaultPlan(str(tmp_path / "faults"))
        plan.raise_in_stage("IDEA", STAGE_PROFILE, times=3)
        cache = ArtifactCache(directory=str(tmp_path / "cache"))
        result = run_fleet(sample_workloads[:2], simulate_tls=False,
                           jobs=2, cache=cache, on_error="row",
                           retries=2, backoff=0.0, fault_plan=plan)
        row = result.rows[0]
        assert isinstance(row, FleetErrorRow)
        assert row.attempts == 3
        assert result.retry_count == 2
        assert result.rows[1].ok


class TestCacheStatsPlumbing:
    def test_serial_stats_cover_this_run_only(self, sample_workloads):
        cache = ArtifactCache()
        first = run_fleet(sample_workloads[:2], simulate_tls=False,
                          cache=cache)
        assert first.cache_hits == 0
        assert first.cache_misses == 8  # 2 workloads x 4 stages
        second = run_fleet(sample_workloads[:2], simulate_tls=False,
                           cache=cache)
        # the delta, not the cache's lifetime counters; a profile hit
        # leaves the annotate artifact unread
        assert second.cache_hits == 6
        assert second.cache_misses == 0

    def test_parallel_stats_merged_from_workers(self, sample_workloads,
                                                tmp_path):
        cache = ArtifactCache(directory=str(tmp_path))
        cold = run_fleet(sample_workloads[:2], simulate_tls=False,
                         jobs=2, cache=cache)
        assert cold.cache_misses == 8
        warm = run_fleet(sample_workloads[:2], simulate_tls=False,
                         jobs=2, cache=cache)
        assert warm.cache_hits == 6
        assert warm.cache_misses == 0

    def test_no_cache_no_stats(self, sample_workloads):
        result = run_fleet(sample_workloads[:1], simulate_tls=False)
        assert result.cache_stats == {}
        assert result.cache_hits == 0


class TestSeedableJitter:
    def test_retry_delay_uses_injected_rng(self):
        import random

        a = FleetExecutor(retries=2, backoff=0.5,
                          rng=random.Random(1234))
        b = FleetExecutor(retries=2, backoff=0.5,
                          rng=random.Random(1234))
        delays_a = [a._retry_delay(n) for n in (1, 2, 3)]
        delays_b = [b._retry_delay(n) for n in (1, 2, 3)]
        assert delays_a == delays_b
        # exponential envelope with up-to-25% jitter on top
        for n, delay in zip((1, 2, 3), delays_a):
            base = 0.5 * 2 ** (n - 1)
            assert base <= delay <= base * 1.25

    def test_different_seeds_jitter_differently(self):
        import random

        a = FleetExecutor(backoff=0.5, rng=random.Random(1))
        b = FleetExecutor(backoff=0.5, rng=random.Random(2))
        assert [a._retry_delay(n) for n in (1, 2, 3)] \
            != [b._retry_delay(n) for n in (1, 2, 3)]

    def test_default_rng_still_jitters(self):
        delays = {FleetExecutor(backoff=0.5)._retry_delay(1)
                  for _ in range(8)}
        for delay in delays:
            assert 0.5 <= delay <= 0.625


class TestPersistentPool:
    def test_per_run_overrides(self, sample_workloads):
        """One resident executor serves mixed traffic: run() accepts
        workloads, config, and simulate_tls per call (the service
        scheduler's batching depends on this)."""
        from repro.hydra import HydraConfig

        with FleetExecutor(persistent=True) as ex:
            base = ex.run(sample_workloads[:1], simulate_tls=False)
            tls = ex.run(sample_workloads[:1], simulate_tls=True)
            tuned = ex.run(sample_workloads[:1], simulate_tls=False,
                           config=HydraConfig(n_cpus=8))
        assert base.rows[0].report["predicted_vs_actual"] is None
        assert tls.rows[0].report["predicted_vs_actual"] is not None
        assert tuned.rows[0].name == base.rows[0].name

    def test_serial_close_is_idempotent(self, sample_workloads):
        ex = FleetExecutor(persistent=True)
        ex.run(sample_workloads[:1], simulate_tls=False)
        ex.close()
        ex.close()

    def test_parallel_pool_survives_runs(self, sample_workloads,
                                         tmp_path):
        cache = ArtifactCache(directory=str(tmp_path))
        ex = FleetExecutor(jobs=2, cache=cache, persistent=True)
        try:
            first = ex.run(sample_workloads[:2], simulate_tls=False)
            assert ex._pool is not None
            pool = ex._pool
            second = ex.run(sample_workloads[:2], simulate_tls=False)
            assert ex._pool is pool  # reused, not respawned
        finally:
            ex.close()
        assert ex._pool is None
        assert [r.name for r in first] == [r.name for r in second]
        assert second.cache_hits > 0

    def test_non_persistent_run_leaves_no_pool(self, sample_workloads,
                                               tmp_path):
        cache = ArtifactCache(directory=str(tmp_path))
        ex = FleetExecutor(jobs=2, cache=cache)
        ex.run(sample_workloads[:1], simulate_tls=False)
        assert ex._pool is None
