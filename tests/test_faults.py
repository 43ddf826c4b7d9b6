"""Fault-injection tests for the fleet's degradation paths.

The executor promises bounded recovery: a killed worker, a hung
workload, a corrupted cache blob, or an in-stage exception costs at
most one retry or one error row — never the sweep, and never another
workload's numbers.  Every promise here is proven by injecting the
failure deterministically through :class:`repro.jrpm.faults.FaultPlan`
and comparing against an uninjected run.
"""

import os

import pytest

from repro.jrpm import faults
from repro.jrpm.batch import FleetErrorRow, FleetRow, run_fleet
from repro.jrpm.cache import STAGE_COMPILE, STAGE_PROFILE, ArtifactCache
from repro.jrpm.executor import FleetExecutor
from repro.jrpm.faults import (
    KILL_EXIT_CODE,
    FaultInjected,
    FaultPlan,
    WorkerKilled,
    truncate_stage_blobs,
)
from repro.jrpm.pipeline import Jrpm
from repro.workloads import get_workload

#: small/fast paper workloads; order matters for the combined test
SAMPLE = ["IDEA", "monteCarlo", "BitOps", "raytrace"]

ROW_FIELDS = [
    "name", "loop_count", "dynamic_depth", "selected_count",
    "avg_selected_height", "threads_per_entry", "thread_size",
    "slowdown", "coverage", "predicted_speedup", "actual_speedup",
]


@pytest.fixture()
def sample_workloads():
    return [get_workload(n) for n in SAMPLE]


def _plan(tmp_path):
    return FaultPlan(str(tmp_path / "fault-state"))


def _assert_rows_match(expected, actual):
    for e_row, a_row in zip(expected, actual):
        assert a_row.ok, a_row
        for field in ROW_FIELDS:
            assert getattr(e_row, field) == getattr(a_row, field), field


class TestFaultPlanMechanics:
    def test_fires_at_most_times(self, tmp_path):
        plan = _plan(tmp_path).raise_in_stage("w", STAGE_COMPILE,
                                              times=2)
        hook = plan.stage_hook("w")
        for _ in range(2):
            with pytest.raises(FaultInjected):
                hook(STAGE_COMPILE)
        hook(STAGE_COMPILE)  # cap reached: clean from now on
        hook(STAGE_COMPILE)

    def test_cap_is_shared_across_plan_copies(self, tmp_path):
        # two unpickled copies in two "workers" share the state dir,
        # so the cap holds fleet-wide, not per-process
        import pickle

        plan = _plan(tmp_path).kill_worker("w")
        clone = pickle.loads(pickle.dumps(plan))
        with pytest.raises(WorkerKilled):
            plan.on_workload_start("w", in_worker=False)
        clone.on_workload_start("w", in_worker=False)  # already spent

    def test_targets_only_named_workload_and_stage(self, tmp_path):
        plan = _plan(tmp_path).raise_in_stage("w", STAGE_PROFILE)
        plan.stage_hook("other")(STAGE_PROFILE)
        plan.stage_hook("w")(STAGE_COMPILE)
        with pytest.raises(FaultInjected):
            plan.stage_hook("w")(STAGE_PROFILE)

    def test_truncate_stage_blobs_is_stage_scoped(self, tmp_path):
        cache = ArtifactCache(directory=str(tmp_path / "cache"))
        cache.store(STAGE_COMPILE, "k1", [1, 2, 3])
        cache.store(STAGE_PROFILE, "k2", [4, 5, 6])
        assert truncate_stage_blobs(str(tmp_path / "cache"),
                                    STAGE_COMPILE) == 1
        fresh = ArtifactCache(directory=str(tmp_path / "cache"))
        hit, _ = fresh.fetch(STAGE_COMPILE, "k1")
        assert not hit
        hit, got = fresh.fetch(STAGE_PROFILE, "k2")
        assert hit and got == [4, 5, 6]


    def test_truncation_is_claimed_only_once_it_took_effect(
            self, tmp_path, monkeypatch):
        """A worker terminated mid-truncation (a pool break) must not
        use the firing up: the retry truncates instead."""
        plan = _plan(tmp_path).truncate_blob("w", STAGE_COMPILE)
        cut = []

        def terminated(cache_dir, stage):
            raise SystemExit(KILL_EXIT_CODE)

        monkeypatch.setattr(faults, "truncate_stage_blobs", terminated)
        with pytest.raises(SystemExit):
            plan.on_workload_start("w", str(tmp_path))
        monkeypatch.setattr(faults, "truncate_stage_blobs",
                            lambda cache_dir, stage: cut.append(stage))
        plan.on_workload_start("w", str(tmp_path))
        plan.on_workload_start("w", str(tmp_path))
        assert cut == [STAGE_COMPILE]


def _quarantine_then_die(workload, config, simulate_tls, cache, **kwargs):
    """Fleet task: run the pipeline, which quarantines any truncated
    blob it reads, then kill the worker on the first attempt, so the
    counters of that quarantine die with it."""
    report = Jrpm(source=workload.source(), name=workload.name,
                  config=config, cache=cache, **kwargs).run(
                      simulate_tls=simulate_tls)
    marker = os.path.join(os.path.dirname(cache.directory), "died")
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(KILL_EXIT_CODE)
    return FleetRow(workload, report)


class TestSerialFaults:
    def test_raise_in_stage_becomes_error_row(self, tmp_path,
                                              sample_workloads):
        plan = _plan(tmp_path).raise_in_stage("IDEA", STAGE_PROFILE)
        result = run_fleet(sample_workloads[:2], simulate_tls=False,
                           on_error="row", fault_plan=plan)
        assert isinstance(result.rows[0], FleetErrorRow)
        assert "FaultInjected" in result.rows[0].error
        assert result.rows[1].ok

    def test_retry_recovers_a_transient_failure(self, tmp_path,
                                                sample_workloads):
        plan = _plan(tmp_path).raise_in_stage("IDEA", STAGE_COMPILE)
        result = run_fleet(sample_workloads[:1], simulate_tls=False,
                           retries=1, backoff=0.0, fault_plan=plan)
        assert result.rows[0].ok
        assert result.retry_count == 1

    def test_kill_degrades_to_exception_outside_workers(
            self, tmp_path, sample_workloads):
        plan = _plan(tmp_path).kill_worker("IDEA")
        result = run_fleet(sample_workloads[:1], simulate_tls=False,
                           on_error="row", fault_plan=plan)
        assert "WorkerKilled" in result.rows[0].error


class TestParallelFaults:
    def test_kill_worker_becomes_error_row_for_its_workload_only(
            self, tmp_path, sample_workloads):
        # retries=0: the killed workload fails, bystanders that shared
        # the broken pool are collateral — but the fleet still drains
        plan = _plan(tmp_path)
        plan.kill_worker("IDEA")
        cache = ArtifactCache(directory=str(tmp_path / "cache"))
        result = run_fleet(sample_workloads[:2], simulate_tls=False,
                           jobs=2, cache=cache, on_error="row",
                           retries=1, backoff=0.0, fault_plan=plan)
        assert result.crash_count == 1
        assert result.retry_count >= 1
        assert all(r.ok for r in result.rows)  # retry rescued everyone

    def test_kill_worker_without_retries_fails_only_that_sweep_row(
            self, tmp_path, sample_workloads):
        plan = _plan(tmp_path).kill_worker("IDEA")
        cache = ArtifactCache(directory=str(tmp_path / "cache"))
        result = run_fleet(sample_workloads[:1], simulate_tls=False,
                           jobs=2, cache=cache, on_error="row",
                           fault_plan=plan)
        row = result.rows[0]
        assert isinstance(row, FleetErrorRow)
        assert "worker process died" in row.error
        assert result.crash_count == 1

    def test_hang_times_out_and_retry_completes_the_row(
            self, tmp_path, sample_workloads):
        plan = _plan(tmp_path).hang_workload("IDEA", seconds=60.0)
        cache = ArtifactCache(directory=str(tmp_path / "cache"))
        result = run_fleet(sample_workloads[:2], simulate_tls=False,
                           jobs=2, cache=cache, on_error="row",
                           timeout=4.0, retries=1, backoff=0.0,
                           fault_plan=plan)
        assert result.timeout_count == 1
        assert all(r.ok for r in result.rows)

    def test_hang_without_retries_is_a_timeout_error_row(
            self, tmp_path, sample_workloads):
        plan = _plan(tmp_path).hang_workload("IDEA", seconds=60.0)
        cache = ArtifactCache(directory=str(tmp_path / "cache"))
        result = run_fleet(sample_workloads[:2], simulate_tls=False,
                           jobs=2, cache=cache, on_error="row",
                           timeout=2.0, fault_plan=plan)
        row = result.rows[0]
        assert isinstance(row, FleetErrorRow)
        assert "timed out after 2.0s" in row.error
        assert result.rows[1].ok  # its neighbour was unharmed
        assert result.timeout_count == 1

    def test_truncate_blob_demotes_to_miss_and_recomputes(
            self, tmp_path, sample_workloads):
        # warm the shared cache, then have the second sweep's first
        # workload find its compile blobs truncated
        cache_dir = str(tmp_path / "cache")
        cache = ArtifactCache(directory=cache_dir)
        baseline = run_fleet(sample_workloads[:2], simulate_tls=False,
                             jobs=2, cache=cache)
        plan = _plan(tmp_path).truncate_blob("IDEA", STAGE_COMPILE)
        injected = run_fleet(sample_workloads[:2], simulate_tls=False,
                             jobs=2, cache=ArtifactCache(cache_dir),
                             fault_plan=plan)
        assert injected.cache_corrupt >= 1
        _assert_rows_match(baseline.rows, injected.rows)
        quarantined = [n for n in os.listdir(cache_dir)
                       if n.endswith(".corrupt")]
        assert quarantined


    def test_quarantine_by_a_lost_worker_is_counted(self, tmp_path):
        """The first attempt quarantines the truncated compile blob,
        stores a recomputed one and dies; the retry hits.  The
        quarantine still counts: its file is on disk."""
        cache_dir = str(tmp_path / "cache")
        workloads = [get_workload("monteCarlo")]
        run_fleet(workloads, simulate_tls=False,
                  cache=ArtifactCache(cache_dir))
        plan = _plan(tmp_path).truncate_blob("monteCarlo", STAGE_COMPILE)
        result = FleetExecutor(
            jobs=2, simulate_tls=False, cache=ArtifactCache(cache_dir),
            on_error="row", retries=1, backoff=0.0, fault_plan=plan,
            task=_quarantine_then_die).run(workloads)
        assert [r.ok for r in result.rows] == [True]
        assert result.crash_count == 1
        assert result.cache_stats[STAGE_COMPILE]["hits"] == 1
        assert result.cache_corrupt == 1


class TestCombinedDegradation:
    """The ISSUE acceptance scenario: one sweep survives a worker
    kill, a hang, and truncated cache blobs at once, and only the
    workload with a persistent fault loses its row."""

    def test_kill_hang_and_truncated_blob_in_one_sweep(
            self, tmp_path, sample_workloads):
        cache_dir = str(tmp_path / "cache")
        baseline = run_fleet(sample_workloads, simulate_tls=False,
                             cache=ArtifactCache(cache_dir))

        plan = _plan(tmp_path)
        plan.kill_worker("IDEA")                       # idx 0: crash
        plan.truncate_blob("monteCarlo", STAGE_COMPILE)  # idx 1
        plan.raise_in_stage("BitOps", STAGE_PROFILE,     # idx 2:
                            times=2)                     # out-retries
        plan.hang_workload("raytrace", seconds=60.0)     # idx 3

        injected = run_fleet(sample_workloads, simulate_tls=False,
                             jobs=2, cache=ArtifactCache(cache_dir),
                             on_error="row", timeout=4.0, retries=1,
                             backoff=0.0, fault_plan=plan)

        # only the persistently-faulted workload lost its row...
        assert [r.ok for r in injected.rows] == [True, True, False,
                                                 True]
        bad = injected.rows[2]
        assert isinstance(bad, FleetErrorRow)
        assert "FaultInjected" in bad.error
        assert bad.attempts == 2
        # ...every other row is identical to the uninjected run
        survivors = [(b, i) for b, i
                     in zip(baseline.rows, injected.rows) if i.ok]
        _assert_rows_match([b for b, _ in survivors],
                           [i for _, i in survivors])
        # and each degradation path left its fingerprint
        assert injected.crash_count == 1
        assert injected.timeout_count == 1
        assert injected.cache_corrupt >= 1
        assert 3 <= injected.retry_count <= 4
        assert "FAILED" in injected.render()
