"""Deterministic fault injection for fleet-execution tests.

The fleet layer promises bounded degradation: a crashed worker, a hung
workload, or a corrupted cache blob costs exactly one row (or one
retry), never the sweep.  Those promises are only worth anything if the
degradation paths are exercised, and none of them occur naturally in a
test run — so this module manufactures them on demand, the same way
``repro.fuzz`` manufactures adversarial programs.

A :class:`FaultPlan` is a small, picklable description of *what goes
wrong, where, and how many times*:

>>> plan = FaultPlan(state_dir)
>>> plan.kill_worker("IDEA")                  # worker os._exit -> BrokenProcessPool
>>> plan.hang_workload("raytrace", 60.0)      # sleep past the fleet timeout
>>> plan.raise_in_stage("BitOps", "profile")  # exception inside one stage
>>> plan.truncate_blob("monteCarlo", "compile")  # corrupt cache blobs on disk
>>> run_fleet(..., jobs=2, fault_plan=plan, retries=1, timeout=4.0)

Each fault fires at most ``times`` times (default once) **across every
process in the fleet**: firing is claimed by atomically creating a
marker file under ``state_dir`` (``O_CREAT | O_EXCL``), which is shared
by all workers, so a killed workload's retry runs clean and tests stay
deterministic.  A truncation is claimed after the blobs are cut, not
before: a worker terminated mid-firing (another worker's kill breaks
the pool under it) would otherwise use the firing up with nothing
corrupted.  The executor threads the plan into each worker
(:meth:`on_workload_start`) and into each pipeline via
``Jrpm(stage_hook=...)`` (:meth:`stage_hook`).
"""

from __future__ import annotations

import os
import time
from typing import List, Optional

#: fault kinds
KILL = "kill"          # worker process exits abruptly (simulated OOM/segv)
HANG = "hang"          # workload sleeps, tripping the fleet timeout
RAISE = "raise"        # an exception thrown inside one pipeline stage
TRUNCATE = "truncate"  # on-disk cache blobs for a stage are cut short

#: exit code used by KILL faults; distinctive in worker-death posts
KILL_EXIT_CODE = 113


class FaultInjected(RuntimeError):
    """The exception a RAISE fault throws inside a pipeline stage."""


class WorkerKilled(RuntimeError):
    """Stand-in for a KILL fault outside a worker process (serial
    path), where actually exiting would take the caller down too."""


class Fault:
    """One planned failure: kind, target workload, scope, firing cap."""

    __slots__ = ("fault_id", "kind", "workload", "stage", "seconds",
                 "times")

    def __init__(self, fault_id: str, kind: str, workload: str,
                 stage: Optional[str] = None, seconds: float = 0.0,
                 times: int = 1):
        self.fault_id = fault_id
        self.kind = kind
        self.workload = workload
        self.stage = stage
        self.seconds = seconds
        self.times = times

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Fault %s %s@%s x%d>" % (
            self.fault_id, self.kind, self.workload, self.times)


class FaultPlan:
    """A picklable schedule of injected failures for one fleet run.

    ``state_dir`` must be writable and shared by every process in the
    fleet (workers inherit the path through the task payload); it holds
    one marker file per claimed firing, which is what makes ``times``
    a cross-process guarantee rather than a per-worker one.
    """

    def __init__(self, state_dir: str):
        self.state_dir = state_dir
        os.makedirs(state_dir, exist_ok=True)
        self.faults: List[Fault] = []

    # -- authoring ---------------------------------------------------------

    def _add(self, kind: str, workload: str, stage: Optional[str] = None,
             seconds: float = 0.0, times: int = 1) -> "FaultPlan":
        if times < 1:
            raise ValueError("times must be >= 1, got %d" % times)
        fault_id = "%s-%s-%d" % (kind, workload, len(self.faults))
        self.faults.append(Fault(fault_id, kind, workload, stage,
                                 seconds, times))
        return self

    def kill_worker(self, workload: str, times: int = 1) -> "FaultPlan":
        """The worker running ``workload`` dies (``os._exit``) before
        the pipeline starts — the pool observes BrokenProcessPool."""
        return self._add(KILL, workload, times=times)

    def hang_workload(self, workload: str, seconds: float = 60.0,
                      times: int = 1) -> "FaultPlan":
        """``workload`` sleeps ``seconds`` before running, tripping a
        fleet-level wall-clock timeout."""
        return self._add(HANG, workload, seconds=seconds, times=times)

    def raise_in_stage(self, workload: str, stage: str,
                       times: int = 1) -> "FaultPlan":
        """:class:`FaultInjected` is raised when ``workload`` enters
        the named pipeline stage (a ``repro.jrpm.cache.STAGES`` name
        other than ``recording``, which has no stage hook)."""
        return self._add(RAISE, workload, stage=stage, times=times)

    def truncate_blob(self, workload: str, stage: str,
                      times: int = 1) -> "FaultPlan":
        """Before ``workload`` runs, every on-disk cache blob of the
        named stage is truncated — the cache must quarantine them and
        recompute instead of crashing."""
        return self._add(TRUNCATE, workload, stage=stage, times=times)

    # -- firing ------------------------------------------------------------

    def _markers(self, fault: Fault) -> List[str]:
        return [os.path.join(self.state_dir, "%s.%d" % (fault.fault_id, n))
                for n in range(fault.times)]

    def _claim(self, fault: Fault) -> bool:
        """Atomically claim one of the fault's firings; False when the
        cap is exhausted.  Safe across processes: each firing is an
        exclusive marker-file creation."""
        for marker in self._markers(fault):
            try:
                handle = os.open(marker,
                                 os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(handle)
            return True
        return False

    def _unfired(self, fault: Fault) -> bool:
        """Whether one of the fault's firings is left, without claiming
        it."""
        return not all(map(os.path.exists, self._markers(fault)))

    def on_workload_start(self, workload: str,
                          cache_dir: Optional[str] = None,
                          in_worker: bool = True) -> None:
        """Fire the pre-run faults targeting ``workload``.

        Called by the executor right before the pipeline runs.  KILL
        exits the process when ``in_worker`` (the parallel path); on
        the serial path it degrades to raising :class:`WorkerKilled`
        so the host process survives.
        """
        for fault in self.faults:
            if fault.workload != workload:
                continue
            if fault.kind == TRUNCATE:
                # claimed only once the blobs are cut: a worker killed
                # mid-firing (a pool break) leaves it to the retry
                if cache_dir is not None and self._unfired(fault):
                    truncate_stage_blobs(cache_dir, fault.stage)
                    self._claim(fault)
            elif fault.kind == KILL:
                if self._claim(fault):
                    if in_worker:
                        os._exit(KILL_EXIT_CODE)
                    raise WorkerKilled(
                        "injected worker kill for %r" % workload)
            elif fault.kind == HANG:
                if self._claim(fault):
                    time.sleep(fault.seconds)

    def stage_hook(self, workload: str):
        """A ``Jrpm(stage_hook=...)`` callable firing this plan's
        RAISE faults for ``workload``."""
        def hook(stage: str) -> None:
            for fault in self.faults:
                if (fault.kind == RAISE and fault.workload == workload
                        and fault.stage == stage and self._claim(fault)):
                    raise FaultInjected(
                        "injected failure in stage %r of %r"
                        % (stage, workload))
        return hook


def truncate_stage_blobs(cache_dir: str, stage: Optional[str]) -> int:
    """Truncate every on-disk blob of ``stage`` (all stages when None)
    to half size, guaranteeing a checksum mismatch on the next read.
    Returns the number of files truncated."""
    from repro.jrpm.cache import blob_stage

    count = 0
    try:
        names = sorted(os.listdir(cache_dir))
    except OSError:
        return 0
    for name in names:
        if not name.endswith(".pkl"):
            continue
        path = os.path.join(cache_dir, name)
        if stage is not None and blob_stage(path) != stage:
            continue
        size = os.path.getsize(path)
        os.truncate(path, size // 2)
        count += 1
    return count
