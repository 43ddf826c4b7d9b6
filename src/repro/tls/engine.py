"""The columnar trace engine: per-loop thread windows, replay plans and
the one replay route, plus observability.

One :class:`TraceEngine` wraps one
:class:`~repro.runtime.events.ColumnarRecording`, the only trace layout,
and serves every model replay the back half of the Jrpm pipeline runs
against it.  The recording may be a :class:`LazyRecording`: the
pipeline's engine over a cached profile fetches the recording artifact
only when it first needs the events (a split for a plan miss), so a
warm run whose plans all hit never unpickles it.  The engine's kernels:

* ``split(loop_id)`` — index-only thread windowing, computed once per
  loop (the shared cycle index is the sorted ``cycles`` column itself);
* ``plan(compilation, config)`` — the loop's
  :class:`~repro.tls.plan.ReplayPlan`: one walk over the split's
  events, memoised under :func:`~repro.tls.plan.plan_key`, so every
  model and configuration with the same dropped slots and buffer
  geometry shares it.  The pipeline hands the engine the plan memo the
  :class:`~repro.jrpm.cache.ArtifactCache` keeps next to the profile
  blob, so a warm run whose plans hit neither splits nor walks events;
* ``replay(compilation, config, post_wait)`` — the timing pass
  :func:`~repro.tls.simulator.schedule` over that plan, the replay
  every execution model runs: one compaction per plan and dependence
  policy (kept with the plan, so it is memoised with it), then
  O(threads + wait entries) per configuration.

Only this module books into :class:`TraceEngineStats`, which keeps the
four :data:`KERNELS` phases, so the report's ``engine`` block keeps its
shape: ``split`` books splits and counts split-memo hits, ``classify``
books plan builds and counts plan-memo hits, ``resolve`` books timing
passes (a policy's first pass over a plan includes its compaction),
and ``overflow`` (found inside the plan build) reads 0.  The
``jrpm`` CLI prints the counters and ``bench_perf_pipeline`` persists
them into ``BENCH_pipeline.json``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Union

from repro.hydra.config import HydraConfig
from repro.jit.speculative import STLCompilation
from repro.runtime.events import ColumnarRecording
from repro.tls.plan import ReplayPlan, build_plan, plan_key
from repro.tls.simulator import TLSResult, schedule
from repro.tls.thread_trace import EntryTrace, split_trace

#: kernel names, in pipeline order
KERNELS = ("split", "classify", "overflow", "resolve")


class TraceEngineStats:
    """Per-phase wall-clock and split/plan memo hit/miss counters."""

    def __init__(self):
        self.seconds: Dict[str, float] = {k: 0.0 for k in KERNELS}
        self.calls: Dict[str, int] = {k: 0 for k in KERNELS}
        self.hits: Dict[str, int] = {k: 0 for k in KERNELS}
        self.misses: Dict[str, int] = {k: 0 for k in KERNELS}

    # -- accounting ------------------------------------------------------

    def book(self, phase: str, seconds: float) -> None:
        """Add one timed call of ``phase``."""
        self.seconds[phase] += seconds
        self.calls[phase] += 1

    # -- reporting -------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """JSON-friendly counters, per kernel."""
        out: Dict[str, Dict[str, float]] = {}
        for k in KERNELS:
            out[k] = {
                "seconds": round(self.seconds[k], 6),
                "calls": self.calls[k],
                "hits": self.hits[k],
                "misses": self.misses[k],
            }
        return out

    def render(self) -> str:
        """One-line-per-kernel summary for CLI output."""
        lines = ["%-10s %10s %8s %8s %8s" % (
            "phase", "seconds", "calls", "hits", "misses")]
        for k in KERNELS:
            lines.append("%-10s %10.4f %8d %8d %8d" % (
                k, self.seconds[k], self.calls[k], self.hits[k],
                self.misses[k]))
        return "\n".join(lines)


class LazyRecording:
    """A recording, or the loader that fetches it on first :meth:`get`.

    A report and its engine share one, so whichever reads the events
    first fetches them once for both.  The loader runs at most once.
    """

    def __init__(self, recording: Optional[ColumnarRecording] = None,
                 load: Optional[Callable[[], ColumnarRecording]] = None):
        self._recording = recording
        self._load = load

    def get(self) -> Optional[ColumnarRecording]:
        if self._recording is None and self._load is not None:
            self._recording = self._load()
            self._load = None
        return self._recording


class TraceEngine:
    """Memoized thread windows and replay plans over one columnar
    recording, and the replay that times them.

    ``recording`` is the recording itself or a :class:`LazyRecording`
    of it.  ``plans`` is the plan memo to serve from and fill (the one
    the artifact cache keeps for the recording's profile); by default
    the engine keeps its own.
    """

    def __init__(self,
                 recording: Union[ColumnarRecording, LazyRecording],
                 plans: Optional[Dict] = None):
        if not isinstance(recording, LazyRecording):
            recording = LazyRecording(recording)
        self._recording = recording
        self.stats = TraceEngineStats()
        self._splits: Dict[int, List[EntryTrace]] = {}
        self._plans: Dict = {} if plans is None else plans

    @property
    def recording(self) -> Optional[ColumnarRecording]:
        """The recording the engine replays (loaded on first access)."""
        return self._recording.get()

    # -- kernels ---------------------------------------------------------

    def split(self, loop_id: int) -> List[EntryTrace]:
        """Entry/thread windows of one loop, computed once per loop."""
        stats = self.stats
        entries = self._splits.get(loop_id)
        if entries is not None:
            stats.hits["split"] += 1
            stats.calls["split"] += 1
            return entries
        stats.misses["split"] += 1
        t0 = time.perf_counter()
        entries = split_trace(self.recording, loop_id)
        stats.book("split", time.perf_counter() - t0)
        self._splits[loop_id] = entries
        return entries

    def plan(self, compilation: STLCompilation,
             config: HydraConfig) -> ReplayPlan:
        """The loop's replay plan under ``config``'s buffer geometry,
        built (from the loop's split) once per :func:`plan_key`."""
        stats = self.stats
        key = plan_key(compilation, config)
        plan = self._plans.get(key)
        if plan is not None:
            stats.hits["classify"] += 1
            stats.calls["classify"] += 1
            return plan
        stats.misses["classify"] += 1
        entries = self.split(compilation.loop_id)
        t0 = time.perf_counter()
        plan = build_plan(entries, compilation, config)
        stats.book("classify", time.perf_counter() - t0)
        self._plans[key] = plan
        return plan

    def replay(self, compilation: STLCompilation, config: HydraConfig,
               post_wait: bool = False) -> TLSResult:
        """Time the loop's plan under ``config``: restart-on-violation
        (Hydra TLS), or post/wait (DOACROSS) when ``post_wait`` is
        set."""
        plan = self.plan(compilation, config)
        t0 = time.perf_counter()
        result = schedule(plan, compilation, config, post_wait)
        self.stats.book("resolve", time.perf_counter() - t0)
        return result
