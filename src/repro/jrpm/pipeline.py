"""The Jrpm dynamic parallelization pipeline (paper Figure 1).

One :class:`Jrpm` object drives the five stages for a program:

1. compile minijava source to bytecode and identify potential STLs from
   the CFG (all natural loops, Section 4.1);
2. annotate the bytecode and run it sequentially with the TEST device
   attached, collecting per-STL statistics;
3. post-process: Equation 1 speedup estimates, Equation 2 nest
   selection;
4. recompile the chosen STLs speculatively (dependence-eliminating
   transformations + Table 2 routines);
5. run the speculative code — here, the trace-driven TLS timing
   simulator — yielding the "actual" performance Figure 11 compares
   against the prediction.

The returned :class:`JrpmReport` carries every intermediate product so
benches and tests can regenerate each of the paper's tables and figures.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional, Tuple

from repro.bytecode.program import Program
from repro.cfg.candidates import CandidateTable, find_candidates
from repro.errors import PipelineError
from repro.hydra.config import DEFAULT_HYDRA, HydraConfig
from repro.jit.annotate import AnnotationLevel, annotate_program
from repro.jit.speculative import STLCompilation, compile_stl
from repro.jrpm.cache import (
    STAGE_ANNOTATE,
    STAGE_COMPILE,
    STAGE_PROFILE,
    STAGE_RECORDING,
    STAGE_SEQUENTIAL,
    ArtifactCache,
    cache_key,
    profile_config_key,
)
from repro.jrpm.runtime import ProfilingRuntime
from repro.jrpm.slowdown import AnnotationCounter, SlowdownBreakdown
from repro.lang.codegen import compile_source
from repro.models import get_model, resolve_models
from repro.runtime.costs import DEFAULT_COSTS, CostModel
from repro.runtime.events import ColumnarRecording, MulticastListener
from repro.runtime.interpreter import Interpreter, RunResult, run_program
from repro.tls.engine import LazyRecording, TraceEngine
from repro.tls.simulator import TLSResult
from repro.tls.stats import ProgramTLSOutcome
from repro.tracer.device import TestDevice
from repro.tracer.selector import SelectionResult, select_stls


class JrpmReport:
    """Everything one pipeline run produced."""

    def __init__(self, name: str):
        self.name = name
        self.program: Optional[Program] = None
        self.candidates: Optional[CandidateTable] = None
        self.device: Optional[TestDevice] = None
        #: per-pass optimizer counters (dict; None when optimize=off)
        self.optimize_stats: Optional[Dict[str, int]] = None
        self.sequential: Optional[RunResult] = None
        self.profiled: Optional[RunResult] = None
        self.slowdown: Optional[SlowdownBreakdown] = None
        self.selection: Optional[SelectionResult] = None
        self.compilations: Dict[int, STLCompilation] = {}
        self.tls_results: Dict[int, TLSResult] = {}
        self.outcome: Optional[ProgramTLSOutcome] = None
        #: the profiled run's recording, shared with :attr:`engine`
        self._recording = LazyRecording()
        #: the trace engine the TLS replay ran through (None when TLS
        #: was skipped)
        self.engine: Optional[TraceEngine] = None

    @property
    def recording(self) -> Optional[ColumnarRecording]:
        """The ColumnarRecording of the profiled run; sweeps can replay
        it without re-profiling.  From a cached profile it is fetched
        on first access."""
        return self._recording.get()

    # -- headline numbers -------------------------------------------------

    @property
    def sequential_cycles(self) -> int:
        return self.sequential.cycles if self.sequential else 0

    @property
    def profiling_slowdown(self) -> float:
        return self.slowdown.slowdown if self.slowdown else 1.0

    @property
    def predicted_speedup(self) -> float:
        return self.selection.predicted_speedup if self.selection else 1.0

    @property
    def actual_speedup(self) -> float:
        return self.outcome.actual_speedup if self.outcome else 1.0

    @property
    def coverage(self) -> float:
        return self.selection.coverage if self.selection else 0.0


class Jrpm:
    """The runtime parallelizing machine for one program."""

    def __init__(self, source: Optional[str] = None,
                 program: Optional[Program] = None,
                 name: str = "program",
                 config: HydraConfig = DEFAULT_HYDRA,
                 cost_model: Optional[CostModel] = None,
                 level: AnnotationLevel = AnnotationLevel.OPTIMIZED,
                 optimize: bool = False,
                 min_speedup: float = 1.05,
                 convergence_threshold: int = 1000,
                 max_instructions: int = 200_000_000,
                 cache: Optional[ArtifactCache] = None,
                 stage_hook=None,
                 trace_jit: bool = True,
                 models=None):
        if (source is None) == (program is None):
            raise PipelineError(
                "provide exactly one of source= or program=")
        self.name = name
        self._source = source
        self._program = program
        #: artifact cache for the compile/annotate/sequential/profile
        #: stages; only effective in source= mode (a pre-built Program
        #: has no content-addressable identity)
        self.cache = cache if source is not None else None
        self.config = config
        self.cost_model = cost_model
        self.level = level
        #: run the microJIT scalar optimizer before analysis
        self.optimize = optimize
        self.min_speedup = min_speedup
        #: profiled threads after which a loop's analysis is disabled
        #: dynamically (Section 5.2); None profiles the whole run
        self.convergence_threshold = convergence_threshold
        self.max_instructions = max_instructions
        #: optional callable invoked with each stage's name as it
        #: begins (before any cache fetch) — the fleet's fault-
        #: injection harness hangs off this
        self.stage_hook = stage_hook
        #: run the interpreter with the trace-recording superblock JIT
        self.trace_jit = trace_jit
        #: execution models competing per loop ("all", a name list, or
        #: None for the paper's hydra-tls alone); resolved eagerly so
        #: unknown names fail at construction
        self.models = resolve_models(models)

    # -- stages ------------------------------------------------------------

    def run(self, simulate_tls: bool = True) -> JrpmReport:
        """Execute the full pipeline; see the module docstring."""
        report, plans = self._profile(self.level)

        # stage 3: select STLs (statistics are measured on the profiled
        # run, whose cycle counts include annotation overhead; the same
        # timebase is used for the TLS replay, keeping the comparison
        # consistent)
        report.selection = select_stls(
            report.device, report.profiled.cycles, self.config,
            min_speedup=self.min_speedup, models=self.models)

        # stages 4 + 5: speculative recompilation + execution under
        # each loop's winning model, replayed through one TraceEngine
        # (a loop's replay plan is built once per buffer geometry and
        # kept next to the cached profile, so a warm run only times it)
        if simulate_tls:
            engine = report.engine = TraceEngine(report._recording,
                                                 plans=plans)
            for sel in report.selection.selected:
                cand = report.candidates.by_id.get(sel.loop_id)
                if cand is None:
                    continue
                comp = compile_stl(cand, self.config)
                report.compilations[sel.loop_id] = comp
                report.tls_results[sel.loop_id] = get_model(
                    sel.model).simulate(comp, self.config, engine)
            report.outcome = ProgramTLSOutcome(
                report.selection, report.tls_results)
        return report

    def measure_slowdown(self, level: AnnotationLevel
                         ) -> SlowdownBreakdown:
        """Run only the profiling-slowdown measurement at one annotation
        level (Figure 6's bars): stages 1-2 of :meth:`run`."""
        return self._profile(level)[0].slowdown

    def _profile(self, level: AnnotationLevel) -> Tuple[JrpmReport,
                                                        Optional[Dict]]:
        """Stages 1-2 at annotation ``level``: compile, annotate, the
        sequential baseline and the profiled run, each through the
        artifact cache.  Returns a report filled up to ``slowdown``,
        and the cache's replay-plan memo for the profile (None
        without a cache)."""
        report = JrpmReport(self.name)
        cache = self.cache
        hook = self.stage_hook or (lambda stage: None)
        cost_model = self.cost_model if self.cost_model is not None \
            else DEFAULT_COSTS

        # stage 1: compile + candidate STLs
        hook(STAGE_COMPILE)
        ckey = hit = art = None
        if cache is not None:
            # "c2": the artifact grew an optimize_stats member when the
            # pass pipeline landed — older 2-tuple blobs must not alias.
            # "c3": optimize_stats went from nine counters to six; a
            # stored nine-field block would put the dropped three back
            # on /metrics
            # "c4": the candidate table no longer carries its CFGs and
            # Instr pickles as one constructor call; an older blob
            # would serve a table that still holds the dead graphs
            ckey = cache_key(STAGE_COMPILE, self._source, self.optimize,
                             "c4")
            hit, art = cache.fetch(STAGE_COMPILE, ckey)
        if hit:
            program, candidates, opt_stats = art
        else:
            program = self._program if self._program is not None \
                else compile_source(self._source)
            opt_stats = None
            if self.optimize:
                from repro.jit.optimize import optimize_program
                program = program.copy()
                opt_stats = optimize_program(program).to_dict()
            candidates = find_candidates(program)
            if cache is not None:
                cache.store(STAGE_COMPILE, ckey,
                            (program, candidates, opt_stats))
        report.program = program
        report.candidates = candidates
        report.optimize_stats = opt_stats

        # stage 1b: annotate.  Only the profiled run reads the
        # annotated program, so its artifact is fetched (or built) on a
        # profile miss alone (see _profiled_run); the hook still fires
        # here, in stage order
        hook(STAGE_ANNOTATE)
        akey = None
        if cache is not None:
            akey = cache_key(STAGE_ANNOTATE, ckey, level)

        # baseline sequential run (the "original code")
        hook(STAGE_SEQUENTIAL)
        sequential = None
        hit = False
        if cache is not None:
            # trace_jit is part of the key: cycles are identical by
            # contract, but the artifact carries the JIT counter
            # snapshot, so the two modes must never alias
            skey = cache_key(STAGE_SEQUENTIAL, ckey, cost_model,
                             self.max_instructions, self.trace_jit)
            hit, sequential = cache.fetch(STAGE_SEQUENTIAL, skey)
        if not hit:
            sequential = run_program(
                program, cost_model=self.cost_model,
                max_instructions=self.max_instructions,
                trace_jit=self.trace_jit)
            if cache is not None:
                cache.store(STAGE_SEQUENTIAL, skey, sequential)
        report.sequential = sequential

        # stage 2: profiled run with TEST attached.  The key projects
        # the config onto the fields the device actually reads, so
        # selection-only knobs (n_cpus, Table 2 overheads) don't force
        # a re-profile.
        hook(STAGE_PROFILE)
        hit = False
        pkey = plans = None
        if cache is not None:
            pkey = cache_key(
                STAGE_PROFILE, akey, cost_model,
                profile_config_key(self.config),
                self.convergence_threshold,
                self.max_instructions, self.trace_jit,
                # artifact-format version: bumped whenever a stored
                # artifact changes shape, so stale disk blobs miss
                # ("art5": the recording left the profile artifact for
                # its own, so an old 3-tuple must never be served)
                "art5")
            hit, art = cache.fetch(STAGE_PROFILE, pkey)
            plans = cache.plans(pkey)
        if hit:
            profiled, device = art
            # the replay reads the recording only to build a plan it
            # has not memoised, so it is fetched on first access
            report._recording = LazyRecording(load=partial(
                self._cached_recording, program, candidates, level,
                akey, pkey))
        else:
            profiled, device, recording = self._profiled_run(
                program, candidates, level, akey, pkey)
            report._recording = LazyRecording(recording)
        report.profiled = profiled
        report.device = device
        report.slowdown = SlowdownBreakdown(
            report.sequential.cycles, report.profiled.cycles,
            AnnotationCounter.from_device(device))

        if report.profiled.return_value != report.sequential.return_value:
            raise PipelineError(
                "annotation changed program semantics (%r vs %r)"
                % (report.profiled.return_value,
                   report.sequential.return_value))
        return report, plans

    def _profiled_run(self, program: Program, candidates: CandidateTable,
                      level: AnnotationLevel, akey: Optional[str],
                      pkey: Optional[str]
                      ) -> Tuple[RunResult, TestDevice, ColumnarRecording]:
        """Stage 2's one miss path: annotate ``program`` (through the
        cache), run it with the TEST device and a recording attached,
        and store the profile and recording artifacts under ``pkey``.
        Returns ``(profiled, device, recording)``."""
        cache = self.cache
        # the annotate artifact is stored before the profiled run,
        # which patches converged READSTATS sites in the live annotated
        # code — the cache must hold the pristine form
        hit = False
        if cache is not None:
            hit, annotated = cache.fetch(STAGE_ANNOTATE, akey)
        if not hit:
            annotated = annotate_program(program, candidates, level)
            if cache is not None:
                cache.store(STAGE_ANNOTATE, akey, annotated)
        device = TestDevice(self.config)
        device.convergence_threshold = self.convergence_threshold
        for lid, cand in annotated.annotated_loops.items():
            device.register_loop_locals(lid, cand.tracked_locals)
        recording = ColumnarRecording()
        listener = MulticastListener([device, recording])
        interp = Interpreter(
            annotated.program, cost_model=self.cost_model,
            listener=listener, max_instructions=self.max_instructions,
            trace_jit=self.trace_jit)
        runtime = ProfilingRuntime(annotated.program, interp)
        device.on_converged = runtime.on_converged
        profiled = interp.run()
        device.finish()
        # the convergence callback is a bound method of the runtime,
        # which holds the whole interpreter (and with it any linked
        # trace-JIT superblocks) — drop it now that profiling is over
        # so the device pickles into the profile artifact
        device.on_converged = None
        if cache is not None:
            cache.store(STAGE_PROFILE, pkey, (profiled, device))
            cache.store(STAGE_RECORDING, cache_key(STAGE_RECORDING, pkey),
                        recording)
        return profiled, device, recording

    def _cached_recording(self, program: Program,
                          candidates: CandidateTable,
                          level: AnnotationLevel, akey: str,
                          pkey: str) -> ColumnarRecording:
        """The recording of the cached profile under ``pkey``.  A
        missing or corrupt recording blob re-runs the profiled stage,
        which stores both artifacts again; the run is deterministic, so
        its recording is the one the profile was taken with."""
        hit, recording = self.cache.fetch(
            STAGE_RECORDING, cache_key(STAGE_RECORDING, pkey))
        if not hit:
            recording = self._profiled_run(program, candidates, level,
                                           akey, pkey)[2]
        return recording


def run_pipeline(source: str, name: str = "program",
                 **kwargs) -> JrpmReport:
    """Compile-and-run convenience wrapper around :class:`Jrpm`."""
    return Jrpm(source=source, name=name, **kwargs).run()
