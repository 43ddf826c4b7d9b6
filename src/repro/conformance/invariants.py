"""Six-path differential execution plus runtime-invariant checks.

One generated (or hand-written) program is executed along six paths:

1. **fast** — the plain interpreter with no listener attached (trace
   JIT forced off: this is the reference semantics);
2. **traced** — the same program with a no-op :class:`TraceListener`,
   so the dispatch loop publishes events (trace JIT off);
3. **annotated** — TEST annotations at ``OPTIMIZED`` level with the
   profiling device and a columnar recording attached;
4. **optimized** — the microJIT scalar optimizer applied to a copy;
5. **trace JIT** — the superblock JIT enabled with an aggressive
   hotness threshold, in all three configurations (fast, no-op
   listener, annotated+device), asserting *exact* cycle, instruction,
   return-value, heap, print, and event-count agreement with the
   matching JIT-off path;
6. **DOACROSS** — every selected STL re-simulated under the post/wait
   execution model from the same trace the TLS simulator consumed,
   asserting the shared timing invariants, exact sequential-cycle
   agreement with the TLS path (both walk the same recording), and
   the predictor's books balancing (hits <= predictions, violations
   == misses).

All paths must agree on the return value; paths 1/2 must agree on exact
cycle and instruction counts (any drift is a dispatch-table bug).  On
top of the differential checks, the annotated run's byproducts are fed
through every runtime invariant the tracer and the TLS simulator
export: timestamp monotonicity of the columnar trace, TEST event
balance, critical-arc minimality and the other
:meth:`STLStats.invariant_errors` rules, the trace splitter's windows
against the device's own entry/thread/cycle counts, speculative-buffer
overflow points landing inside their thread, and the
:meth:`TLSResult.invariant_errors` timing bounds.

A failed check raises :class:`ConformanceViolation` with a stable
``kind`` string; the campaign driver shrinks on "same kind", so kinds
must be deterministic for a given bug, not message-exact.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cfg.candidates import find_candidates
from repro.errors import ReproError, SimulationError, TracerError
from repro.hydra.config import DEFAULT_HYDRA, HydraConfig
from repro.jit.annotate import AnnotationLevel, annotate_program
from repro.jit.optimize import optimize_program
from repro.jit.speculative import compile_stl
from repro.lang.codegen import compile_source
from repro.runtime.events import (
    ColumnarRecording,
    MulticastListener,
    TraceListener,
)
from repro.runtime.interpreter import run_program
from repro.tls.engine import TraceEngine
from repro.tls.stats import ProgramTLSOutcome
from repro.tracer.device import TestDevice
from repro.tracer.selector import select_stls
from repro.tracer.stats import STLStats
from repro.bytecode.verifier import verify_program


#: stable violation kinds (the shrinker's predicate matches on these)
KIND_UNREACHABLE = "unreachable-code"
KIND_DISPATCH = "dispatch-divergence"
KIND_ANNOTATION = "annotation-divergence"
KIND_ANNOTATION_CYCLES = "annotation-cycles"
KIND_EVENT_BALANCE = "event-balance"
KIND_MONOTONICITY = "timestamp-monotonicity"
KIND_STATS = "stats-invariant"
KIND_SPLIT = "split-device-mismatch"
KIND_OPTIMIZER = "optimizer-divergence"
KIND_OPT_REGRESSION = "optimizer-regression"
KIND_TLS_INVARIANT = "tls-invariant"
KIND_TLS_BOUNDS = "tls-bounds"
KIND_BUFFER_LIMIT = "buffer-limit"
KIND_TRACE_JIT = "trace-jit-divergence"
KIND_DOACROSS = "doacross-invariant"
KIND_CRASH = "crash"

#: hotness threshold for the fifth path: aggressive enough that the
#: short loops fuzz programs contain actually record and link
TRACE_JIT_FUZZ_THRESHOLD = 2


class ConformanceViolation(ReproError):
    """A differential or invariant check failed for one program."""

    def __init__(self, kind: str, detail: str,
                 seed: Optional[int] = None):
        self.kind = kind
        self.detail = detail
        self.seed = seed
        tag = "" if seed is None else " [seed %d]" % seed
        super().__init__("%s%s: %s" % (kind, tag, detail))


class CheckOutcome:
    """Summary of one program's clean pass through all six paths."""

    def __init__(self, name: str):
        self.name = name
        self.return_value = None
        self.fast_cycles = 0
        self.annotated_cycles = 0
        self.optimized_instructions = 0
        self.n_events = 0
        self.n_loops = 0
        self.selected_ids: List[int] = []
        self.tls_simulated = 0
        #: STLs re-simulated under the sixth (DOACROSS) path
        self.doacross_simulated = 0
        #: superblocks linked across the fifth path's three runs
        self.jit_traces = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return ("CheckOutcome(%s ret=%r loops=%d selected=%r)"
                % (self.name, self.return_value, self.n_loops,
                   self.selected_ids))


def check_monotonic(cycles) -> Optional[int]:
    """Index of the first out-of-order timestamp, or None if sorted."""
    prev = None
    for i, c in enumerate(cycles):
        if prev is not None and c < prev:
            return i
        prev = c
    return None


def _raise(kind: str, detail: str, seed: Optional[int]) -> None:
    raise ConformanceViolation(kind, detail, seed)


def check_source(source: str, seed: Optional[int] = None,
                 name: str = "fuzz",
                 config: HydraConfig = DEFAULT_HYDRA,
                 max_instructions: int = 5_000_000) -> CheckOutcome:
    """Run ``source`` down all six paths and every runtime invariant.

    Returns a :class:`CheckOutcome` on success; raises
    :class:`ConformanceViolation` on the first failed check.  Compile
    errors propagate as their native exceptions (the campaign treats a
    non-compiling candidate as invalid, not as a finding).
    """
    outcome = CheckOutcome(name)
    program = compile_source(source)

    # Codegen must never emit live unreachable blocks (trailing RET/NOP
    # padding after exhaustive returns is tolerated by the verifier).
    # Path 4 checks the optimized program the same way.
    try:
        verify_program(program, reject_unreachable=True)
    except ReproError as exc:
        _raise(KIND_UNREACHABLE, str(exc), seed)

    # path 1: fast dispatch (no listener); the trace JIT is forced off
    # so this stays the reference semantics the fifth path diffs against
    fast = run_program(program, max_instructions=max_instructions,
                       trace_jit=False)
    outcome.return_value = fast.return_value
    outcome.fast_cycles = fast.cycles

    # path 2: dispatch with a no-op listener — publishing events must
    # not change any observable behaviour
    traced = run_program(program, listener=TraceListener(),
                         max_instructions=max_instructions,
                         trace_jit=False)
    if (traced.return_value, traced.cycles, traced.instructions) != \
            (fast.return_value, fast.cycles, fast.instructions):
        _raise(KIND_DISPATCH,
               "fast=(%r, %d cyc, %d ins) traced=(%r, %d cyc, %d ins)"
               % (fast.return_value, fast.cycles, fast.instructions,
                  traced.return_value, traced.cycles,
                  traced.instructions), seed)

    # path 3: annotated + TEST device + columnar recording
    candidates = find_candidates(program)
    annotated = annotate_program(program, candidates,
                                 AnnotationLevel.OPTIMIZED)
    device = TestDevice(config)
    for lid, cand in annotated.annotated_loops.items():
        device.register_loop_locals(lid, cand.tracked_locals)
    recording = ColumnarRecording()
    profiled = run_program(
        annotated.program,
        listener=MulticastListener([device, recording]),
        max_instructions=max_instructions, trace_jit=False)
    try:
        device.finish()
    except TracerError as exc:
        _raise(KIND_EVENT_BALANCE, str(exc), seed)
    if profiled.return_value != fast.return_value:
        _raise(KIND_ANNOTATION, "annotated run returned %r, plain %r"
               % (profiled.return_value, fast.return_value), seed)
    if profiled.cycles < fast.cycles:
        _raise(KIND_ANNOTATION_CYCLES,
               "annotation removed cycles (%d < %d)"
               % (profiled.cycles, fast.cycles), seed)
    outcome.annotated_cycles = profiled.cycles
    outcome.n_events = len(recording)
    outcome.n_loops = len(device.stats)

    bad = check_monotonic(recording.cycles)
    if bad is not None:
        _raise(KIND_MONOTONICITY,
               "event %d at cycle %d after cycle %d"
               % (bad, recording.cycles[bad], recording.cycles[bad - 1]),
               seed)
    for loop_id, stats in sorted(device.stats.items()):
        errs = stats.invariant_errors()
        if errs:
            _raise(KIND_STATS, "; ".join(errs), seed)

    # The splitter and the device window the same sloop/eoi/eloop
    # markers independently.  Without convergence the device counts
    # every banked entry, thread and cycle (and, as the stats checks
    # above assume, every activation finds a bank), so each loop's
    # split must match it.  A recursive activation cannot be windowed;
    # the replay never sees it.
    engine = TraceEngine(recording)
    for loop_id, stats in sorted(device.stats.items()):
        try:
            entries = engine.split(loop_id)
        except SimulationError:
            continue
        got = (len(entries), sum(len(e.sizes) for e in entries),
               sum(e.total_cycles for e in entries),
               sum(sum(e.sizes) for e in entries))
        want = (stats.entries, stats.threads, stats.cycles, stats.cycles)
        if got != want:
            _raise(KIND_SPLIT,
                   "loop %d split (entries, threads, cycles, thread "
                   "cycles) %r, device %r" % (loop_id, got, want), seed)

    # path 4: scalar optimizer on a copy
    clone = program.copy()
    optimize_program(clone)
    try:
        verify_program(clone, reject_unreachable=True)
    except ReproError as exc:
        _raise(KIND_UNREACHABLE, "optimized: %s" % exc, seed)
    optimized = run_program(clone, max_instructions=max_instructions,
                            trace_jit=False)
    if optimized.return_value != fast.return_value:
        _raise(KIND_OPTIMIZER, "optimized run returned %r, plain %r"
               % (optimized.return_value, fast.return_value), seed)
    if optimized.printed != fast.printed:
        _raise(KIND_OPTIMIZER, "optimized run printed %r, plain %r"
               % (optimized.printed, fast.printed), seed)
    if optimized.heap.snapshot() != fast.heap.snapshot():
        _raise(KIND_OPTIMIZER, "optimized run heap diverged", seed)
    if optimized.instructions > fast.instructions:
        _raise(KIND_OPT_REGRESSION,
               "optimizer grew instruction count (%d > %d)"
               % (optimized.instructions, fast.instructions), seed)
    outcome.optimized_instructions = optimized.instructions

    # path 5: trace JIT at an aggressive threshold, diffed exactly
    # against the JIT-off reference runs.  Three configurations: no
    # listener, the no-op listener, and the annotated
    # program with a fresh device — the latter exercises superblock
    # event and marker emission against the full tracer, and must
    # reproduce every recording column and every loop's statistics.
    jit_fast = run_program(
        program, max_instructions=max_instructions, trace_jit=True,
        trace_jit_threshold=TRACE_JIT_FUZZ_THRESHOLD)
    if (jit_fast.return_value, jit_fast.cycles,
            jit_fast.instructions) != \
            (fast.return_value, fast.cycles, fast.instructions):
        _raise(KIND_TRACE_JIT,
               "fast jit=(%r, %d cyc, %d ins) reference=(%r, %d cyc, "
               "%d ins)"
               % (jit_fast.return_value, jit_fast.cycles,
                  jit_fast.instructions, fast.return_value,
                  fast.cycles, fast.instructions), seed)
    if jit_fast.heap.snapshot() != fast.heap.snapshot():
        _raise(KIND_TRACE_JIT, "fast jit heap diverged", seed)
    if jit_fast.printed != fast.printed:
        _raise(KIND_TRACE_JIT, "fast jit printed %r, reference %r"
               % (jit_fast.printed, fast.printed), seed)
    jit_traced = run_program(
        program, listener=TraceListener(),
        max_instructions=max_instructions, trace_jit=True,
        trace_jit_threshold=TRACE_JIT_FUZZ_THRESHOLD)
    if (jit_traced.return_value, jit_traced.cycles,
            jit_traced.instructions) != \
            (fast.return_value, fast.cycles, fast.instructions):
        _raise(KIND_TRACE_JIT,
               "traced jit=(%r, %d cyc, %d ins) reference=(%r, %d cyc, "
               "%d ins)"
               % (jit_traced.return_value, jit_traced.cycles,
                  jit_traced.instructions, fast.return_value,
                  fast.cycles, fast.instructions), seed)
    jit_device = TestDevice(config)
    for lid, cand in annotated.annotated_loops.items():
        jit_device.register_loop_locals(lid, cand.tracked_locals)
    jit_recording = ColumnarRecording()
    jit_profiled = run_program(
        annotated.program,
        listener=MulticastListener([jit_device, jit_recording]),
        max_instructions=max_instructions, trace_jit=True,
        trace_jit_threshold=TRACE_JIT_FUZZ_THRESHOLD)
    try:
        jit_device.finish()
    except TracerError as exc:
        _raise(KIND_TRACE_JIT, "annotated jit: %s" % exc, seed)
    if (jit_profiled.return_value, jit_profiled.cycles,
            jit_profiled.instructions, len(jit_recording)) != \
            (profiled.return_value, profiled.cycles,
             profiled.instructions, len(recording)):
        _raise(KIND_TRACE_JIT,
               "annotated jit=(%r, %d cyc, %d ins, %d ev) "
               "reference=(%r, %d cyc, %d ins, %d ev)"
               % (jit_profiled.return_value, jit_profiled.cycles,
                  jit_profiled.instructions, len(jit_recording),
                  profiled.return_value, profiled.cycles,
                  profiled.instructions, len(recording)), seed)
    for column in ColumnarRecording.COLUMNS:
        if getattr(jit_recording, column) != getattr(recording, column):
            _raise(KIND_TRACE_JIT,
                   "annotated jit recording column %r diverged" % column,
                   seed)
    if sorted(jit_device.stats) != sorted(device.stats):
        _raise(KIND_TRACE_JIT, "annotated jit profiled loops %r, "
               "reference %r" % (sorted(jit_device.stats),
                                 sorted(device.stats)), seed)
    for loop_id, stats in sorted(device.stats.items()):
        jit_stats = jit_device.stats[loop_id]
        for field in STLStats.__slots__:
            if getattr(jit_stats, field) != getattr(stats, field):
                _raise(KIND_TRACE_JIT,
                       "annotated jit loop %d %s=%r, reference %r"
                       % (loop_id, field, getattr(jit_stats, field),
                          getattr(stats, field)), seed)
    for jit_run in (jit_fast, jit_traced, jit_profiled):
        if jit_run.jit is not None:
            outcome.jit_traces += jit_run.jit["traces_linked"]

    # TLS checks, reusing the path-3 byproducts (no second profile)
    selection = select_stls(device, profiled.cycles, config)
    outcome.selected_ids = selection.selected_ids()
    tls_results = {}
    for sel in selection.selected:
        cand = candidates.by_id.get(sel.loop_id)
        if cand is None:
            continue
        comp = compile_stl(cand, config)
        tls = engine.replay(comp, config)
        tls_results[sel.loop_id] = tls
        outcome.tls_simulated += 1
        errs = tls.invariant_errors(config)
        if errs:
            _raise(KIND_TLS_INVARIANT,
                   "loop %d: %s" % (sel.loop_id, "; ".join(errs)), seed)
        if tls.sequential_cycles > profiled.cycles:
            _raise(KIND_TLS_BOUNDS,
                   "loop %d sequential %d exceeds whole run %d"
                   % (sel.loop_id, tls.sequential_cycles,
                      profiled.cycles), seed)
        # speculative-buffer limits: an overflow, if any, must land
        # inside its thread's window (the points the replay consumed:
        # its plan's, a memo hit)
        for ov, size in engine.plan(comp, config).overflow_points():
            if not 0 <= ov <= size:
                _raise(KIND_BUFFER_LIMIT,
                       "loop %d overflow at rel %d outside thread "
                       "of %d cycles" % (sel.loop_id, ov, size), seed)
        # path 6: the same trace under the DOACROSS post/wait model
        doa = engine.replay(comp, config, post_wait=True)
        outcome.doacross_simulated += 1
        errs = doa.invariant_errors(config)
        if errs:
            _raise(KIND_DOACROSS,
                   "loop %d: %s" % (sel.loop_id, "; ".join(errs)), seed)
        if doa.sequential_cycles != tls.sequential_cycles:
            _raise(KIND_DOACROSS,
                   "loop %d DOACROSS sequential %d != TLS sequential "
                   "%d (both models walk the same trace)"
                   % (sel.loop_id, doa.sequential_cycles,
                      tls.sequential_cycles), seed)
        if doa.predicted_hits > doa.predictions:
            _raise(KIND_DOACROSS,
                   "loop %d predictor books broken: %d hits of %d "
                   "predictions" % (sel.loop_id, doa.predicted_hits,
                                    doa.predictions), seed)
        if doa.violations != doa.predictions - doa.predicted_hits:
            _raise(KIND_DOACROSS,
                   "loop %d violations %d != mispredictions %d"
                   % (sel.loop_id, doa.violations,
                      doa.predictions - doa.predicted_hits), seed)
    if tls_results:
        program_outcome = ProgramTLSOutcome(selection, tls_results)
        if not (0.0 < program_outcome.actual_speedup
                <= config.n_cpus + 1e-9):
            _raise(KIND_TLS_BOUNDS,
                   "program actual speedup %.3f outside (0, %d]"
                   % (program_outcome.actual_speedup, config.n_cpus),
                   seed)
    return outcome
