"""The benchmark's two workloads.

Each workload sets itself up (:meth:`Workload.setup`), then either
measures end-to-end numbers (:meth:`Workload.measure`) or, in a
separate traced run, per-layer numbers (:meth:`Workload.trace`).  Every
operation's output is checked: pinned return values and sequential
cycles from ``expected.json``, and identical simulated numbers whenever
an input repeats.  A failed check counts the operation as failed.

Operations and set-up work are timed in reference seconds (see
:mod:`probe`); per-layer times are measured seconds.

The seed only shuffles operation order; the programs themselves receive
no seed.
"""

from __future__ import annotations

import math
import pickle
import random
import statistics
import sys
import time
import traceback
from typing import Dict, List, Optional

from probe import REFERENCE_S, probe
from spans import OP

#: eight of the cheapest Table 6 programs (0.05-0.15 s cold): the whole
#: corpus at smoke scale
SMOKE_SET = ("monteCarlo", "MipsSimulator", "FourierTest", "deltaBlue",
             "fft", "moldyn", "raytrace", "mp3")

#: selection-only configurations of warm_sweep: none of these fields is
#: part of the profile cache key, so every stage before selection hits
SWEEP = tuple((n_cpus, restart) for n_cpus in (2, 4, 8)
              for restart in (5, 20))

#: engine kernels timed by the TraceEngine's own counters; split is
#: timed by a span instead, because the pipeline calls it directly
ENGINE_KERNELS = ("classify", "overflow", "resolve")


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def reference_seconds(work) -> float:
    """Run ``work()`` and return its time in reference seconds: measured
    seconds scaled by the probe run right after it."""
    start = time.perf_counter()
    work()
    return (time.perf_counter() - start) * REFERENCE_S / probe()


class Run:
    """What one workload run counted and measured."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        #: checks on the run as a whole that failed (not per operation)
        self.problems: List[str] = []
        #: (key, seconds) of each successful, checked operation
        self.samples: List[tuple] = []
        #: (measured seconds, probe seconds) of each operation
        self.probed: List[tuple] = []
        self.measured_s = 0.0
        #: per-layer metrics of a traced run
        self.layers: Dict[str, Optional[float]] = {}


class Workload:
    name = ""
    #: set-ups per untraced run; setup_s takes their median
    setup_repeats = 5

    def __init__(self, seed: int, seconds: float, smoke: bool,
                 expected: Dict, tracer=None):
        from repro.workloads.registry import all_workloads, get_workload

        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.expected = expected
        #: the pipeline tracer of a traced run (None when untraced)
        self.tracer = tracer
        self.rng = random.Random("%s/%d" % (self.name, seed))
        self.programs = [get_workload(n) for n in SMOKE_SET] if smoke \
            else all_workloads()
        #: first simulated (slowdown, predicted, actual) per input
        self.sim: Dict = {}

    # -- lifecycle -------------------------------------------------------

    def setup(self) -> float:
        """One set-up; returns its reference seconds.  The harness
        repeats it and reports the median."""
        raise NotImplementedError

    def measure(self, run: Run) -> None:
        raise NotImplementedError

    def trace(self, run: Run) -> None:
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------

    def done(self, started: float) -> bool:
        """Whether the measured phase has lasted ``seconds`` (checked at
        round boundaries only, so every run measures whole rounds)."""
        return self.smoke or time.perf_counter() - started >= self.seconds

    def shuffled(self, items) -> list:
        order = list(items)
        self.rng.shuffle(order)
        return order

    def agrees(self, key, triple) -> bool:
        """Repeated ops on one input must give identical simulated
        numbers."""
        return self.sim.setdefault(key, triple) == triple

    def check_report(self, key, report) -> bool:
        pinned = self.expected["table6"][report.name]
        return (report.sequential.return_value == pinned["return_value"]
                and report.sequential_cycles
                == pinned["sequential_cycles"]
                and self.agrees(key, (report.profiling_slowdown,
                                      report.predicted_speedup,
                                      report.actual_speedup)))

    def timed(self, run: Run, key, op, check, tracer=None):
        """Run one operation, check its output and time it in reference
        seconds, scaled by the probe run right after it.  Every attempt's
        seconds count toward the measured phase; a checked op's are also
        recorded under ``key``."""
        run.attempted += 1
        result = None
        start = time.perf_counter()
        try:
            if tracer is None:
                result = op()
            else:
                with tracer.op(run.attempted):
                    result = op()
        except Exception:  # noqa: BLE001 - a failed op is counted
            traceback.print_exc(file=sys.stderr)
            raised = True
        else:
            raised = False
        elapsed = time.perf_counter() - start
        host = probe()
        run.probed.append((elapsed, host))
        seconds = elapsed * REFERENCE_S / host
        run.measured_s += seconds
        if raised or not check(result):
            run.failed += 1
        else:
            run.samples.append((key, seconds))
        return result

    def simulated(self) -> List[tuple]:
        """The (slowdown, predicted, actual) triples the Fig. 6 / Fig. 11
        metrics summarize, in a fixed order so the float sums never
        depend on the seed."""
        return [self.sim[key] for key in sorted(self.sim)]


class EngineTally:
    """Trace-engine kernel counters and recorded events, summed over the
    traced ops' reports."""

    def __init__(self):
        self.ops = 0
        self.events = 0
        self.seconds = dict.fromkeys(ENGINE_KERNELS, 0.0)
        self.hits = 0
        self.lookups = 0
        self.missing = False

    def add(self, report) -> None:
        try:
            events = len(report.recording)
            stats = report.engine.stats
            seconds = {k: stats.seconds[k] for k in ENGINE_KERNELS}
            hits = sum(stats.hits.values())
            lookups = hits + sum(stats.misses.values())
        except (AttributeError, KeyError, TypeError):
            self.missing = True
            return
        self.ops += 1
        self.events += events
        for kernel, value in seconds.items():
            self.seconds[kernel] += value
        self.hits += hits
        self.lookups += lookups

    def metrics(self) -> Dict[str, Optional[float]]:
        out: Dict[str, Optional[float]] = {
            "tls.engine.%s_s" % k: v / self.ops if self.ops else 0.0
            for k, v in self.seconds.items()}
        out["tls.engine.hit_ratio"] = \
            self.hits / self.lookups if self.lookups else 0.0
        out["tracer.events"] = self.events / self.ops if self.ops else 0.0
        if self.missing:
            out = dict.fromkeys(out)
        return out


def span_layers(tracer) -> Dict[str, float]:
    """Self seconds per op of every traced layer, plus the op time and
    the share of it the layers account for."""
    ops = tracer.ops()
    totals = tracer.self_times()
    covered = sum(secs for name, secs in totals.items() if name != OP)
    # an op span's self time is the part no layer span covers
    op_total = totals.pop(OP, 0.0) + covered
    layers = {name + "_s": secs / ops for name, secs in totals.items()}
    layers["trace.op_s"] = op_total / ops
    layers["trace.layer_coverage_pct"] = 100.0 * covered / op_total
    return layers


def interleaved_trace(workload: Workload, run: Run, rounds, op_of,
                      tracer) -> float:
    """Alternate untraced and traced rounds until the run has lasted its
    seconds, with at least one of each; returns the traced ops' mean
    time over the untraced ops', minus one, in percent."""
    started = time.perf_counter()
    traced = False
    for order in rounds:
        if traced:
            tracer.install()
        try:
            for item in order:
                workload.timed(run, traced, lambda: op_of(item),
                               lambda r: workload.check_op(item, r, traced),
                               tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if traced and workload.done(started):
            break
        traced = not traced
    mean = {flag: statistics.fmean([s for k, s in run.samples
                                    if k is flag])
            for flag in (False, True)}
    return 100.0 * (mean[True] / mean[False] - 1.0)


def profile_split(program) -> Dict[str, float]:
    """Seconds of the annotated program run bare, with only the TEST
    device, and with only the recording listener, as ``Jrpm.run`` would
    set each up; the device and recording costs are the increments over
    the bare run."""
    from repro.cfg.candidates import find_candidates
    from repro.jrpm.pipeline import Jrpm
    from repro.jrpm.runtime import ProfilingRuntime
    from repro.jit.annotate import annotate_program
    from repro.lang.codegen import compile_source
    from repro.runtime.events import ColumnarRecording, TraceListener
    from repro.runtime.interpreter import Interpreter
    from repro.tracer.device import TestDevice

    class DropEvents(TraceListener):
        """Takes every event batch and drops it: the bare run pays event
        delivery but neither device nor recording."""

        def on_mem_batch(self, events):
            pass

    jrpm = Jrpm(source=program.source(), name=program.name)
    compiled = compile_source(program.source())
    candidates = find_candidates(compiled)
    seconds = {}
    for variant in ("bare", "device", "recording"):
        annotated = annotate_program(compiled, candidates, jrpm.level)
        device = None
        if variant == "device":
            device = TestDevice(jrpm.config)
            device.convergence_threshold = jrpm.convergence_threshold
            for lid, cand in annotated.annotated_loops.items():
                device.register_loop_locals(lid, cand.tracked_locals)
            listener = device
        elif variant == "recording":
            listener = ColumnarRecording()
        else:
            listener = DropEvents()
        interp = Interpreter(annotated.program,
                             cost_model=jrpm.cost_model,
                             listener=listener,
                             max_instructions=jrpm.max_instructions,
                             trace_jit=jrpm.trace_jit)
        if device is not None:
            device.on_converged = ProfilingRuntime(
                annotated.program, interp).on_converged
        start = time.perf_counter()
        interp.run()
        seconds[variant] = time.perf_counter() - start
    return {"tracer.device_s": seconds["device"] - seconds["bare"],
            "runtime.recording_s": seconds["recording"] - seconds["bare"]}


# ---------------------------------------------------------------------------
# cold_table6
# ---------------------------------------------------------------------------

class _NoopRow:
    ok = True

    def __init__(self, name: str):
        self.name = name


def noop_task(workload, **_kwargs):
    """Fleet task that does no analysis: a fleet of these costs only
    pool start-up, dispatch and result merging."""
    return _NoopRow(workload.name)


class ColdTable6(Workload):
    """The 26 Table 6 programs, each a fresh ``Jrpm(...).run()`` with
    every execution model and no cache."""

    name = "cold_table6"

    def analyze(self, program):
        from repro.jrpm import Jrpm
        return Jrpm(source=program.source(), name=program.name,
                    models="all").run()

    def setup(self) -> float:
        # one small analysis, so lazy imports inside the pipeline are
        # not charged to the first measured op
        from repro.workloads.registry import get_workload
        program = get_workload(SMOKE_SET[0])
        return reference_seconds(lambda: self.analyze(program))

    def rounds(self):
        while True:
            yield self.shuffled(self.programs)

    def check_op(self, program, report, traced: bool) -> bool:
        if traced:
            self.tally.add(report)
        return self.check_report(program.name, report)

    def measure(self, run: Run) -> None:
        started = time.perf_counter()
        for order in self.rounds():
            for program in order:
                self.timed(run, program.name,
                           lambda: self.analyze(program),
                           lambda r: self.check_op(program, r, False))
            if self.done(started):
                break

    def trace(self, run: Run) -> None:
        self.tally = EngineTally()
        overhead = interleaved_trace(
            self, run, self.rounds(),
            self.analyze, self.tracer)
        run.layers.update(span_layers(self.tracer))
        run.layers.update(self.tally.metrics())
        run.layers["trace_overhead_pct"] = overhead
        split = [profile_split(p) for p in self.programs]
        for key in split[0]:
            run.layers[key] = sum(s[key] for s in split) / len(split)
        run.layers.update(self.executor_layers(run))

    def check_rows(self, run: Run, rows) -> None:
        """Fleet rows must be the programs' rows, in order, with the
        simulated numbers the in-process runs gave; they are read
        through their column properties only."""
        names = [p.name for p in self.programs]
        run.attempted += len(names)
        bad = len(names) - len(rows)
        for name, row in zip(names, rows):
            if not (row.ok and row.name == name and self.agrees(
                    name, (row.slowdown, row.predicted_speedup,
                           row.actual_speedup))):
                bad += 1
        run.failed += bad

    def executor_layers(self, run: Run) -> Dict[str, float]:
        """The same programs through ``run_fleet``: a jobs=2 fleet whose
        rows are then pickled and unpickled here as they crossed the
        process boundary, a jobs=1 fleet, and a fleet of no-op tasks."""
        from repro.jrpm import run_fleet

        def fleet(jobs: int, **kwargs):
            start = time.perf_counter()
            result = run_fleet(self.programs, jobs=jobs, models="all",
                               on_error="row", **kwargs)
            return result, time.perf_counter() - start

        parallel, parallel_s = fleet(2)
        self.check_rows(run, parallel.rows)
        # the pool pickles with the default protocol
        start = time.perf_counter()
        blobs = [pickle.dumps(row) for row in parallel.rows]
        for blob in blobs:
            pickle.loads(blob)
        pickle_s = time.perf_counter() - start
        result_mb = sum(len(b) for b in blobs) / 1e6
        del parallel, blobs
        serial, serial_s = fleet(1)
        self.check_rows(run, serial.rows)
        del serial
        _, floor_s = fleet(2, task=noop_task)
        return {
            "jrpm.executor.result_mb": result_mb,
            "jrpm.executor.result_pickle_s": pickle_s,
            "jrpm.executor.pool_floor_s": floor_s,
            "jrpm.executor.speedup_vs_serial": serial_s / parallel_s,
        }


# ---------------------------------------------------------------------------
# warm_sweep
# ---------------------------------------------------------------------------

class WarmSweep(Workload):
    """The 26 programs re-analyzed under six selection-only
    configurations against one filled in-memory ArtifactCache."""

    name = "warm_sweep"
    #: each set-up fills the cache with all 26 programs (about 6 s)
    setup_repeats = 3

    def setup(self) -> float:
        from repro.jrpm import ArtifactCache, Jrpm
        self.cache = ArtifactCache()
        # a traced run fills under the tracer, which sizes every stored
        # blob and times the stores
        if self.tracer is not None:
            self.tracer.install()
        try:
            # each program is scaled by its own probe: a fill lasts
            # longer than the host's slow spells
            return sum(reference_seconds(
                lambda: Jrpm(source=program.source(), name=program.name,
                             cache=self.cache, models="all").run(
                                 simulate_tls=False))
                for program in self.programs)
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()

    def analyze(self, program, sweep):
        from repro.hydra.config import HydraConfig
        from repro.jrpm import Jrpm
        config = HydraConfig(n_cpus=sweep[0],
                             violation_restart_overhead=sweep[1])
        return Jrpm(source=program.source(), name=program.name,
                    config=config, cache=self.cache, models="all").run()

    def passes(self):
        """Each item is one configuration over every program; a pass of
        all six configurations is one round."""
        while True:
            for sweep in self.shuffled(SWEEP):
                yield [(p, sweep) for p in self.shuffled(self.programs)]

    def check_op(self, item, report, traced: bool) -> bool:
        if traced:
            self.tally.add(report)
        program, sweep = item
        return self.check_report((program.name,) + sweep, report)

    def misses(self) -> int:
        return sum(c["misses"] for c in self.cache.snapshot().values())

    def hits(self) -> int:
        return sum(c["hits"] for c in self.cache.snapshot().values())

    def measure(self, run: Run) -> None:
        misses = self.misses()
        started = time.perf_counter()
        configs = 0
        for items in self.passes():
            for item in items:
                self.timed(run, item[0].name,
                           lambda: self.analyze(*item),
                           lambda r: self.check_op(item, r, False))
            configs += 1
            # smoke scale runs one whole pass, a full run stops at any
            # configuration boundary
            if self.done(started) and not (self.smoke
                                           and configs < len(SWEEP)):
                break
        if self.misses() != misses:
            run.problems.append("warm_sweep: %d cache misses in the "
                                "measured phase" % (self.misses() - misses))

    def trace(self, run: Run) -> None:
        tracer = self.tracer
        self.tally = EngineTally()
        store_s = sum(end - start for _, name, start, end, _, _
                      in tracer.spans if name == "jrpm.cache.store")
        hits, misses = self.hits(), self.misses()

        def whole_passes():
            items = self.passes()
            while True:
                yield [i for _ in SWEEP for i in next(items)]

        overhead = interleaved_trace(
            self, run, whole_passes(),
            lambda item: self.analyze(*item), tracer)
        hits, misses = self.hits() - hits, self.misses() - misses
        run.layers.update(span_layers(tracer))
        run.layers.update(self.tally.metrics())
        run.layers.update({
            "trace_overhead_pct": overhead,
            "jrpm.cache.store_s": store_s / len(self.programs),
            "jrpm.cache.hit_ratio": hits / (hits + misses),
            "jrpm.cache.blob_mb": tracer.stored_bytes / 1e6,
        })


WORKLOADS = {cls.name: cls for cls in (ColdTable6, WarmSweep)}
