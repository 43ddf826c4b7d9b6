"""Columnar trace engine: equivalence with the row reference path and
determinism of the replay.

The columnar pipeline (``ColumnarRecording`` -> zero-copy
``ThreadView`` windows -> one fused replay pass per thread) must be an
invisible substitution for the row-of-tuples path — byte-identical
traces, identical splits, and identical TLS results, with the engine's
split memo changing only wall-clock, never outcomes.
"""

import pickle

import pytest

from repro.cfg import find_candidates
from repro.errors import SimulationError
from repro.hydra import HydraConfig
from repro.jit import annotate_program, compile_stl
from repro.jit.speculative import STLCompilation
from repro.jrpm import Jrpm
from repro.jrpm.runtime import ProfilingRuntime
from repro.lang import compile_source
from repro.models import get_model
from repro.runtime import run_program
from repro.runtime.interpreter import Interpreter
from repro.runtime.events import (
    ColumnarRecording,
    MulticastListener,
    RecordingListener,
)
from repro.tls import (
    ThreadView,
    TraceEngine,
    simulate_stl,
    split_trace,
)
from repro.tracer.device import TestDevice
from repro.workloads.registry import get_workload

from tests.conftest import HUFFMAN_SOURCE, NEST_SOURCE


def _record_both(source):
    """One traced run feeding both trace layouts simultaneously."""
    program = compile_source(source)
    table = find_candidates(program)
    ann = annotate_program(program, table)
    legacy = RecordingListener()
    columnar = ColumnarRecording()
    run_program(ann.program,
                listener=MulticastListener([legacy, columnar]))
    return table, legacy, columnar


def _windowable_loops(table, recording):
    loops = []
    for lid in sorted(table.by_id):
        try:
            if split_trace(recording, lid):
                loops.append(lid)
        except SimulationError:
            continue
    return loops


def _windows(entries):
    """Comparable shape of a columnar split."""
    return [(e.total_cycles, e.frame_id,
             [(t.lo, t.hi, t.start, t.size) for t in e.threads])
            for e in entries]


#: db is a Table 6 program whose loop windows contain callee-frame
#: locals, some in slots the loop itself eliminates
DB_SOURCE = get_workload("db").source()


@pytest.fixture(scope="module",
                params=[NEST_SOURCE, HUFFMAN_SOURCE, DB_SOURCE],
                ids=["nest", "huffman-nest", "db"])
def both_layouts(request):
    return _record_both(request.param)


class TestRecordingEquivalence:
    def test_event_streams_identical(self, both_layouts):
        _, legacy, columnar = both_layouts
        assert len(columnar) == len(legacy.mem)
        assert list(columnar.events()) == list(legacy.mem)

    def test_marks_identical(self, both_layouts):
        _, legacy, columnar = both_layouts
        assert columnar.marks == legacy.marks

    def test_pickle_round_trip(self, both_layouts):
        """Mark columns survive the artifact cache: the unpickled
        recording has the same marks and splits every loop alike."""
        table, _, columnar = both_layouts
        copy = pickle.loads(pickle.dumps(columnar,
                                         pickle.HIGHEST_PROTOCOL))
        assert copy.marks == columnar.marks
        assert list(copy.sloop_frames) == list(columnar.sloop_frames)
        for lid in sorted(table.by_id):
            try:
                want = _windows(split_trace(columnar, lid))
            except SimulationError:
                with pytest.raises(SimulationError):
                    split_trace(copy, lid)
                continue
            assert _windows(split_trace(copy, lid)) == want, lid

    def test_loop_index_shipped_with_pickle(self, both_layouts):
        """The per-loop mark index rides along in the pickle, so an
        unpickled recording splits without rebuilding it; a pickle
        saved without it (None) rebuilds it on first use."""
        table, _, columnar = both_layouts
        fresh = pickle.loads(pickle.dumps(columnar))
        assert fresh._loop_index is not None
        before = pickle.dumps(fresh, pickle.HIGHEST_PROTOCOL)
        assert _windowable_loops(table, fresh)  # reads the index
        assert pickle.dumps(fresh, pickle.HIGHEST_PROTOCOL) == before
        assert fresh._loop_index == columnar._loop_index
        legacy = pickle.loads(pickle.dumps(columnar))
        legacy._loop_index = None
        for lid in _windowable_loops(table, columnar):
            assert list(legacy.loop_marks(lid)) == list(
                columnar.loop_marks(lid)), lid

    def test_cycles_column_sorted(self, both_layouts):
        """The invariant zero-copy windowing bisects on."""
        _, _, columnar = both_layouts
        cycles = columnar.cycles
        assert all(cycles[i] <= cycles[i + 1]
                   for i in range(len(cycles) - 1))


class TestSplitEquivalence:
    def test_windows_and_events_identical(self, both_layouts):
        """Row and columnar splits agree, and a columnar entry's
        index-only windows (``bounds``, ``starts``, ``sizes``) are
        exactly its ThreadView windows and the row path's windows."""
        table, legacy, columnar = both_layouts
        loops = _windowable_loops(table, columnar)
        assert loops  # the sources above all have windowable loops
        for lid in loops:
            rows = split_trace(legacy, lid)
            views = split_trace(columnar, lid)
            assert len(rows) == len(views)
            for er, ev in zip(rows, views):
                assert er.total_cycles == ev.total_cycles
                assert er.frame_id == ev.frame_id
                assert len(er.threads) == len(ev.threads)
                for tr, tv in zip(er.threads, ev.threads):
                    assert tr.size == tv.size
                    assert tr.events == tv.events
                bounds, starts, sizes = ev.bounds, ev.starts, ev.sizes
                assert len(bounds) == len(sizes) + 1 == len(starts) + 1
                assert [(t.lo, t.hi, t.start, t.size)
                        for t in ev.threads] == [
                    (bounds[j], bounds[j + 1], starts[j], sizes[j])
                    for j in range(len(sizes))]
                assert sizes == er.sizes
                assert list(map(len, (t.events for t in er.threads))) \
                    == [hi - lo for lo, hi in zip(bounds, bounds[1:])]
                assert sum(sizes) == ev.total_cycles

    def test_views_are_zero_copy(self, both_layouts):
        table, _, columnar = both_layouts
        lid = _windowable_loops(table, columnar)[0]
        for entry in split_trace(columnar, lid):
            for view in entry.threads:
                assert isinstance(view, ThreadView)
                assert view.recording is columnar
                assert 0 <= view.lo <= view.hi <= len(columnar)


def _callee_trace(callee_frame):
    """Both layouts of three iterations of a loop run by frame 1, each
    calling into ``callee_frame`` (None: no call).  The callee loads its
    slots 2 and 5 early and stores them late; slot 2 collides with the
    loop's eliminated slot 2, slot 5 with nothing.  Reusing one callee
    frame across iterations means a kept callee local would carry a
    cross-thread arc."""
    legacy, columnar = RecordingListener(), ColumnarRecording()
    both = MulticastListener([legacy, columnar])
    loop_frame = 1
    both.on_sloop(0, 8, 0, loop_frame)
    for it in range(3):
        base = 10 + 100 * it
        both.on_local_load(loop_frame, 3, base)
        both.on_local_load(loop_frame, 2, base + 1)   # eliminated
        if callee_frame is not None:
            both.on_local_load(callee_frame, 2, base + 2)
            both.on_local_load(callee_frame, 5, base + 3)
            both.on_local_store(callee_frame, 2, base + 60)
            both.on_local_store(callee_frame, 5, base + 61)
        both.on_store(0x1000, base + 6)
        both.on_local_store(loop_frame, 3, base + 7)
        both.on_eoi(0, base + 90)
    both.on_eloop(0, 400)
    return legacy, columnar


class TestClassifyEquivalence:
    def test_callee_locals_dropped(self):
        """Locals of a frame other than the loop's never reach the
        replay, whatever their slot: frame ids are unique per
        activation, so they cannot carry a cross-thread arc.  Replaying
        the trace with colliding callee slots gives, on both layouts and
        under both dependence policies, the result of replaying it with
        the callee events removed."""

        class candidate:
            loop_id = 0

            class scalar:
                inductors = [2]
                reductions = []
                classes = {}
                carried = []

        config = HydraConfig()
        comp = STLCompilation(candidate, config)

        def replay(callee_frame, model):
            legacy, columnar = _callee_trace(callee_frame)
            simulate = get_model(model).simulate
            rows = simulate(comp, split_trace(legacy, 0), config)
            cols = simulate(comp, split_trace(columnar, 0), config,
                            engine=TraceEngine(columnar))
            assert vars(rows) == vars(cols)
            return vars(rows)

        for model in ("hydra-tls", "doacross"):
            bare = replay(None, model)
            assert replay(7, model) == bare, model
            # the same accesses in the loop's own frame do carry the
            # slot-5 arc, so the callee events are not inert
            assert replay(1, model) != bare, model


class TestSimulationEquivalence:
    SWEEP = [HydraConfig(),
             HydraConfig(n_cpus=2, store_buffer_lines=16),
             HydraConfig(n_cpus=8, load_buffer_lines=64,
                         load_buffer_assoc=2)]

    MODELS = ("hydra-tls", "doacross")

    def test_engine_matches_row_path(self, both_layouts):
        """Both dependence policies give the same result on the row
        split without an engine as on the columnar path.  The
        row split is the slow part, so each loop's is built once."""
        table, legacy, columnar = both_layouts
        engine = TraceEngine(columnar)
        loops = _windowable_loops(table, columnar)
        row_splits = {lid: split_trace(legacy, lid) for lid in loops}
        for config in self.SWEEP:
            for lid in loops:
                comp = compile_stl(table.by_id[lid], config)
                for model in self.MODELS:
                    simulate = get_model(model).simulate
                    rows = simulate(comp, row_splits[lid], config)
                    cols = simulate(comp, engine.split(lid), config,
                                    engine=engine)
                    assert vars(rows) == vars(cols), (model, lid, config)

    def test_pipeline_matches_row_reference(self):
        """Stage 5's one path (model registry over the TraceEngine)
        reproduces the row reference: the same profiled run recorded
        by a RecordingListener, split by rows and simulated without an
        engine, gives every selected loop's TLSResult exactly."""
        config = HydraConfig()
        program = compile_source(HUFFMAN_SOURCE)
        ann = annotate_program(program, find_candidates(program))
        device = TestDevice(config)
        device.convergence_threshold = 1000
        for lid, cand in ann.annotated_loops.items():
            device.register_loop_locals(lid, cand.tracked_locals)
        rows = RecordingListener()
        interp = Interpreter(ann.program,
                             listener=MulticastListener([device, rows]))
        device.on_converged = ProfilingRuntime(
            ann.program, interp).on_converged
        interp.run()
        for models in (None, "all"):
            report = Jrpm(source=HUFFMAN_SOURCE, name="hn", config=config,
                          convergence_threshold=1000,
                          models=models).run()
            assert list(report.recording.events()) == rows.mem
            assert report.engine is not None and report.tls_results
            for sel in report.selection.selected:
                comp = compile_stl(
                    report.candidates.by_id[sel.loop_id], config)
                ref = get_model(sel.model).simulate(
                    comp, split_trace(rows, sel.loop_id), config)
                assert vars(ref) == vars(
                    report.tls_results[sel.loop_id]), (models, sel.loop_id)


class TestMemoDeterminism:
    def test_repeat_config_hits_and_matches(self, both_layouts):
        """Replaying one config twice on one engine gives identical
        results."""
        table, _, columnar = both_layouts
        engine = TraceEngine(columnar)
        config = HydraConfig()
        loops = _windowable_loops(table, columnar)
        first = {}
        for lid in loops:
            comp = compile_stl(table.by_id[lid], config)
            first[lid] = simulate_stl(comp, engine.split(lid), config,
                                      engine=engine)
        before = engine.stats.snapshot()
        for lid in loops:
            comp = compile_stl(table.by_id[lid], config)
            again = simulate_stl(comp, engine.split(lid), config,
                                 engine=engine)
            assert vars(again) == vars(first[lid])
        after = engine.stats.snapshot()
        # the second pass reuses every split
        assert after["split"]["hits"] > before["split"]["hits"]
        assert after["split"]["misses"] == before["split"]["misses"]

    def test_engine_rejects_row_recording(self):
        with pytest.raises(SimulationError):
            TraceEngine(RecordingListener())
