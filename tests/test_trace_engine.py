"""Columnar trace engine: equivalence with the row reference path and
determinism of the memoized kernels.

The columnar pipeline (``ColumnarRecording`` -> zero-copy
``ThreadView`` windows -> ``TraceEngine`` memoized kernels) must be an
invisible substitution for the row-of-tuples path — byte-identical
traces, identical splits, and identical TLS results, with the memo
layer changing only wall-clock, never outcomes.
"""

import pickle

import pytest

from repro.cfg import find_candidates
from repro.errors import SimulationError
from repro.hydra import HydraConfig
from repro.jit import annotate_program, compile_stl
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
    local_address,
)
from repro.tls import (
    ThreadView,
    TraceEngine,
    simulate_stl,
    split_trace,
)
from repro.tls.engine import classify_entry
from repro.tls.simulator import (
    elimination_key,
    prepare_thread,
    prepare_view,
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

    def test_loop_index_not_pickled(self, both_layouts):
        table, _, columnar = both_layouts
        fresh = pickle.loads(pickle.dumps(columnar))
        before = pickle.dumps(fresh, pickle.HIGHEST_PROTOCOL)
        assert _windowable_loops(table, fresh)  # builds the index
        assert fresh._loop_index is not None
        assert pickle.dumps(fresh, pickle.HIGHEST_PROTOCOL) == before

    def test_cycles_column_sorted(self, both_layouts):
        """The invariant zero-copy windowing bisects on."""
        _, _, columnar = both_layouts
        cycles = columnar.cycles
        assert all(cycles[i] <= cycles[i + 1]
                   for i in range(len(cycles) - 1))


class TestSplitEquivalence:
    def test_windows_and_events_identical(self, both_layouts):
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

    def test_views_are_zero_copy(self, both_layouts):
        table, _, columnar = both_layouts
        lid = _windowable_loops(table, columnar)[0]
        for entry in split_trace(columnar, lid):
            for view in entry.threads:
                assert isinstance(view, ThreadView)
                assert view.recording is columnar
                assert 0 <= view.lo <= view.hi <= len(columnar)


class TestClassifyEquivalence:
    def test_entry_kernel_matches_references(self, both_layouts):
        """The engine's per-entry kernel equals per-thread prepare_view
        and the row-layout prepare_thread on every real entry."""
        table, legacy, columnar = both_layouts
        config = HydraConfig()
        for lid in _windowable_loops(table, columnar):
            eliminated = elimination_key(
                compile_stl(table.by_id[lid], config))
            for er, ev in zip(split_trace(legacy, lid),
                              split_trace(columnar, lid)):
                want = tuple(prepare_view(v, eliminated, ev.frame_id)
                             for v in ev.threads)
                assert classify_entry(ev, eliminated) == want, lid
                assert tuple(prepare_thread(t.events, eliminated,
                                            er.frame_id)
                             for t in er.threads) == want, lid

    def test_callee_locals_dropped(self):
        """Locals of a frame other than the loop's never reach the
        dependency or store lists, whatever their slot: frame ids are
        unique per activation, so they cannot carry a cross-thread arc.
        The callee's slot 2 collides with the loop's eliminated slot 2;
        its slot 5 collides with nothing."""
        legacy, columnar = RecordingListener(), ColumnarRecording()
        both = MulticastListener([legacy, columnar])
        loop_frame, callee = 1, 7
        both.on_sloop(0, 8, 0, loop_frame)
        for it in range(3):
            base = 10 + 100 * it
            both.on_local_load(loop_frame, 3, base)
            both.on_local_load(loop_frame, 2, base + 1)   # eliminated
            both.on_local_store(callee + it, 2, base + 2)
            both.on_local_load(callee + it, 2, base + 3)
            both.on_local_store(callee + it, 5, base + 4)
            both.on_local_load(callee + it, 5, base + 5)
            both.on_store(0x1000, base + 6)
            both.on_local_store(loop_frame, 3, base + 7)
            both.on_eoi(0, base + 90)
        both.on_eloop(0, 400)

        eliminated = frozenset({2})
        [er] = split_trace(legacy, 0)
        [ev] = split_trace(columnar, 0)
        assert ev.frame_id == er.frame_id == loop_frame
        got = classify_entry(ev, eliminated)
        assert got == tuple(prepare_view(v, eliminated, loop_frame)
                            for v in ev.threads)
        assert got == tuple(prepare_thread(t.events, eliminated,
                                           loop_frame)
                            for t in er.threads)
        kept = local_address(loop_frame, 3)
        for dep_loads, stores, _ in got:
            assert [a for _, a, local in dep_loads if local] == [kept]
            assert [a for _, a, local in stores if local] == [kept]


class TestSimulationEquivalence:
    SWEEP = [HydraConfig(),
             HydraConfig(n_cpus=2, store_buffer_lines=16),
             HydraConfig(n_cpus=8, load_buffer_lines=64,
                         load_buffer_assoc=2)]

    MODELS = ("hydra-tls", "doacross")

    def test_engine_matches_row_path(self, both_layouts):
        """Both dependence policies give the same result on the row
        split without an engine as on the memoized columnar path.  The
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
        # the second pass must be served entirely from the memos
        for kernel in ("split", "classify", "overflow"):
            assert after[kernel]["hits"] > before[kernel]["hits"]
            assert after[kernel]["misses"] == before[kernel]["misses"]

    def test_config_key_projection_shares_kernels(self, both_layouts):
        """Configs differing only in fields a kernel ignores reuse it:
        classification ignores the config entirely, overflow ignores
        everything but the Table 1 buffer geometry."""
        table, _, columnar = both_layouts
        engine = TraceEngine(columnar)
        lid = _windowable_loops(table, columnar)[0]
        cand = table.by_id[lid]

        def replay(config):
            simulate_stl(compile_stl(cand, config), engine.split(lid),
                         config, engine=engine)

        replay(HydraConfig())
        misses = engine.stats.snapshot()
        # same geometry, different overheads/cpus -> all kernels hit
        replay(HydraConfig(n_cpus=2, store_load_comm_overhead=99))
        after = engine.stats.snapshot()
        for kernel in ("split", "classify", "overflow"):
            assert after[kernel]["misses"] == misses[kernel]["misses"]
        # shrunk store buffer -> overflow recomputes, classify still hits
        replay(HydraConfig(store_buffer_lines=4))
        final = engine.stats.snapshot()
        assert final["overflow"]["misses"] > after["overflow"]["misses"]
        assert final["classify"]["misses"] == after["classify"]["misses"]

    def test_engine_rejects_row_recording(self):
        with pytest.raises(SimulationError):
            TraceEngine(RecordingListener())
