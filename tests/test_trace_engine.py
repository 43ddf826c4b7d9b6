"""Columnar trace engine: the recording, its thread windows and the
determinism of the replay.

The recording's batch handler must record what its per-event callbacks
would; the per-loop mark index and the frame ordinals the splitter
counts through it must cut the windows a walk over every mark cuts; a
pickled recording must split alike; and the engine's split memo must
change only wall-clock, never outcomes.
"""

import pickle

import pytest

from repro.cfg import find_candidates
from repro.errors import SimulationError
from repro.hydra import HydraConfig
from repro.jit import annotate_program, compile_stl
from repro.jit.speculative import STLCompilation
from repro.lang import compile_source
from repro.models import get_model
from repro.runtime import run_program
from repro.runtime.events import (
    MARK_ELOOP,
    MARK_EOI,
    MARK_SLOOP,
    ColumnarRecording,
    MulticastListener,
    TraceListener,
)
from repro.tls import TraceEngine, split_trace
from repro.workloads.registry import get_workload

from tests.conftest import HUFFMAN_SOURCE, NEST_SOURCE


class PerEventRecording(ColumnarRecording):
    """A recording fed through its per-event callbacks: the base
    :meth:`TraceListener.on_mem_batch` replays each batch through
    them."""

    on_mem_batch = TraceListener.on_mem_batch


def _record_both(source):
    """One traced run feeding a batched and a per-event recording."""
    program = compile_source(source)
    table = find_candidates(program)
    ann = annotate_program(program, table)
    per_event = PerEventRecording()
    columnar = ColumnarRecording()
    run_program(ann.program,
                listener=MulticastListener([per_event, columnar]))
    return table, per_event, columnar


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
    """Comparable shape of a split."""
    return [(e.total_cycles, e.frame_id, e.bounds, e.starts, e.sizes)
            for e in entries]


def _walked_windows(recording, loop_id):
    """``(frame id, thread edges)`` of each entry of ``loop_id``, found
    by walking every mark of the recording in order: a sloop's frame is
    the next one in ``sloop_frames``, whatever loop it opens.  The
    last ``eoi``'s edge moves to the ``eloop``, so the exit tail joins
    the last thread."""
    frames = iter(recording.sloop_frames)
    entries = []
    for kind, cycle, lid in zip(recording.mark_kinds,
                                recording.mark_cycles,
                                recording.mark_loops):
        frame_id = next(frames) if kind == MARK_SLOOP else None
        if lid != loop_id:
            continue
        if kind == MARK_SLOOP:
            entries.append((frame_id, [cycle]))
        elif kind == MARK_EOI:
            entries[-1][1].append(cycle)
        else:
            assert kind == MARK_ELOOP
            edges = entries[-1][1]
            if len(edges) > 1:
                edges.pop()
            edges.append(cycle)
    return entries


#: db is a Table 6 program whose loop windows contain callee-frame
#: locals, some in slots the loop itself eliminates
DB_SOURCE = get_workload("db").source()


@pytest.fixture(scope="module",
                params=[NEST_SOURCE, HUFFMAN_SOURCE, DB_SOURCE],
                ids=["nest", "huffman-nest", "db"])
def recorded(request):
    return _record_both(request.param)


class TestRecordingEquivalence:
    def test_event_streams_identical(self, recorded):
        """The batch handler records the event columns the per-event
        callbacks record."""
        _, per_event, columnar = recorded
        assert len(columnar) == len(per_event) > 0
        for column in ("kinds", "cycles", "addresses"):
            assert getattr(columnar, column) == getattr(per_event, column)

    def test_marks_identical(self, recorded):
        _, per_event, columnar = recorded
        assert len(columnar.mark_kinds) > 0
        for column in ("mark_kinds", "mark_cycles", "mark_loops",
                       "sloop_frames"):
            assert getattr(columnar, column) == getattr(per_event, column)

    def test_pickle_round_trip(self, recorded):
        """Mark columns survive the artifact cache: the unpickled
        recording has the same marks and splits every loop alike."""
        table, _, columnar = recorded
        copy = pickle.loads(pickle.dumps(columnar,
                                         pickle.HIGHEST_PROTOCOL))
        for column in ColumnarRecording.COLUMNS:
            assert getattr(copy, column) == getattr(columnar, column)
        for lid in sorted(table.by_id):
            try:
                want = _windows(split_trace(columnar, lid))
            except SimulationError:
                with pytest.raises(SimulationError):
                    split_trace(copy, lid)
                continue
            assert _windows(split_trace(copy, lid)) == want, lid

    def test_loop_index_shipped_with_pickle(self, recorded):
        """The per-loop mark index rides along in the pickle, so an
        unpickled recording splits without rebuilding it; a pickle
        saved without it (None) rebuilds it on first use."""
        table, _, columnar = recorded
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

    def test_cycles_column_sorted(self, recorded):
        """The invariant zero-copy windowing bisects on."""
        _, _, columnar = recorded
        cycles = columnar.cycles
        assert all(cycles[i] <= cycles[i + 1]
                   for i in range(len(cycles) - 1))


class TestSplitEquivalence:
    def test_windows_and_events_identical(self, recorded):
        """Every loop's split has the frames and thread edges of a walk
        over every mark, and each thread's events are exactly the
        recording's events with a cycle in its window."""
        table, _, columnar = recorded
        cycles = columnar.cycles
        n = len(cycles)
        loops = _windowable_loops(table, columnar)
        assert loops  # the sources above all have windowable loops
        for lid in loops:
            entries = split_trace(columnar, lid)
            walked = _walked_windows(columnar, lid)
            assert len(entries) == len(walked), lid
            for entry, (frame_id, edges) in zip(entries, walked):
                assert entry.frame_id == frame_id
                assert entry.starts == edges[:-1]
                assert entry.sizes == [b - a for a, b in
                                       zip(edges, edges[1:])]
                assert sum(entry.sizes) == entry.total_cycles
                assert len(entry.bounds) == len(edges)
                for bound, edge in zip(entry.bounds, edges):
                    assert bound == 0 or cycles[bound - 1] < edge
                    assert bound == n or cycles[bound] >= edge

    def test_views_are_zero_copy(self, recorded):
        """An entry indexes the shared recording: plain index lists, no
        copy of its columns."""
        table, _, columnar = recorded
        lid = _windowable_loops(table, columnar)[0]
        for entry in split_trace(columnar, lid):
            assert entry.recording is columnar
            bounds = entry.bounds
            assert type(bounds) is list
            assert 0 <= bounds[0] and bounds[-1] <= len(columnar)
            assert all(lo <= hi for lo, hi in zip(bounds, bounds[1:]))


def _callee_trace(callee_frame):
    """A recording of three iterations of a loop run by frame 1, each
    calling into ``callee_frame`` (None: no call).  The callee loads its
    slots 2 and 5 early and stores them late; slot 2 collides with the
    loop's eliminated slot 2, slot 5 with nothing.  Reusing one callee
    frame across iterations means a kept callee local would carry a
    cross-thread arc."""
    rec = ColumnarRecording()
    loop_frame = 1
    rec.on_sloop(0, 8, 0, loop_frame)
    for it in range(3):
        base = 10 + 100 * it
        rec.on_local_load(loop_frame, 3, base)
        rec.on_local_load(loop_frame, 2, base + 1)   # eliminated
        if callee_frame is not None:
            rec.on_local_load(callee_frame, 2, base + 2)
            rec.on_local_load(callee_frame, 5, base + 3)
            rec.on_local_store(callee_frame, 2, base + 60)
            rec.on_local_store(callee_frame, 5, base + 61)
        rec.on_store(0x1000, base + 6)
        rec.on_local_store(loop_frame, 3, base + 7)
        rec.on_eoi(0, base + 90)
    rec.on_eloop(0, 400)
    return rec


class TestClassifyEquivalence:
    def test_callee_locals_dropped(self):
        """Locals of a frame other than the loop's never reach the
        replay, whatever their slot: frame ids are unique per
        activation, so they cannot carry a cross-thread arc.  Replaying
        the trace with colliding callee slots gives, under both
        dependence policies, the result of replaying it with the callee
        events removed."""

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
            engine = TraceEngine(_callee_trace(callee_frame))
            return vars(get_model(model).simulate(comp, config, engine))

        for model in ("hydra-tls", "doacross"):
            bare = replay(None, model)
            assert replay(7, model) == bare, model
            # the same accesses in the loop's own frame do carry the
            # slot-5 arc, so the callee events are not inert
            assert replay(1, model) != bare, model


class TestMemoDeterminism:
    def test_repeat_config_hits_and_matches(self, recorded):
        """Replaying one config twice on one engine gives identical
        results."""
        table, _, columnar = recorded
        engine = TraceEngine(columnar)
        config = HydraConfig()
        model = get_model("hydra-tls")
        loops = _windowable_loops(table, columnar)
        first = {}
        for lid in loops:
            comp = compile_stl(table.by_id[lid], config)
            first[lid] = model.simulate(comp, config, engine)
        before = engine.stats.snapshot()
        for lid in loops:
            comp = compile_stl(table.by_id[lid], config)
            again = model.simulate(comp, config, engine)
            assert vars(again) == vars(first[lid])
        after = engine.stats.snapshot()
        # the second pass reuses every plan, so it splits nothing
        assert after["classify"]["hits"] \
            == before["classify"]["hits"] + len(loops)
        assert after["classify"]["misses"] \
            == before["classify"]["misses"]
        assert after["split"] == before["split"]

    def test_plan_memo_serves_both_models(self, recorded):
        """Replays the engine serves from its plan memo equal replays
        on a fresh engine, which plans the split itself; the first
        replay of a loop builds its plan (a ``classify`` miss), the
        other model's replay reuses it (a hit)."""
        table, _, columnar = recorded
        engine = TraceEngine(columnar)
        config = HydraConfig()
        loops = _windowable_loops(table, columnar)
        for model in ("hydra-tls", "doacross"):
            for lid in loops:
                comp = compile_stl(table.by_id[lid], config)
                served = get_model(model).simulate(comp, config, engine)
                planned = get_model(model).simulate(
                    comp, config, TraceEngine(columnar))
                assert vars(served) == vars(planned), (model, lid)
        stats = engine.stats
        assert stats.misses["classify"] == len(loops)
        assert stats.hits["classify"] == len(loops)
        assert stats.seconds["classify"] > 0
        assert stats.calls["resolve"] == 2 * len(loops)
