"""Tests for the pipeline artifact cache.

Two properties matter: a cache hit must reproduce the cold run's
numbers exactly, and mutating one key component must invalidate
exactly the stages that depend on it — no more (wasted work), no less
(stale results).
"""

import io
import os
import pickle
import pickletools

import pytest

from repro.bytecode.instructions import Instr
from repro.bytecode.opcodes import Op
from repro.hydra import HydraConfig
from repro.jit.annotate import AnnotationLevel
from repro.jit.speculative import compile_stl
from repro.jrpm import pipeline
from repro.jrpm.cache import (
    STAGE_ANNOTATE,
    STAGE_COMPILE,
    STAGE_PROFILE,
    STAGE_RECORDING,
    STAGE_SEQUENTIAL,
    ArtifactCache,
    CorruptBlobError,
    blob_stage,
    cache_key,
    frame_blob,
    merge_stats,
    unframe_blob,
)
from repro.jrpm.faults import truncate_stage_blobs
from repro.jrpm.pipeline import Jrpm
from repro.runtime.costs import CostModel
from repro.workloads import get_workload

from tests.test_profile_pins import recording_digest

REPORT_FIELDS = [
    "sequential_cycles", "profiling_slowdown", "predicted_speedup",
    "actual_speedup", "coverage",
]


def _run(cache=None, name="IDEA", **kwargs):
    w = get_workload(name)
    return Jrpm(source=w.source(), name=w.name, cache=cache,
                **kwargs).run(simulate_tls=True)


def _misses_of(cache, before):
    return {s: cache.misses.get(s, 0) - before.get(s, 0)
            for s in set(cache.misses) | set(before)
            if cache.misses.get(s, 0) != before.get(s, 0)}


class TestHitCorrectness:
    def test_warm_run_equals_cold_run(self):
        baseline = _run()  # no cache at all
        cache = ArtifactCache()
        cold = _run(cache)
        warm = _run(cache)
        for field in REPORT_FIELDS:
            assert getattr(baseline, field) == getattr(cold, field)
            assert getattr(cold, field) == getattr(warm, field), field
        assert warm.outcome.actual_speedup == cold.outcome.actual_speedup
        # the cold run reads the annotate artifact for its profile
        # miss; the warm one reads neither it nor the recording (its
        # replay plans are memoised next to the profile)
        assert cache.misses == {s: 1 for s in (
            STAGE_COMPILE, STAGE_ANNOTATE, STAGE_SEQUENTIAL,
            STAGE_PROFILE)}
        assert cache.hits == {s: 1 for s in (
            STAGE_COMPILE, STAGE_SEQUENTIAL, STAGE_PROFILE)}

    def test_runtime_patching_does_not_leak_into_cache(self):
        # a low convergence threshold makes the profiled run patch
        # READSTATS sites in the annotated program; the cached annotate
        # artifact must stay pristine, so a warm profile re-run (fresh
        # threshold -> profile miss, annotate hit) matches a cold one
        cache = ArtifactCache()
        cold = _run(cache, name="BitOps", convergence_threshold=200)
        fresh = _run(name="BitOps", convergence_threshold=150)
        warm = _run(cache, name="BitOps", convergence_threshold=150)
        assert cache.hits[STAGE_ANNOTATE] == 1
        assert cache.misses[STAGE_PROFILE] == 2
        for field in REPORT_FIELDS:
            assert getattr(warm, field) == getattr(fresh, field), field
        assert cold.profiling_slowdown != 1.0  # sanity: it profiled

    def test_fetched_artifacts_are_fresh_copies(self):
        cache = ArtifactCache()
        _run(cache)
        first = _run(cache)
        second = _run(cache)
        assert first.program is not second.program
        assert first.device is not second.device
        assert first.recording is not second.recording
        assert first.recording.cycles is not second.recording.cycles
        assert cache.hits[STAGE_RECORDING] == 2


class TestStageInvalidation:
    def test_source_invalidates_everything(self):
        cache = ArtifactCache()
        _run(cache, name="IDEA")
        before = dict(cache.misses)
        _run(cache, name="monteCarlo")
        assert set(_misses_of(cache, before)) == {
            STAGE_COMPILE, STAGE_ANNOTATE, STAGE_SEQUENTIAL,
            STAGE_PROFILE}

    def test_level_invalidates_annotate_and_profile(self):
        cache = ArtifactCache()
        _run(cache)
        before = dict(cache.misses)
        _run(cache, level=AnnotationLevel.BASE)
        assert set(_misses_of(cache, before)) == {
            STAGE_ANNOTATE, STAGE_PROFILE}

    def test_cost_model_invalidates_runs_not_compile(self):
        cache = ArtifactCache()
        _run(cache)
        before = dict(cache.misses)
        pricier = CostModel()
        pricier.op_costs = dict(pricier.op_costs)
        first_op = next(iter(pricier.op_costs))
        pricier.op_costs[first_op] += 1
        _run(cache, cost_model=pricier)
        assert set(_misses_of(cache, before)) == {
            STAGE_SEQUENTIAL, STAGE_PROFILE}

    def test_device_geometry_invalidates_profile_only(self):
        cache = ArtifactCache()
        _run(cache)
        before = dict(cache.misses)
        _run(cache, config=HydraConfig(heap_ts_fifo_lines=4))
        assert set(_misses_of(cache, before)) == {STAGE_PROFILE}

    def test_convergence_threshold_invalidates_profile_only(self):
        cache = ArtifactCache()
        _run(cache)
        before = dict(cache.misses)
        _run(cache, convergence_threshold=500)
        assert set(_misses_of(cache, before)) == {STAGE_PROFILE}

    def test_selection_only_knobs_keep_the_profile(self):
        # n_cpus and the Table 2 overheads feed Equation 2 / the TLS
        # replay, not trace collection: everything should hit
        cache = ArtifactCache()
        base = _run(cache)
        before = dict(cache.misses)
        other = _run(cache, config=HydraConfig(
            n_cpus=8, violation_restart_overhead=100))
        assert _misses_of(cache, before) == {}
        # and the knob still took effect downstream
        assert other.selection is not base.selection


class TestBlobStore:
    def test_disk_roundtrip_across_instances(self, tmp_path):
        first = ArtifactCache(directory=str(tmp_path))
        cold = _run(first)
        second = ArtifactCache(directory=str(tmp_path))
        warm = _run(second)
        # a new instance has no replay plans in memory, so the replay
        # reads the recording; the annotate artifact stays unread
        assert second.hits == {s: 1 for s in (
            STAGE_COMPILE, STAGE_SEQUENTIAL, STAGE_PROFILE,
            STAGE_RECORDING)}
        assert second.miss_count == 0
        for field in REPORT_FIELDS:
            assert getattr(cold, field) == getattr(warm, field)

    def test_memory_only_cache_has_no_files(self):
        cache = ArtifactCache()
        _run(cache)
        assert cache.directory is None

    def test_program_mode_bypasses_cache(self):
        cache = ArtifactCache()
        program = get_workload("IDEA").compile()
        report = Jrpm(program=program, name="IDEA",
                      cache=cache).run(simulate_tls=False)
        assert report.sequential_cycles > 0
        assert cache.hit_count == 0 and cache.miss_count == 0

    def test_render_and_snapshot(self):
        cache = ArtifactCache()
        _run(cache)
        text = cache.render()
        for stage in (STAGE_COMPILE, STAGE_PROFILE):
            assert stage in text
        snap = cache.snapshot()
        assert snap[STAGE_COMPILE] == {"hits": 0, "misses": 1,
                                       "corrupt": 0}

    def test_key_stability_and_sensitivity(self):
        k1 = cache_key("compile", "src", False)
        assert k1 == cache_key("compile", "src", False)
        assert k1 != cache_key("compile", "src", True)
        assert k1 != cache_key("annotate", "src", False)
        with pytest.raises(TypeError):
            cache_key("compile", object())


class _Drifted:
    """Pickles as the ``(callable, args)`` it is given: a stand-in for
    an artifact whose classes changed after it was stored."""

    def __init__(self, reduced):
        self.reduced = reduced

    def __reduce__(self):
        return self.reduced


SCHEMA_DRIFT = {
    # an opcode value Op no longer has: ValueError
    "dropped-opcode": (Op, (250,)),
    # one constructor argument more than Instr takes: TypeError
    "constructor-arity": (Instr, (Op.NOP, 0, -1, -1, -1, None, "", (),
                                  "extra")),
}


def _stage_blobs(directory, stage):
    """Paths of the on-disk blobs belonging to one stage."""
    return [os.path.join(directory, n)
            for n in sorted(os.listdir(directory))
            if n.endswith(".pkl")
            and blob_stage(os.path.join(directory, n)) == stage]


class TestBlobIntegrity:
    """Corrupt disk state must cost a recompute, never the run."""

    def test_frame_roundtrip(self):
        payload = pickle.dumps({"x": 1})
        framed = frame_blob("compile", payload)
        assert unframe_blob(framed) == ("compile", payload)

    def test_unframe_rejects_damage(self):
        payload = pickle.dumps([1, 2, 3])
        framed = frame_blob("profile", payload)
        with pytest.raises(CorruptBlobError):
            unframe_blob(framed[:len(framed) // 2])  # truncated
        with pytest.raises(CorruptBlobError):
            unframe_blob(b"not a blob at all")       # no magic
        flipped = bytearray(framed)
        flipped[-1] ^= 0xFF
        with pytest.raises(CorruptBlobError):
            unframe_blob(bytes(flipped))             # bit flip

    def test_blob_stage_reads_header(self, tmp_path):
        cache = ArtifactCache(directory=str(tmp_path))
        _run(cache)
        stages = {blob_stage(os.path.join(str(tmp_path), n))
                  for n in os.listdir(str(tmp_path))}
        assert stages == {STAGE_COMPILE, STAGE_ANNOTATE,
                          STAGE_SEQUENTIAL, STAGE_PROFILE,
                          STAGE_RECORDING}

    def test_truncated_blob_is_a_miss_and_quarantined(self, tmp_path):
        # regression: a hand-truncated blob used to crash pickle.loads
        # and take the whole pipeline down with it
        warm = ArtifactCache(directory=str(tmp_path))
        cold_report = _run(warm)
        path = _stage_blobs(str(tmp_path), STAGE_COMPILE)[0]
        os.truncate(path, os.path.getsize(path) // 2)

        fresh = ArtifactCache(directory=str(tmp_path))
        report = _run(fresh)
        assert fresh.corrupt == {STAGE_COMPILE: 1}
        assert fresh.misses[STAGE_COMPILE] == 1
        assert fresh.hits.get(STAGE_COMPILE, 0) == 0
        # the evidence is kept, the slot recomputed and re-stored
        assert os.path.exists(path + ".corrupt")
        assert os.path.exists(path)
        assert blob_stage(path) == STAGE_COMPILE
        for field in REPORT_FIELDS:
            assert getattr(report, field) == getattr(cold_report, field)

    def test_unpicklable_payload_is_a_miss_and_quarantined(
            self, tmp_path):
        # a payload that passes its checksum but cannot unpickle
        # (schema drift, a class that moved) must also demote to a miss
        warm = ArtifactCache(directory=str(tmp_path))
        _run(warm)
        path = _stage_blobs(str(tmp_path), STAGE_ANNOTATE)[0]
        with open(path, "wb") as handle:
            handle.write(frame_blob(STAGE_ANNOTATE, b"\x80\x04 junk"))

        # only a profile miss reads the annotate artifact: a new
        # convergence threshold re-profiles and reaches the bad blob
        fresh = ArtifactCache(directory=str(tmp_path))
        report = _run(fresh, convergence_threshold=500)
        assert fresh.corrupt == {STAGE_ANNOTATE: 1}
        assert fresh.misses[STAGE_ANNOTATE] == 1
        assert os.path.exists(path + ".corrupt")
        assert report.sequential_cycles > 0

    @pytest.mark.parametrize("drift", sorted(SCHEMA_DRIFT))
    def test_schema_drifted_payload_is_corrupt_and_a_miss(
            self, tmp_path, drift):
        # a checksummed payload whose classes changed since it was
        # stored raises ValueError or TypeError from pickle.loads
        warm = ArtifactCache(directory=str(tmp_path))
        cold_report = _run(warm)
        path = _stage_blobs(str(tmp_path), STAGE_COMPILE)[0]
        payload = pickle.dumps(_Drifted(SCHEMA_DRIFT[drift]),
                               pickle.HIGHEST_PROTOCOL)
        with pytest.raises((ValueError, TypeError)):
            pickle.loads(payload)
        with open(path, "wb") as handle:
            handle.write(frame_blob(STAGE_COMPILE, payload))

        fresh = ArtifactCache(directory=str(tmp_path))
        report = _run(fresh)
        assert fresh.corrupt == {STAGE_COMPILE: 1}
        assert fresh.misses == {STAGE_COMPILE: 1}
        assert os.path.exists(path + ".corrupt")
        for field in REPORT_FIELDS:
            assert getattr(report, field) == getattr(cold_report, field)

    def test_snapshot_merges_corrupt_counter(self, tmp_path):
        from repro.jrpm.cache import diff_stats, merge_stats

        cache = ArtifactCache(directory=str(tmp_path))
        _run(cache)
        path = _stage_blobs(str(tmp_path), STAGE_COMPILE)[0]
        os.truncate(path, 10)
        fresh = ArtifactCache(directory=str(tmp_path))
        before = fresh.snapshot()
        _run(fresh)
        delta = diff_stats(fresh.snapshot(), before)
        assert delta[STAGE_COMPILE]["corrupt"] == 1
        merged = merge_stats({}, delta)
        merged = merge_stats(merged, delta)
        assert merged[STAGE_COMPILE]["corrupt"] == 2
        assert "corrupt" in fresh.render()

    def test_ledger_logs_every_counter(self, tmp_path):
        """The ledger reads back as the cache's own counters; a line
        cut short by a worker's death is not counted."""
        from repro.jrpm.cache import read_ledger

        cache = ArtifactCache(directory=str(tmp_path / "cache"))
        cache.ledger = str(tmp_path / "run.ledger")
        _run(cache)
        path = _stage_blobs(str(tmp_path / "cache"), STAGE_COMPILE)[0]
        os.truncate(path, 10)
        fresh = ArtifactCache(directory=str(tmp_path / "cache"))
        fresh.ledger = cache.ledger
        _run(fresh)
        want = merge_stats(cache.snapshot(), fresh.snapshot())
        assert read_ledger(cache.ledger) == want
        with open(cache.ledger, "a") as handle:
            handle.write("hits prof")
        assert read_ledger(cache.ledger) == want
        assert read_ledger(str(tmp_path / "missing.ledger")) == {}

    def test_concurrent_writers_never_tear_a_blob(self, tmp_path):
        # regression: the tmp suffix used to be pid-only, so two
        # threads in one process could collide mid-write
        import threading

        cache = ArtifactCache(directory=str(tmp_path))
        value = list(range(2048))
        errors = []

        def hammer():
            try:
                for _ in range(25):
                    cache.store("compile", "samekey", value)
            except Exception as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert not [n for n in os.listdir(str(tmp_path)) if ".tmp." in n]
        fresh = ArtifactCache(directory=str(tmp_path))
        hit, got = fresh.fetch("compile", "samekey")
        assert hit and got == value


def _count_fetches(cache):
    """Record the stage of every ``cache.fetch`` call, in order."""
    fetched = []
    real = cache.fetch

    def fetch(stage, key):
        fetched.append(stage)
        return real(stage, key)

    cache.fetch = fetch
    return fetched


class TestLazyRecording:
    """The recording is its own artifact, read only by a replay that
    must build a plan (or by a caller of ``report.recording``), and the
    annotate artifact only by a profile miss."""

    def test_warm_op_with_memoised_plans_reads_only_what_it_needs(self):
        baseline = _run(name="Huffman", models="all")
        cache = ArtifactCache()
        _run(cache, "Huffman", models="all")
        fetched = _count_fetches(cache)
        warm = _run(cache, "Huffman", models="all")
        assert fetched == [STAGE_COMPILE, STAGE_SEQUENTIAL, STAGE_PROFILE]
        assert warm.engine.stats.misses["classify"] == 0
        # the recording still loads on access, once, and is the one
        # the profile was taken with
        assert recording_digest(warm.recording) == \
            recording_digest(baseline.recording)
        assert warm.engine.recording is warm.recording
        assert fetched[3:] == [STAGE_RECORDING]

    def test_plan_miss_fetches_the_recording_once(self):
        # the load-buffer associativity is no profile key field but is
        # a plan key field: the profile hits and every plan misses
        cache = ArtifactCache()
        _run(cache, "Huffman")
        fetched = _count_fetches(cache)
        report = _run(cache, "Huffman",
                      config=HydraConfig(load_buffer_assoc=1))
        assert report.engine.stats.misses["classify"] > 0
        assert fetched == [STAGE_COMPILE, STAGE_SEQUENTIAL,
                           STAGE_PROFILE, STAGE_RECORDING]
        assert report.recording is report.engine.recording
        assert fetched.count(STAGE_RECORDING) == 1

    def test_truncated_recording_blob_reprofiles(self, tmp_path):
        """A profile hit whose recording blob is torn, under a plan
        miss: the blob is quarantined, the profiled stage re-runs and
        stores both artifacts, and the replay equals a cold run's."""
        baseline = _run(name="Huffman")
        cache_dir = str(tmp_path)
        _run(ArtifactCache(cache_dir), "Huffman")
        assert truncate_stage_blobs(cache_dir, STAGE_RECORDING) == 1
        path = _stage_blobs(cache_dir, STAGE_RECORDING)[0]

        fresh = ArtifactCache(cache_dir)  # no plans in memory
        report = _run(fresh, "Huffman")
        assert fresh.hits[STAGE_PROFILE] == 1
        assert fresh.corrupt == {STAGE_RECORDING: 1}
        assert fresh.misses == {STAGE_RECORDING: 1}
        assert fresh.hits[STAGE_ANNOTATE] == 1  # the re-profile's
        assert os.path.exists(path + ".corrupt")
        assert blob_stage(path) == STAGE_RECORDING  # re-stored
        assert {lid: vars(r) for lid, r in report.tls_results.items()} \
            == {lid: vars(r) for lid, r in baseline.tls_results.items()}
        assert recording_digest(report.recording) == \
            recording_digest(baseline.recording)
        # the next new instance hits both artifacts again
        again = ArtifactCache(cache_dir)
        _run(again, "Huffman")
        assert again.miss_count == 0 and again.hits[STAGE_RECORDING] == 1

    def test_old_format_profile_blob_is_never_served(self, key_parts):
        """A profile blob stored under the "art4" key (the 3-tuple with
        the recording inside) must miss, never be unpacked."""
        filled = ArtifactCache()
        cold = _run(filled)
        warm = _serve_under_old_tag(
            filled, STAGE_PROFILE, key_parts[STAGE_PROFILE][-1], "art4",
            (cold.profiled, cold.device, cold.recording))
        for field in REPORT_FIELDS:
            assert getattr(warm, field) == getattr(cold, field), field


@pytest.fixture
def key_parts(monkeypatch):
    """The key components of every cache key the pipeline computes, per
    stage, in order."""
    parts = {}
    real_key = pipeline.cache_key

    def spy(stage, *key_parts):
        parts.setdefault(stage, []).append(key_parts)
        return real_key(stage, *key_parts)

    monkeypatch.setattr(pipeline, "cache_key", spy)
    return parts


def _serve_under_old_tag(filled, stage, parts, old_tag, old_value):
    """Run IDEA on a cache holding what ``filled`` holds, except that
    ``stage``'s blob is ``old_value`` under the key with the format tag
    ``old_tag``; that stage alone must miss."""
    assert parts[-1] != old_tag
    new_key = cache_key(stage, *parts)
    stale = ArtifactCache()
    stale._blobs = {key: blob for key, blob in filled._blobs.items()
                    if key != new_key}
    stale.store(stage, cache_key(stage, *parts[:-1], old_tag), old_value)
    warm = _run(stale)
    assert stale.misses == {stage: 1}
    return warm


class _ConstructorAudit(pickle.Unpickler):
    """Counts the ``Instr`` objects a stream builds by calling the
    constructor; NEWOBJ would build them without it."""

    def __init__(self, blob):
        super().__init__(io.BytesIO(blob))
        self.constructed = 0

    def find_class(self, module, name):
        cls = super().find_class(module, name)
        if cls is not Instr:
            return cls
        audit = self

        class CountedInstr(Instr):
            __slots__ = ()

            def __init__(self, *args):
                audit.constructed += 1
                super().__init__(*args)

        return CountedInstr


class TestCompileArtifactShape:
    """Every warm op unpickles the compile artifact: it carries no CFG,
    and each instruction loads as one constructor call."""

    def test_blob_names_no_cfg_class_and_builds_instrs_by_constructor(
            self, key_parts):
        cache = ArtifactCache()
        _run(cache, "Huffman")
        blob = cache._blobs[cache_key(STAGE_COMPILE,
                                      *key_parts[STAGE_COMPILE][-1])]
        strings = {arg for _, arg, _ in pickletools.genops(blob)
                   if isinstance(arg, str)}
        assert "repro.cfg.natural_loops" in strings
        assert not any(s.startswith("repro.cfg.graph") for s in strings)
        audit = _ConstructorAudit(blob)
        program = audit.load()[0]
        assert audit.constructed == program.total_instructions() > 0

    def test_old_format_compile_blob_is_never_served(self, key_parts):
        """A compile blob stored under the "c3" key (a candidate table
        that still carries its CFGs) must miss, never be unpacked."""
        filled = ArtifactCache()
        cold = _run(filled)
        warm = _serve_under_old_tag(
            filled, STAGE_COMPILE, key_parts[STAGE_COMPILE][-1], "c3",
            (cold.program, cold.candidates, cold.optimize_stats))
        for field in REPORT_FIELDS:
            assert getattr(warm, field) == getattr(cold, field), field


#: Table 1 geometries for the plan memo: ``direct`` differs from the
#: default in the load-buffer associativity only, which is no profile
#: key field, so it shares the default profile and its plan memo (and
#: overflows where the default does not)
PLAN_GEOMETRIES = {
    "default": HydraConfig(),
    "small": HydraConfig(n_cpus=2, load_buffer_lines=16,
                         store_buffer_lines=4,
                         violation_restart_overhead=20),
    "direct": HydraConfig(load_buffer_assoc=1),
}


class TestReplayPlanMemo:
    """The replay plans a cache keeps next to a profile blob change only
    wall-clock, and live only as long as that blob in this process."""

    def test_served_replays_equal_fresh_cache_replays(self, monkeypatch):
        shared = ArtifactCache()
        plan_hits = 0
        served_tls = {}
        for sync in (False, True):
            # stage 4 of the pipeline compiles with synchronize_heap
            monkeypatch.setattr(
                pipeline, "compile_stl",
                lambda cand, config, sync=sync: compile_stl(
                    cand, config, synchronize_heap=sync))
            for geometry, config in PLAN_GEOMETRIES.items():
                for model in ("hydra-tls", "doacross"):
                    served = _run(shared, "Huffman", config=config,
                                  models=model)
                    fresh = _run(ArtifactCache(), "Huffman",
                                 config=config, models=model)
                    results = {lid: vars(r) for lid, r
                               in served.tls_results.items()}
                    assert results, (geometry, model)
                    assert results == {
                        lid: vars(r)
                        for lid, r in fresh.tls_results.items()}, (
                            sync, geometry, model)
                    plan_hits += served.engine.stats.hits["classify"]
                    if model == "hydra-tls":
                        served_tls[sync, geometry] = results
        assert plan_hits > 0
        # the memo told the geometries sharing a profile apart
        assert served_tls[False, "direct"] != served_tls[False, "default"]

    def test_pickled_cache_carries_no_plans(self):
        cache = ArtifactCache()
        cache.store(STAGE_PROFILE, "k", [1])
        cache.plans("k")["plan"] = object()
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.plans("k") == {}
        assert clone.fetch(STAGE_PROFILE, "k") == (True, [1])
        assert "plan" in cache.plans("k")

    def test_quarantined_profile_drops_its_plans(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        ArtifactCache(cache_dir).store(STAGE_PROFILE, "k", [1])
        cache = ArtifactCache(cache_dir)
        cache.plans("k")["plan"] = object()
        truncate_stage_blobs(cache_dir, STAGE_PROFILE)
        assert cache.fetch(STAGE_PROFILE, "k") == (False, None)
        assert cache.corrupt[STAGE_PROFILE] == 1
        assert cache.plans("k") == {}
