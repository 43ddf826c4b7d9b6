"""Unit tests for the execution-model subsystem: the registry, the
live-in predictor, the DOACROSS simulator/estimator, the selector's
multi-model argmax, and the hydra-tls default."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hydra import HydraConfig
from repro.jit.speculative import STLCompilation
from repro.jrpm import Jrpm
from repro.jrpm.report import report_json
from repro.models import (
    DEFAULT_MODEL,
    get_model,
    model_names,
    register_model,
    resolve_models,
)
from repro.models.base import SpeculationModel
from repro.models.doacross import DoacrossResult, estimate_doacross
from repro.tls.predictor import LiveInPredictor
from repro.runtime.events import local_address

from tests.conftest import columnar_entry as entry, replay

CONFIG = HydraConfig()

#: a valid local-variable address (frame 0, slot 3) — local events with
#: unencoded addresses are dropped by the classification kernel
LOCAL = local_address(0, 3)


def dummy_compilation(config=None):
    """An STLCompilation with no eliminations (hand-built traces)."""

    class _Cand:
        loop_id = 0

        class scalar:
            inductors = []
            reductions = []
            classes = {}
            carried = []

    return STLCompilation(_Cand(), config or CONFIG)


# ---------------------------------------------------------------------------
# registry


class TestRegistry:
    def test_canonical_order(self):
        assert model_names() == ["sequential", "hydra-tls", "doacross"]

    def test_get_model_roundtrip(self):
        for name in model_names():
            assert get_model(name).name == name

    def test_get_model_unknown(self):
        with pytest.raises(KeyError, match="unknown execution model"):
            get_model("openmp")

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_model(get_model(DEFAULT_MODEL))

    def test_register_rejects_anonymous(self):
        with pytest.raises(ValueError, match="non-empty name"):
            register_model(SpeculationModel())

    def test_resolve_none_is_default(self):
        assert resolve_models(None) == (DEFAULT_MODEL,) == ("hydra-tls",)

    def test_resolve_empty_raises(self):
        for spec in ([], "", " , "):
            with pytest.raises(ValueError, match="empty"):
                resolve_models(spec)

    def test_resolve_all(self):
        assert resolve_models("all") == tuple(model_names())

    def test_resolve_list_keeps_order_and_dedupes(self):
        assert resolve_models("doacross, hydra-tls, doacross") \
            == ("doacross", "hydra-tls")

    def test_resolve_unknown_raises(self):
        with pytest.raises(KeyError):
            resolve_models("hydra-tls,warp-speed")


# ---------------------------------------------------------------------------
# live-in predictor


class TestLiveInPredictor:
    def test_cold_table_predicts_nothing(self):
        p = LiveInPredictor()
        assert p.consume(100) is None
        p.observe(100, 10)
        p.observe(100, 10)
        assert p.consume(100) is None
        assert p.predictions == 0
        assert p.trains == 2

    def test_constant_offset_hits_after_warmup(self):
        p = LiveInPredictor()
        for _ in range(4):
            p.observe(100, 10)
        # streak reached CONFIDENCE_THRESHOLD before the 4th store, so
        # exactly that store was predicted — correctly
        assert (p.predictions, p.hits) == (1, 1)
        assert p.consume(100) == "hit"
        assert p.hit_rate == 1.0

    def test_strided_offsets_hit(self):
        p = LiveInPredictor()
        for rel in (0, 5, 10, 15, 20, 25):
            p.observe(100, rel)
        assert p.hits == p.predictions > 0
        assert p.consume(100) == "hit"

    def test_broken_stride_misses(self):
        p = LiveInPredictor()
        for _ in range(4):
            p.observe(100, 10)
        p.observe(100, 17)  # confident, wrong
        assert p.consume(100) == "miss"
        assert p.mispredictions == 1
        assert p.predictions == 2

    def test_irregular_offsets_never_confident(self):
        p = LiveInPredictor()
        for rel in (3, 4, 6, 9, 13, 18):  # stride keeps changing
            p.observe(100, rel)
        assert p.predictions == 0
        assert p.hit_rate == 0.0

    def test_addresses_are_independent(self):
        p = LiveInPredictor()
        for _ in range(4):
            p.observe(100, 10)
            p.observe(200, 99)
        assert p.consume(100) == "hit"
        assert p.consume(200) == "hit"
        assert p.consume(300) is None


class StrideStreakOracle:
    """The stride/streak state machine the history-based predictor
    replaced, kept as its oracle: per address ``[last offset, stride,
    streak, outcome]``; a store is predicted once two consecutive
    strides agreed, and graded when it arrives."""

    def __init__(self):
        self.table = {}
        self.trains = self.predictions = self.hits = 0

    def observe(self, addr, rel):
        self.trains += 1
        entry = self.table.get(addr)
        if entry is None:
            self.table[addr] = [rel, None, 0, None]
            return
        last_rel, stride, streak, _ = entry
        new_stride = rel - last_rel
        if stride is None:
            self.table[addr] = [rel, new_stride, 1, None]
            return
        correct = new_stride == stride
        outcome = None
        if streak >= 2:
            self.predictions += 1
            self.hits += correct
            outcome = "hit" if correct else "miss"
        self.table[addr] = ([rel, stride, streak + 1, outcome] if correct
                            else [rel, new_stride, 1, outcome])

    def consume(self, addr):
        entry = self.table.get(addr)
        return None if entry is None else entry[3]


#: one predictor step: ("observe", addr, rel) or ("consume", addr, None);
#: few addresses and small offsets, so equal strides are common
_STEPS = st.lists(st.one_of(
    st.tuples(st.just("observe"), st.integers(0, 3),
              st.integers(0, 12)),
    st.tuples(st.just("consume"), st.integers(0, 4), st.none())),
    max_size=80)


class TestPredictorMatchesStateMachine:
    @settings(max_examples=200, deadline=None)
    @given(_STEPS)
    def test_random_interleavings(self, steps):
        oracle, predictor = StrideStreakOracle(), LiveInPredictor()
        for op, addr, rel in steps:
            if op == "observe":
                oracle.observe(addr, rel)
                predictor.observe(addr, rel)
            else:
                assert predictor.consume(addr) == oracle.consume(addr)
        assert predictor.trains == oracle.trains
        assert predictor.predictions == oracle.predictions
        assert predictor.hits == oracle.hits
        assert predictor.mispredictions == (oracle.predictions
                                            - oracle.hits)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=40))
    def test_strided_runs(self, strides):
        """Long constant-stride runs with occasional breaks: the
        pattern the predictor exists for."""
        oracle, predictor = StrideStreakOracle(), LiveInPredictor()
        rel = 0
        for stride in strides:
            for _ in range(stride % 4 + 1):
                rel += stride
                oracle.observe(7, rel)
                predictor.observe(7, rel)
                assert predictor.consume(7) == oracle.consume(7)
        assert (predictor.predictions, predictor.hits) == (
            oracle.predictions, oracle.hits)


# ---------------------------------------------------------------------------
# DOACROSS trace simulator


def _arcless_entry(n=4, size=100):
    return entry([(size, []) for _ in range(n)])


class TestDoacrossSimulator:
    def test_arcless_entry_runs_parallel(self):
        comp = dummy_compilation()
        res = replay([_arcless_entry()], comp, CONFIG, post_wait=True)
        assert isinstance(res, DoacrossResult)
        assert res.model == "doacross"
        assert (res.posts, res.predictions, res.violations) == (0, 0, 0)
        assert res.overflows == 0
        assert res.speedup > 1.5
        assert res.invariant_errors(CONFIG) == []

    def test_heap_arc_posts_and_waits(self):
        comp = dummy_compilation()
        free = replay([_arcless_entry(2, 100)], comp, CONFIG, post_wait=True)
        # thread 0 stores the heap address late, thread 1 loads it
        # early: the consumer must wait for the post
        arc = entry([(100, [(90, "st", 4096)]),
                     (100, [(2, "ld", 4096)])])
        synced = replay([arc], comp, CONFIG, post_wait=True)
        assert synced.posts == 1
        assert synced.predictions == 0
        assert synced.parallel_cycles > free.parallel_cycles
        assert synced.invariant_errors(CONFIG) == []

    def test_predictable_local_arc_skips_waits(self):
        comp = dummy_compilation()
        # every iteration stores a local live-in at the same relative
        # offset and the next one loads it: a constant-stride pattern
        # the predictor covers once warm
        threads = [(50, [(1, "lld", LOCAL), (40, "lst", LOCAL)])
                   for _ in range(10)]
        res = replay([entry(threads)], comp, CONFIG, post_wait=True)
        # threads 1-3 consume unwarmed stores (posts); from thread 4 on
        # every load rides a correct prediction
        assert res.posts == 3
        assert res.predictions == 6
        assert res.predicted_hits == 6
        assert res.violations == 0
        assert res.prediction_hit_rate == 1.0
        assert res.invariant_errors(CONFIG) == []

    def test_misprediction_charges_restart(self):
        comp = dummy_compilation()
        # constant offset long enough to go confident, then one thread
        # stores at a different offset: its consumer pays the restart
        threads = [(50, [(1, "lld", LOCAL), (40, "lst", LOCAL)])
                   for _ in range(5)]
        threads.append((50, [(1, "lld", LOCAL), (45, "lst", LOCAL)]))
        threads.append((50, [(1, "lld", LOCAL), (45, "lst", LOCAL)]))
        res = replay([entry(threads)], comp, CONFIG, post_wait=True)
        assert res.violations >= 1
        assert res.violations == res.predictions - res.predicted_hits
        assert res.invariant_errors(CONFIG) == []

    def test_never_overflows(self):
        comp = dummy_compilation()
        # far more distinct heap stores per thread than the store
        # buffer holds: TLS would stall, DOACROSS commits as it goes
        cfg = HydraConfig(store_buffer_lines=2)
        threads = [(200, [(i, "st", 8192 + 64 * i) for i in range(64)])
                   for _ in range(4)]
        res = replay([entry(threads)], comp, cfg, post_wait=True)
        assert res.overflows == 0
        assert res.invariant_errors(cfg) == []

    def test_deterministic(self):
        comp = dummy_compilation()
        threads = [(50, [(1, "lld", LOCAL), (10, "ld", 4096),
                         (40, "lst", LOCAL), (45, "st", 4096)])
                   for _ in range(8)]
        entries = [entry(threads), entry(threads[:3])]
        a = replay(entries, comp, CONFIG, post_wait=True)
        b = replay(entries, comp, CONFIG, post_wait=True)
        assert (a.parallel_cycles, a.posts, a.predictions,
                a.predicted_hits, a.violations) \
            == (b.parallel_cycles, b.posts, b.predictions,
                b.predicted_hits, b.violations)

    def test_predictor_warms_across_entries(self):
        comp = dummy_compilation()
        # one shared predictor per STL: entry 2 starts confident from
        # entry 1's training, so it posts less and predicts more
        threads = [(50, [(1, "lld", LOCAL), (40, "lst", LOCAL)])
                   for _ in range(6)]
        one = replay([entry(threads)], comp, CONFIG, post_wait=True)
        two = replay([entry(threads)] * 2, comp, CONFIG, post_wait=True)
        assert two.predictions > 2 * one.predictions - 1
        assert two.posts < 2 * one.posts


# ---------------------------------------------------------------------------
# DOACROSS analytic estimate + multi-model pipeline behaviour


@pytest.fixture(scope="module")
def models_report(nest_program):
    return Jrpm(program=nest_program, name="nest",
                models="all").run(simulate_tls=True)


class TestDoacrossEstimate:
    def test_estimate_shape_on_real_stats(self, models_report):
        for dec in models_report.selection.decisions.values():
            est = estimate_doacross(dec.stats, CONFIG)
            assert est.overflow_freq == 0.0
            assert 1.0 <= est.speedup <= CONFIG.n_cpus + 1e-9
            assert est.spec_time > 0
            assert est.orig_time == dec.stats.cycles
            assert 0.0 <= est.predicted_arc_share <= 1.0

    def test_unprofiled_stats_estimate_unity(self, models_report):
        dec = next(iter(models_report.selection.decisions.values()))

        class _Empty:
            loop_id = dec.stats.loop_id
            cycles = 0
            threads = 0
            profiled_threads = 0

        est = estimate_doacross(_Empty(), CONFIG)
        assert est.speedup == 1.0
        assert est.base_speedup == 1.0


class TestSelectorArgmax:
    def test_every_decision_is_argmax(self, models_report):
        order = model_names()
        for dec in models_report.selection.decisions.values():
            ests = dec.model_estimates
            assert set(ests) == set(order)
            best = max(e.speedup for e in ests.values())
            assert ests[dec.model].speedup == best
            # ties break toward the earlier-registered model
            tied = [n for n in order
                    if ests[n].speedup == best]
            assert dec.model == tied[0]

    def test_selected_loops_simulate_their_winner(self, models_report):
        for sel in models_report.selection.selected:
            res = models_report.tls_results[sel.loop_id]
            model = getattr(res, "model", "hydra-tls")
            assert model == sel.model

    def test_report_models_block(self, models_report):
        data = json.loads(report_json(models_report))
        block = data["models"]
        assert block["requested"] == model_names()
        # every decided loop is counted: unselected ones as sequential
        counts = block["selected_counts"]
        assert sum(counts.values()) \
            == len(models_report.selection.decisions)
        speculative = sum(c for m, c in counts.items()
                          if m != "sequential")
        assert speculative == len(models_report.selection.selected)
        for row in block["per_loop"]:
            assert row["model"] in row["estimates"]


class TestDefaultModel:
    def test_default_report_is_hydra_tls(self, nest_program):
        report = Jrpm(program=nest_program,
                      name="nest").run(simulate_tls=True)
        assert report.selection.models == ("hydra-tls",)
        data = json.loads(report_json(report))
        assert data["models"]["requested"] == ["hydra-tls"]
        for row in data["selection"]["selected"]:
            assert row["model"] == "hydra-tls"
        for row in data["models"]["per_loop"]:
            assert row["model"] == "hydra-tls"
            assert list(row["estimates"]) == ["hydra-tls"]
