"""Tests for the differential conformance subsystem: shrinker, six-path
invariant checker, estimator-vs-simulator oracle, and fuzz campaigns."""

import json
import os

import pytest

from repro.conformance import (
    ConformanceViolation,
    check_monotonic,
    check_source,
    replay_seed,
    run_campaign,
    run_oracle,
    shrink_source,
)
from repro.conformance.campaign import fuzz_workloads
from repro.conformance.invariants import KIND_CRASH, KIND_SPLIT
from repro.conformance.oracle import (
    DEFAULT_ERROR_BOUND,
    KNOWN_WINNER_MISMATCHES,
    conformance_row,
)
from repro.fuzz import generate_program
from repro.hydra import HydraConfig
from repro.lang import compile_source
from repro.tls.simulator import TLSResult
from repro.tracer.stats import STLStats
from repro.workloads import get_workload

from tests.conftest import NEST_SOURCE

# ------------------------------------------------------------- shrinker


def _compiles(source):
    try:
        compile_source(source)
        return True
    except Exception:
        return False


class TestShrinker:
    def test_requires_failing_input(self):
        with pytest.raises(ValueError):
            shrink_source("func main() { return 0; }", lambda s: False)

    def test_result_still_satisfies_predicate(self, fuzz_seed):
        source = generate_program(fuzz_seed)
        predicate = lambda s: _compiles(s) and "arr0" in s  # noqa: E731
        small = shrink_source(source, predicate)
        assert predicate(small)

    def test_shrinks_injected_failure_to_tiny_repro(self, fuzz_seed):
        """The acceptance bar: a synthetic failure matching the seed
        variable shrinks to a handful of lines, not a whole program."""
        source = generate_program(fuzz_seed)
        assert len(source.splitlines()) > 15

        def predicate(s):
            return _compiles(s) and "s1" in s

        small = shrink_source(source, predicate)
        assert len(small.splitlines()) <= 15
        assert predicate(small)

    def test_raising_predicate_is_contained_by_campaign(self):
        """shrink_source itself treats only True as progress; the
        campaign predicate never raises (compile errors -> False)."""
        calls = []

        def predicate(s):
            calls.append(s)
            return "for" in s

        source = "func main() {\n  for (var i = 0; i < 3; i = i + 1) {" \
                 "\n    var x = 1;\n  }\n  return 0;\n}"
        small = shrink_source(source, predicate)
        assert "for" in small
        assert len(small.splitlines()) <= len(source.splitlines())


# ----------------------------------------------------------- invariants


class TestInvariantChecks:
    def test_clean_seed_passes_all_paths(self, fuzz_seed):
        outcome = replay_seed(fuzz_seed)
        assert isinstance(outcome.return_value, int)
        assert outcome.annotated_cycles >= outcome.fast_cycles
        assert outcome.n_loops >= 1

    def test_check_monotonic(self):
        assert check_monotonic([1, 2, 2, 5]) is None
        assert check_monotonic([]) is None
        assert check_monotonic([3, 4, 2, 9]) == 2

    def test_violation_carries_kind_and_seed(self):
        exc = ConformanceViolation("tls-bounds", "boom", seed=7)
        assert exc.kind == "tls-bounds"
        assert exc.seed == 7
        assert "seed 7" in str(exc) and "tls-bounds" in str(exc)

    def test_stats_invariants_flag_doctored_counters(self):
        stats = STLStats(3)
        stats.entries = 1
        stats.threads = 4
        stats.profiled_entries = 1
        stats.profiled_threads = 4
        stats.cycles = 100
        assert stats.invariant_errors() == []
        stats.arcs_prev = 10  # more arcs than eligible threads
        errs = stats.invariant_errors()
        assert errs and any("arc" in e for e in errs)

    def test_tls_invariants_flag_impossible_speedup(self):
        res = TLSResult(0)
        res.entries = 1
        res.threads = 8
        res.sequential_cycles = 8000
        res.parallel_cycles = 100  # 80x on a 4-CPU machine
        errs = res.invariant_errors(HydraConfig())
        assert errs and any("CPU" in e for e in errs)

    def test_split_reconciled_with_device(self, monkeypatch):
        """Path 3 holds the splitter to the device's loop counts: a
        splitter that drops each entry's exit tail keeps every entry,
        thread and ``total_cycles``, and is still caught."""
        assert check_source(NEST_SOURCE).n_loops == 3
        monkeypatch.setattr(
            "repro.tls.thread_trace._thread_edges",
            lambda bounds, end: bounds[:] if len(bounds) > 1
            else [bounds[0], end])
        with pytest.raises(ConformanceViolation) as exc:
            check_source(NEST_SOURCE)
        assert exc.value.kind == KIND_SPLIT

    def test_generated_programs_verify_strictly(self, fuzz_seed):
        from repro.bytecode import verify_program

        for seed in range(fuzz_seed, fuzz_seed + 5):
            verify_program(compile_source(generate_program(seed)),
                           reject_unreachable=True)


# --------------------------------------------------------------- oracle


class TestOracle:
    @pytest.fixture(scope="class")
    def report(self):
        return run_oracle(workloads=[get_workload("MipsSimulator"),
                                     get_workload("IDEA")])

    def test_rows_in_workload_order(self, report):
        assert [r.name for r in report.rows] == ["MipsSimulator", "IDEA"]
        assert all(r.ok for r in report.rows)

    def test_errors_within_documented_bound(self, report):
        assert report.violations() == []
        assert 0.0 < report.max_error <= DEFAULT_ERROR_BOUND

    def test_winner_agreement(self, report):
        for row in report.rows:
            assert row.winner_match \
                or row.name in KNOWN_WINNER_MISMATCHES

    def test_machine_readable_report(self, report):
        doc = report.to_dict()
        text = json.dumps(doc)  # must be JSON-serializable
        assert "MipsSimulator" in text
        assert doc["violations"] == []
        for w in doc["workloads"]:
            assert set(w) >= {"name", "predicted_speedup",
                              "actual_speedup", "rel_error",
                              "winner_match", "stls"}

    def test_render_mentions_every_workload(self, report):
        text = report.render()
        assert "MipsSimulator" in text and "IDEA" in text
        assert "max error" in text

    def test_failed_pipeline_becomes_violation(self):
        from repro.workloads.registry import Workload

        bad = Workload(name="bad", category="synthetic",
                       description="does not compile",
                       source_text="func main() { return nope; }")
        report = run_oracle(workloads=[bad])
        assert [r.ok for r in report.rows] == [False]
        violations = report.violations()
        assert len(violations) == 1
        assert "bad" in violations[0] and "failed" in violations[0]

    def test_conformance_row_winner_from_savings(self, huffman_report):
        row = conformance_row("huffman-nest", "synthetic",
                              huffman_report)
        assert row.predicted_speedup == \
            huffman_report.predicted_speedup
        assert row.actual_speedup == huffman_report.actual_speedup
        for stl in row.stls:
            assert stl.actual_cycles > 0
            assert stl.rel_error >= 0.0


# ------------------------------------------------------------- campaign


class TestCampaign:
    def test_small_campaign_is_clean(self, fuzz_seed):
        result = run_campaign(count=15, base_seed=fuzz_seed)
        assert result.ok
        assert result.checked == 15
        assert result.failures == []
        assert "15/15 programs clean" in result.render()

    def test_parallel_campaign_matches_serial(self, fuzz_seed):
        serial = run_campaign(count=6, base_seed=fuzz_seed)
        parallel = run_campaign(count=6, base_seed=fuzz_seed, jobs=2)
        assert parallel.ok == serial.ok
        assert [r.name for r in parallel.rows] \
            == [r.name for r in serial.rows]

    def test_seed_rides_in_workload_dataset(self, fuzz_seed):
        fleet = fuzz_workloads(fuzz_seed, 3)
        assert [int(w.dataset) for w in fleet] \
            == [fuzz_seed, fuzz_seed + 1, fuzz_seed + 2]
        assert fleet[0].source() == generate_program(fuzz_seed)

    def test_injected_failure_is_shrunk_and_saved(self, tmp_path,
                                                  fuzz_seed):
        def poisoned(source, seed=None, name="", config=None):
            compile_source(source)  # non-compiling shrinks don't repro
            if "s1" in source:
                raise ConformanceViolation("synthetic-poison",
                                           "s1 present", seed)
            return check_source(source, seed=seed, name=name)

        repro_dir = str(tmp_path / "repros")
        result = run_campaign(count=2, base_seed=fuzz_seed,
                              checker=poisoned, repro_dir=repro_dir)
        assert not result.ok
        assert len(result.failures) == 2
        for failure in result.failures:
            assert failure.kind == "synthetic-poison"
            # the shrinker reduced the program to a tiny repro
            assert failure.shrunk_lines <= 15
            assert "s1" in failure.shrunk
            assert os.path.exists(failure.repro_path)
            text = open(failure.repro_path).read()
            assert "seed: %d" % failure.seed in text
            assert "kind: synthetic-poison" in text
            assert "jrpm conform --fuzz 1 --seed %d" % failure.seed \
                in text

    def test_crashing_checker_classified_by_exception_class(self,
                                                            fuzz_seed):
        def crashing(source, seed=None, name="", config=None):
            compile_source(source)
            raise RuntimeError("kaboom")

        result = run_campaign(count=1, base_seed=fuzz_seed,
                              checker=crashing, shrink=True)
        [failure] = result.failures
        assert failure.kind == KIND_CRASH
        assert failure.crash_class == "RuntimeError"
        # shrinking used the same-class predicate, so the repro still
        # compiles (a parse error would not count as a reproduction)
        assert _compiles(failure.shrunk)

    def test_campaign_report_is_json_serializable(self, fuzz_seed):
        result = run_campaign(count=3, base_seed=fuzz_seed)
        doc = json.loads(json.dumps(result.to_dict()))
        assert doc["count"] == 3
        assert doc["checked"] == 3
        assert doc["failures"] == []
