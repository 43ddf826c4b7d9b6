"""Report JSON round-trip and schema-stability tests.

Every bundled workload's selection table must survive
serialize -> parse -> validate through the one shared serializer
(``report_to_dict``/``dumps_canonical``), and the parsed dict must
match :data:`REPORT_SCHEMA` exactly — the same check the service
handler runs on every 200 response, so a schema drift breaks these
tests before it breaks a client.
"""

from __future__ import annotations

import json

import pytest

from repro.jrpm import (
    Jrpm,
    REPORT_SCHEMA_VERSION,
    ReportSchemaError,
    dumps_canonical,
    fleet_to_dict,
    report_json,
    report_to_dict,
    run_fleet,
    validate_report_dict,
)
from repro.jrpm.report import (
    CHARACTERISTICS_SCHEMA,
    REPORT_SCHEMA,
    SELECTION_ROW_SCHEMA,
    characteristics,
    render_characteristics_row,
)
from repro.workloads import all_workloads, get_workload, workload_names

#: workloads that additionally run the full TLS simulation (slow), so
#: the nullable predicted_vs_actual/engine branches are exercised too
TLS_SAMPLE = ("Huffman", "BitOps")


def _report(name: str, simulate_tls: bool = False):
    w = get_workload(name)
    return Jrpm(source=w.source(), name=w.name).run(
        simulate_tls=simulate_tls)


# ---------------------------------------------------------------------------
# round-trip: every bundled workload's selection table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", workload_names())
def test_workload_report_round_trips(name):
    report = _report(name)
    parsed = json.loads(report_json(report))
    validate_report_dict(parsed)
    assert parsed["name"] == name
    assert parsed["schema_version"] == REPORT_SCHEMA_VERSION
    # the selection table survives the trip row for row
    direct = report_to_dict(report)
    assert parsed["selection"] == direct["selection"]
    sel = parsed["selection"]
    assert sel["total_cycles"] >= sel["serial_cycles"] >= 0
    for row in sel["selected"]:
        assert set(row) == set(SELECTION_ROW_SCHEMA)
        assert 0.0 <= row["coverage"] <= 1.0
        assert row["cycles"] <= sel["total_cycles"]
    # profile-only runs leave the nullable branches null
    assert parsed["actual_speedup"] is None
    assert parsed["predicted_vs_actual"] is None


@pytest.mark.parametrize("name", TLS_SAMPLE)
def test_tls_report_round_trips(name):
    report = _report(name, simulate_tls=True)
    parsed = json.loads(report_json(report))
    validate_report_dict(parsed)
    pva = parsed["predicted_vs_actual"]
    assert pva is not None
    for key in ("predicted_normalized_time", "actual_normalized_time",
                "rows"):
        assert key in pva
    for row in pva["rows"]:
        assert set(row) == {"loop_id", "cycles", "predicted_speedup",
                            "actual_speedup", "violations_per_thread",
                            "model"}
        assert row["model"] == "hydra-tls"
    # engine counters serialize without the nondeterministic wall clock
    if parsed["engine"] is not None:
        for counters in parsed["engine"].values():
            assert "seconds" not in counters


def test_serialization_is_deterministic():
    """Two serializations of the same run are byte-identical, and two
    independent runs of the same workload are too (the contract behind
    byte-identical CLI and service output)."""
    a = _report("Huffman", simulate_tls=True)
    b = _report("Huffman", simulate_tls=True)
    assert report_json(a) == report_json(a)
    assert report_json(a) == report_json(b)


# ---------------------------------------------------------------------------
# schema stability: the shape clients (and the service) pin against
# ---------------------------------------------------------------------------

class TestSchemaStability:
    def test_schema_version_is_pinned(self):
        # v6: the top-level "characteristics" block (Table 6 columns)
        assert REPORT_SCHEMA_VERSION == 6

    def test_top_level_keys_are_frozen(self):
        # adding or removing a key is a schema-version bump, not a drift
        assert set(REPORT_SCHEMA) == {
            "schema_version", "name", "sequential_cycles",
            "profiled_cycles", "profiling_slowdown", "loops_profiled",
            "coverage", "predicted_speedup", "actual_speedup",
            "selection", "predicted_vs_actual", "engine", "trace_jit",
            "optimize_stats", "models", "characteristics",
        }

    def test_optimize_stats_block_is_nullable(self):
        # optimizer off: null; on: the per-pass counter dict
        plain = report_to_dict(_report("BitOps"))
        assert plain["optimize_stats"] is None
        validate_report_dict(plain)
        w = get_workload("BitOps")
        report = Jrpm(source=w.source(), name=w.name,
                      optimize=True).run(simulate_tls=False)
        data = report_to_dict(report)
        stats = data["optimize_stats"]
        assert isinstance(stats, dict)
        assert stats["rounds"] >= 1
        assert stats["total"] == sum(
            v for k, v in stats.items() if k not in ("rounds", "total"))
        validate_report_dict(data)

    def test_selection_row_keys_are_frozen(self):
        assert set(SELECTION_ROW_SCHEMA) == {
            "loop_id", "cycles", "coverage", "entries", "threads",
            "avg_iters_per_entry", "avg_thread_size",
            "predicted_speedup", "model",
        }

    def test_characteristics_keys_are_frozen(self):
        assert set(CHARACTERISTICS_SCHEMA) == {
            "loop_count", "dynamic_depth", "selected_count",
            "avg_selected_height", "threads_per_entry", "thread_size",
        }

    def test_characteristics_block_is_the_table6_row(self):
        report = _report("IDEA")
        data = report_to_dict(report)
        assert data["characteristics"] == characteristics(report)
        assert set(data["characteristics"]) == set(CHARACTERISTICS_SCHEMA)
        columns = data["characteristics"]
        assert columns["loop_count"] == report.candidates.loop_count
        assert columns["selected_count"] \
            == len(report.selection.significant())
        assert "loops=%-4d" % columns["loop_count"] \
            in render_characteristics_row(report)

    def test_validator_rejects_bad_characteristics(self):
        data = report_to_dict(_report("BitOps"))
        del data["characteristics"]["thread_size"]
        with pytest.raises(ReportSchemaError,
                           match="characteristics: missing key"):
            validate_report_dict(data)
        data = report_to_dict(_report("BitOps"))
        data["characteristics"]["loop_count"] = 1.5
        with pytest.raises(ReportSchemaError,
                           match="characteristics: key 'loop_count'"):
            validate_report_dict(data)

    def test_models_block_is_always_filled(self):
        # default runs: hydra-tls alone; multi-model runs: every model
        plain = report_to_dict(_report("BitOps"))
        assert plain["models"]["requested"] == ["hydra-tls"]
        validate_report_dict(plain)
        plain["models"] = None
        with pytest.raises(ReportSchemaError, match="'models'"):
            validate_report_dict(plain)
        w = get_workload("BitOps")
        report = Jrpm(source=w.source(), name=w.name,
                      models="all").run(simulate_tls=True)
        data = report_to_dict(report)
        block = data["models"]
        assert block["requested"] == ["sequential", "hydra-tls",
                                      "doacross"]
        assert block["per_loop"], "BitOps profiles loops"
        for row in block["per_loop"]:
            assert set(row) == {"loop_id", "model", "selected",
                                "estimates"}
            assert set(row["estimates"]) == set(block["requested"])
        for row in data["selection"]["selected"]:
            assert row["model"] in block["requested"]
        for row in data["predicted_vs_actual"]["rows"]:
            assert row["model"] in block["requested"]
        validate_report_dict(data)

    def test_validator_rejects_missing_key(self):
        data = report_to_dict(_report("BitOps"))
        del data["coverage"]
        with pytest.raises(ReportSchemaError, match="missing key"):
            validate_report_dict(data)

    def test_validator_rejects_unexpected_key(self):
        data = report_to_dict(_report("BitOps"))
        data["surprise"] = 1
        with pytest.raises(ReportSchemaError, match="unexpected key"):
            validate_report_dict(data)

    def test_validator_rejects_wrong_type(self):
        data = report_to_dict(_report("BitOps"))
        data["sequential_cycles"] = "12"
        with pytest.raises(ReportSchemaError, match="has type"):
            validate_report_dict(data)

    def test_validator_rejects_bool_masquerading_as_int(self):
        data = report_to_dict(_report("BitOps"))
        data["loops_profiled"] = True
        with pytest.raises(ReportSchemaError, match="has type"):
            validate_report_dict(data)

    def test_validator_rejects_version_drift(self):
        data = report_to_dict(_report("BitOps"))
        data["schema_version"] = REPORT_SCHEMA_VERSION + 1
        with pytest.raises(ReportSchemaError, match="schema_version"):
            validate_report_dict(data)

    def test_validator_rejects_bad_selection_row(self):
        data = report_to_dict(_report("Huffman"))
        assert data["selection"]["selected"], "Huffman selects STLs"
        del data["selection"]["selected"][0]["threads"]
        with pytest.raises(ReportSchemaError, match="selected\\[0\\]"):
            validate_report_dict(data)

    def test_validator_reports_every_problem(self):
        with pytest.raises(ReportSchemaError) as exc:
            validate_report_dict({"schema_version": 1})
        message = str(exc.value)
        for key in REPORT_SCHEMA:
            if key != "schema_version":
                assert key in message


# ---------------------------------------------------------------------------
# canonical encoding: the byte-level contract
# ---------------------------------------------------------------------------

class TestCanonicalEncoding:
    def test_sorted_keys_and_fixed_separators(self):
        text = dumps_canonical({"b": 1, "a": {"d": 2, "c": 3}})
        assert text.index('"a"') < text.index('"b"')
        assert text.index('"c"') < text.index('"d"')
        assert ", " not in text.replace(",\n ", "")

    def test_nan_is_rejected_not_emitted(self):
        with pytest.raises(ValueError):
            dumps_canonical({"x": float("nan")})

    def test_report_nan_becomes_null_before_encoding(self):
        # _finite() maps NaN/inf to None so canonical dumps never trip
        report = _report("Huffman", simulate_tls=True)
        text = report_json(report)
        assert "NaN" not in text and "Infinity" not in text
        json.loads(text)  # strict parse succeeds


# ---------------------------------------------------------------------------
# fleet serialization uses the same per-report serializer
# ---------------------------------------------------------------------------

def test_fleet_to_dict_embeds_canonical_reports():
    names = ("BitOps", "Huffman")
    result = run_fleet([get_workload(n) for n in names],
                       simulate_tls=False)
    data = fleet_to_dict(result, elapsed=1.25, jobs=1)
    assert data["schema_version"] == REPORT_SCHEMA_VERSION
    assert data["elapsed_s"] == 1.25 and data["jobs"] == 1
    assert [row["workload"] for row in data["rows"]] == list(names)
    for row in data["rows"]:
        assert row["ok"]
        validate_report_dict(row["report"])
    # the embedded dicts are exactly what jrpm run --json would emit
    for name, row in zip(names, data["rows"]):
        assert dumps_canonical(row["report"]) == report_json(
            _report(name))
    # aggregates are JSON-clean (no NaN leaks through the canonical dump)
    dumps_canonical(data)


def test_every_workload_is_registered_for_round_trip_coverage():
    # the parametrized round-trip above must cover all 26 Table 6 rows
    assert len(all_workloads()) == 26
