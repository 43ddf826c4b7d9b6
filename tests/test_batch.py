"""Tests for the fleet/batch API."""

import pytest

from repro.errors import PipelineError
from repro.hydra import HydraConfig
from repro.jrpm.batch import FleetResult, run_fleet
from repro.jrpm.pipeline import Jrpm
from repro.jrpm.report import (
    characteristics,
    render_characteristics_row,
    report_to_dict,
    validate_report_dict,
)
from repro.workloads import get_workload

SAMPLE = ["IDEA", "monteCarlo", "raytrace"]


@pytest.fixture(scope="module")
def fleet():
    return run_fleet([get_workload(n) for n in SAMPLE])


class TestFleet:
    def test_rows_in_order(self, fleet):
        assert [r.name for r in fleet] == SAMPLE
        assert len(fleet) == 3

    def test_lookup_by_name(self, fleet):
        columns = fleet.by_name["IDEA"].report["characteristics"]
        assert columns["loop_count"] >= 2
        assert columns["selected_count"] >= 1
        assert columns["thread_size"] > 0
        assert columns["threads_per_entry"] > 0

    def test_aggregates(self, fleet):
        assert 1.0 < fleet.median_slowdown < 1.5
        assert 0.5 < fleet.geomean_prediction_ratio < 2.0

    def test_render(self, fleet):
        text = fleet.render()
        for name in SAMPLE:
            assert name in text
        assert "Pred" in text and "Actual" in text

    def test_table6_columns_consistent_with_reports(self, fleet):
        """A row's report is the dict ``jrpm run --json`` prints, Table 6
        columns included."""
        for row in fleet:
            validate_report_dict(row.report)
            w = get_workload(row.name)
            report = Jrpm(source=w.source(), name=w.name).run()
            assert row.report == report_to_dict(report)
            assert row.report["characteristics"] \
                == characteristics(report)
            assert row.report["characteristics"]["dynamic_depth"] >= 1

    def test_missing_selected_loop_id_raises_not_skews(self):
        # regression: a selected loop_id absent from the candidate
        # table used to be silently dropped, skewing the Table 6
        # column f average; it is an inconsistency and must raise, in
        # the canonical dict and in the one-program renderer alike
        w = get_workload("IDEA")
        report = Jrpm(source=w.source(), name=w.name).run()
        assert characteristics(report)["avg_selected_height"] > 0
        assert "avg_height=" in render_characteristics_row(report)
        victim = report.selection.significant()[0].loop_id
        del report.candidates.by_id[victim]
        with pytest.raises(PipelineError) as excinfo:
            report_to_dict(report)
        assert str(victim) in str(excinfo.value)
        with pytest.raises(PipelineError) as excinfo:
            render_characteristics_row(report)
        assert str(victim) in str(excinfo.value)

    def test_exec_stats_default_clean(self, fleet):
        assert fleet.retry_count == 0
        assert fleet.timeout_count == 0
        assert fleet.crash_count == 0
        assert fleet.cache_corrupt == 0

    def test_kwargs_flow_into_pipeline(self):
        w = get_workload("IDEA")
        plain = run_fleet([w], simulate_tls=False)
        assert plain.rows[0].actual_speedup == 1.0  # no TLS run
        custom = run_fleet([w], config=HydraConfig(n_cpus=8),
                           simulate_tls=False)
        # with 8 CPUs the arc-free block loop can predict above 4x
        assert custom.rows[0].predicted_speedup \
            >= plain.rows[0].predicted_speedup
