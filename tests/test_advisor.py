"""Tests for the Section 6.3 optimization advisor."""

import pytest

from repro.jrpm import Jrpm
from repro.tracer import Action, OptimizationAdvisor

# the running-average recurrence serializes the hot loop; the fix
# accumulates a sum (a reduction) and divides after the loop
SERIAL_AVG = """
func main() {
  var n = 1500;
  var data = array(n);
  for (var i = 0; i < n; i = i + 1) {
    data[i] = (i * 2654435761) % 100000;
  }
  var avg = 0;
  for (var k = 0; k < n; k = k + 1) {
    var v = data[k] * 3 + (data[k] >> 4);
    avg = (avg * k + v) / (k + 1);
  }
  return avg;
}
"""

FIXED_AVG = SERIAL_AVG.replace(
    "var avg = 0;", "var sum = 0;").replace(
    "avg = (avg * k + v) / (k + 1);", "sum = sum + v;").replace(
    "return avg;", "return sum / n;")

OVERFLOWER = """
func main() {
  var a = array(4096);
  var s = 0;
  for (var r = 0; r < 10; r = r + 1) {
    for (var i = 0; i < 4096; i = i + 1) {
      a[i] = (a[i] + r) % 65536;
    }
    s = s + a[r];
  }
  return s;
}
"""


def profiled(source, name):
    return Jrpm(source=source, name=name,
                convergence_threshold=None).run(simulate_tls=False)


def hot_loop_id(report):
    return max(report.device.stats.items(),
               key=lambda kv: kv[1].cycles)[0]


class TestAdvisor:
    def test_flags_local_recurrence_on_hot_loop(self):
        rep = profiled(SERIAL_AVG, "serial-avg")
        recs = OptimizationAdvisor(rep).advise()
        by_loop = {r.loop_id: r for r in recs}
        hot = hot_loop_id(rep)
        assert hot in by_loop
        rec = by_loop[hot]
        assert rec.action is Action.RESTRUCTURE_LOCAL
        assert rec.sites, "the device must name the load site"
        assert "cycle arc" in rec.reason

    def test_fixed_loop_not_flagged(self):
        rep = profiled(FIXED_AVG, "fixed-avg")
        recs = OptimizationAdvisor(rep).advise()
        hot = hot_loop_id(rep)
        assert all(r.loop_id != hot for r in recs)

    def test_flags_buffer_overflow(self):
        from repro.hydra import HydraConfig
        tiny = HydraConfig(store_buffer_lines=8)
        rep = Jrpm(source=OVERFLOWER, name="overflower", config=tiny,
                   convergence_threshold=None).run(simulate_tls=False)
        recs = OptimizationAdvisor(rep).advise()
        assert any(r.action is Action.SPLIT_OR_DESCEND for r in recs)
        rec = [r for r in recs
               if r.action is Action.SPLIT_OR_DESCEND][0]
        assert "overflows" in rec.reason

    def test_ranked_by_time_share(self):
        rep = profiled(SERIAL_AVG, "serial-avg")
        recs = OptimizationAdvisor(rep).advise()
        severities = [r.severity for r in recs]
        assert severities == sorted(severities, reverse=True)

    def test_render_readable(self):
        rep = profiled(SERIAL_AVG, "serial-avg")
        text = OptimizationAdvisor(rep).render()
        assert "Optimization guidance" in text
        assert "L" in text

    def test_no_findings_message(self):
        clean = """
        func main() {
          var a = array(512);
          var s = 0;
          for (var i = 0; i < 512; i = i + 1) { a[i] = i; }
          for (var k = 0; k < 512; k = k + 1) { s = s + a[k]; }
          return s;
        }
        """
        rep = profiled(clean, "clean")
        text = OptimizationAdvisor(rep).render()
        assert "No tuning opportunities" in text

    def test_default_run_names_load_sites(self):
        # the default pipeline (convergence on) bins arcs by load PC too
        rep = Jrpm(source=SERIAL_AVG, name="basic").run(simulate_tls=False)
        recs = OptimizationAdvisor(rep).advise()
        hot = hot_loop_id(rep)
        flagged = [r for r in recs if r.loop_id == hot]
        assert flagged
        assert flagged[0].sites
        assert all(site.startswith("main:") for site in flagged[0].sites)
        assert "[sites: main:" in flagged[0].render()
