"""Optimization advisor: turning TEST's statistics into actions.

Section 6.3: the dependency statistics "direct the compiler to
variables where optimized placement of loads and stores can extend
critical arcs or where synchronization can be inserted to minimize
violations", and are "invaluable for speculative programmer
optimizations".  This module packages those decision rules as an API:
feed it a profiled report and it emits concrete, ranked
recommendations per loop.

Rules (each cites the paper mechanism it encodes):

* ``SYNCHRONIZE`` — frequent sub-saturation heap arcs (shorter than
  the (p-1)/p·T point where speedup maxes out) on a worthwhile loop:
  insert synchronization on the named load sites so consumers wait
  instead of violating ([22]; modelled by
  ``compile_stl(synchronize_heap=True)``).
* ``RESTRUCTURE_LOCAL`` — the critical arcs flow through a local
  variable: move the producing store earlier / the consuming load later
  or rewrite the recurrence (the paper's NumericSort/Huffman/db fixes).
* ``SPLIT_OR_DESCEND`` — the loop consistently overflows the
  speculative buffers: pick a deeper decomposition or shrink per-thread
  state (Section 6.1's data-set discussion).
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.tracer.stats import STLStats


class Action(enum.Enum):
    """What the advisor suggests doing about a loop."""

    SYNCHRONIZE = "insert synchronization"
    RESTRUCTURE_LOCAL = "restructure the local recurrence"
    SPLIT_OR_DESCEND = "reduce speculative state or descend the nest"


class Recommendation:
    """One actionable finding for one loop."""

    def __init__(self, loop_id: int, action: Action, reason: str,
                 sites: Optional[List[str]] = None,
                 severity: float = 0.0):
        self.loop_id = loop_id
        self.action = action
        #: human-readable evidence, with the statistics that triggered it
        self.reason = reason
        #: "function:pc" load sites whose arcs limit the loop
        self.sites = sites or []
        #: fraction of program time at stake (sorting key)
        self.severity = severity

    def render(self) -> str:
        text = "L%-3d %-38s %s" % (self.loop_id, self.action.value,
                                   self.reason)
        if self.sites:
            text += "  [sites: %s]" % ", ".join(self.sites[:4])
        return text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Recommendation L%d %s>" % (self.loop_id,
                                            self.action.name)


class OptimizationAdvisor:
    """Derives recommendations from a pipeline report, naming load
    sites from the device's per-PC dependency profiles."""

    def __init__(self, report,
                 min_coverage: float = 0.02,
                 short_arc_fraction: float = 0.75,
                 arc_freq_threshold: float = 0.5,
                 overflow_threshold: float = 0.5):
        self.report = report
        self.min_coverage = min_coverage
        self.short_arc_fraction = short_arc_fraction
        self.arc_freq_threshold = arc_freq_threshold
        self.overflow_threshold = overflow_threshold

    # -- rules -------------------------------------------------------------

    def _sites_for(self, loop_id: int, stats: STLStats) -> List[str]:
        profile = self.report.device.profile_for(loop_id)
        limiting = profile.limiting(stats.avg_thread_size,
                                    self.short_arc_fraction)
        return ["%s:%d" % (b.fn, b.pc) for b in limiting]

    def _advise_loop(self, loop_id: int,
                     stats: STLStats) -> Optional[Recommendation]:
        total = self.report.profiled.cycles or 1
        share = stats.cycles / total
        if share < self.min_coverage or stats.profiled_threads == 0:
            return None

        decision = self.report.selection.decisions.get(loop_id)
        speedup = decision.estimate.speedup if decision else 1.0
        arc_bound = (stats.avg_thread_size
                     * self.short_arc_fraction)

        if stats.overflow_freq > self.overflow_threshold:
            return Recommendation(
                loop_id, Action.SPLIT_OR_DESCEND,
                "overflows buffers on %.0f%% of threads "
                "(max %d load / %d store lines)"
                % (100 * stats.overflow_freq, stats.max_load_lines,
                   stats.max_store_lines),
                severity=share)

        limited = (stats.arc_freq_prev > self.arc_freq_threshold
                   and 0 < stats.avg_arc_len_prev < arc_bound
                   and speedup < 2.0)
        if limited:
            # a positive average arc length means arcs_prev > 0
            local_share = stats.local_arcs / stats.arcs_prev
            reason = ("%.0f%% of threads carry a %.0f-cycle arc in "
                      "%.0f-cycle threads (est. %.2fx)"
                      % (100 * stats.arc_freq_prev,
                         stats.avg_arc_len_prev,
                         stats.avg_thread_size, speedup))
            sites = self._sites_for(loop_id, stats)
            if local_share > 0.5:
                return Recommendation(
                    loop_id, Action.RESTRUCTURE_LOCAL, reason,
                    sites=sites, severity=share)
            return Recommendation(
                loop_id, Action.SYNCHRONIZE, reason,
                sites=sites, severity=share)
        return None

    # -- API --------------------------------------------------------------

    def advise(self) -> List[Recommendation]:
        """All recommendations, highest program-time share first."""
        out: List[Recommendation] = []
        for loop_id, stats in self.report.device.stats.items():
            rec = self._advise_loop(loop_id, stats)
            if rec is not None:
                out.append(rec)
        out.sort(key=lambda r: -r.severity)
        return out

    def render(self) -> str:
        """Text report of all recommendations."""
        recs = self.advise()
        if not recs:
            return ("No tuning opportunities found: every significant "
                    "loop either parallelizes or carries no "
                    "addressable dependence.")
        lines = ["Optimization guidance (Section 6.3):"]
        lines += ["  " + r.render() for r in recs]
        return "\n".join(lines)
