"""Program-level aggregation of TLS simulation results (Figure 11).

Combines the per-STL :class:`~repro.tls.simulator.TLSResult`s with the
selection's serial remainder into whole-program predicted-vs-actual
numbers.
"""

from __future__ import annotations

from typing import Dict, List

from repro.tls.simulator import TLSResult
from repro.tracer.selector import SelectionResult


class ProgramTLSOutcome:
    """Whole-program speculative execution summary."""

    def __init__(self, selection: SelectionResult,
                 results: Dict[int, TLSResult]):
        self.selection = selection
        #: loop id -> simulated TLS result for every selected STL
        self.results = results

    @property
    def total_cycles(self) -> int:
        return self.selection.total_cycles

    @property
    def actual_cycles(self) -> float:
        """Serial remainder plus simulated parallel time of each STL."""
        covered_seq = 0
        parallel = 0
        for res in self.results.values():
            covered_seq += res.sequential_cycles
            parallel += res.parallel_cycles
        serial = max(0, self.total_cycles - covered_seq)
        return serial + parallel

    @property
    def actual_speedup(self) -> float:
        actual = self.actual_cycles
        return self.total_cycles / actual if actual > 0 else 1.0

    @property
    def predicted_speedup(self) -> float:
        return self.selection.predicted_speedup

    @property
    def predicted_normalized_time(self) -> float:
        """Figure 11's 'Predicted' bar (1.0 = sequential)."""
        return 1.0 / self.predicted_speedup if self.predicted_speedup \
            else 1.0

    @property
    def actual_normalized_time(self) -> float:
        """Figure 11's 'Actual' bar (1.0 = sequential)."""
        return 1.0 / self.actual_speedup if self.actual_speedup else 1.0

    @property
    def total_violations(self) -> int:
        return sum(r.violations for r in self.results.values())

    def per_stl_rows(self) -> List[tuple]:
        """(loop id, seq cycles, predicted speedup, actual speedup,
        violations/thread) per selected STL, by coverage."""
        rows = []
        for sel in self.selection.selected:
            res = self.results.get(sel.loop_id)
            rows.append((
                sel.loop_id,
                sel.sequential_time,
                sel.estimate.speedup,
                res.speedup if res else float("nan"),
                res.violation_rate if res else float("nan"),
            ))
        return rows
