"""The trivial execution model: run the loop as-is on one CPU.

Sequential is the baseline every speculative model competes against.
Its estimate is identity (speedup 1.0), so under the selector's argmax
it wins exactly when no speculative model clears the profitability
threshold — making "stay sequential" an explicit per-loop decision
instead of an absence of one.
"""

from repro.hydra.config import DEFAULT_HYDRA
from repro.tls.simulator import TLSResult
from repro.tracer.estimator import SpeedupEstimate

from repro.models.base import SpeculationModel


class SequentialModel(SpeculationModel):
    name = "sequential"
    description = "run the loop unmodified on one CPU (baseline)"

    def estimate(self, stats, config=DEFAULT_HYDRA):
        orig = stats.cycles
        return SpeedupEstimate(stats.loop_id, 1.0, 1.0, float(orig),
                               orig, 0.0)

    def simulate(self, compilation, config, engine):
        # One CPU, no speculation: parallel time is the measured
        # sequential time and no overheads are charged.  (The TLSResult
        # startup/shutdown floor rule does not apply here; the selector
        # never schedules this model, so conformance exercises it only
        # through the estimate path.)
        result = TLSResult(compilation.loop_id)
        for entry in engine.split(compilation.loop_id):
            result.add(entry.total_cycles, entry.total_cycles, 0, 0,
                       len(entry.sizes))
        return result
