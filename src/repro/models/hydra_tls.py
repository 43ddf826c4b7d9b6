"""The paper's execution model, wrapped as a pluggable backend.

Delegates to the existing Eq. 1 estimator and to the trace simulator's
restart-on-violation dependence policy unchanged.  It is the default
model list on its own, so a run that names no models is the paper's
single-backend pipeline.
"""

from repro.hydra.config import DEFAULT_HYDRA
from repro.tracer.estimator import estimate_speedup

from repro.models.base import SpeculationModel


class HydraTLSModel(SpeculationModel):
    name = "hydra-tls"
    description = ("Hydra speculative thread-level speculation "
                   "(the paper's backend)")

    def estimate(self, stats, config=DEFAULT_HYDRA):
        return estimate_speedup(stats, config)

    def simulate(self, compilation, config, engine):
        return engine.replay(compilation, config)
