"""Pluggable execution models for the Jrpm pipeline.

The registry is populated at import time in canonical priority order —
``sequential``, ``hydra-tls``, ``doacross`` — which is also the
argmax tie-break order in the selector (earlier wins on equal
estimates, so the paper's backend keeps a loop when DOACROSS merely
ties it).
"""

from repro.tls.predictor import LiveInPredictor

from repro.models.base import (
    DEFAULT_MODEL,
    SpeculationModel,
    get_model,
    model_names,
    register_model,
    resolve_models,
)
from repro.models.doacross import (
    DoacrossEstimate,
    DoacrossModel,
    DoacrossResult,
    estimate_doacross,
)
from repro.models.hydra_tls import HydraTLSModel
from repro.models.sequential import SequentialModel

register_model(SequentialModel())
register_model(HydraTLSModel())
register_model(DoacrossModel())

__all__ = [
    "DEFAULT_MODEL",
    "SpeculationModel",
    "get_model",
    "model_names",
    "register_model",
    "resolve_models",
    "SequentialModel",
    "HydraTLSModel",
    "DoacrossModel",
    "DoacrossEstimate",
    "DoacrossResult",
    "estimate_doacross",
    "LiveInPredictor",
]
