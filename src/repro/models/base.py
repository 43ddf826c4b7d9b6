"""Execution-model interface and registry.

The paper's Jrpm pipeline targets exactly one execution model — Hydra
TLS — so the selector's Eq. 2 nest comparison only ever asks "speculate
here or not".  This module generalizes that choice: a
:class:`SpeculationModel` packages a per-loop analytic *estimate* (the
Eq. 1 role) and a trace-driven *simulate* (the Hydra-simulator role)
behind one interface, and the selector runs an argmax over every
registered model so each loop independently picks the backend that the
estimates say will win.

Models register themselves in a process-global ordered registry.  Order
matters twice: it is the tie-break for equal estimates (earlier
registration wins) and the display order everywhere models are listed.
The canonical order is ``sequential``, ``hydra-tls``, ``doacross`` —
see :mod:`repro.models`.
"""

from collections import OrderedDict
from typing import Dict, Iterable, List, Tuple, Union

#: The model a run competes when none are named: the paper's Hydra TLS.
DEFAULT_MODEL = "hydra-tls"


class SpeculationModel:
    """One execution backend the selector can assign a loop to.

    Subclasses provide:

    ``name``
        Registry key, also the value stored in selection rows and
        reports.

    ``description``
        One line for ``jrpm models`` output.

    ``estimate(stats, config)``
        Analytic speedup prediction from tracer statistics alone
        (the Eq. 1 role).  Must return an object with at least the
        :class:`repro.tracer.estimator.SpeedupEstimate` attributes
        ``loop_id``, ``speedup``, ``base_speedup``, ``spec_time``,
        ``orig_time`` and ``overflow_freq`` — report code and the
        conformance oracle consume estimates polymorphically.

    ``simulate(compilation, config, engine)``
        Cycle-level replay of the loop's recorded entries under this
        model, through ``engine``, the columnar
        :class:`repro.tls.engine.TraceEngine` over the profiled run's
        recording (a speculative model times the loop's plan with
        :meth:`~repro.tls.engine.TraceEngine.replay`).  Must return a
        :class:`repro.tls.simulator.TLSResult` (or a subclass) so
        ``ProgramTLSOutcome`` and the invariant checks apply
        unchanged.
    """

    name = ""
    description = ""

    def estimate(self, stats, config):
        raise NotImplementedError

    def simulate(self, compilation, config, engine):
        raise NotImplementedError

    def __repr__(self):
        return "%s(name=%r)" % (type(self).__name__, self.name)


_REGISTRY = OrderedDict()  # type: Dict[str, SpeculationModel]


def register_model(model, replace=False):
    """Add *model* to the registry; re-registration needs ``replace``."""
    if not model.name:
        raise ValueError("model must have a non-empty name")
    if model.name in _REGISTRY and not replace:
        raise ValueError("model %r already registered" % model.name)
    _REGISTRY[model.name] = model
    return model


def get_model(name):
    # type: (str) -> SpeculationModel
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            "unknown execution model %r (registered: %s)"
            % (name, ", ".join(_REGISTRY) or "none")
        )


def model_names():
    # type: () -> List[str]
    """Registered model names, in registration (priority) order."""
    return list(_REGISTRY)


def resolve_models(spec):
    # type: (Union[None, str, Iterable[str]]) -> Tuple[str, ...]
    """Normalize a user-facing model spec to a tuple of registered names.

    ``None`` → ``(DEFAULT_MODEL,)``; ``"all"`` → every registered model;
    a comma-separated string or iterable of names → that list, validated
    and de-duplicated with order preserved.  Unknown names raise
    ``KeyError``; an empty spec raises ``ValueError``.
    """
    if spec is None:
        return (DEFAULT_MODEL,)
    if spec == "all":
        return tuple(model_names())
    if isinstance(spec, str):
        spec = [part.strip() for part in spec.split(",") if part.strip()]
    names = []
    for name in spec:
        get_model(name)  # raises on unknown names
        if name not in names:
            names.append(name)
    if not names:
        raise ValueError("empty execution-model list")
    return tuple(names)
