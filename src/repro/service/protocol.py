"""Wire protocol of the analysis service.

One request shape::

    POST /analyze
    {"workload": "Huffman",              # required: a bundled workload
     "config":   {"n_cpus": 8, ...},     # optional HydraConfig overrides
     "stages":   ["profile", "tls"],     # optional; drop "tls" to skip
                                         #   the timing simulation
     "level":    "optimized" | "base",   # optional annotation level
     "optimize": false,                  # optional: run the LVN/LICM/
                                         #   DCE pass pipeline first
     "models":   ["hydra-tls", ...],     # optional: per-loop execution-
                                         #   model argmax over these
                                         #   registered models (default
                                         #   ["hydra-tls"])
     "fresh":    false}                  # optional: bypass the result
                                         #   cache (recompute)

Parsing is strict: unknown top-level keys, unknown workloads, unknown
config fields, and malformed values are all rejected with a 400-shaped
:class:`ProtocolError` *before* any work is admitted, so the bounded
queue only ever holds well-formed requests.

Every request canonicalizes to a content-addressed ``key`` (the same
SHA-256 framing the artifact cache uses).  The scheduler coalesces
concurrent identical keys onto one in-flight computation and serves
repeats of completed keys from its result cache; ``profile_key``
groups *compatible* requests (same config/stages/level) so the
dispatcher can batch them into a single fleet submission.
"""

from __future__ import annotations

import inspect
import json
from typing import Any, Dict, Optional, Tuple

from repro.hydra.config import HydraConfig
from repro.jit.annotate import AnnotationLevel
from repro.jrpm.cache import cache_key
from repro.models import DEFAULT_MODEL, model_names, resolve_models
from repro.workloads.registry import Workload, get_workload, workload_names

#: request stages a client may name; "profile" (compile + annotate +
#: profile + select) always runs, "tls" adds the timing simulation
VALID_STAGES = ("profile", "tls")

#: header the sharded frontend sets on a routed ``POST /analyze``:
#: comma-separated ``host:port`` of the key's other replicas, to
#: which the owning shard pushes each fresh result (``POST /push/<key>``)
PEERS_HEADER = "X-Jrpm-Peers"

#: response header the frontend adds naming the shard that served the
#: request (the body stays byte-identical to a single-shard daemon)
SHARD_HEADER = "X-Jrpm-Shard"


def push_path(key: str) -> str:
    """The shard-to-shard result-push endpoint for ``key``: after a
    fresh compute, the owning shard POSTs the outcome here so its
    replicas' LRUs are warm *before* any failover."""
    return "/push/" + key


def parse_push_path(path: str) -> Optional[str]:
    """The key of a ``POST /push/<key>`` path, or None if ``path`` is
    not a push request."""
    if not path.startswith("/push/"):
        return None
    key = path[len("/push/"):]
    return key or None


#: top-level request keys the parser accepts
_REQUEST_KEYS = ("workload", "config", "stages", "level", "optimize",
                 "models", "fresh")

#: HydraConfig constructor parameters, introspected once — the set of
#: legal "config" override fields
CONFIG_FIELDS = tuple(
    name for name in inspect.signature(HydraConfig.__init__).parameters
    if name != "self")


class ProtocolError(ValueError):
    """A request the service must reject; carries the HTTP status."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


class AnalyzeRequest:
    """A validated ``POST /analyze`` body."""

    def __init__(self, workload: Workload,
                 config: HydraConfig,
                 config_overrides: Dict[str, Any],
                 simulate_tls: bool = True,
                 level: AnnotationLevel = AnnotationLevel.OPTIMIZED,
                 optimize: bool = False,
                 models: Tuple[str, ...] = (DEFAULT_MODEL,),
                 fresh: bool = False):
        self.workload = workload
        self.config = config
        #: the raw override dict (sorted for canonicalization)
        self.config_overrides = dict(sorted(config_overrides.items()))
        self.simulate_tls = simulate_tls
        self.level = level
        self.optimize = optimize
        #: execution models competing per loop
        self.models = models
        #: bypass the scheduler's result cache (still coalesces with
        #: concurrent identical requests and fills the cache)
        self.fresh = fresh
        #: content-addressed identity: requests with equal keys are
        #: the same computation
        self.key = cache_key(
            "analyze", workload.name, self.config_overrides,
            simulate_tls, level, optimize, models)

    @property
    def profile_key(self) -> Tuple:
        """Execution-profile equality: requests sharing it can run in
        one fleet submission (same config, stages, level, optimize,
        models)."""
        return (tuple(self.config_overrides.items()),
                self.simulate_tls, self.level, self.optimize, self.models)

    def describe(self) -> Dict[str, Any]:
        """Echo block for responses and logs."""
        return {
            "workload": self.workload.name,
            "config": self.config_overrides,
            "stages": (["profile", "tls"] if self.simulate_tls
                       else ["profile"]),
            "level": self.level.value,
            "optimize": self.optimize,
            "models": list(self.models),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<AnalyzeRequest %s key=%s...>" % (self.workload.name,
                                                  self.key[:12])


def _parse_config(raw: Any) -> Tuple[HydraConfig, Dict[str, Any]]:
    if raw is None:
        return HydraConfig(), {}
    if not isinstance(raw, dict):
        raise ProtocolError("'config' must be an object, got %s"
                            % type(raw).__name__)
    unknown = sorted(set(raw) - set(CONFIG_FIELDS))
    if unknown:
        raise ProtocolError(
            "unknown config field(s) %s; legal fields: %s"
            % (", ".join(map(repr, unknown)), ", ".join(CONFIG_FIELDS)))
    for field, value in raw.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ProtocolError(
                "config field %r must be a number, got %r"
                % (field, value))
    try:
        config = HydraConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise ProtocolError("invalid config: %s" % exc)
    return config, dict(raw)


def _parse_stages(raw: Any) -> bool:
    """Returns ``simulate_tls``."""
    if raw is None:
        return True
    if not isinstance(raw, list) \
            or not all(isinstance(s, str) for s in raw):
        raise ProtocolError("'stages' must be a list of stage names")
    unknown = sorted(set(raw) - set(VALID_STAGES))
    if unknown:
        raise ProtocolError(
            "unknown stage(s) %s; legal stages: %s"
            % (", ".join(map(repr, unknown)), ", ".join(VALID_STAGES)))
    return "tls" in raw


def _parse_models(raw: Any) -> Tuple[str, ...]:
    if raw is not None and (
            not isinstance(raw, list) or not raw
            or not all(isinstance(m, str) and m for m in raw)):
        raise ProtocolError(
            "'models' must be a non-empty list of execution-model names")
    try:
        return resolve_models(raw)
    except KeyError:
        unknown = sorted(set(raw) - set(model_names()))
        raise ProtocolError(
            "unknown model(s) %s; registered models: %s"
            % (", ".join(map(repr, unknown)),
               ", ".join(model_names())))


def _parse_flag(data: Dict[str, Any], key: str) -> bool:
    value = data.get(key, False)
    if not isinstance(value, bool):
        raise ProtocolError("%r must be a boolean, got %r" % (key, value))
    return value


def parse_analyze_request(body: bytes) -> AnalyzeRequest:
    """Parse and validate a raw ``POST /analyze`` body."""
    try:
        data = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError("request body is not valid JSON: %s" % exc)
    if not isinstance(data, dict):
        raise ProtocolError("request body must be a JSON object")
    unknown = sorted(set(data) - set(_REQUEST_KEYS))
    if unknown:
        raise ProtocolError(
            "unknown request key(s) %s; legal keys: %s"
            % (", ".join(map(repr, unknown)), ", ".join(_REQUEST_KEYS)))

    name = data.get("workload")
    if not isinstance(name, str) or not name:
        raise ProtocolError("'workload' is required and must be a "
                            "workload name (see GET /workloads)")
    try:
        workload = get_workload(name)
    except KeyError:
        raise ProtocolError(
            "unknown workload %r; choose from: %s"
            % (name, ", ".join(workload_names())))

    config, overrides = _parse_config(data.get("config"))
    simulate_tls = _parse_stages(data.get("stages"))

    level_raw = data.get("level", AnnotationLevel.OPTIMIZED.value)
    try:
        level = AnnotationLevel(level_raw)
    except ValueError:
        raise ProtocolError(
            "unknown level %r; legal levels: %s"
            % (level_raw,
               ", ".join(lv.value for lv in AnnotationLevel)))

    return AnalyzeRequest(
        workload=workload, config=config, config_overrides=overrides,
        simulate_tls=simulate_tls, level=level,
        optimize=_parse_flag(data, "optimize"),
        models=_parse_models(data.get("models")),
        fresh=_parse_flag(data, "fresh"))


def error_body(message: str, **extra: Any) -> Dict[str, Any]:
    """The uniform JSON error envelope."""
    body = {"error": message}
    body.update(extra)
    return body
