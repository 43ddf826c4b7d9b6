"""Span recorder for the benchmark's traced runs.

The benchmark measures layers from outside the program: :class:`Tracer`
replaces the public names that ``repro.jrpm.pipeline`` calls with thin
timing wrappers, records one span per call, and puts every name back on
:meth:`Tracer.uninstall`.  Spans are kept in memory and written out
once, when the run ends.

A span is ``(id, name, start, end, parent id, op id)``; the op id ties
every span of one benchmark operation together.  A layer's self time is
its span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import json
import pickle
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: span name used for one whole benchmark operation
OP = "op"

#: the registered model a loop falls back to when no other wins; the
#: selector never schedules it, so its ``simulate`` is never called
BASELINE_MODEL = "sequential"


class Tracer:
    """Installs timing wrappers and records spans (one thread only)."""

    def __init__(self):
        self.spans: List[tuple] = []
        #: layers whose hook target was not found; they report null
        self.missing: List[str] = []
        #: pickled bytes of every ArtifactCache.store value seen
        self.stored_bytes = 0
        self._targets: List[tuple] = []
        self._saved: List[tuple] = []
        self._stack: List[int] = []
        self._next_id = 0
        self._op: Optional[int] = None

    # -- hooks -----------------------------------------------------------

    def hook(self, owner, attr: str, name: str,
             rename: Optional[Callable[[tuple], str]] = None,
             after: Optional[Callable[[tuple], None]] = None) -> None:
        """Register ``owner.attr`` to be wrapped as span ``name``.

        ``rename`` maps a call's positional arguments to another span
        name (to tell apart calls of one method); ``after`` runs after
        the call, outside the span.  A missing target is remembered, not
        an error: its layer then reports null.
        """
        if owner is None or getattr(owner, attr, None) is None:
            self.missing.append(name)
            return
        self._targets.append((owner, attr, rename or name, after))

    def install(self) -> None:
        for owner, attr, name, after in self._targets:
            raw = vars(owner).get(attr)
            self._saved.append((owner, attr, raw, attr in vars(owner)))
            setattr(owner, attr,
                    self._wrapper(getattr(owner, attr), name, after))

    def uninstall(self) -> None:
        for owner, attr, raw, owned in reversed(self._saved):
            if owned:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._saved = []

    def _wrapper(self, original, name, after):
        tracer = self

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span_id, label, start, end, parent,
                                     tracer._op))
                if after is not None:
                    after(args)

        wrapper.__wrapped__ = original
        return wrapper

    @contextmanager
    def op(self, op_id: int):
        """Record one benchmark operation as the root span ``op``."""
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        self._op = op_id
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._op = None
            self.spans.append((span_id, OP, start, end, None, op_id))

    # -- aggregation -----------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Total self seconds per span name, over spans inside ops."""
        child_time: Dict[int, float] = {}
        for _, _, start, end, parent, op in self.spans:
            if parent is not None and op is not None:
                child_time[parent] = child_time.get(parent, 0.0) \
                    + (end - start)
        totals: Dict[str, float] = {}
        for span_id, name, start, end, _, op in self.spans:
            if op is None:
                continue
            own = (end - start) - child_time.get(span_id, 0.0)
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def ops(self) -> int:
        """Number of operations recorded."""
        return sum(1 for span in self.spans if span[1] == OP)

    def dump(self, path: str) -> None:
        fields = ("id", "name", "start", "end", "parent", "op")
        with open(path, "w") as handle:
            json.dump({"missing": self.missing,
                       "spans": [dict(zip(fields, s))
                                 for s in self.spans]}, handle)


def pipeline_tracer() -> Tracer:
    """A tracer hooked on every layer one ``Jrpm.run`` passes through."""
    from repro.jrpm import cache as cache_mod
    from repro.jrpm import pipeline
    from repro.models import get_model, model_names
    from repro.tls import engine as engine_mod

    tracer = Tracer()

    def interpreter_layer(args) -> str:
        # run_program runs the plain program; the profiled run is the
        # one with the TEST device and recording attached
        return "runtime.sequential" if args[0].listener is None \
            else "runtime.profiled"

    def count_stored(args) -> None:
        tracer.stored_bytes += len(
            pickle.dumps(args[3], pickle.HIGHEST_PROTOCOL))

    tracer.hook(pipeline, "compile_source", "lang.compile")
    tracer.hook(pipeline, "find_candidates", "cfg.find_candidates")
    tracer.hook(pipeline, "annotate_program", "jit.annotate")
    tracer.hook(pipeline, "run_program", "runtime.sequential")
    tracer.hook(getattr(pipeline, "Interpreter", None), "run",
                "runtime.profiled", rename=interpreter_layer)
    tracer.hook(getattr(pipeline, "TestDevice", None), "finish",
                "tracer.finish")
    tracer.hook(pipeline, "select_stls", "tracer.select")
    tracer.hook(pipeline, "compile_stl", "jit.compile_stl")
    tracer.hook(getattr(engine_mod, "TraceEngine", None), "split",
                "tls.engine.split")
    for model in model_names():
        if model != BASELINE_MODEL:
            tracer.hook(get_model(model), "simulate",
                        "models.%s.simulate" % model)
    cache_cls = getattr(cache_mod, "ArtifactCache", None)
    tracer.hook(cache_cls, "fetch", "jrpm.cache.fetch")
    tracer.hook(cache_cls, "store", "jrpm.cache.store", after=count_stored)
    return tracer
