"""Profiling-slowdown accounting (Figure 6).

Figure 6 decomposes the annotated run's slowdown into three components:
statistics reads ("Read Counters"), local-variable annotations
("Locals"), and loop-marker annotations ("Annotations").  The
:class:`AnnotationCounter` listener tallies executed annotation
instructions; combined with the cost model this reproduces the stacked
bars for both the base and optimized annotation levels.
"""

from __future__ import annotations

from repro.bytecode.opcodes import Op
from repro.runtime.costs import DEFAULT_COSTS, CostModel
from repro.runtime.events import TraceListener


class AnnotationCounter(TraceListener):
    """Counts executed annotation instructions by category."""

    def __init__(self):
        self.lwl = 0
        self.swl = 0
        self.sloop = 0
        self.eoi = 0
        self.eloop = 0
        self.readstats = 0

    def on_local_load(self, frame_id, slot, cycle, fn="", pc=-1):
        self.lwl += 1

    def on_local_store(self, frame_id, slot, cycle, fn="", pc=-1):
        self.swl += 1

    def on_sloop(self, loop_id, n_locals, cycle, frame_id=-1):
        self.sloop += 1

    def on_eoi(self, loop_id, cycle):
        self.eoi += 1

    def on_eloop(self, loop_id, cycle):
        self.eloop += 1

    def on_readstats(self, loop_id, cycle):
        self.readstats += 1

    @classmethod
    def from_device(cls, device) -> "AnnotationCounter":
        """Annotation tallies read off a :class:`TestDevice` that saw
        the whole run — the device already counts every category, so
        profiled runs need no separate counting listener in the event
        fan-out."""
        counter = cls()
        counter.lwl = device.n_local_loads
        counter.swl = device.n_local_stores
        counter.sloop = device.n_sloop
        counter.eoi = device.n_eoi
        counter.eloop = device.n_eloop
        counter.readstats = device.n_readstats
        return counter


class SlowdownBreakdown:
    """Figure 6's stacked components for one annotated run."""

    def __init__(self, orig_cycles: int, annotated_cycles: int,
                 counter: AnnotationCounter,
                 costs: CostModel = None):
        costs = costs if costs is not None else DEFAULT_COSTS
        self.orig_cycles = orig_cycles
        self.annotated_cycles = annotated_cycles
        c = costs.op_costs
        #: cycles spent reading statistics out of the device
        self.read_counters_cycles = counter.readstats * c[Op.READSTATS]
        #: cycles spent on lwl/swl local-variable annotations
        self.locals_cycles = (counter.lwl * c[Op.LWL]
                              + counter.swl * c[Op.SWL])
        #: cycles spent on loop markers (and their control-flow glue)
        self.annotations_cycles = (
            self.extra_cycles - self.read_counters_cycles
            - self.locals_cycles)

    @property
    def extra_cycles(self) -> int:
        return self.annotated_cycles - self.orig_cycles

    @property
    def slowdown(self) -> float:
        """Total slowdown factor (1.0 = no overhead)."""
        if self.orig_cycles <= 0:
            return 1.0
        return self.annotated_cycles / self.orig_cycles

    @property
    def read_counters_frac(self) -> float:
        """Fraction of original time spent reading counters."""
        return self.read_counters_cycles / self.orig_cycles \
            if self.orig_cycles else 0.0

    @property
    def locals_frac(self) -> float:
        return self.locals_cycles / self.orig_cycles \
            if self.orig_cycles else 0.0

    @property
    def annotations_frac(self) -> float:
        return self.annotations_cycles / self.orig_cycles \
            if self.orig_cycles else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return ("<SlowdownBreakdown %.1f%% = read %.1f%% + locals %.1f%%"
                " + markers %.1f%%>"
                % (100 * (self.slowdown - 1),
                   100 * self.read_counters_frac,
                   100 * self.locals_frac,
                   100 * self.annotations_frac))
