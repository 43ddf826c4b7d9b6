"""Trace-driven TLS execution simulator: validates TEST's predictions
by actually scheduling the selected STLs' threads on the Hydra model
(the "Actual" series of Figure 11)."""

from repro.tls.engine import TraceEngine, TraceEngineStats
from repro.tls.simulator import (
    EntryResult,
    TLSResult,
    TraceSimulator,
    simulate_stl,
)
from repro.tls.stats import ProgramTLSOutcome
from repro.tls.thread_trace import (
    EntryTrace,
    ThreadEvent,
    ThreadTrace,
    ThreadView,
    local_frame_of,
    local_slot_of,
    split_trace,
)

__all__ = [
    "EntryResult",
    "EntryTrace",
    "ProgramTLSOutcome",
    "TLSResult",
    "ThreadEvent",
    "ThreadTrace",
    "ThreadView",
    "TraceEngine",
    "TraceEngineStats",
    "TraceSimulator",
    "local_frame_of",
    "local_slot_of",
    "simulate_stl",
    "split_trace",
]
