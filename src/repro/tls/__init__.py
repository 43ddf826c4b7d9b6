"""Trace-driven TLS execution simulator: validates TEST's predictions
by actually scheduling the selected STLs' threads on the Hydra model
(the "Actual" series of Figure 11)."""

from repro.tls.engine import TraceEngine, TraceEngineStats
from repro.tls.simulator import TLSResult, schedule
from repro.tls.stats import ProgramTLSOutcome
from repro.tls.thread_trace import EntryTrace, split_trace

__all__ = [
    "EntryTrace",
    "ProgramTLSOutcome",
    "TLSResult",
    "TraceEngine",
    "TraceEngineStats",
    "schedule",
    "split_trace",
]
