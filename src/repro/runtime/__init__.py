"""Sequential execution substrate: heap, cost model, events, interpreter.

This package stands in for one Hydra core executing JIT-compiled code
sequentially (stage 2 of the Jrpm pipeline, Figure 1 of the paper).
"""

from repro.runtime.costs import DEFAULT_COSTS, CostModel
from repro.runtime.events import (
    LOCAL_ADDRESS_BASE,
    ColumnarRecording,
    MulticastListener,
    TraceListener,
    local_address,
)
from repro.runtime.heap import LINE_SIZE, WORD_SIZE, Heap, line_of
from repro.runtime.interpreter import Interpreter, RunResult, run_program
from repro.runtime.tracejit import TraceJIT, TraceJITError

__all__ = [
    "ColumnarRecording",
    "CostModel",
    "DEFAULT_COSTS",
    "Heap",
    "Interpreter",
    "LINE_SIZE",
    "LOCAL_ADDRESS_BASE",
    "MulticastListener",
    "RunResult",
    "TraceJIT",
    "TraceJITError",
    "TraceListener",
    "WORD_SIZE",
    "line_of",
    "local_address",
    "run_program",
]
