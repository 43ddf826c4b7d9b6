"""TEST — Tracer for Extracting Speculative Threads.

The paper's core contribution: comparator banks performing the load
dependency analysis and the speculative-state overflow analysis over an
annotated sequential execution (Section 4.2), the Equation 1 speedup
estimator, the Equation 2 nest selector, the per-load-PC dependency
profiles every device keeps (Section 6.3), and the software-only
baseline the hardware is compared against (Section 5).
"""

from repro.tracer.advisor import (
    Action,
    OptimizationAdvisor,
    Recommendation,
)
from repro.tracer.bank import ComparatorBank
from repro.tracer.device import TestDevice
from repro.tracer.estimator import (
    SpeedupEstimate,
    arc_limited_speedup,
    base_speedup,
    estimate_speedup,
)
from repro.tracer.selector import (
    LoopDecision,
    SelectionResult,
    select_stls,
)
from repro.tracer.software import SoftwareCosts, SoftwareProfiler
from repro.tracer.stats import ArcBin, DependencyProfile, STLStats
from repro.tracer.timestamps import (
    LineTimestampTable,
    LocalTimestampTable,
    StoreTimestampFIFO,
)

__all__ = [
    "Action",
    "ArcBin",
    "ComparatorBank",
    "OptimizationAdvisor",
    "Recommendation",
    "DependencyProfile",
    "LineTimestampTable",
    "LocalTimestampTable",
    "LoopDecision",
    "STLStats",
    "SelectionResult",
    "SoftwareCosts",
    "SoftwareProfiler",
    "SpeedupEstimate",
    "StoreTimestampFIFO",
    "TestDevice",
    "arc_limited_speedup",
    "base_speedup",
    "estimate_speedup",
    "select_stls",
]
