"""The microJIT analog: annotation insertion for TEST profiling and
speculative compilation of selected STLs (paper Sections 3.2 and 5.1)."""

from repro.jit.annotate import (
    AnnotatedProgram,
    AnnotationLevel,
    annotate_program,
)
from repro.jit.optimize import (
    OptimizeStats,
    optimize_program,
)
from repro.jit.speculative import STLCompilation, compile_stl

__all__ = [
    "AnnotatedProgram",
    "AnnotationLevel",
    "OptimizeStats",
    "STLCompilation",
    "annotate_program",
    "compile_stl",
    "optimize_program",
]
