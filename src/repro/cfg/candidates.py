"""Identification of potential speculative thread loops (STLs).

Implements Section 4.1 of the paper: every natural loop in every
function is a potential STL unless scalar analysis finds an obvious
whole-body recurrence that would completely eliminate speedup.  Loop
inductors and transformable reductions are ignored when deciding
candidacy (the speculative compiler eliminates them).

The pass assigns program-wide loop ids; these ids flow through the
annotating JIT into ``SLOOP``/``EOI``/``ELOOP`` instructions and key all
TEST statistics.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.bytecode.program import Program
from repro.cfg.dominators import compute_dominators
from repro.cfg.graph import build_cfg
from repro.cfg.natural_loops import Loop, LoopForest, find_loops
from repro.cfg.scalar_deps import DepClass, LoopScalarInfo, analyze_loop


class STLCandidate:
    """One potential STL with its static facts."""

    def __init__(self, loop_id: int, function: str, loop: Loop,
                 scalar: LoopScalarInfo, excluded: bool, reason: str):
        self.loop_id = loop_id
        self.function = function
        self.loop = loop
        self.scalar = scalar
        #: statically excluded (still assigned an id, never annotated)
        self.excluded = excluded
        self.exclusion_reason = reason
        #: named slots tracked by lwl/swl for this loop: only locals both
        #: read and written inside the loop can form its dependency arcs,
        #: and inductors/reductions are ignored because the speculative
        #: compiler eliminates them (Section 4.1)
        eliminable = set(scalar.inductors) | set(scalar.reductions)
        self.tracked_locals = sorted(
            s for s, c in scalar.classes.items()
            if c is not DepClass.NONE and s not in eliminable)
        #: parent candidate's loop id, or -1 for a top-level loop
        self.parent_id = -1
        #: child candidate loop ids (immediate nesting)
        self.child_ids: List[int] = []

    @property
    def depth(self) -> int:
        """Static nesting depth (1 = outermost loop of the function)."""
        return self.loop.depth

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " EXCLUDED" if self.excluded else ""
        return "<STLCandidate L%d %s depth=%d%s>" % (
            self.loop_id, self.function, self.depth, flag)


class FunctionLoops:
    """Loop forest + candidates for one function.  The CFG they were
    found on is not kept: the table is cached and unpickled on every
    warm run, and consumers that need a graph build their own."""

    def __init__(self, function: str, forest: LoopForest,
                 candidates: List[STLCandidate]):
        self.function = function
        self.forest = forest
        self.candidates = candidates


class CandidateTable:
    """Program-wide candidate STL inventory (Table 6 statics)."""

    def __init__(self):
        self.by_function: Dict[str, FunctionLoops] = {}
        self.by_id: Dict[int, STLCandidate] = {}

    # -- statistics for Table 6 ------------------------------------------

    @property
    def loop_count(self) -> int:
        """Total natural loops in the program (Table 6 column c)."""
        return sum(len(f.forest.loops) for f in self.by_function.values())

    @property
    def max_loop_depth(self) -> int:
        """Max static nest depth within one function.  Table 6 column d
        reports the deepest *executed* nest including calls; the dynamic
        value is measured by the tracer, this is the static floor."""
        return max((f.forest.max_depth
                    for f in self.by_function.values()), default=0)

    def candidates(self, include_excluded: bool = False
                   ) -> List[STLCandidate]:
        """All candidates in loop-id order."""
        out = [self.by_id[i] for i in sorted(self.by_id)]
        if not include_excluded:
            out = [c for c in out if not c.excluded]
        return out

    def candidate(self, loop_id: int) -> STLCandidate:
        return self.by_id[loop_id]


def find_candidates(program: Program,
                    functions: Optional[Iterable[str]] = None
                    ) -> CandidateTable:
    """Build the candidate table for ``program``.

    ``functions`` optionally restricts analysis (defaults to all).
    Loop ids are assigned deterministically: functions in sorted name
    order (entry first), loops by header block id.
    """
    table = CandidateTable()
    names = list(functions) if functions is not None \
        else sorted(program.functions)
    if program.entry in names:
        names.remove(program.entry)
        names.insert(0, program.entry)

    next_id = 0
    for name in names:
        fn = program.functions[name]
        cfg = build_cfg(fn)
        dom = compute_dominators(cfg)
        forest = find_loops(cfg, dom)
        candidates: List[STLCandidate] = []
        id_of_loop: Dict[int, int] = {}
        for loop in forest.loops:
            scalar = analyze_loop(cfg, loop, fn.n_named, dom)
            excluded = scalar.serializing
            reason = "whole-body scalar recurrence" if excluded else ""
            cand = STLCandidate(next_id, name, loop, scalar,
                                excluded, reason)
            loop.loop_id = next_id
            id_of_loop[loop.header] = next_id
            candidates.append(cand)
            table.by_id[next_id] = cand
            next_id += 1
        # wire the nesting between candidates
        for cand in candidates:
            parent = cand.loop.parent
            if parent is not None:
                cand.parent_id = id_of_loop[parent.header]
                table.by_id[cand.parent_id].child_ids.append(cand.loop_id)
        table.by_function[name] = FunctionLoops(name, forest, candidates)
    return table
