"""Speculative-thread compilation of a selected STL (Section 3.2).

Once TEST selects an STL, the paper's microJIT recompiles the loop with
the Table 2 runtime routines and applies dependence-eliminating
transformations: loop inductors become non-violating iterators,
reductions are completed at shutdown, loop invariants are
register-allocated, and remaining inter-thread local dependencies are
globalized (communicated through memory with the store-load
communication delay).

This module produces the *timing-relevant* summary of that compilation
for the TLS simulator: which local slots no longer cause violations and
which are forwarded with a communication delay, plus the overhead
parameters.
"""

from __future__ import annotations

from typing import FrozenSet

from repro.cfg.candidates import STLCandidate
from repro.cfg.scalar_deps import DepClass
from repro.hydra.config import DEFAULT_HYDRA, HydraConfig


class STLCompilation:
    """Timing summary of speculative compilation for one loop.

    ``synchronize_heap`` models the Section 6.3 optimization the
    dependency profiles enable: inserting synchronization on the
    identified dependence-carrying accesses so consumers *wait* for the
    producer (one store-load communication delay) instead of violating
    and re-executing.
    """

    def __init__(self, candidate: STLCandidate,
                 config: HydraConfig = DEFAULT_HYDRA,
                 synchronize_heap: bool = False):
        self.candidate = candidate
        self.loop_id = candidate.loop_id
        self.config = config
        self.synchronize_heap = synchronize_heap
        scalar = candidate.scalar
        #: slots whose cross-thread dependence the compiler eliminates
        #: (inductors, reductions) — they never violate, never forward
        self.eliminated_slots: FrozenSet[int] = frozenset(
            scalar.inductors) | frozenset(scalar.reductions)
        #: read-only locals: register-allocated loop invariants
        self.invariant_slots: FrozenSet[int] = frozenset(
            s for s, c in scalar.classes.items()
            if c is DepClass.NONE)
        #: globalized locals: real cross-thread scalar flow, forwarded
        #: with the store-load communication delay
        self.forwarded_slots: FrozenSet[int] = frozenset(scalar.carried)

    def is_eliminated_local(self, frame_id: int, slot: int) -> bool:
        """Whether a local access is dependence-free after compilation."""
        return slot in self.eliminated_slots or slot in self.invariant_slots

    def is_forwarded_local(self, slot: int) -> bool:
        """Whether a local is globalized (forwarded between threads)."""
        return slot in self.forwarded_slots

    @property
    def per_entry_overhead(self) -> int:
        """Cycles added per loop entry (startup + shutdown, Table 2)."""
        return self.config.startup_overhead + self.config.shutdown_overhead

    @property
    def per_thread_overhead(self) -> int:
        """Cycles added per thread (end-of-iteration routine)."""
        return self.config.eoi_overhead

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return ("<STLCompilation L%d eliminated=%s forwarded=%s>"
                % (self.loop_id, sorted(self.eliminated_slots),
                   sorted(self.forwarded_slots)))


def compile_stl(candidate: STLCandidate,
                config: HydraConfig = DEFAULT_HYDRA,
                synchronize_heap: bool = False) -> STLCompilation:
    """Compile one selected STL for speculative execution."""
    return STLCompilation(candidate, config,
                          synchronize_heap=synchronize_heap)
