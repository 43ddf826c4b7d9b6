"""The optimizing pass pipeline (paper Section 3.2: the microJIT
"also performs optimizations and transformations" before annotating).

This module is the pass manager; the passes themselves live in
sibling modules:

* :mod:`repro.jit.lvn` — local value numbering: constant folding,
  algebraic identities, and CSE (including redundant ``ALOAD``s via a
  heap epoch);
* :mod:`repro.jit.licm` — loop-invariant code motion into preheaders;
* :mod:`repro.jit.dce` — liveness-driven global dead-code elimination
  (safe for named locals, not just temps);

built on :mod:`repro.jit.effects` (exhaustive read/write/effect
tables) and :mod:`repro.jit.dataflow` (liveness + reaching defs over
:mod:`repro.cfg`).

Contract with the rest of the system:

* runs strictly **before** annotation — functions already carrying
  annotation opcodes are barriers and are left untouched;
* ``verify_program`` runs after every pass over the whole program, so
  a pass bug surfaces at its own doorstep rather than three stages
  later in the interpreter;
* no pass ever increases the dynamic instruction count of any
  execution — rewrites are 1:1, removing, or motion into a
  dominating-entry preheader.  The conformance differential enforces
  this (``KIND_OPT_REGRESSION``);
* per-pass counters accumulate in :class:`OptimizeStats`, which
  travels into ``JrpmReport`` / ``jrpm run --json`` (schema v3) and
  the analysis service's ``/metrics``.

Pass ordering: LVN first (folding feeds every later pass and exposes
invariant operands), LICM second (hoists what LVN canonicalized), DCE
last (sweeps the MOV husks CSE and copy propagation leave behind).
The trio repeats until a fixed point, bounded by a small round cap.
"""

from __future__ import annotations

from typing import Dict

from repro.bytecode.program import Program
from repro.bytecode.verifier import verify_program
from repro.jit.dce import dce_function
from repro.jit.licm import licm_function
from repro.jit.lvn import lvn_function

_MAX_ROUNDS = 4

#: counter fields, in report order — one per distinct rewrite kind
STAT_FIELDS = (
    "folded",             # BIN/UN/INTRIN over constants -> CONST
    "algebraic",          # x+0, x*1, x/1 ... -> MOV / CONST
    "cse_replaced",       # recomputed available expression -> MOV
    "copies_propagated",  # operand rewritten to an equal-valued slot
    "licm_hoisted",       # loop-invariant instruction moved to preheader
    "dead_removed",       # dead definition eliminated
)


class OptimizeStats:
    """Counters of what the pass pipeline did (schema v3's
    ``optimize_stats`` block; also merged into service ``/metrics``)."""

    __slots__ = STAT_FIELDS + ("rounds",)

    def __init__(self):
        for field in STAT_FIELDS:
            setattr(self, field, 0)
        self.rounds = 0

    @property
    def total(self) -> int:
        """Total rewrites across every pass (0 = program unchanged)."""
        return sum(getattr(self, field) for field in STAT_FIELDS)

    def to_dict(self) -> Dict[str, int]:
        out = {field: getattr(self, field) for field in STAT_FIELDS}
        out["rounds"] = self.rounds
        out["total"] = self.total
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join("%s=%d" % (f, getattr(self, f))
                          for f in STAT_FIELDS if getattr(self, f))
        return "<OptimizeStats %s>" % (inner or "clean")


_PASSES = (lvn_function, licm_function, dce_function)


def optimize_program(program: Program) -> OptimizeStats:
    """Optimize every function of ``program`` in place.

    ``verify_program`` runs after each pass application, so an invalid
    rewrite is caught immediately with the offending pass on the stack.
    """
    stats = OptimizeStats()
    for _ in range(_MAX_ROUNDS):
        changed = False
        for pass_fn in _PASSES:
            for fn in program.functions.values():
                changed = pass_fn(fn, stats) or changed
            verify_program(program)
        stats.rounds += 1
        if not changed:
            break
    return stats
