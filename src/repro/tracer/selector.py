"""Equation 2: choosing the optimal set of STLs (Section 4.3, Table 3).

Only one thread decomposition can be active at a time, so for every
loop-nest chain the runtime must choose one level.  Equation 2 compares
the estimated speculative time of a loop against the best achievable by
its *nested* decompositions plus the serial remainder:

    time_this / speedup_this
        vs.
    (time_this - sum(time_nested)) + sum(time_nested / best_nested)

The nest structure used here is the **dynamic** one recorded by the TEST
device (loops nested through method calls included), reduced to a forest
via each loop's dominant parent.  A straightforward tree DP then yields
the optimal antichain of decompositions and the program-level breakdown
(Figure 10): selected STLs, their coverage, and the serial remainder.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.hydra.config import DEFAULT_HYDRA, HydraConfig
from repro.tracer.device import TestDevice
from repro.tracer.estimator import SpeedupEstimate
from repro.tracer.stats import STLStats


class LoopDecision:
    """Equation 2's verdict for one profiled loop.

    ``estimate`` is the winning model's estimate and ``model`` its
    registry name; ``model_estimates`` maps every competing model's
    name to its estimate.  Model *names*, not model instances, are
    stored so decisions stay picklable across the worker pool.  The
    decisions that speculate at their own level are the selection's
    chosen STLs (:attr:`SelectionResult.selected`).
    """

    def __init__(self, loop_id: int, stats: STLStats,
                 estimate: SpeedupEstimate, model: str,
                 model_estimates: Dict[str, SpeedupEstimate]):
        self.loop_id = loop_id
        self.stats = stats
        self.estimate = estimate
        self.model = model
        self.model_estimates = model_estimates
        self.children: List["LoopDecision"] = []
        self.parent_id = -1
        #: best achievable time for this subtree (cycles)
        self.best_time = float(stats.cycles)
        #: True when speculating at THIS level beats delegating
        self.speculate_here = False

    @property
    def sequential_time(self) -> int:
        return self.stats.cycles

    @property
    def time_if_speculated(self) -> float:
        speedup = self.estimate.speedup
        return self.stats.cycles / speedup if speedup > 0 \
            else float(self.stats.cycles)


class SelectionResult:
    """Program-level outcome of Equation 2."""

    def __init__(self, selected: List[LoopDecision],
                 decisions: Dict[int, LoopDecision],
                 total_cycles: int, models: Tuple[str, ...]):
        #: chosen STLs, by descending sequential coverage
        self.selected = selected
        #: every profiled loop's decision record
        self.decisions = decisions
        #: whole-program sequential cycles
        self.total_cycles = total_cycles
        #: execution-model names that competed for each loop
        self.models = models

    @property
    def covered_cycles(self) -> int:
        """Sequential cycles inside selected STLs (disjoint by
        construction — the selection is an antichain of the nest)."""
        return sum(s.sequential_time for s in self.selected)

    @property
    def serial_cycles(self) -> int:
        """Sequential cycles not covered by any selected STL."""
        return max(0, self.total_cycles - self.covered_cycles)

    @property
    def coverage(self) -> float:
        """Fraction of execution covered by selected STLs (Figure 10)."""
        return self.covered_cycles / self.total_cycles \
            if self.total_cycles else 0.0

    @property
    def predicted_cycles(self) -> float:
        """Predicted whole-program speculative time (Figure 10/11)."""
        return self.serial_cycles + sum(
            s.time_if_speculated for s in self.selected)

    @property
    def predicted_speedup(self) -> float:
        """Predicted whole-program speedup."""
        pred = self.predicted_cycles
        return self.total_cycles / pred if pred > 0 else 1.0

    def selected_ids(self) -> List[int]:
        return [s.loop_id for s in self.selected]

    def significant(self, min_coverage: float = 0.005
                    ) -> List[LoopDecision]:
        """Selected STLs with at least ``min_coverage`` of total time
        (the paper's Table 6 reports loops with > 0.5% coverage)."""
        floor = min_coverage * self.total_cycles
        return [s for s in self.selected if s.sequential_time >= floor]


def select_stls(device: TestDevice, total_cycles: int,
                config: HydraConfig = DEFAULT_HYDRA,
                min_speedup: float = 1.05,
                min_cycles: int = 200,
                models=None) -> SelectionResult:
    """Run Equation 2 over every loop the device profiled.

    ``min_speedup`` is the selection threshold: speculating on a loop
    whose predicted gain is below it is not worth the recompilation (the
    decomposition stays sequential).  ``min_cycles`` drops loops with
    negligible measured time.

    ``models`` is a spec accepted by
    :func:`repro.models.resolve_models` (``None`` is the paper's
    Hydra TLS alone).  Every loop's estimate is an argmax over the
    named models (ties go to registration order), before the nest DP
    runs on the per-loop winners.
    """
    # late import: repro.models imports the estimator/simulator, so
    # importing it at module level would cycle
    from repro.models import get_model, resolve_models
    resolved = resolve_models(models)
    model_list = [(name, get_model(name)) for name in resolved]

    decisions: Dict[int, LoopDecision] = {}
    for loop_id, stats in device.stats.items():
        if stats.cycles < min_cycles or stats.threads == 0 \
                or stats.profiled_threads == 0:
            continue
        estimates = {name: model.estimate(stats, config)
                     for name, model in model_list}
        # max() keeps the first maximum, so registration order breaks
        # ties (dicts preserve insertion order)
        winner = max(estimates, key=lambda name: estimates[name].speedup)
        decisions[loop_id] = LoopDecision(
            loop_id, stats, estimates[winner], model=winner,
            model_estimates=estimates)

    # build the dynamic forest (dominant parent, cycles must nest)
    roots: List[LoopDecision] = []
    for dec in decisions.values():
        parent_id = device.dominant_parent(dec.loop_id)
        parent = decisions.get(parent_id)
        if parent is not None \
                and parent.stats.cycles >= dec.stats.cycles:
            dec.parent_id = parent_id
            parent.children.append(dec)
        else:
            roots.append(dec)

    # Equation 2 tree DP, leaves upward (iterative post-order)
    def resolve(dec: LoopDecision) -> None:
        child_seq = sum(c.stats.cycles for c in dec.children)
        child_seq = min(child_seq, dec.stats.cycles)
        child_best = sum(c.best_time for c in dec.children)
        delegate = (dec.stats.cycles - child_seq) + child_best
        here = dec.time_if_speculated
        worthwhile = dec.estimate.speedup >= min_speedup
        if worthwhile and here < delegate:
            dec.best_time = here
            dec.speculate_here = True
        else:
            dec.best_time = delegate
            dec.speculate_here = False

    stack: List = [(r, False) for r in roots]
    while stack:
        dec, expanded = stack.pop()
        if expanded:
            resolve(dec)
        else:
            stack.append((dec, True))
            stack.extend((c, False) for c in dec.children)

    # harvest the chosen antichain
    selected: List[LoopDecision] = []

    def harvest(dec: LoopDecision) -> None:
        if dec.speculate_here:
            selected.append(dec)
            return
        for child in dec.children:
            harvest(child)

    for root in roots:
        harvest(root)
    selected.sort(key=lambda s: -s.sequential_time)

    # A loop reached from several dynamic parents (e.g. a helper called
    # from two different loops) appears under only its dominant parent
    # in the forest, so the DP alone cannot guarantee disjoint coverage.
    # Enforce a true antichain over *all* recorded dynamic-parent edges:
    # keep the larger decomposition, drop any selected descendant.
    ancestors = {s.loop_id: _ancestor_closure(device, s.loop_id)
                 for s in selected}
    kept: List[LoopDecision] = []
    kept_ids: set = set()
    for cand in selected:
        lid = cand.loop_id
        related = (ancestors[lid] & kept_ids) or any(
            lid in ancestors[k] for k in kept_ids)
        if related:
            continue
        kept.append(cand)
        kept_ids.add(lid)
    return SelectionResult(kept, decisions, total_cycles, resolved)


def _ancestor_closure(device: TestDevice, loop_id: int) -> set:
    """All transitive dynamic parents of ``loop_id`` (every recorded
    parent edge, not just the dominant one)."""
    seen: set = set()
    work = [loop_id]
    while work:
        node = work.pop()
        for parent in device.dynamic_parents.get(node, {}):
            if parent < 0 or parent in seen:
                continue
            seen.add(parent)
            work.append(parent)
    return seen
