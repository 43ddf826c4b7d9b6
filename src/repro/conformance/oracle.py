"""The estimator-vs-simulator differential oracle (Figure 11 as a gate).

Every registered workload runs once through the full Jrpm pipeline;
the oracle then compares stage 3's Equation 1 *predictions* against
stage 5's TLS-simulated *actuals*, per selected STL and per workload,
and turns the paper's qualitative claim — the TEST estimate tracks the
simulated outcome closely enough to pick the right loops — into two
checked properties:

* **bounded error** — each workload's relative speedup prediction
  error stays within its measured per-workload ceiling
  (:data:`WORKLOAD_ERROR_BOUNDS`; :data:`DEFAULT_ERROR_BOUND` covers
  workloads without a measured row, e.g. fuzz programs);
* **same winner** — among a workload's selected STLs, the loop the
  estimator ranks as the biggest cycle saver is the loop the simulator
  ranks first too (documented exceptions in
  :data:`KNOWN_WINNER_MISMATCHES`).

With ``models=`` naming anything but hydra-tls alone, the fleet runs
the multi-model argmax pipeline and the gate shifts to the per-model
property: every selected STL's predicted-vs-actual speedup error stays
within the winning model's ceiling (:data:`MODEL_ERROR_BOUNDS`).
Workload-level bounds and the winner check are calibrated against
hydra-tls alone and do not apply — model selection changes which
loops run and what they achieve.

EXPERIMENTS.md records the measured numbers behind every bound and
exception; ``jrpm conform`` runs this as the CI conformance gate and
emits the machine-readable report via :meth:`OracleReport.to_dict`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.hydra.config import DEFAULT_HYDRA, HydraConfig
from repro.jrpm.cache import ArtifactCache
from repro.jrpm.executor import FleetExecutor
from repro.jrpm.pipeline import Jrpm
from repro.models import DEFAULT_MODEL, resolve_models
from repro.workloads.registry import Workload, all_workloads

#: fallback workload-level relative-error ceiling on predicted vs
#: actual speedup, |pred - act| / act — applied only to workloads
#: without a measured row in :data:`WORKLOAD_ERROR_BOUNDS` (fuzz
#: programs, user sources).  The registered corpus maximum excluding
#: BitOps is 30.7% (jess); 40% leaves headroom without masking a
#: broken estimator.
DEFAULT_ERROR_BOUND = 0.40

#: measured per-workload error ceilings: each bundled workload's
#: observed |pred - act| / act with ~1.5x headroom for config drift,
#: replacing the old one-size 40% bound that let a 2%-error workload
#: regress 20x before the gate noticed.  Measured values are in
#: EXPERIMENTS.md ("Estimator conformance"); keep the two in sync.
#: BitOps stays the documented outlier at 170%: its single selected
#: loop is violation-free in Equation 1's model but misspeculates
#: heavily in the simulator, and with one loop there is no winner
#: ranking to save it.
WORKLOAD_ERROR_BOUNDS: Dict[str, float] = {
    "Assignment": 0.06,     # measured 2.1%
    "BitOps": 1.70,         # measured 156.7% (documented outlier)
    "EmFloatPnt": 0.07,     # measured 2.9%
    "FourierTest": 0.22,    # measured 14.2%
    "Huffman": 0.15,        # measured 8.9%
    "IDEA": 0.09,           # measured 4.5%
    "LuFactor": 0.05,       # measured 1.3%
    "MipsSimulator": 0.10,  # measured 5.7%
    "NeuralNet": 0.07,      # measured 2.9%
    "NumHeapSort": 0.16,    # measured 9.5%
    "compress": 0.06,       # measured 2.1%
    "db": 0.12,             # measured 6.4%
    "decJpeg": 0.06,        # measured 2.3%
    "deltaBlue": 0.09,      # measured 4.7%
    "encJpeg": 0.28,        # measured 18.8%
    "euler": 0.18,          # measured 10.9%
    "fft": 0.21,            # measured 13.7%
    "h263dec": 0.05,        # measured 0.9%
    "jLex": 0.38,           # measured 29.1%
    "jess": 0.40,           # measured 30.7%
    "moldyn": 0.12,         # measured 7.0%
    "monteCarlo": 0.08,     # measured 4.1%
    "mp3": 0.36,            # measured 27.7%
    "mpegVideo": 0.15,      # measured 9.2%
    "raytrace": 0.08,       # measured 4.2%
    "shallow": 0.06,        # measured 2.5%
}

#: per-model STL-level ceilings on |pred - act| / act speedup error,
#: applied when the oracle runs the multi-model pipeline.  hydra-tls
#: measures at most ~42% on any selected STL (monteCarlo L3).  The
#: DOACROSS estimator's analytic post/wait + predictor-coverage model
#: is coarser: worst case 152% on BitOps L0 — the same documented
#: misspeculation outlier as the legacy 170% bound, where both
#: models' analytic paths miss the simulator-only violations — and
#: ~107% elsewhere (compress L3, where the live-in predictor covers
#: less than the 75% coverage assumption).
MODEL_ERROR_BOUNDS: Dict[str, float] = {
    "sequential": 0.0,   # predicts 1.0x by construction
    "hydra-tls": 0.55,   # measured max ~42%
    "doacross": 1.70,    # measured max 152% (BitOps), ~107% elsewhere
}

#: workloads where the estimator's top-ranked STL is documented to
#: differ from the simulator's (EXPERIMENTS.md).  The winner assertion
#: skips these by name.  euler's top two loops' savings sit within 6%
#: of each other both predicted and actual, so ranking noise flips the
#: order; in Huffman, Equation 1's arc penalty underrates the inner
#: bit-chase loop (L1) that the simulator finds most profitable.
KNOWN_WINNER_MISMATCHES: frozenset = frozenset({"Huffman", "euler"})


class STLConformance:
    """Prediction vs simulation for one selected loop."""

    def __init__(self, loop_id: int, predicted_cycles: float,
                 actual_cycles: int, sequential_cycles: int,
                 model: str):
        self.loop_id = loop_id
        self.predicted_cycles = predicted_cycles
        self.actual_cycles = actual_cycles
        self.sequential_cycles = sequential_cycles
        #: execution model that simulated this loop
        self.model = model

    @property
    def predicted_savings(self) -> float:
        return self.sequential_cycles - self.predicted_cycles

    @property
    def actual_savings(self) -> float:
        return float(self.sequential_cycles - self.actual_cycles)

    @property
    def rel_error(self) -> float:
        """|predicted - actual| / actual parallel cycles."""
        if self.actual_cycles <= 0:
            return 0.0
        return abs(self.predicted_cycles - self.actual_cycles) \
            / self.actual_cycles

    @property
    def predicted_speedup(self) -> float:
        if self.predicted_cycles <= 0:
            return 0.0
        return self.sequential_cycles / self.predicted_cycles

    @property
    def actual_speedup(self) -> float:
        if self.actual_cycles <= 0:
            return 0.0
        return self.sequential_cycles / self.actual_cycles

    @property
    def speedup_rel_error(self) -> float:
        """|predicted - actual| / actual on the STL *speedup* — the
        quantity :data:`MODEL_ERROR_BOUNDS` gates per model."""
        actual = self.actual_speedup
        if actual <= 0:
            return 0.0
        return abs(self.predicted_speedup - actual) / actual

    def to_dict(self) -> Dict:
        return {
            "loop_id": self.loop_id,
            "model": self.model,
            "predicted_cycles": round(self.predicted_cycles, 1),
            "actual_cycles": self.actual_cycles,
            "sequential_cycles": self.sequential_cycles,
            "rel_error": round(self.rel_error, 4),
            "speedup_rel_error": round(self.speedup_rel_error, 4),
        }


class WorkloadConformance:
    """One workload's oracle row (also the fleet-row protocol:
    ``.ok`` / ``.name``)."""

    ok = True

    def __init__(self, name: str, category: str,
                 predicted_speedup: float, actual_speedup: float,
                 coverage: float, stls: List[STLConformance],
                 winner_predicted: Optional[int],
                 winner_actual: Optional[int],
                 models: Tuple[str, ...]):
        self.name = name
        self.category = category
        self.predicted_speedup = predicted_speedup
        self.actual_speedup = actual_speedup
        self.coverage = coverage
        self.stls = stls
        self.winner_predicted = winner_predicted
        self.winner_actual = winner_actual
        #: execution models the run competed
        self.models = models

    @property
    def rel_error(self) -> float:
        """Workload-level |pred - act| / act on the speedup."""
        if self.actual_speedup <= 0:
            return 0.0
        return abs(self.predicted_speedup - self.actual_speedup) \
            / self.actual_speedup

    @property
    def winner_match(self) -> bool:
        """True when the estimator and the simulator rank the same STL
        first (vacuously true with fewer than two selected loops)."""
        if len(self.stls) < 2:
            return True
        return self.winner_predicted == self.winner_actual

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "category": self.category,
            "predicted_speedup": round(self.predicted_speedup, 4),
            "actual_speedup": round(self.actual_speedup, 4),
            "rel_error": round(self.rel_error, 4),
            "coverage": round(self.coverage, 4),
            "winner_predicted": self.winner_predicted,
            "winner_actual": self.winner_actual,
            "winner_match": self.winner_match,
            "models": list(self.models),
            "stls": [s.to_dict() for s in self.stls],
        }


def conformance_row(name: str, category: str, report
                    ) -> WorkloadConformance:
    """Distill one :class:`JrpmReport` into its oracle row."""
    stls: List[STLConformance] = []
    for sel in report.selection.selected:
        tls = report.tls_results.get(sel.loop_id)
        if tls is None:
            continue
        stls.append(STLConformance(
            sel.loop_id, sel.time_if_speculated, tls.parallel_cycles,
            sel.sequential_time, sel.model))
    winner_predicted = winner_actual = None
    if stls:
        winner_predicted = max(
            stls, key=lambda s: (s.predicted_savings, -s.loop_id)
        ).loop_id
        winner_actual = max(
            stls, key=lambda s: (s.actual_savings, -s.loop_id)
        ).loop_id
    return WorkloadConformance(
        name, category, report.predicted_speedup,
        report.actual_speedup, report.coverage, stls,
        winner_predicted, winner_actual, report.selection.models)


def oracle_task(workload: Workload, config: HydraConfig = DEFAULT_HYDRA,
                simulate_tls: bool = True,
                cache: Optional[ArtifactCache] = None,
                **jrpm_kwargs) -> WorkloadConformance:
    """Fleet task: one workload through the pipeline, distilled.

    Module-level so parallel fleets can pickle it by reference.
    """
    report = Jrpm(source=workload.source(), name=workload.name,
                  config=config, cache=cache, **jrpm_kwargs
                  ).run(simulate_tls=simulate_tls)
    return conformance_row(workload.name, workload.category, report)


class OracleReport:
    """The whole fleet's conformance outcome."""

    def __init__(self, rows: List, error_bound: float,
                 workload_bounds: Optional[Dict[str, float]] = None,
                 model_bounds: Optional[Dict[str, float]] = None,
                 known_mismatches: Optional[frozenset] = None):
        self.rows = rows
        self.error_bound = error_bound
        self.workload_bounds = dict(WORKLOAD_ERROR_BOUNDS
                                    if workload_bounds is None
                                    else workload_bounds)
        self.model_bounds = dict(MODEL_ERROR_BOUNDS
                                 if model_bounds is None
                                 else model_bounds)
        self.known_mismatches = frozenset(
            KNOWN_WINNER_MISMATCHES if known_mismatches is None
            else known_mismatches)

    @property
    def ok_rows(self) -> List[WorkloadConformance]:
        return [r for r in self.rows if r.ok]

    @property
    def failed_rows(self) -> List:
        return [r for r in self.rows if not r.ok]

    @property
    def max_error(self) -> float:
        return max((r.rel_error for r in self.ok_rows), default=0.0)

    @property
    def mean_error(self) -> float:
        rows = self.ok_rows
        if not rows:
            return 0.0
        return sum(r.rel_error for r in rows) / len(rows)

    def bound_for(self, name: str) -> float:
        return self.workload_bounds.get(name, self.error_bound)

    def model_bound_for(self, model: str) -> float:
        return self.model_bounds.get(model, self.error_bound)

    def violations(self) -> List[str]:
        """Every broken conformance property, as human-readable lines
        (empty list = the gate passes)."""
        problems: List[str] = []
        for row in self.rows:
            if not row.ok:
                problems.append("%s: pipeline failed: %s"
                                % (row.name, row.error))
                continue
            if row.models != (DEFAULT_MODEL,):
                # multi-model run: the per-model STL property.  The
                # workload-level bounds and winner ranking are
                # calibrated against hydra-tls alone, where every
                # loop is estimated and simulated by that model.
                for stl in row.stls:
                    bound = self.model_bound_for(stl.model)
                    if stl.speedup_rel_error > bound:
                        problems.append(
                            "%s L%d (%s): model prediction error "
                            "%.1f%% exceeds the %.1f%% bound "
                            "(predicted %.2fx, actual %.2fx)"
                            % (row.name, stl.loop_id, stl.model,
                               100 * stl.speedup_rel_error,
                               100 * bound, stl.predicted_speedup,
                               stl.actual_speedup))
                continue
            bound = self.bound_for(row.name)
            if row.rel_error > bound:
                problems.append(
                    "%s: prediction error %.1f%% exceeds the %.1f%% "
                    "bound (predicted %.2fx, actual %.2fx)"
                    % (row.name, 100 * row.rel_error, 100 * bound,
                       row.predicted_speedup, row.actual_speedup))
            if not row.winner_match \
                    and row.name not in self.known_mismatches:
                problems.append(
                    "%s: estimator winner L%s but simulator winner L%s"
                    % (row.name, row.winner_predicted,
                       row.winner_actual))
        return problems

    def to_dict(self) -> Dict:
        return {
            "kind": "oracle",
            "error_bound": self.error_bound,
            "workload_bounds": self.workload_bounds,
            "model_bounds": self.model_bounds,
            "known_mismatches": sorted(self.known_mismatches),
            "workloads": [r.to_dict() if r.ok
                          else {"name": r.name, "ok": False,
                                "error": r.error}
                          for r in self.rows],
            "max_error": round(self.max_error, 4),
            "mean_error": round(self.mean_error, 4),
            "violations": self.violations(),
        }

    def render(self) -> str:
        lines = ["%-14s %9s %9s %7s %7s %7s  %s"
                 % ("workload", "predicted", "actual", "err%",
                    "bound%", "cover%", "winner")]
        for row in self.rows:
            if not row.ok:
                lines.append("%-14s FAILED: %s" % (row.name, row.error))
                continue
            if row.models != (DEFAULT_MODEL,):
                # per-model gate: report the worst STL-level model
                # error against the loosest bound it was held to
                worst = max((s.speedup_rel_error for s in row.stls),
                            default=0.0)
                bound = max((self.model_bound_for(s.model)
                             for s in row.stls), default=0.0)
                winner = ",".join(sorted({s.model for s in row.stls})) \
                    or "-"
            else:
                worst = row.rel_error
                bound = self.bound_for(row.name)
                winner = "-" if len(row.stls) < 2 else (
                    "same" if row.winner_match else
                    "L%s!=L%s" % (row.winner_predicted,
                                  row.winner_actual))
            lines.append("%-14s %8.2fx %8.2fx %6.1f%% %6.1f%% %6.1f%%  %s"
                         % (row.name, row.predicted_speedup,
                            row.actual_speedup, 100 * worst,
                            100 * bound, 100 * row.coverage, winner))
        lines.append("max error %.1f%%, mean %.1f%% over %d workloads"
                     % (100 * self.max_error, 100 * self.mean_error,
                        len(self.ok_rows)))
        return "\n".join(lines)


def run_oracle(workloads: Optional[Iterable[Workload]] = None,
               config: HydraConfig = DEFAULT_HYDRA,
               jobs: int = 1,
               cache: Optional[ArtifactCache] = None,
               error_bound: float = DEFAULT_ERROR_BOUND,
               workload_bounds: Optional[Dict[str, float]] = None,
               model_bounds: Optional[Dict[str, float]] = None,
               known_mismatches: Optional[frozenset] = None,
               models=None,
               **executor_kwargs) -> OracleReport:
    """Run the differential oracle over ``workloads`` (default: all).

    The fleet fans out through :class:`FleetExecutor` (``jobs`` worker
    processes; pass a disk-backed ``cache`` to share pipeline
    artifacts).  Failed pipelines surface as failed rows rather than
    aborting the sweep.  ``models`` (a spec accepted by
    :func:`repro.models.resolve_models`) other than hydra-tls alone
    switches every pipeline run to the multi-model argmax and the gate
    to the per-model bounds.
    """
    fleet = list(workloads) if workloads is not None else all_workloads()
    executor_kwargs["models"] = resolve_models(models)
    executor = FleetExecutor(jobs=jobs, config=config, cache=cache,
                             on_error="row", task=oracle_task,
                             **executor_kwargs)
    result = executor.run(fleet)
    return OracleReport(list(result.rows), error_bound,
                        workload_bounds=workload_bounds,
                        model_bounds=model_bounds,
                        known_mismatches=known_mismatches)
