"""The label oracle: known-parallelism labels as executable checks.

A :class:`~repro.synth.families.ParallelismLabel` is a *test oracle*,
not documentation.  For every synthetic instance run through the full
pipeline with the multi-model argmax (``models="all"``):

* **parallel labels** (``doall``/``doacross``) must achieve simulated
  whole-program speedup of at least :data:`PARALLEL_MIN_SPEEDUP` under
  the selected (argmax-winning) execution models — i.e. at least one
  registered model genuinely parallelizes the program;
* **serial labels** must stay at or below
  :data:`SERIAL_MAX_SPEEDUP` — no registered model may claim real
  speedup on a heap-carried dependence chain.

Families are generated so the kernel loop dominates the cycle count
(init/checksum sweeps are a few percent), which is what makes the
whole-program simulated speedup a faithful stand-in for the kernel's
class.  The fuzz campaign and CI gate on these checks through
``jrpm conform --synth`` and ``benchmarks/bench_synth.py``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.hydra.config import DEFAULT_HYDRA, HydraConfig
from repro.jrpm.executor import FleetExecutor
from repro.jrpm.pipeline import Jrpm

#: minimum simulated whole-program speedup a parallel-labelled
#: instance must reach under the argmax pipeline.  Measured corpus
#: minimum is 3.00x (mixed family); 1.25 leaves wide headroom for
#: parameter drift while still failing any instance whose kernel the
#: simulator cannot actually overlap.
PARALLEL_MIN_SPEEDUP = 1.25

#: maximum simulated whole-program speedup a serial-labelled instance
#: may reach.  The kernel is >= ~90% of cycles by construction, so
#: even perfectly parallel init/checksum sweeps cannot lift the
#: program far; measured corpus maximum is 0.98x.
SERIAL_MAX_SPEEDUP = 1.15


class LabelRow:
    """One instance's label-oracle outcome (fleet-row protocol)."""

    ok = True

    def __init__(self, name: str, label_dict: Dict,
                 predicted_speedup: float, actual_speedup: float,
                 selected_models: List[str], replay: str):
        self.name = name
        self.label = label_dict
        self.predicted_speedup = predicted_speedup
        self.actual_speedup = actual_speedup
        #: models the argmax actually selected (and simulated)
        self.selected_models = list(selected_models)
        #: one-liner regenerating this instance (jrpm synth ...)
        self.replay = replay

    @property
    def family(self) -> str:
        return self.label["family"]

    @property
    def expected_class(self) -> str:
        return self.label["expected_class"]

    @property
    def parallel(self) -> bool:
        return self.expected_class in ("doall", "doacross")

    @property
    def satisfied(self) -> bool:
        if self.parallel:
            return self.actual_speedup >= PARALLEL_MIN_SPEEDUP
        return self.actual_speedup <= SERIAL_MAX_SPEEDUP

    @property
    def detail(self) -> str:
        if self.parallel:
            return ("labelled %s but simulated %.2fx < %.2fx minimum "
                    "under models %s"
                    % (self.expected_class, self.actual_speedup,
                       PARALLEL_MIN_SPEEDUP,
                       ",".join(self.selected_models) or "(none)"))
        return ("labelled serial but simulated %.2fx > %.2fx maximum "
                "(models %s)"
                % (self.actual_speedup, SERIAL_MAX_SPEEDUP,
                   ",".join(self.selected_models) or "(none)"))

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "family": self.family,
            "expected_class": self.expected_class,
            "carried": list(self.label.get("carried", ())),
            "predicted_speedup": round(self.predicted_speedup, 4),
            "actual_speedup": round(self.actual_speedup, 4),
            "selected_models": self.selected_models,
            "satisfied": self.satisfied,
            "replay": self.replay,
        }


def check_label(workload, report) -> LabelRow:
    """Distill one multi-model :class:`JrpmReport` into its label row.

    ``workload`` must be a
    :class:`~repro.synth.families.SyntheticWorkload` (carries the
    label).
    """
    selected_models = sorted({
        sel.model for sel in report.selection.selected})
    return LabelRow(
        workload.name, workload.label.to_dict(),
        report.predicted_speedup, report.actual_speedup,
        selected_models, workload.replay_hint())


def label_task(workload, config: HydraConfig = DEFAULT_HYDRA,
               simulate_tls: bool = True, cache=None,
               **jrpm_kwargs) -> LabelRow:
    """Fleet task: one synthetic instance through the argmax pipeline,
    gated against its label.  Module-level, hence picklable."""
    jrpm_kwargs.setdefault("models", "all")
    report = Jrpm(source=workload.source(), name=workload.name,
                  config=config, cache=cache, **jrpm_kwargs
                  ).run(simulate_tls=simulate_tls)
    return check_label(workload, report)


class LabelReport:
    """The whole corpus's label-oracle outcome."""

    def __init__(self, rows: List):
        self.rows = rows

    @property
    def ok_rows(self) -> List[LabelRow]:
        return [r for r in self.rows if r.ok]

    @property
    def failed_rows(self) -> List:
        return [r for r in self.rows if not r.ok]

    def violations(self) -> List[str]:
        problems: List[str] = []
        for row in self.rows:
            if not row.ok:
                problems.append("%s: pipeline failed: %s"
                                % (row.name, row.error))
                continue
            if not row.satisfied:
                problems.append("%s: %s (replay: %s)"
                                % (row.name, row.detail, row.replay))
        return problems

    def to_dict(self) -> Dict:
        return {
            "kind": "label-oracle",
            "parallel_min_speedup": PARALLEL_MIN_SPEEDUP,
            "serial_max_speedup": SERIAL_MAX_SPEEDUP,
            "instances": [r.to_dict() if r.ok
                          else {"name": r.name, "ok": False,
                                "error": r.error}
                          for r in self.rows],
            "violations": self.violations(),
        }

    def render(self) -> str:
        lines = ["%-22s %-10s %-9s %9s %9s  %s"
                 % ("instance", "family", "class", "predicted",
                    "actual", "label")]
        for row in self.rows:
            if not row.ok:
                lines.append("%-22s FAILED: %s" % (row.name, row.error))
                continue
            lines.append("%-22s %-10s %-9s %8.2fx %8.2fx  %s"
                         % (row.name, row.family, row.expected_class,
                            row.predicted_speedup, row.actual_speedup,
                            "ok" if row.satisfied else "VIOLATED"))
        good = sum(1 for r in self.ok_rows if r.satisfied)
        lines.append("label oracle: %d/%d instances satisfy their "
                     "labels" % (good, len(self.rows)))
        return "\n".join(lines)


def run_label_oracle(instances: Optional[Iterable] = None,
                     config: HydraConfig = DEFAULT_HYDRA,
                     jobs: int = 1, cache=None,
                     **executor_kwargs) -> LabelReport:
    """Run the label oracle over synthetic ``instances`` (default: the
    registered synthetic corpus)."""
    if instances is None:
        from repro.workloads.registry import SYNTHETIC, by_category
        instances = by_category(SYNTHETIC)
    executor = FleetExecutor(jobs=jobs, config=config, cache=cache,
                             on_error="row", task=label_task,
                             **executor_kwargs)
    result = executor.run(list(instances))
    return LabelReport(list(result.rows))
