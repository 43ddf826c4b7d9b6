"""Figure 11-style comparison across execution models.

Every workload runs the full pipeline with all registered speculation
models competing per loop (``models="all"``): the selector's
generalized Eq. 2 argmax picks a backend per loop, and the TLS stage
replays each selected loop under its winning model.  The table shows,
per workload, the whole-program predicted and simulated speedup, how
many selected loops each model won, and the per-loop winner with every
competing estimate — the multi-model analogue of Figure 11's
predicted-vs-actual bars.

A second pass replays the known post/wait-friendly workload (BitOps:
one hot loop whose local stride recurrences the live-in predictor
covers while TLS burns restarts on the same arcs) through the legacy
hydra-tls-only pipeline.  The headline gate — DOACROSS must actually
beat TLS where the estimator says it does — compares the two simulated
speedups, not the estimates.

Standalone::

    PYTHONPATH=src:. python benchmarks/bench_models.py [--quick]

``--quick`` shrinks the fleet to three workloads so CI can smoke-test
the harness in seconds; the committed BENCH_models.json comes from a
full run.  Under pytest the quick variant runs with the gate asserted.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from typing import Dict, List

from repro.jrpm import Jrpm
from repro.models import model_names
from repro.workloads import all_workloads, get_workload

from benchmarks.conftest import banner

#: the documented post/wait-friendly workload: DOACROSS + live-in
#: prediction must beat speculate-and-restart TLS here (see
#: EXPERIMENTS.md); the gate compares simulated actuals, not estimates
GATE_WORKLOAD = "BitOps"

#: quick-mode fleet: the gate workload plus two mixed workloads where
#: the argmax splits loops between hydra-tls and doacross
QUICK_WORKLOADS = ("BitOps", "Huffman", "compress")


def _run_models(name: str):
    w = get_workload(name)
    return Jrpm(source=w.source(), name=w.name,
                models="all").run(simulate_tls=True)


def _run_default(name: str):
    w = get_workload(name)
    return Jrpm(source=w.source(), name=w.name).run(simulate_tls=True)


def _workload_row(report) -> Dict:
    sel = report.selection
    selected_ids = {s.loop_id for s in sel.selected}
    counts: Dict[str, int] = {}
    per_loop: List[Dict] = []
    for loop_id in sorted(sel.decisions):
        dec = sel.decisions[loop_id]
        winner = dec.model
        chosen = loop_id in selected_ids
        if chosen:
            counts[winner] = counts.get(winner, 0) + 1
        row = {
            "loop": loop_id,
            "winner": winner,
            "selected": chosen,
            "estimates": {
                n: round(est.speedup, 4)
                for n, est in dec.model_estimates.items()},
        }
        result = report.tls_results.get(loop_id)
        if result is not None:
            row["actual_speedup"] = round(result.speedup, 4)
        per_loop.append(row)
    return {
        "predicted_speedup": round(report.predicted_speedup, 4),
        "actual_speedup": round(report.actual_speedup, 4),
        "selected_counts": counts,
        "per_loop": per_loop,
    }


def run_benchmark(quick: bool = False) -> Dict:
    names = list(QUICK_WORKLOADS) if quick \
        else [w.name for w in all_workloads()]
    competing = model_names()

    workloads: Dict[str, Dict] = {}
    elapsed = 0.0
    for name in names:
        start = time.perf_counter()
        report = _run_models(name)
        elapsed += time.perf_counter() - start
        assert report.selection.models == tuple(competing), \
            report.selection.models
        workloads[name] = _workload_row(report)

    # the gate: same workload, same trace discipline, hydra-tls-only
    legacy = _run_default(GATE_WORKLOAD)
    gate_row = workloads[GATE_WORKLOAD] if GATE_WORKLOAD in workloads \
        else _workload_row(_run_models(GATE_WORKLOAD))
    gate = {
        "workload": GATE_WORKLOAD,
        "models_actual_speedup": gate_row["actual_speedup"],
        "legacy_hydra_actual_speedup": round(legacy.actual_speedup, 4),
        "doacross_selected": gate_row["selected_counts"]
        .get("doacross", 0),
        "doacross_beats_hydra":
            gate_row["actual_speedup"] > legacy.actual_speedup,
    }

    totals: Dict[str, int] = {}
    for row in workloads.values():
        for model, count in row["selected_counts"].items():
            totals[model] = totals.get(model, 0) + count

    return {
        "benchmark": "execution-model comparison (multi-model Fig 11)",
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "quick": quick,
        "models": list(competing),
        "fleet_seconds": round(elapsed, 3),
        "selected_totals": totals,
        "doacross_gate": gate,
        "workloads": workloads,
        "notes": (
            "each workload runs the pipeline with models='all': the "
            "selector argmaxes every registered model's estimate per "
            "loop and the TLS stage replays each selected loop under "
            "its winning backend. doacross_gate re-runs the gate "
            "workload through the legacy hydra-tls-only pipeline and "
            "compares simulated (not estimated) whole-program "
            "speedups."),
    }


def render(results: Dict) -> str:
    lines = [banner("Execution models - per-workload winners "
                    "(models=%s)" % ",".join(results["models"]))]
    lines.append("%-14s %10s %10s  %s" % (
        "Benchmark", "predicted", "actual", "selected loops by model"))
    for name in sorted(results["workloads"]):
        row = results["workloads"][name]
        counts = ", ".join(
            "%s=%d" % (m, c)
            for m, c in sorted(row["selected_counts"].items())) or "-"
        lines.append("%-14s %10.3f %10.3f  %s" % (
            name, row["predicted_speedup"], row["actual_speedup"],
            counts))
    gate = results["doacross_gate"]
    lines.append("")
    lines.append(
        "gate: %s models=%0.3fx legacy-hydra=%0.3fx doacross %s"
        % (gate["workload"], gate["models_actual_speedup"],
           gate["legacy_hydra_actual_speedup"],
           "wins" if gate["doacross_beats_hydra"] else "LOSES"))
    return "\n".join(lines)


def _assert_gate(results: Dict) -> None:
    gate = results["doacross_gate"]
    # ISSUE acceptance: at least one workload picks DOACROSS over
    # hydra-tls, and the pick pays off in simulated cycles
    assert gate["doacross_selected"] >= 1, gate
    assert gate["doacross_beats_hydra"], gate
    assert results["selected_totals"].get("doacross", 0) >= 1, \
        results["selected_totals"]
    # sequential never wins a *selected* loop: Eq. 2 only selects
    # loops whose winning estimate clears min_speedup
    assert results["selected_totals"].get("sequential", 0) == 0, \
        results["selected_totals"]
    for name, row in results["workloads"].items():
        assert row["actual_speedup"] > 0.5, (name, row)
        for loop in row["per_loop"]:
            if not loop["selected"]:
                continue
            ests = loop["estimates"]
            assert ests, (name, loop)
            # the recorded winner really is the argmax of the table
            best = max(ests.values())
            assert abs(ests[loop["winner"]] - best) < 1e-9, (name, loop)


def test_models_bench_quick(capsys):
    """CI smoke: multi-model selection runs end to end and DOACROSS
    beats hydra-tls on the known post/wait-friendly workload."""
    results = run_benchmark(quick=True)
    with capsys.disabled():
        print()
        print(render(results))
    _assert_gate(results)
    # the argmax is a real contest, not a doacross sweep: hydra-tls
    # still wins loops in the quick fleet
    assert results["selected_totals"].get("hydra-tls", 0) >= 1, \
        results["selected_totals"]


def main(argv: List[str]) -> int:
    quick = "--quick" in argv
    results = run_benchmark(quick=quick)
    print(render(results))
    _assert_gate(results)
    out = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH_models.json")
    with open(out, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print("wrote %s" % out, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
