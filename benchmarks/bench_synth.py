"""Synthetic-corpus error atlas: per-family estimator error vs the
TLS simulator, with known-parallelism labels as the gate.

Every registered synthetic instance (5 families x 20 seeded instances)
runs the pipeline twice — legacy hydra-tls and multi-model argmax —
and the atlas aggregates, per family, the workload-level prediction
error, the per-model STL error, and whether each instance's
parallelism label held up in simulation (parallel families must speed
up, the serial family must not).

The headline result is the **bound breaker**: the chase family's
heap-carried pointer chase misspeculates every iteration while
Equation 1 models the chain as an arc-separation delay, so its
measured error (max 74.7%) blows straight through the 40% fallback
bound the conformance oracle applies to unmeasured programs — the
same mechanism as the documented BitOps outlier, now available as 20
parameterized instances.  EXPERIMENTS.md carries the measured table;
:data:`repro.synth.atlas.FAMILY_ERROR_BOUNDS` pins the ceilings this
gate enforces.

Standalone::

    PYTHONPATH=src:. python benchmarks/bench_synth.py [--quick]

``--quick`` runs 2 instances per family so CI can smoke-test the
harness in seconds; the committed BENCH_synth.json comes from a full
run.  Under pytest the quick variant runs with the gate asserted.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from typing import Dict, List

from repro.conformance.oracle import DEFAULT_ERROR_BOUND
from repro.synth.atlas import FAMILY_ERROR_BOUNDS, build_atlas
from repro.synth.oracle import (
    PARALLEL_MIN_SPEEDUP,
    SERIAL_MAX_SPEEDUP,
)
from repro.workloads.registry import SYNTHETIC, by_category

from benchmarks.conftest import banner

#: quick-mode instances per family (full mode takes every registered
#: instance)
QUICK_PER_FAMILY = 2

#: the family built to exceed the fallback bound; the gate asserts the
#: atlas actually flags it
EXPECTED_BREAKER = "chase"


def _corpus(quick: bool) -> List:
    instances = by_category(SYNTHETIC)
    if not quick:
        return instances
    taken: Dict[str, int] = {}
    subset = []
    for w in instances:
        family = w.label.family
        if taken.get(family, 0) < QUICK_PER_FAMILY:
            taken[family] = taken.get(family, 0) + 1
            subset.append(w)
    return subset


def run_benchmark(quick: bool = False) -> Dict:
    instances = _corpus(quick)
    start = time.perf_counter()
    atlas = build_atlas(instances=instances)
    elapsed = time.perf_counter() - start

    families = [stats.to_dict() for stats in atlas.all_family_stats()]
    labels_total = sum(f["count"] for f in families)
    labels_ok = sum(f["labels_satisfied"] for f in families)

    return {
        "benchmark": "synthetic workload error atlas",
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "quick": quick,
        "instances": len(instances),
        "fleet_seconds": round(elapsed, 3),
        "fallback_bound": DEFAULT_ERROR_BOUND,
        "family_bounds": dict(FAMILY_ERROR_BOUNDS),
        "label_thresholds": {
            "parallel_min_speedup": PARALLEL_MIN_SPEEDUP,
            "serial_max_speedup": SERIAL_MAX_SPEEDUP,
        },
        "families": families,
        "breakers": atlas.breakers(),
        "labels_satisfied": labels_ok,
        "labels_total": labels_total,
        "violations": atlas.violations(),
        "atlas": atlas.to_dict() if not quick else None,
        "notes": (
            "each instance runs the pipeline twice (legacy hydra-tls "
            "and models='all' argmax); families aggregate the "
            "workload-level |pred-act|/act error, the per-model STL "
            "error, and the label-oracle outcome. 'breakers' names "
            "families with instances over the %.0f%% fallback bound "
            "the conformance oracle applies to unmeasured programs."
            % (100 * DEFAULT_ERROR_BOUND)),
    }


def render(results: Dict) -> str:
    lines = [banner("Synthetic error atlas - %d instances, "
                    "%d families" % (results["instances"],
                                     len(results["families"])))]
    lines.append("%-10s %-9s %5s %7s %7s %7s %7s %7s" % (
        "family", "class", "n", "mean%", "max%", "bound%", ">fall",
        "labels"))
    for row in results["families"]:
        lines.append("%-10s %-9s %5d %6.1f%% %6.1f%% %6.1f%% %7d %4d/%d"
                     % (row["family"], row["expected_class"],
                        row["count"], 100 * row["mean_error"],
                        100 * row["max_error"], 100 * row["bound"],
                        row["over_fallback"], row["labels_satisfied"],
                        row["count"]))
    lines.append("")
    lines.append("labels: %d/%d satisfied (parallel >= %.2fx, "
                 "serial <= %.2fx)"
                 % (results["labels_satisfied"],
                    results["labels_total"],
                    results["label_thresholds"]["parallel_min_speedup"],
                    results["label_thresholds"]["serial_max_speedup"]))
    lines.append("bound breakers vs the %.0f%% fallback: %s"
                 % (100 * results["fallback_bound"],
                    ", ".join(results["breakers"]) or "none"))
    return "\n".join(lines)


def _assert_gate(results: Dict) -> None:
    # every instance's label held in simulation, and no measured
    # error escaped its family's calibrated ceiling
    assert results["violations"] == [], results["violations"]
    assert results["labels_satisfied"] == results["labels_total"], \
        (results["labels_satisfied"], results["labels_total"])
    # the corpus covers all five families
    assert len(results["families"]) >= 5, results["families"]
    # the atlas names the family built to break the fallback bound
    assert EXPECTED_BREAKER in results["breakers"], results["breakers"]
    by_name = {f["family"]: f for f in results["families"]}
    chase = by_name[EXPECTED_BREAKER]
    assert chase["max_error"] > results["fallback_bound"], chase
    assert chase["expected_class"] == "serial", chase
    # every family stays inside its measured bound (the calibrated
    # analogue of WORKLOAD_ERROR_BOUNDS)
    for row in results["families"]:
        assert row["max_error"] <= row["bound"], row


def test_synth_bench_quick(capsys):
    """CI smoke: the atlas harness runs end to end on a per-family
    subset, every label holds, and chase still breaks the fallback."""
    results = run_benchmark(quick=True)
    with capsys.disabled():
        print()
        print(render(results))
    _assert_gate(results)


def main(argv: List[str]) -> int:
    quick = "--quick" in argv
    results = run_benchmark(quick=quick)
    print(render(results))
    _assert_gate(results)
    out = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH_synth.json")
    with open(out, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print("wrote %s" % out, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
