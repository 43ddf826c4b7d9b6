"""Compare benchmark result sets.

    python bench/compare.py A.json B.json   # A: the parent, B: the change
    python bench/compare.py A.json          # one set: medians and spreads

The files are what ``bench/run.py --runs N --out FILE`` writes.  For
every workload and metric this prints each side's median and quartiles
(``statistics.quantiles(values, n=4)``).  The spread of a set is the
distance between its quartiles as a share of its median.  Each
end-to-end metric gets a verdict against its bound in BENCHMARK.json:

* ``unresolved`` -- a side's spread is wider than the bound, and not
  every run of B reads better than every run of A;
* ``worse`` -- B's median is worse than A's by more than the bound;
* ``within-bound`` -- otherwise.

Per-layer metrics have no bound and are listed for reading only.  The
exit status is 1 when any verdict is ``worse`` or ``unresolved``, or
when any run's outputs were not correct, and 2 when the runs were not
all made with the same run length, scale and tracing.
"""

import json
import math
import os
import statistics
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: what every compared run must have been made with
SETTINGS = ("seconds", "scale", "trace")


def load(path: str) -> Tuple[Dict, List[str], set]:
    """{(workload, metric): [values]}, the runs whose outputs were not
    correct, and the distinct settings the runs were made with."""
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    values: Dict = {}
    bad = []
    settings = set()
    for record in runs:
        settings.add(tuple(record[key] for key in SETTINGS))
        result = record["result"]
        if not result["correct"]:
            bad.append("%s seed %d: %d of %d ops failed" % (
                record["workload"], record["seed"], result["failed"],
                result["attempted"]))
        for name, metric in result["metrics"].items():
            if metric["value"] is not None:
                values.setdefault((record["workload"], name), []).append(
                    metric["value"])
    return values, bad, settings


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(q: Tuple[float, float, float]) -> float:
    if q[1]:
        return (q[2] - q[0]) / abs(q[1])
    return 0.0 if q[2] == q[0] else math.inf


def verdict(a: List[float], b: List[float], metric: Dict) -> str:
    higher = metric["better"] == "higher"
    bound = metric["bound"]
    qa, qb = quartiles(a), quartiles(b)

    def worse_share(base: float, new: float) -> float:
        if base:
            change = (new - base) / abs(base)
        else:
            change = 0.0 if new == base else math.inf
        return -change if higher else change

    beats = all(worse_share(x, y) < 0 for x in a for y in b)
    if max(spread(qa), spread(qb)) > bound and not beats:
        return "unresolved"
    if worse_share(qa[1], qb[1]) > bound:
        return "worse"
    return "within-bound"


def fmt(q: Tuple[float, float, float]) -> str:
    return "%.5g [%.5g, %.5g]" % (q[1], q[0], q[2])


def main(argv: List[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    metrics = [dict(m, kind="end_to_end") for m in spec["end_to_end"]] \
        + [dict(m, kind="per_layer") for m in spec["per_layer"]]
    sets = []
    settings = set()
    status = 0
    for path in argv:
        values, bad, made_with = load(path)
        sets.append(values)
        settings |= made_with
        for line in bad:
            print("%s: outputs not correct: %s" % (path, line))
            status = 1
    if len(settings) > 1:
        print("runs differ in (%s): %s; compare runs made alike"
              % (", ".join(SETTINGS), sorted(settings)), file=sys.stderr)
        return 2

    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in metrics:
            key = (workload, metric["name"])
            if any(key not in values for values in sets):
                continue
            qs = [quartiles(values[key]) for values in sets]
            line = "%-14s %-34s %-5s" % (workload, metric["name"],
                                         metric["unit"])
            if len(sets) == 1:
                line += " %-40s spread %.2f%%" % (fmt(qs[0]),
                                                  100 * spread(qs[0]))
                if metric["kind"] == "end_to_end":
                    wide = spread(qs[0]) > metric["bound"]
                    line += " (bound %g%%)%s" % (
                        100 * metric["bound"], " WIDE" if wide else "")
                    if wide:
                        status = 1
            else:
                line += " A %-36s B %-36s" % (fmt(qs[0]), fmt(qs[1]))
                if metric["kind"] == "end_to_end":
                    result = verdict(sets[0][key], sets[1][key], metric)
                    line += " " + result
                    if result != "within-bound":
                        status = 1
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
