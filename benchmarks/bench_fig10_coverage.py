"""Figure 10 — selected STLs, their coverage, and predicted execution
time per benchmark.

Each printed row is one of the figure's two columns: the sequential
decomposition of the run into selected STLs plus the serial remainder,
and the same blocks scaled by the predicted STL speedups.  Shape
targets: near-total coverage for the numeric kernels; visible serial
remainders for compress-style programs; predicted bars strictly below
1.0 when anything was selected.
"""

from repro.workloads import all_workloads

from benchmarks.conftest import banner


def test_fig10_selected_stl_coverage(benchmark, fleet_reports):
    print(banner("Figure 10 - Selected STLs: coverage and predicted "
                 "normalized time"))
    print("%-14s %5s %9s %9s %10s   %s" % (
        "Benchmark", "STLs", "coverage", "serial", "predicted",
        "top STL blocks (share@speedup)"))

    for w in all_workloads():
        rep = fleet_reports[w.name]
        sel = rep.selection
        blocks = []
        for s in sel.significant()[:3]:
            share = s.sequential_time / sel.total_cycles
            blocks.append("%2.0f%%@%.1fx" % (100 * share,
                                             s.estimate.speedup))
        print("%-14s %5d %8.1f%% %8.1f%% %10.3f   %s" % (
            w.name, len(sel.selected), 100 * sel.coverage,
            100 * (1 - sel.coverage),
            1.0 / sel.predicted_speedup,
            " ".join(blocks)))

    reports = fleet_reports

    # coverage is a fraction, and selections exist everywhere
    for name, rep in reports.items():
        assert 0.0 < rep.coverage <= 1.0, name
        assert rep.selection.selected, name
        # Figure 10: predicted bars never exceed sequential
        assert rep.selection.predicted_speedup >= 1.0, name

    # compress keeps a large serial remainder (its dictionary loop
    # carries the prefix chain), like the paper's db/jess/jLex/mp3 group
    assert reports["compress"].coverage < 0.5

    # the numeric kernels cover nearly everything
    for name in ("IDEA", "FourierTest", "shallow", "raytrace"):
        assert reports[name].coverage > 0.9, name

    # several programs have many STLs contributing (Assignment-like)
    many = [n for n, r in reports.items()
            if len(r.selection.significant()) >= 4]
    assert len(many) >= 5

    # time the coverage computation over one report
    rep = reports["NeuralNet"]
    benchmark(lambda: rep.selection.coverage)
