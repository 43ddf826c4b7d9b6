"""Section 6.3 — dependency profiles guide optimization.

Reads the TEST device's per-load-PC critical-arc bins (the paper's
extended implementation, Figure 8b) on the benchmarks the paper says
they helped tune — Huffman, NumHeapSort, db, MipsSimulator — and prints
each program's hottest dependency-carrying load sites.
"""

from repro.jrpm import Jrpm
from repro.workloads import get_workload

from benchmarks.conftest import banner

TUNED = ["Huffman", "NumHeapSort", "db", "MipsSimulator"]


def profiled_report(name):
    w = get_workload(name)
    return Jrpm(source=w.source(), name=name,
                convergence_threshold=None).run(simulate_tls=False)


def test_sec63_dependency_guidance(benchmark):
    print(banner("Section 6.3 - Per-PC dependency profiles"))
    for name in TUNED:
        rep = profiled_report(name)
        dev = rep.device
        print("\n--- %s ---" % name)
        # report the most-covered selected loop's profile
        top = rep.selection.significant()[:1]
        assert top, name
        lid = top[0].loop_id
        print(dev.report(lid, limit=5))

        # the guidance property: for loops with arcs, the profile names
        # concrete load sites whose arcs explain the accumulated stats
        stats = dev.stats[lid]
        profile = dev.profile_for(lid)
        if stats.arcs_prev:
            binned = sum(b.count for (f, p, kind), b
                         in profile.bins.items() if kind == "prev")
            assert binned == stats.arcs_prev, name
            # and each hot site names a real location
            for site in profile.hottest(3):
                assert site.fn
                assert site.pc >= 0

    benchmark.pedantic(profiled_report, args=("Huffman",), rounds=1,
                       iterations=1)
