"""Figure 4 — the speculative-state overflow analysis worked example.

Replays a scripted LD/ST sequence in the shape of the figure's columns
and prints, per access, the figure's derived columns: timestamp hit,
in-current-thread?, and the running load/store line counters.
"""

from repro.hydra import HydraConfig
from repro.runtime.heap import line_of
from repro.tracer import ComparatorBank, TestDevice
from repro.tracer.stats import DependencyProfile, STLStats

from benchmarks.conftest import banner

# the figure's access trace (op, address); "New thread" rows are eoi
TRACE = [
    ("NEW", 0),
    ("LD", 0x20000),
    ("ST", 0x10040),
    ("LD", 0x20008),
    ("LD", 0x20040),
    ("NEW", 0),
    ("LD", 0x20000),
    ("LD", 0x10040),
    ("ST", 0x10040),
    ("ST", 0x10048),
    ("LD", 0x20000),
]


def test_fig4_overflow_analysis(benchmark):
    config = HydraConfig()
    dev = TestDevice(config)

    print(banner("Figure 4 - Speculative state overflow analysis"))
    print("%-4s %-9s %-6s %8s %8s %9s" % (
        "op", "address", "line", "LD-count", "ST-count", "overflow?"))

    dev.on_sloop(0, 0, 0)
    cycle = 5
    bank = dev._stack[-1].bank
    for op, addr in TRACE:
        if op == "NEW":
            if cycle > 5:
                dev.on_eoi(0, cycle)
            print("---- new thread ----")
        elif op == "LD":
            dev.on_load(addr, cycle)
            print("%-4s 0x%07x %-6d %8d %8d %9s" % (
                op, addr, line_of(addr), bank.load_lines,
                bank.store_lines, "no"))
        else:
            dev.on_store(addr, cycle)
            print("%-4s 0x%07x %-6d %8d %8d %9s" % (
                op, addr, line_of(addr), bank.load_lines,
                bank.store_lines, "no"))
        cycle += 5
    dev.on_eoi(0, cycle)
    dev.on_eloop(0, cycle + 1)
    dev.finish()

    stats = dev.stats[0]
    # thread 1 touches 2 distinct load lines (0x20000 and 0x20008
    # share one) + 1 store line; thread 2 touches 2 load lines and 1
    # store line (0x10040 and 0x10048 share a line)
    assert stats.load_lines_total == 2 + 2
    assert stats.store_lines_total == 1 + 1
    assert stats.overflow_threads == 0

    # with limits of two lines, thread 1's third load line overflows
    def tiny_limit_kernel():
        cfg = HydraConfig(load_buffer_lines=2, load_buffer_assoc=2)
        st = STLStats(0)
        bank = ComparatorBank(cfg, st, DependencyProfile(0))
        bank.start_entry(0)
        for i in range(3):
            bank.observe_line_load(None)
        bank.end_iteration(100)
        bank.end_entry(101)
        return st.overflow_threads

    assert benchmark(tiny_limit_kernel) == 1
