"""Ablation — synchronization insertion (Section 6.3 optimization).

The dependency statistics "direct the compiler to variables where ...
synchronization can be inserted to minimize violations".  This bench
re-simulates the violating selected STLs of NumHeapSort and BitOps
with synchronization enabled and compares violation counts and times.
"""

from repro.cfg import find_candidates
from repro.hydra import DEFAULT_HYDRA
from repro.jit import annotate_program, compile_stl
from repro.runtime import ColumnarRecording, run_program
from repro.tls import TraceEngine
from repro.workloads import get_workload

from benchmarks.conftest import banner


def violating_stl(name):
    """(candidate, engine, replay) of the workload's most violating
    STL; the engine is over the workload's recording."""
    w = get_workload(name)
    program = w.compile()
    table = find_candidates(program)
    ann = annotate_program(program, table)
    rec = ColumnarRecording()
    run_program(ann.program, listener=rec)

    engine = TraceEngine(rec)
    worst = None
    for cand in table.candidates():
        entries = engine.split(cand.loop_id)
        if not entries or sum(len(e.sizes) for e in entries) < 8:
            continue
        res = engine.replay(compile_stl(cand), DEFAULT_HYDRA)
        if worst is None or res.violations > worst[2].violations:
            worst = (cand, engine, res)
    return worst


def test_ablation_synchronization(benchmark):
    print(banner("Ablation - synchronization insertion (Sec. 6.3)"))
    print("%-14s %6s | %10s %9s | %10s %9s" % (
        "Benchmark", "loop", "violations", "speedup",
        "sync viol.", "speedup"))

    results = {}
    for name in ("NumHeapSort", "BitOps"):
        cand, engine, plain = violating_stl(name)
        synced = engine.replay(
            compile_stl(cand, synchronize_heap=True), DEFAULT_HYDRA)
        results[name] = (plain, synced)
        print("%-14s L%-5d | %10d %8.2fx | %10d %8.2fx" % (
            name, cand.loop_id, plain.violations, plain.speedup,
            synced.violations, synced.speedup))

    for name, (plain, synced) in results.items():
        # synchronization eliminates violations entirely...
        assert synced.violations == 0, name
        # ...without ever running slower than the violating schedule
        # by more than the communication stalls it introduces
        assert synced.parallel_cycles \
            <= plain.parallel_cycles * 1.25, name

    # at least one of the two actually had violations to remove
    assert any(plain.violations > 0
               for plain, _ in results.values())

    benchmark.pedantic(violating_stl, args=("NumHeapSort",),
                       rounds=1, iterations=1)
