"""Run one benchmark workload in this process and print its result.

``bench/run.py`` starts one fresh process of this script per run::

    python bench/child.py --workload cold_table6 --seed 1 --trace 0 \\
        --scale full

It prints every metric by name and unit, then, as the last line, the
result object ``{"correct", "attempted", "failed", "metrics"}``.  An
untraced run reports the ``end_to_end`` metrics of BENCHMARK.json, a
traced run the ``per_layer`` ones; a layer the workload does not pass
through reads 0, and a layer whose hook target is gone reads null.
The run length is ``run_seconds`` of BENCHMARK.json.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: fresh interpreters timed importing the program; setup_s takes the
#: median (one import reads 0.15-0.29 s here, with no pattern a single
#: sample could be corrected for)
IMPORT_REPEATS = 5


def load_program() -> None:
    """Import the program under test from this checkout's ``src``."""
    sys.path.insert(0, SRC)
    import repro
    if os.path.dirname(os.path.abspath(repro.__file__)) \
            != os.path.join(SRC, "repro"):
        raise ImportError("repro resolved to %s, not %s"
                          % (repro.__file__, SRC))
    import repro.jrpm  # noqa: F401
    from repro.workloads.registry import all_workloads
    all_workloads()


def print_import_seconds() -> None:
    """In a fresh interpreter: import the program and print the time it
    took in reference seconds (see :mod:`probe`)."""
    start = time.perf_counter()
    load_program()
    elapsed = time.perf_counter() - start
    import probe
    probe.probe()  # the first run in a process is slower
    print(elapsed * probe.REFERENCE_S / probe.probe())


def import_seconds(repeats: int) -> float:
    """Median of :func:`print_import_seconds` over ``repeats`` fresh
    interpreters."""
    return statistics.median(float(subprocess.run(
        [sys.executable, "-c", "import child; child.print_import_seconds()"],
        cwd=HERE, capture_output=True, text=True, check=True).stdout)
        for _ in range(repeats))


def peak_rss_mib() -> float:
    """Peak RSS of this process; ru_maxrss is in KiB on Linux."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run, workload, import_s: float, setups) -> dict:
    import suite

    sim = workload.simulated()
    return {
        "ops_per_s": (run.attempted - run.failed) / run.measured_s,
        "success_rate": (run.attempted - run.failed) / run.attempted
        if run.attempted else 0.0,
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": peak_rss_mib(),
        "profiling_slowdown_geomean": suite.geomean([s[0] for s in sim]),
        "fig11_speedup_geomean": suite.geomean([s[2] for s in sim]),
        "fig11_error_pct": 100.0 * sum(abs(p - a) / a for _, p, a in sim)
        / len(sim),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    try:
        load_program()
    except ImportError as exc:
        print("bench: cannot import the program from %s: %s"
              % (SRC, exc), file=sys.stderr)
        return 2

    import spans
    import suite

    with open(os.path.join(HERE, "expected.json")) as handle:
        expected = json.load(handle)
    smoke = args.scale == "smoke"
    tracer = spans.pipeline_tracer() if args.trace else None
    workload = suite.WORKLOADS[args.workload](
        args.seed, spec["run_seconds"], smoke, expected, tracer)
    run = suite.Run()
    setups = [workload.setup() for _ in range(
        1 if args.trace or smoke else workload.setup_repeats)]
    if args.trace:
        workload.trace(run)
    else:
        workload.measure(run)

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    if args.trace:
        metrics_spec = spec["per_layer"]
        values = dict(run.layers)
        for name in tracer.missing:
            values[name + "_s"] = None
        tracer.dump(os.path.join(out_dir, "spans-%s-%d.json"
                                 % (args.workload, args.seed)))
    else:
        metrics_spec = spec["end_to_end"]
        import_s = import_seconds(1 if smoke else IMPORT_REPEATS)
        values = end_to_end(run, workload, import_s, setups)
        with open(os.path.join(out_dir, "ops-%s-%d.json"
                               % (args.workload, args.seed)), "w") as out:
            json.dump({"setups": setups, "import_s": import_s,
                       "measured_s": run.measured_s,
                       "samples": run.samples, "probed": run.probed}, out)

    metrics = {}
    for metric in metrics_spec:
        name = metric["name"]
        value = values.get(name, 0.0)
        metrics[name] = {"value": value, "unit": metric["unit"]}
        print("%-14s %-34s %18s %s" % (
            args.workload, name,
            "null" if value is None else "%.6g" % value, metric["unit"]))
    for problem in run.problems:
        print("problem: %s" % problem)
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems
        and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
