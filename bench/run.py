"""One-command benchmark of the Jrpm reproduction.

    python bench/run.py                      # every workload once
    python bench/run.py --workload cold_table6 --seed 3 --trace 0
    python bench/run.py --trace              # per-layer breakdown
    python bench/run.py --runs 10 --out set-a.json   # an acceptance set
    python bench/compare.py set-a.json set-b.json

Each run is a fresh process (``bench/child.py``) that imports the
program from this checkout's ``src``, sets the workload up, measures
whole rounds for ``run_seconds`` of BENCHMARK.json, checks every
output, prints each metric by name and unit, and ends with one JSON
result line.  With ``--runs N`` every workload runs N times with seeds
``seed`` .. ``seed + N - 1``; ``--out`` collects every result into one
file.

The run length is part of the benchmark, not a setting: ``--seconds``
is accepted so the command line matches the benchmark contract, and
must equal ``run_seconds``.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: a run that has not ended by then is killed with its process group
RUN_TIMEOUT_S = 175


def run_child(workload: str, seed: int, trace: int, scale: str):
    """Run one workload in a fresh process; returns (exit code, stdout
    lines).  Its stderr passes through."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--scale", scale]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        return proc.returncode, out.splitlines()
    except subprocess.TimeoutExpired:
        print("bench: %s seed %d did not finish in %ds"
              % (workload, seed, RUN_TIMEOUT_S), file=sys.stderr)
        return 1, []
    finally:
        # a run that timed out, or is cut short by this script being
        # stopped, takes its whole process group along (the fleet's
        # pool workers of a traced cold_table6 run)
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 1)[1])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="must be run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="1 (or the bare flag): per-layer metrics")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, each with the next seed")
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full",
                        help="smoke: 8 small programs, one round, "
                             "one set-up")
    parser.add_argument("--out", help="write every result to this file")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if args.seconds != spec["run_seconds"]:
        parser.error("--seconds must be %s, the run_seconds of "
                     "BENCHMARK.json" % spec["run_seconds"])

    # SIGTERM unwinds like Ctrl-C, so the running child is stopped too
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    workloads = [args.workload] if args.workload else names
    records = []
    status = 0
    for seed in range(args.seed, args.seed + args.runs):
        for workload in workloads:
            code, lines = run_child(workload, seed, args.trace,
                                    args.scale)
            result = None
            if code == 0 and lines:
                try:
                    result = json.loads(lines[-1])
                except ValueError:
                    pass
            if result is None:
                status = 1
                print("bench: %s seed %d failed (exit %d)"
                      % (workload, seed, code), file=sys.stderr)
                print("\n".join(lines), file=sys.stderr)
                continue
            print("\n".join(lines), flush=True)
            records.append({"workload": workload, "seed": seed,
                            "trace": args.trace, "scale": args.scale,
                            "seconds": args.seconds, "result": result})
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"runs": records}, handle, indent=1)
            handle.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
