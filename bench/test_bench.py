"""Smoke test of the benchmark: every workload at smoke scale (8 small
programs, one round), untraced and traced.

    python -m pytest bench/test_bench.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import Tracer  # noqa: E402


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_smoke(trace: int, out: str) -> list:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--scale", "smoke",
         "--trace", str(trace), "--out", out],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(out) as handle:
        return json.load(handle)["runs"]


def test_every_metric_is_emitted_with_its_unit_and_no_op_fails(tmp_path):
    spec = load_spec()
    names = sorted(w["name"] for w in spec["workloads"])
    outs = {}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        outs[trace] = str(tmp_path / ("trace%d.json" % trace))
        runs = run_smoke(trace, outs[trace])
        assert sorted(r["workload"] for r in runs) == names
        units = {m["name"]: m["unit"] for m in spec[kind]}
        for run in runs:
            result = run["result"]
            assert result["attempted"] > 0
            assert result["failed"] == 0, run["workload"]
            assert result["correct"], run["workload"]
            emitted = {name: m["unit"]
                       for name, m in result["metrics"].items()}
            assert emitted == units, run["workload"]
            for name, metric in result["metrics"].items():
                value = metric["value"]
                assert isinstance(value, (int, float)), (name, value)
                if kind == "end_to_end":
                    assert value > 0, (run["workload"], name)
            if kind == "end_to_end":
                # error_rate, failed over attempted, is 0
                assert result["metrics"]["success_rate"]["value"] == 1.0
    # a set compared with itself is within every bound
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"), outs[0],
         outs[0]], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_missing_hook_is_reported_not_raised():
    tracer = Tracer()
    tracer.hook(object(), "no_such_function", "gone.layer")
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["gone.layer"]


def test_self_time_excludes_child_spans():
    class Layer:
        def outer(self):
            return self.inner()

        def inner(self):
            return 1

    tracer = Tracer()
    tracer.hook(Layer, "outer", "a")
    tracer.hook(Layer, "inner", "b")
    tracer.install()
    try:
        with tracer.op(1):
            Layer().outer()
    finally:
        tracer.uninstall()
    assert Layer.outer.__name__ == "outer"
    (_, _, a_start, a_end, _, _), = [s for s in tracer.spans
                                     if s[1] == "a"]
    (_, _, b_start, b_end, b_parent, op), = [s for s in tracer.spans
                                             if s[1] == "b"]
    assert op == 1
    assert b_parent == [s for s in tracer.spans if s[1] == "a"][0][0]
    totals = tracer.self_times()
    assert abs(totals["a"] - ((a_end - a_start) - (b_end - b_start))) \
        < 1e-12
    assert tracer.ops() == 1
