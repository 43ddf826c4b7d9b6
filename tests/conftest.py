"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import os

import pytest

from repro.conformance.campaign import DEFAULT_FUZZ_SEED
from repro.hydra import DEFAULT_HYDRA
from repro.jrpm import Jrpm
from repro.lang import compile_source
from repro.runtime.events import ColumnarRecording, local_slot
from repro.tls import schedule, split_trace
from repro.tls.plan import build_plan

HERE = os.path.dirname(__file__)


def _test_seed() -> int:
    """The suite's base fuzz seed: ``$JRPM_TEST_SEED`` overrides the
    built-in default, so a CI failure replays locally by exporting the
    seed the job printed."""
    return int(os.environ.get("JRPM_TEST_SEED", DEFAULT_FUZZ_SEED))


@pytest.fixture(scope="session")
def fuzz_seed() -> int:
    """Base seed for every seeded-randomness test in the suite.

    All generated-program tests derive their seeds from this one
    fixture; on failure the replay hint below names the exact
    ``jrpm conform`` invocation that reproduces the program outside
    pytest."""
    return _test_seed()


@pytest.fixture
def synth_replay(request):
    """Recorder for tests that exercise synthetic instances: call it
    with each workload under test, and a failure's report names the
    family and the exact ``jrpm synth`` invocation (family, seed,
    per-family count) that regenerates the failing program."""
    def record(workload):
        hints = getattr(request.node, "_synth_replays", None)
        if hints is None:
            hints = []
            request.node._synth_replays = hints
        hint = "%s: %s" % (workload.name, workload.replay_hint())
        if hint not in hints:
            hints.append(hint)
    return record


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Attach a replay recipe to any failing test that consumed the
    shared seed (or synthetic instances), so seeded failures are
    reproducible from the log."""
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or not report.failed:
        return
    if "fuzz_seed" in getattr(item, "fixturenames", ()):
        seed = _test_seed()
        report.sections.append((
            "seed replay",
            "base seed %d (JRPM_TEST_SEED overrides); replay a "
            "program with: jrpm conform --fuzz 1 --seed %d"
            % (seed, seed)))
    synth_hints = getattr(item, "_synth_replays", None)
    if synth_hints:
        report.sections.append((
            "synthetic replay",
            "regenerate the instance(s) under test (the failing one "
            "is the last each command emits):\n"
            + "\n".join(synth_hints)))

#: a small nest: parallel init loop, reduction loop, nested matrix loop
NEST_SOURCE = """
func main() {
  var a = array(64);
  var s = 0;
  for (var i = 0; i < 8; i = i + 1) {
    for (var j = 0; j < 8; j = j + 1) {
      a[i * 8 + j] = i + j;
    }
  }
  for (var k = 0; k < 64; k = k + 1) {
    s = s + a[k];
  }
  return s;
}
"""

#: the paper's Figure 3 loop shape: outer symbol loop, inner bit chase
HUFFMAN_SOURCE = """
func main() {
  var tree_left = array(32);
  var tree_right = array(32);
  var tree_char = array(32);
  var bits = array(2048);
  var out = array(2048);
  for (var n = 0; n < 32; n = n + 1) {
    if (n < 15) {
      tree_left[n] = 2 * n + 1;
      tree_right[n] = 2 * n + 2;
    } else {
      tree_left[n] = -1;
      tree_right[n] = -1;
    }
    tree_char[n] = n % 61;
  }
  var seed = 12345;
  for (var b = 0; b < 2048; b = b + 1) {
    seed = (seed * 1103515245 + 12345) % 2147483648;
    bits[b] = (seed >> 16) & 1;
  }
  var in_p = 0;
  var out_p = 0;
  while (in_p < 2040) {
    var node = 0;
    while (tree_left[node] != -1) {
      if (bits[in_p] == 0) { node = tree_left[node]; }
      else { node = tree_right[node]; }
      in_p = in_p + 1;
    }
    out[out_p] = tree_char[node];
    out_p = out_p + 1;
  }
  return out_p;
}
"""


def columnar_entry(threads, frame_id=0):
    """One split entry from ``(size, [(rel, kind, addr)])`` tuples.

    A :class:`ColumnarRecording` is driven through its listener
    callbacks (``kind`` is ``"ld"``, ``"st"``, ``"lld"`` or ``"lst"``;
    a local's ``addr`` is its ``local_address``), with an ``eoi`` after
    each thread and the ``eloop`` on the last one, and
    :func:`split_trace` cuts the entry back out.  Each thread's events
    must be in cycle order, inside ``[0, size)``.
    """
    rec = ColumnarRecording()
    rec.on_sloop(0, 0, 0, frame_id)
    start = 0
    for size, events in threads:
        last = 0
        for rel, kind, addr in events:
            assert last <= rel < size, (rel, size)
            last = rel
            cycle = start + rel
            if kind == "ld":
                rec.on_load(addr, cycle)
            elif kind == "st":
                rec.on_store(addr, cycle)
            elif kind == "lld":
                rec.on_local_load(*local_slot(addr), cycle)
            else:
                assert kind == "lst", kind
                rec.on_local_store(*local_slot(addr), cycle)
        start += size
        rec.on_eoi(0, start)
    rec.on_eloop(0, start)
    [entry] = split_trace(rec, 0)
    return entry


def replay(entries, compilation, config=DEFAULT_HYDRA, post_wait=False):
    """Replay hand-built ``entries``: plan them, then time the plan
    (restart-on-violation, or post/wait when ``post_wait`` is set)."""
    return schedule(build_plan(entries, compilation, config), compilation,
                    config, post_wait)


@pytest.fixture(scope="session")
def nest_program():
    """Compiled NEST_SOURCE program."""
    return compile_source(NEST_SOURCE)


@pytest.fixture(scope="session")
def huffman_report():
    """Full pipeline report for the Huffman-shaped nest (expensive;
    shared across the suite)."""
    return Jrpm(source=HUFFMAN_SOURCE, name="huffman-nest").run()


@pytest.fixture(scope="session")
def goldens():
    """Recorded reference outputs for every workload."""
    with open(os.path.join(HERE, "goldens.json")) as handle:
        return json.load(handle)
