"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import os
from itertools import islice
from typing import Dict, List, Tuple

import pytest

from repro.conformance.campaign import DEFAULT_FUZZ_SEED
from repro.errors import SimulationError
from repro.hydra import DEFAULT_HYDRA, HydraConfig
from repro.jit.speculative import STLCompilation
from repro.jrpm import Jrpm
from repro.lang import compile_source
from repro.runtime.events import ColumnarRecording, local_slot
from repro.tls import schedule, split_trace
from repro.tls.plan import (
    DEP_HEAP,
    DEP_HIT,
    DEP_MISS,
    NO_OVERFLOW,
    ReplayPlan,
    build_plan,
)
from repro.tls.simulator import DoacrossResult, TLSResult

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


def reference_schedule(plan: ReplayPlan, compilation: STLCompilation,
                       config: HydraConfig,
                       post_wait: bool = False) -> TLSResult:
    """The reference timing pass: schedule ``plan``'s threads under
    ``config``, in O(threads + dependences), walking every dependence
    of the plan for every configuration.  The dependence policy is
    post/wait (DOACROSS) when ``post_wait`` is set, else
    restart-on-violation (Hydra TLS).

    This is the timing pass as it stood before it read compacted wait
    entries, kept as the reference :func:`repro.tls.simulator.schedule`
    must match field for field."""
    loop_id = compilation.loop_id
    result = DoacrossResult(loop_id) if post_wait \
        else TLSResult(loop_id)
    p = config.n_cpus
    comm = config.store_load_comm_overhead
    restart = config.violation_restart_overhead
    eoi = config.eoi_overhead
    # post/wait waits on every heap arc; restart-on-violation does
    # only under the Section 6.3 synchronization optimization
    wait_heap = post_wait or compilation.synchronize_heap
    # post/wait commits iterations as they go: nothing overflows
    overflow = [NO_OVERFLOW] * len(plan.sizes) if post_wait \
        else plan.overflow
    #: each thread's start time so far, and the time each overflowed
    #: thread resumed as head
    started: List[int] = []
    resumed: Dict[int, int] = {}
    threads = zip(plan.sizes, overflow, plan.dep_counts)
    deps = zip(plan.load_rel, plan.producer, plan.store_rel,
               plan.kinds)

    for total, n in zip(plan.entry_cycles, plan.entry_threads):
        if n == 0:
            result.add(0, total, 0, 0, 0)
            continue
        cpu_free = [0] * p
        commit_prev = 0
        prev_start = config.startup_overhead  # loop startup first
        violations = overflows = posts = hits = 0

        for j, (size, ov, count) in enumerate(islice(threads, n)):
            start = cpu_free[j % p]
            if prev_start > start:
                start = prev_start
            heap_deps = []
            for load, k, store, kind in islice(deps, count):
                # the producer's stores after its overflow point
                # only drained once it resumed as head
                k_ov = overflow[k]
                if 0 <= k_ov < store:
                    store_abs = resumed[k] + (store - k_ov)
                else:
                    store_abs = started[k] + store
                if kind == DEP_HEAP:
                    if not wait_heap:
                        heap_deps.append((load, store_abs))
                        continue
                    posts += 1
                elif post_wait:
                    # a confident live-in prediction skips the wait
                    # when right, and waits and restarts from the
                    # load when wrong
                    if kind == DEP_HIT:
                        hits += 1
                        continue
                    if kind == DEP_MISS:
                        violations += 1
                        store_abs += restart
                    else:
                        posts += 1
                # wait for the producer's store plus the store-load
                # communication delay
                need = store_abs + comm - load
                if need > start:
                    start = need
            if heap_deps:
                start, restarts = _reference_restart(start, heap_deps,
                                                     restart)
                violations += restarts

            if ov == NO_OVERFLOW:
                finish = start + size + eoi
            else:
                # stall at the overflow point until head, then drain
                overflows += 1
                resume = resumed[len(started)] = max(start + ov,
                                                     commit_prev)
                finish = resume + (size - ov) + eoi
            started.append(start)
            if finish > commit_prev:
                commit_prev = finish
            cpu_free[j % p] = commit_prev
            prev_start = start

        result.add(commit_prev + config.shutdown_overhead, total,
                   violations, overflows, n)
        if post_wait:
            # consumption-side books: a prediction counts when a
            # waiter used it, and every post/wait violation is a
            # misprediction, so violations == predictions - hits by
            # construction
            result.predictions += hits + violations
            result.predicted_hits += hits
            result.posts += posts
    return result


def _reference_restart(start: int, heap_deps: List[Tuple[int, int]],
                       restart: int) -> Tuple[int, int]:
    """Restart on violation: ``(start, violations)`` of a thread that
    starts at ``start`` and loads at ``(load rel, store time)``
    ``heap_deps``.

    A heap violation fires when the producing store executes and the
    consumer has already read the address; the consumer restarts
    *then* (store time + restart penalty) and re-executes, so later
    loads land later and may no longer violate.  Each restart strictly
    raises the start time, so this converges; the bound only protects
    against a modelling bug.
    """
    for violations in range(100_000):
        violated = [store_abs for load, store_abs in heap_deps
                    if start + load < store_abs]
        if not violated:
            return start, violations
        start = min(violated) + restart
    raise SimulationError(  # pragma: no cover - safety net
        "violation resolution did not converge")


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
