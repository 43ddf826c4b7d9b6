"""Event-stream pins: the ordered listener callback stream of a profiled
run, and the TEST device state it leaves, must reproduce the committed
digests exactly, with the trace JIT off and on.

A :class:`CallLog` logs the per-event ``on_*`` callbacks and replays
every batch through the base :meth:`TraceListener.on_mem_batch`, so its
SHA-256 pins the exact order and arguments of every load, store, local
access and loop marker, whatever batches they were delivered in.  It
also counts the batches, for the delivery bound.  The log rides next to
a :class:`TestDevice` whose convergence callback patches ``READSTATS``
sites mid-run, as in the pipeline's profiled run.  Regenerate the
fixture only when a change to the event stream is intended::

    PYTHONPATH=src python -m tests.test_event_stream
"""

import hashlib
import json
import os

import pytest

from repro.cfg.candidates import find_candidates
from repro.hydra.config import DEFAULT_HYDRA
from repro.jit.annotate import AnnotationLevel, annotate_program
from repro.jrpm.slowdown import AnnotationCounter
from repro.jrpm.runtime import ProfilingRuntime
from repro.lang.codegen import compile_source
from repro.runtime.events import MulticastListener, TraceListener
from repro.runtime.interpreter import Interpreter
from repro.tracer.device import TestDevice
from repro.tracer.stats import STLStats
from repro.workloads.registry import get_workload

from tests.conftest import HUFFMAN_SOURCE, NEST_SOURCE

PINS_PATH = os.path.join(os.path.dirname(__file__), "event_stream_pins.json")

#: the program ``test_tracejit``'s mid-run convergence test profiles
CONVERGING_SOURCE = """
func main() {
  var a = array(32);
  var s = 0;
  for (var r = 0; r < 40; r = r + 1) {
    for (var i = 0; i < 32; i = i + 1) {
      a[i] = (a[i] + r + i) % 4093;
    }
    s = (s + a[r % 32]) % 65536;
  }
  return s;
}
"""

#: name -> (source, device convergence threshold, JIT hot threshold)
PROGRAMS = {
    "nest": (NEST_SOURCE, 1000, None),
    "huffman-nest": (HUFFMAN_SOURCE, 1000, None),
    "db": (None, 1000, None),
    "converging": (CONVERGING_SOURCE, 8, 2),
}


class CallLog(TraceListener):
    """Hashes every per-event callback, in arrival order, and counts
    the batches the callbacks arrived in."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.calls = 0
        self.batches = 0
        self.entries = 0
        self.eloops = 0

    def on_mem_batch(self, events):
        self.batches += 1
        self.entries += len(events)
        super().on_mem_batch(events)

    def _log(self, *call):
        self.digest.update(repr(call).encode() + b"\n")
        self.calls += 1

    def on_load(self, address, cycle, fn="", pc=-1):
        self._log("ld", address, cycle, fn, pc)

    def on_store(self, address, cycle, fn="", pc=-1):
        self._log("st", address, cycle, fn, pc)

    def on_local_load(self, frame_id, slot, cycle, fn="", pc=-1):
        self._log("lld", frame_id, slot, cycle, fn, pc)

    def on_local_store(self, frame_id, slot, cycle, fn="", pc=-1):
        self._log("lst", frame_id, slot, cycle, fn, pc)

    def on_sloop(self, loop_id, n_locals, cycle, frame_id=-1):
        self._log("sloop", loop_id, n_locals, cycle, frame_id)

    def on_eoi(self, loop_id, cycle):
        self._log("eoi", loop_id, cycle)

    def on_eloop(self, loop_id, cycle):
        self.eloops += 1
        self._log("eloop", loop_id, cycle)

    def on_readstats(self, loop_id, cycle):
        self._log("readstats", loop_id, cycle)


def device_state(device):
    """Every statistic the device accumulated, as plain data."""
    return {
        "stats": {str(lid): [getattr(st, name) for name in STLStats.__slots__]
                  for lid, st in sorted(device.stats.items())},
        "counters": [device.n_loads, device.n_stores,
                     device.n_local_loads, device.n_local_stores,
                     device.n_sloop, device.n_eoi, device.n_eloop,
                     device.n_readstats, device.n_unbanked_activations,
                     device.n_bank_steals],
        "tables": [device.heap_ts.evictions, device.local_ts.evictions,
                   device.ld_line_ts.conflicts,
                   device.st_line_ts.conflicts],
        "converged": sorted(device.converged),
    }


def profile(name, trace_jit, log=None):
    """Profile ``name`` as the pipeline does, with the listener ``log``
    (a fresh :class:`CallLog` by default) next to the device; returns
    ``(run result, device, log)``."""
    source, convergence, hot = PROGRAMS[name]
    if source is None:
        source = get_workload(name).source()
    program = compile_source(source)
    annotated = annotate_program(program, find_candidates(program),
                                 AnnotationLevel.OPTIMIZED)
    device = TestDevice(DEFAULT_HYDRA)
    device.convergence_threshold = convergence
    for lid, cand in annotated.annotated_loops.items():
        device.register_loop_locals(lid, cand.tracked_locals)
    log = CallLog() if log is None else log
    interp = Interpreter(annotated.program,
                         listener=MulticastListener([device, log]),
                         trace_jit=trace_jit, trace_jit_threshold=hot)
    device.on_converged = ProfilingRuntime(annotated.program,
                                           interp).on_converged
    result = interp.run()
    device.finish()
    return result, device, log


def pin(name, trace_jit, log=None):
    result, device, log = profile(name, trace_jit, log)
    return {
        "calls": log.calls,
        "sha256": log.digest.hexdigest(),
        "cycles": result.cycles,
        "instructions": result.instructions,
        "device": hashlib.sha256(json.dumps(
            device_state(device), sort_keys=True).encode()).hexdigest(),
    }


def pin_all():
    return {"%s/jit=%s" % (name, jit): pin(name, jit)
            for name in PROGRAMS for jit in (False, True)}


@pytest.fixture(scope="module")
def pinned():
    with open(PINS_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace_jit", [False, True],
                         ids=["jit-off", "jit-on"])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_stream_matches_pin(pinned, name, trace_jit):
    log = CallLog()
    assert pin(name, trace_jit, log) == \
        pinned["%s/jit=%s" % (name, trace_jit)]
    # markers other than eloop ride in the batch: a batch is delivered
    # only when it is full, before an eloop and at exit
    assert log.entries == log.calls - log.eloops
    assert log.batches <= log.eloops + -(-log.entries // 512) + 1


def test_jit_does_not_change_the_pinned_stream(pinned):
    """A superblock publishes exactly what the generic loop would, so
    each program's pin is the same with the trace JIT off and on."""
    for name in PROGRAMS:
        assert pinned["%s/jit=False" % name] == \
            pinned["%s/jit=True" % name], name


def test_annotation_counter_sees_batched_markers():
    """A counting listener fed the batched stream tallies what the
    device counted itself."""
    counter = AnnotationCounter()
    _, device, _ = profile("nest", True, counter)
    assert vars(counter) == vars(AnnotationCounter.from_device(device))
    assert counter.eoi and counter.sloop and counter.readstats


def test_pins_cover_mid_run_patching():
    """The converging program really patches code mid-run under both
    dispatch modes, so its pin guards the synchronous ``eloop``."""
    for trace_jit in (False, True):
        result, device, _ = profile("converging", trace_jit)
        assert device.converged
        if trace_jit:
            assert result.jit["invalidations"] >= 1


if __name__ == "__main__":
    with open(PINS_PATH, "w") as fh:
        json.dump(pin_all(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote", PINS_PATH)
