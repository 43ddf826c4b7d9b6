"""Profile pins: for each of the 26 Table 6 programs, the profiled run
(stages 1-2 of ``Jrpm.run``, trace JIT on) must leave the committed TEST
device state and the committed columnar recording.

Each entry holds the SHA-256 of :func:`tests.test_event_stream.device_state`
(every ``STLStats`` field, the event and marker counters, the timestamp
table evictions and conflicts, the converged set), the SHA-256 of the
seven :attr:`ColumnarRecording.COLUMNS`, and the SHA-256 of every loop's
per-load-PC critical-arc bins (Sec. 6.3).  A change to the event stream,
the device or the recording that moves any program's profile shows up
here by name.  Regenerate the fixture only when such a change is
intended::

    PYTHONPATH=src python -m tests.test_profile_pins
"""

import hashlib
import json
import os

import pytest

from repro.jrpm import Jrpm
from repro.runtime.events import ColumnarRecording
from repro.workloads import all_workloads

from tests.test_event_stream import device_state

PINS_PATH = os.path.join(os.path.dirname(__file__), "profile_pins.json")


def recording_digest(recording):
    digest = hashlib.sha256()
    for name in ColumnarRecording.COLUMNS:
        column = getattr(recording, name)
        digest.update(name.encode() + b"\0")
        digest.update(bytes(column))
    return digest.hexdigest()


def arcs_digest(device):
    """SHA-256 of every loop's sorted ``(fn, pc, kind, count,
    total_length, min_length, max_length)`` arc bins."""
    bins = {str(lid): sorted(
                (fn, pc, kind, b.count, b.total_length, b.min_length,
                 b.max_length)
                for (fn, pc, kind), b in device.profile_for(lid).bins.items())
            for lid in sorted(device.stats)}
    return hashlib.sha256(json.dumps(
        bins, sort_keys=True).encode()).hexdigest()


def profile_all():
    """``{workload: (device, {"arcs", "device", "recording"})}`` over
    the Table 6 programs."""
    out = {}
    for workload in all_workloads():
        report = Jrpm(source=workload.source(),
                      name=workload.name).run(simulate_tls=False)
        out[workload.name] = (report.device, {
            "arcs": arcs_digest(report.device),
            "device": hashlib.sha256(json.dumps(
                device_state(report.device),
                sort_keys=True).encode()).hexdigest(),
            "recording": recording_digest(report.recording),
        })
    return out


@pytest.fixture(scope="module")
def profiled():
    return profile_all()


def test_every_profile_matches_pins(profiled):
    with open(PINS_PATH) as fh:
        pinned = json.load(fh)
    assert len(pinned) == 26
    assert sorted(profiled) == sorted(pinned)
    for name, want in pinned.items():
        assert profiled[name][1] == want, name


def test_arc_bins_reconcile_with_stats(profiled):
    """Per bin kind, a loop's arc bins add up to its ``STLStats`` arc
    counters, and every bin names a load site."""
    loops = 0
    for name, (device, _) in profiled.items():
        for lid, stats in device.stats.items():
            sums = {"prev": [0, 0], "earlier": [0, 0]}
            for (fn, pc, kind), b in device.profile_for(lid).bins.items():
                assert fn != "" and pc >= 0, (name, lid, fn, pc)
                sums[kind][0] += b.count
                sums[kind][1] += b.total_length
            assert sums == {
                "prev": [stats.arcs_prev, stats.arc_len_prev],
                "earlier": [stats.arcs_earlier, stats.arc_len_earlier],
            }, (name, lid)
            loops += 1
    assert loops == 194


if __name__ == "__main__":
    pins = {name: entry for name, (_, entry) in profile_all().items()}
    with open(PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote", PINS_PATH)
