"""Profile pins: for each of the 26 Table 6 programs, the profiled run
(stages 1-2 of ``Jrpm.run``, trace JIT on) must leave the committed TEST
device state and the committed columnar recording.

Each entry holds the SHA-256 of :func:`tests.test_event_stream.device_state`
(every ``STLStats`` field, the event and marker counters, the timestamp
table evictions and conflicts, the converged set) and the SHA-256 of the
seven :attr:`ColumnarRecording.COLUMNS`.  A change to the event stream,
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


def profile_all():
    """``{workload: {"device", "recording"}}`` over the Table 6 programs."""
    pins = {}
    for workload in all_workloads():
        report = Jrpm(source=workload.source(),
                      name=workload.name).run(simulate_tls=False)
        pins[workload.name] = {
            "device": hashlib.sha256(json.dumps(
                device_state(report.device),
                sort_keys=True).encode()).hexdigest(),
            "recording": recording_digest(report.recording),
        }
    return pins


@pytest.fixture(scope="module")
def profiled():
    return profile_all()


def test_every_profile_matches_pins(profiled):
    with open(PINS_PATH) as fh:
        pinned = json.load(fh)
    assert len(pinned) == 26
    assert sorted(profiled) == sorted(pinned)
    for name, want in pinned.items():
        assert profiled[name] == want, name


if __name__ == "__main__":
    with open(PINS_PATH, "w") as fh:
        json.dump(profile_all(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote", PINS_PATH)
