"""Per-loop replay pins: every selected loop of five Table 6 programs and
the two test-suite nests, replayed under both speculative models, must
reproduce the committed ``vars()`` of its result exactly; a hydra-tls
replay must also reproduce the ``(overflow rel, thread size)`` points
of the plan it timed (``ReplayPlan.overflow_points``).

The fixture covers TLS violations (deltaBlue, BitOps), TLS buffer
overflows (BitOps under the small configuration), DOACROSS live-in
mispredictions (compress), and the Section 6.3 ``synchronize_heap``
branch of both models.  db and the two nests are the sources
``test_trace_engine.py`` replays; Huffman's decode loops load through
an index they overwrite (``t = a[t]``).  Regenerate the fixture only
when a change to simulated numbers is intended::

    PYTHONPATH=src python -m tests.test_replay_pins
"""

import json
import os

import pytest

from repro.hydra import DEFAULT_HYDRA, HydraConfig
from repro.jit import compile_stl
from repro.jrpm import Jrpm
from repro.models import get_model
from repro.tls import TraceEngine
from repro.workloads.registry import get_workload

from tests.conftest import HUFFMAN_SOURCE, NEST_SOURCE

PINS_PATH = os.path.join(os.path.dirname(__file__), "replay_pins.json")

WORKLOADS = ("compress", "deltaBlue", "BitOps", "db", "Huffman")
#: inline sources, keyed by the row tests' parameter ids
SOURCES = {"nest": NEST_SOURCE, "huffman-nest": HUFFMAN_SOURCE}
MODELS = ("hydra-tls", "doacross")
CONFIGS = {
    "default": DEFAULT_HYDRA,
    "small": HydraConfig(n_cpus=2, load_buffer_lines=16,
                         store_buffer_lines=4,
                         violation_restart_overhead=20),
}


def replay_all():
    """``{workload/L<id>/model/config/sync=<bool>: vars(result)}`` for
    every selected loop of :data:`WORKLOADS` and :data:`SOURCES` under
    ``models="all"``; a hydra-tls entry also holds its plan's
    ``overflow_points``."""
    sources = {name: get_workload(name).source() for name in WORKLOADS}
    sources.update(SOURCES)
    pins = {}
    for name, source in sources.items():
        report = Jrpm(source=source, name=name,
                      models="all").run(simulate_tls=False)
        engine = TraceEngine(report.recording)
        for lid in report.selection.selected_ids():
            cand = report.candidates.by_id[lid]
            for cname, config in CONFIGS.items():
                for sync in (False, True):
                    comp = compile_stl(cand, config,
                                       synchronize_heap=sync)
                    for model in MODELS:
                        result = get_model(model).simulate(
                            comp, config, engine)
                        key = "%s/L%d/%s/%s/sync=%s" % (
                            name, lid, model, cname, sync)
                        pins[key] = vars(result)
                        if model == "hydra-tls":
                            pins[key]["overflow_points"] = [
                                list(point) for point in engine.plan(
                                    comp, config).overflow_points()]
    return pins


@pytest.fixture(scope="module")
def replayed():
    return replay_all()


def test_replay_matches_pins(replayed):
    with open(PINS_PATH) as fh:
        pinned = json.load(fh)
    assert sorted(replayed) == sorted(pinned)
    for key, want in pinned.items():
        assert replayed[key] == want, key


def test_pins_exercise_every_policy_branch(replayed):
    """The pinned set still reaches the branches it exists to guard."""
    def total(field, model, sync, config=None):
        return sum(r[field] for k, r in replayed.items()
                   if "/%s/" % model in k and k.endswith("sync=%s" % sync)
                   and (config is None or "/%s/" % config in k))

    assert total("violations", "hydra-tls", False) > 0
    assert total("violations", "hydra-tls", True) == 0
    assert total("overflows", "hydra-tls", False, "small") > 0
    assert total("violations", "doacross", False) > 0
    assert total("overflows", "doacross", False) == 0
    assert total("posts", "doacross", False) > 0
    assert sum(len(r["overflow_points"]) for k, r in replayed.items()
               if "/small/" in k and "/hydra-tls/" in k) > 0


if __name__ == "__main__":
    with open(PINS_PATH, "w") as fh:
        json.dump(replay_all(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote", PINS_PATH)
