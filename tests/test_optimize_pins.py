"""Optimizer output pins: for each of the 26 Table 6 programs and the
100 default synthetic instances, ``optimize_program`` must produce the
committed bytecode (SHA-256 of ``disassemble()``) with the committed
rewrite total.

A change to the optimizer that alters what any registered workload
runs shows up here by name.  Regenerate the fixture only when such a
change is intended::

    PYTHONPATH=src python -m tests.test_optimize_pins
"""

import hashlib
import json
import os

import pytest

from repro.bytecode import disassemble
from repro.jit import optimize_program
from repro.jit.optimize import STAT_FIELDS
from repro.workloads import all_workloads

PINS_PATH = os.path.join(os.path.dirname(__file__), "optimize_pins.json")


def optimize_all():
    """``{workload: (pin, stats)}`` over every registered workload, with
    ``pin = {"sha256", "total"}`` and ``stats`` the full
    ``OptimizeStats.to_dict()``."""
    out = {}
    for workload in all_workloads(include_synthetic=True):
        program = workload.compile()
        stats = optimize_program(program).to_dict()
        digest = hashlib.sha256(
            disassemble(program).encode("utf-8")).hexdigest()
        out[workload.name] = ({"sha256": digest, "total": stats["total"]},
                              stats)
    return out


@pytest.fixture(scope="module")
def optimized():
    return optimize_all()


def test_optimized_code_matches_pins(optimized):
    with open(PINS_PATH) as fh:
        pinned = json.load(fh)
    assert sorted(optimized) == sorted(pinned)
    for name, want in pinned.items():
        assert optimized[name][0] == want, name


def test_every_rewrite_fires_on_the_corpus(optimized):
    """Each counted rewrite changes at least one registered workload;
    one that changes none is code that moves no result."""
    for field in STAT_FIELDS:
        fired = sum(stats[field] for _pin, stats in optimized.values())
        assert fired > 0, field


if __name__ == "__main__":
    with open(PINS_PATH, "w") as fh:
        json.dump({name: pin for name, (pin, _stats)
                   in optimize_all().items()},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote", PINS_PATH)
