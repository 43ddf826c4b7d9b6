"""Pinned per-family golden programs (``tests/goldens_synth.json``).

The synthesizer's determinism contract — same seed, same family, same
index, byte-identical source — is enforced two ways: property tests
regenerate instances under permuted call orders, and this corpus pins
**instance 0 of every family at the default seed** on disk: the full
source text plus its sequentially-interpreted ``cycles`` /
``instructions`` / ``return_value`` and the parallelism label class.

Any change to a generator — even an innocuous-looking tweak to
parameter sampling — shifts every downstream consumer (atlas bounds,
label thresholds, bench baselines), so it must show up as an explicit
regeneration (``jrpm conform --update-goldens``) in the same commit,
exactly like the Table 6 goldens drift gate.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from repro.conformance.goldens import META_KEY, render_goldens
from repro.runtime.interpreter import run_program
from repro.synth.families import (
    DEFAULT_SYNTH_SEED,
    family_names,
    generate_instance,
)

SYNTH_GOLDENS_VERSION = 1


def golden_instances() -> List:
    """The pinned programs: instance 0 per family, default seed."""
    return [generate_instance(name, 0, DEFAULT_SYNTH_SEED)
            for name in family_names()]


def compute_synth_goldens() -> Dict[str, Dict]:
    """Regenerate every pinned program and measure its sequential
    reference run."""
    goldens: Dict[str, Dict] = {}
    for workload in golden_instances():
        result = run_program(workload.compile())
        goldens[workload.label.family] = {
            "name": workload.name,
            "expected_class": workload.label.expected_class,
            "source": workload.source(),
            "cycles": result.cycles,
            "instructions": result.instructions,
            "return_value": result.return_value,
        }
    return goldens


def synth_goldens_payload(goldens: Dict[str, Dict]) -> Dict:
    payload = dict(goldens)
    payload[META_KEY] = {
        "version": SYNTH_GOLDENS_VERSION,
        "generator": "jrpm conform --update-goldens",
        "base_seed": DEFAULT_SYNTH_SEED,
        "families": len(goldens),
    }
    return payload


def update_synth_goldens(path: str) -> Dict:
    """Regenerate the pinned corpus at ``path``; returns the payload."""
    payload = synth_goldens_payload(compute_synth_goldens())
    with open(path, "w") as handle:
        handle.write(render_goldens(payload))
    return payload


def synth_goldens_drift(path: str) -> List[str]:
    """Differences between the stored pinned programs and a fresh
    regeneration (empty list = generators unchanged).

    Source drift is summarized (first differing line) rather than
    dumped whole, so a failure names the generator that moved.
    """
    problems: List[str] = []
    if not os.path.exists(path):
        return ["synthetic golden corpus missing at %s" % path]
    with open(path) as handle:
        text = handle.read()
    stored = json.loads(text)
    fresh = synth_goldens_payload(compute_synth_goldens())
    meta = stored.get(META_KEY)
    if not isinstance(meta, dict):
        problems.append("corpus has no %s stamp; regenerate with "
                        "--update-goldens" % META_KEY)
    elif meta.get("version") != SYNTH_GOLDENS_VERSION:
        problems.append("corpus version %r != current %d"
                        % (meta.get("version"), SYNTH_GOLDENS_VERSION))
    elif meta.get("base_seed") != DEFAULT_SYNTH_SEED:
        problems.append("corpus pinned at seed %r != default %d"
                        % (meta.get("base_seed"), DEFAULT_SYNTH_SEED))
    for family in sorted(set(stored) | set(fresh)):
        if family == META_KEY:
            continue
        if family not in fresh:
            problems.append("%s: stored but no longer a family"
                            % family)
            continue
        if family not in stored:
            problems.append("%s: family registered but missing from "
                            "corpus" % family)
            continue
        for field in sorted(set(stored[family]) | set(fresh[family])):
            old = stored[family].get(field)
            new = fresh[family].get(field)
            if old == new:
                continue
            if field == "source":
                problems.append(
                    "%s.source: pinned program text changed (%s)"
                    % (family, _first_source_diff(old, new)))
            else:
                problems.append("%s.%s: stored %r, measured %r"
                                % (family, field, old, new))
    if not problems and render_goldens(fresh) != text:
        problems.append("corpus bytes differ from canonical "
                        "serialization; regenerate with "
                        "--update-goldens")
    return problems


def _first_source_diff(old, new) -> str:
    old_lines = (old or "").splitlines()
    new_lines = (new or "").splitlines()
    for i, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
        if a != b:
            return "first diff at line %d: %r -> %r" % (i, a, b)
    return "line count %d -> %d" % (len(old_lines), len(new_lines))
