"""The generated golden corpus behind ``tests/goldens.json``.

Goldens were historically hand-edited; they are now generated only,
via ``jrpm conform --update-goldens`` (which calls
:func:`update_goldens`).  The corpus is versioned through a ``_meta``
entry and the test suite asserts :func:`goldens_drift` is empty — i.e.
regenerating the file from the current interpreter is a byte-level
no-op.  Any intentional semantics change therefore shows up as an
explicit goldens regeneration in the same commit, never as a silent
hand edit.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional

from repro.runtime.interpreter import run_program
from repro.workloads.registry import Workload, all_workloads

#: bumped whenever the golden payload's *shape* changes (v1 was the
#: hand-maintained flat file without ``_meta``)
GOLDENS_VERSION = 2

#: sorts between the uppercase and lowercase workload names; tests
#: index goldens by workload name, so an extra key is invisible to them
META_KEY = "_meta"


def compute_goldens(workloads: Optional[Iterable[Workload]] = None
                    ) -> Dict[str, Dict]:
    """Reference outputs for every workload, from a plain sequential
    run of the unannotated program."""
    fleet = list(workloads) if workloads is not None else all_workloads()
    goldens: Dict[str, Dict] = {}
    for w in fleet:
        result = run_program(w.compile())
        goldens[w.name] = {
            "cycles": result.cycles,
            "instructions": result.instructions,
            "return_value": result.return_value,
        }
    return goldens


def goldens_payload(goldens: Dict[str, Dict]) -> Dict:
    """The on-disk payload: measured goldens plus the version stamp."""
    payload = dict(goldens)
    payload[META_KEY] = {
        "version": GOLDENS_VERSION,
        "generator": "jrpm conform --update-goldens",
        "workloads": len(goldens),
    }
    return payload


def render_goldens(payload: Dict) -> str:
    """Serialize exactly as the corpus is stored (stable byte-for-byte
    so regeneration without drift is a no-op)."""
    return json.dumps(payload, indent=1, sort_keys=True)


def load_goldens(path: str) -> Dict:
    with open(path) as handle:
        return json.load(handle)


def update_goldens(path: str,
                   workloads: Optional[Iterable[Workload]] = None
                   ) -> Dict:
    """Regenerate the corpus at ``path``; returns the payload."""
    payload = goldens_payload(compute_goldens(workloads))
    with open(path, "w") as handle:
        handle.write(render_goldens(payload))
    return payload


def goldens_drift(path: str,
                  workloads: Optional[Iterable[Workload]] = None
                  ) -> List[str]:
    """Differences between the stored corpus and a fresh regeneration
    (empty list = regeneration is a no-op).

    Reported per field so a drift failure names the workload and the
    measurement that moved, not just "files differ".
    """
    problems: List[str] = []
    if not os.path.exists(path):
        return ["golden corpus missing at %s" % path]
    with open(path) as handle:
        text = handle.read()
    stored = json.loads(text)
    fresh = goldens_payload(compute_goldens(workloads))
    meta = stored.get(META_KEY)
    if not isinstance(meta, dict):
        problems.append("corpus has no %s stamp (hand-edited or v1); "
                        "regenerate with --update-goldens" % META_KEY)
    elif meta.get("version") != GOLDENS_VERSION:
        problems.append("corpus version %r != current %d"
                        % (meta.get("version"), GOLDENS_VERSION))
    for name in sorted(set(stored) | set(fresh)):
        if name == META_KEY:
            continue
        if name not in fresh:
            problems.append("%s: stored but no longer registered"
                            % name)
        elif name not in stored:
            problems.append("%s: registered but missing from corpus"
                            % name)
        elif stored[name] != fresh[name]:
            for field in sorted(set(stored[name]) | set(fresh[name])):
                if stored[name].get(field) != fresh[name].get(field):
                    problems.append(
                        "%s.%s: stored %r, measured %r"
                        % (name, field, stored[name].get(field),
                           fresh[name].get(field)))
    if not problems and render_goldens(fresh) != text:
        problems.append("corpus bytes differ from canonical "
                        "serialization; regenerate with "
                        "--update-goldens")
    return problems
