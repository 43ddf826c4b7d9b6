"""Regenerate ``bench/expected.json``, the pinned outputs the benchmark
checks every operation against.

For each of the 26 Table 6 programs it records the return value of
``main()`` and the cycle count of the unannotated sequential run.  The
return values are also checked against the registry's hand-written
``expected_result``, so a regenerated file cannot silently pin a wrong
answer.  Regenerate only
when a change is meant to alter those outputs::

    python bench/make_expected.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_PATH = os.path.join(HERE, "expected.json")


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.lang.codegen import compile_source
    from repro.runtime.interpreter import run_program
    from repro.workloads.registry import all_workloads

    pinned = {}
    for workload in all_workloads():
        result = run_program(compile_source(workload.source()))
        known = workload.expected_result
        if known is not None and known != result.return_value:
            raise SystemExit("%s returned %r, registry expects %r"
                             % (workload.name, result.return_value, known))
        pinned[workload.name] = {
            "return_value": result.return_value,
            "sequential_cycles": result.cycles,
        }
    with open(EXPECTED_PATH, "w") as handle:
        json.dump({"table6": pinned}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s: %d Table 6 programs" % (EXPECTED_PATH, len(pinned)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
