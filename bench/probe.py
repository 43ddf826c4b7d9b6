"""Host-speed probe: a fixed pure-Python computation timed right after
each operation, set-up step and import the benchmark times.

The benchmark runs on shared 2-CPU hosts where either CPU slows to about
0.6x for spells of a few seconds while other tenants load it; such
spells made the wall-clock throughput of ten 30 s runs spread by
16-32%.  A spell lasts longer than one operation, so the probe run
right after an operation sees the speed the operation ran at.  The probe
does the kinds of work the pipeline does -- a bytecode dispatch loop,
growing typed arrays with bisection, dict-keyed tables and pickling --
with code that lives here, so no change to the program under test can
move it.  An operation's seconds are reported as reference seconds:
measured seconds times :data:`REFERENCE_S` over the probe's time.
"""

import array
import bisect
import pickle
import time
from typing import List

#: the probe's time on an uncontended CPU of the 2-CPU host the
#: benchmark was defined on (its 5th-25th percentile over 3198 probes
#: was 5.6-6.0 ms)
REFERENCE_S = 0.006

_PROGRAM = [(0, 3), (1, 5), (2, 0), (3, 1), (4, 7), (5, 0)]

_DOCUMENT = {"loops": [{"id": i, "stats": list(range(i % 50)),
                        "name": "L%d" % i} for i in range(300)]}


def _dispatch(n: int) -> int:
    stack: List[int] = []
    slots = [0] * 16
    acc = 0
    for i in range(n):
        pc = 0
        while pc < 6:
            op, arg = _PROGRAM[pc]
            if op == 0:
                stack.append(i + arg)
            elif op == 1:
                stack.append(stack.pop() * arg)
            elif op == 2:
                slots[i & 15] = stack.pop()
            elif op == 3:
                acc += slots[(i + arg) & 15]
            elif op == 4:
                stack.append(acc & arg)
            else:
                acc ^= stack.pop()
            pc += 1
    return acc


def _columns(n: int) -> int:
    kinds = bytearray()
    cycles = array.array("q")
    addresses = array.array("q")
    for i in range(n):
        kinds.append(i & 3)
        cycles.append(i * 3)
        addresses.append((i * 2654435761) & 0xFFFF)
    found = 0
    for i in range(0, n, 7):
        found += bisect.bisect_left(cycles, i * 2)
    return found + len(kinds) + len(addresses)


def _tables(n: int) -> int:
    table = {}
    acc = 0
    for i in range(n):
        key = (i * 40503) & 4095
        prev = table.get(key)
        table[key] = (i, prev[0] if prev else -1)
        acc += len(table)
    return acc


def _pickles(n: int) -> int:
    size = 0
    for _ in range(n):
        size += len(pickle.loads(
            pickle.dumps(_DOCUMENT, pickle.HIGHEST_PROTOCOL))["loops"])
    return size


def probe() -> float:
    """Seconds of one probe run."""
    start = time.perf_counter()
    _dispatch(2500)
    _columns(5000)
    _tables(5000)
    _pickles(3)
    return time.perf_counter() - start
