"""The replay's first-overflow count against the Table 1 buffer models.

The replay plan (:func:`~repro.tls.plan.build_plan`) finds a thread's
first speculative-buffer overflow by counting distinct lines per
load-buffer set and distinct store-buffer lines.  The LRU occupancy
models in :mod:`repro.hydra.cache` are the reference: for any access
sequence and any buffer geometry, the overflow the replay consumes
must sit at the first access either model reports as overflowing.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hydra import FullyAssocBuffer, HydraConfig, SetAssocCache
from repro.jit.speculative import STLCompilation
from repro.runtime.heap import LINE_SIZE
from repro.tls.plan import build_plan

from tests.conftest import columnar_entry, replay


class _Candidate:
    loop_id = 0

    class scalar:
        inductors = []
        reductions = []
        classes = {}
        carried = []


#: (is_store, line, byte offset within the line)
accesses = st.lists(st.tuples(st.booleans(),
                              st.integers(min_value=0, max_value=40),
                              st.integers(min_value=0,
                                          max_value=LINE_SIZE - 1)),
                    max_size=80)

#: (load-buffer sets, load-buffer associativity, store-buffer lines)
geometries = st.tuples(st.integers(min_value=1, max_value=8),
                       st.sampled_from([1, 2, 4, 8]),
                       st.integers(min_value=1, max_value=12))


def reference_overflow(seq, config):
    """Index of the first access the LRU buffer models overflow on."""
    cache = SetAssocCache(config.load_buffer_lines,
                          config.load_buffer_assoc)
    store_buf = FullyAssocBuffer(config.store_buffer_lines)
    for i, (is_store, line, _) in enumerate(seq):
        touch = store_buf.touch if is_store else cache.touch
        if touch(line):
            return i
    return None


def one_thread(seq):
    """One entry of one thread making ``seq``'s accesses, one a cycle."""
    events = [(i, "st" if is_store else "ld", line * LINE_SIZE + offset)
              for i, (is_store, line, offset) in enumerate(seq)]
    return [columnar_entry([(len(seq) + 1, events)])]


def replayed_overflow(entries, config):
    comp = STLCompilation(_Candidate(), config)
    points = build_plan(entries, comp, config).overflow_points()
    assert replay(entries, comp, config).overflows == len(points) <= 1
    if not points:
        return None
    [(rel, size)] = points
    assert 0 <= rel < size
    return rel


@settings(max_examples=300, deadline=None)
@given(accesses, geometries)
def test_first_overflow_matches_buffer_models(seq, geometry):
    n_sets, assoc, store_lines = geometry
    config = HydraConfig(load_buffer_lines=n_sets * assoc,
                         load_buffer_assoc=assoc,
                         store_buffer_lines=store_lines)
    want = reference_overflow(seq, config)
    assert replayed_overflow(one_thread(seq), config) == want
