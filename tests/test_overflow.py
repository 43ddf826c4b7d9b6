"""The replay's first-overflow count against the Table 1 buffer models.

The replay plan (:func:`~repro.tls.plan.build_plan`) finds a thread's
first speculative-buffer overflow by counting distinct lines per
load-buffer set and distinct store-buffer lines.  The LRU occupancy
models in :mod:`repro.hydra.cache` are the reference: for any access
sequence and any buffer geometry, the overflow the replay consumes
must sit at the first access either model reports as overflowing.

Tiny buffers make overflows common, so the same module also checks the
timing pass against :func:`tests.conftest.reference_schedule` on
hypothesis entries whose producers overflow before their stores.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hydra import FullyAssocBuffer, HydraConfig, SetAssocCache
from repro.jit.speculative import STLCompilation
from repro.runtime.events import local_address
from repro.runtime.heap import LINE_SIZE
from repro.tls import schedule
from repro.tls.plan import build_plan

from tests.conftest import columnar_entry, reference_schedule, replay


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


#: one thread: its size, its ``(kind, target)`` accesses in order (a
#: heap target is a line, a local target a slot of the entry frame),
#: and where it stores the live-in slot :data:`LIVE_IN` after loading
#: it first, if it does: a small offset range gives the live-in
#: predictor strided histories, so its hits and misses reach the replay
threads = st.tuples(
    st.integers(min_value=1, max_value=60),
    st.lists(st.tuples(st.sampled_from(["ld", "st", "lld", "lst"]),
                       st.integers(min_value=0, max_value=5)),
             max_size=12),
    st.one_of(st.none(), st.just(1),
              st.integers(min_value=0, max_value=2)))

LIVE_IN = 6


def tiny_entry(shape, draw_rels):
    """A :func:`columnar_entry` of ``shape``'s threads, each access at
    a cycle offset ``draw_rels`` picks inside its thread."""
    built = []
    for size, accesses, live_in in shape:
        rels = sorted(draw_rels(len(accesses), size))
        events = [(rel, kind, local_address(0, target)
                   if kind in ("lld", "lst") else target * LINE_SIZE)
                  for rel, (kind, target) in zip(rels, accesses)]
        if live_in is not None:
            slot = local_address(0, LIVE_IN)
            events.insert(0, (0, "lld", slot))
            events.append((min(live_in, size - 1), "lst", slot))
            events.sort(key=lambda event: event[0])
        built.append((size, events))
    return columnar_entry(built)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(threads, min_size=1, max_size=10),
                min_size=1, max_size=3),
       st.integers(min_value=2, max_value=4),
       geometries,
       st.integers(min_value=0, max_value=30),
       st.integers(min_value=0, max_value=15),
       st.data())
def test_timing_pass_matches_reference_on_tiny_buffers(
        shapes, n_cpus, geometry, restart, comm, data):
    n_sets, assoc, store_lines = geometry
    config = HydraConfig(n_cpus=n_cpus,
                         load_buffer_lines=n_sets * assoc,
                         load_buffer_assoc=assoc,
                         store_buffer_lines=min(store_lines, 3),
                         violation_restart_overhead=restart,
                         store_load_comm_overhead=comm)

    def draw_rels(count, size):
        return data.draw(st.lists(
            st.integers(min_value=0, max_value=size - 1),
            min_size=count, max_size=count))

    entries = [tiny_entry(shape, draw_rels) for shape in shapes]
    plan = build_plan(entries, STLCompilation(_Candidate(), config),
                      config)
    for sync in (False, True):
        comp = STLCompilation(_Candidate(), config, synchronize_heap=sync)
        for post_wait in (False, True):
            got = schedule(plan, comp, config, post_wait)
            want = reference_schedule(plan, comp, config, post_wait)
            assert vars(got) == vars(want), (sync, post_wait)
