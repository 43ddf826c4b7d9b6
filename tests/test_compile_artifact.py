"""The cached compile artifact against a fresh compile.

Every warm op unpickles the compile stage's ``(program, candidates,
opt_stats)`` blob.  These tests pin what the rest of the pipeline reads
from it: the unpickled artifact must equal a fresh ``compile_source`` +
``find_candidates`` in every field selection, annotation and replay
use, and a warm run must report exactly what a cold one does.
"""

import pickle

import pytest

from repro.cfg.candidates import find_candidates
from repro.hydra import HydraConfig
from repro.jit.optimize import optimize_program
from repro.jrpm import Jrpm
from repro.jrpm.cache import STAGE_COMPILE, ArtifactCache
from repro.jrpm.report import report_to_dict
from repro.lang import compile_source
from repro.workloads import get_workload, workload_names

PROGRAMS = workload_names()

#: programs whose artifact is also checked with the optimizer on
OPTIMIZED = ("Huffman", "IDEA")

#: two of warm_sweep's selection-only configurations (n_cpus, restart)
CONFIGS = ((4, 5), (2, 20))

INSTR_FIELDS = ("op", "sub", "a", "b", "c", "imm", "name", "args")


class CompileKeyCache(ArtifactCache):
    """An artifact cache that remembers the key of every compile blob it
    stores, in store order."""

    def __init__(self):
        super().__init__()
        self.compile_keys = []

    def store(self, stage, key, value):
        if stage == STAGE_COMPILE:
            self.compile_keys.append(key)
        super().store(stage, key, value)


def _analysis(name, cache=None, optimize=False, sweep=CONFIGS[0]):
    w = get_workload(name)
    config = HydraConfig(n_cpus=sweep[0],
                         violation_restart_overhead=sweep[1])
    return Jrpm(source=w.source(), name=w.name, config=config,
                cache=cache, optimize=optimize, models="all")


@pytest.fixture(scope="module")
def filled():
    """One cache filled by a cold run of every program under the first
    configuration (and of :data:`OPTIMIZED` with the optimizer on),
    with each run's compile key and canonical report."""
    cache = CompileKeyCache()
    keys, reports = {}, {}
    for name in PROGRAMS:
        reports[name] = report_to_dict(_analysis(name, cache).run())
        keys[name, False] = cache.compile_keys[-1]
    for name in OPTIMIZED:
        _analysis(name, cache, optimize=True).run(simulate_tls=False)
        keys[name, True] = cache.compile_keys[-1]
    return cache, keys, reports


def _fresh(name, optimize):
    program = compile_source(get_workload(name).source())
    if optimize:
        program = program.copy()
        optimize_program(program)
    return program, find_candidates(program)


def _functions(program):
    return {name: (fn.n_params, fn.n_named, fn.slot_names,
                   [tuple(getattr(ins, f) for f in INSTR_FIELDS)
                    for ins in fn.code])
            for name, fn in program.functions.items()}


def _candidate_facts(table):
    out = {}
    for cand in table.candidates(include_excluded=True):
        loop, scalar = cand.loop, cand.scalar
        out[cand.loop_id] = (
            cand.function, cand.excluded, cand.tracked_locals,
            cand.parent_id, cand.child_ids,
            loop.header, loop.blocks, loop.back_edge_sources,
            loop.depth, loop.height1(),
            scalar.classes, scalar.accessed, scalar.serializing)
    return out


@pytest.mark.parametrize("name,optimize",
                         [(n, False) for n in PROGRAMS]
                         + [(n, True) for n in OPTIMIZED])
def test_unpickled_compile_artifact_equals_a_fresh_compile(
        filled, name, optimize):
    cache, keys, _ = filled
    hit, (program, candidates, opt_stats) = cache.fetch(
        STAGE_COMPILE, keys[name, optimize])
    assert hit
    assert (opt_stats is not None) == optimize
    fresh_program, fresh_candidates = _fresh(name, optimize)
    assert program.entry == fresh_program.entry
    assert _functions(program) == _functions(fresh_program)
    facts = _candidate_facts(candidates)
    assert facts and facts == _candidate_facts(fresh_candidates)
    assert candidates.loop_count == fresh_candidates.loop_count
    assert candidates.max_loop_depth == fresh_candidates.max_loop_depth


@pytest.mark.parametrize("name", PROGRAMS)
def test_warm_report_equals_the_cold_one(filled, name):
    cache, _, cold_reports = filled
    for sweep in CONFIGS:
        cold = cold_reports[name] if sweep == CONFIGS[0] \
            else report_to_dict(_analysis(name, sweep=sweep).run())
        # a pickled cache carries no replay plans, so the warm run
        # builds the plans the cold one did and its engine counters
        # match too
        warm_cache = pickle.loads(pickle.dumps(cache))
        misses = dict(warm_cache.misses)
        warm = report_to_dict(
            _analysis(name, warm_cache, sweep=sweep).run())
        assert warm_cache.misses == misses, sweep
        assert warm == cold, sweep
