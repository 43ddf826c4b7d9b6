"""Profile pins: for each of the 26 Table 6 programs, the profiled run
(stages 1-2 of ``Jrpm.run``, trace JIT on) must leave the committed TEST
device state and the committed columnar recording.

Each entry holds the SHA-256 of :func:`tests.test_event_stream.device_state`
(every ``STLStats`` field, the event and marker counters, the timestamp
table evictions and conflicts, the converged set), the SHA-256 of the
seven :attr:`ColumnarRecording.COLUMNS`, the SHA-256 of every loop's
per-load-PC critical-arc bins (Sec. 6.3), and the SHA-256 of every
profiled loop's thread windows as :func:`split_trace` cuts them from the
recording.  A change to the event stream, the device, the recording or
the splitter that moves any program's profile shows up here by name.

``sweep_replay_pins.json`` holds, per program, the SHA-256 of every
replay of a six-configuration selection sweep: under each
:data:`SWEEP` configuration, every loop Eq. 2 selects (``models="all"``)
is replayed under both speculative models, and every result field plus
the hydra-tls replay's ``overflow_points`` (its plan's) goes into the
digest.

The same profiles also check the timing pass against
:func:`tests.conftest.reference_schedule`, which walks every plan
dependence for every configuration: under the :data:`SWEEP`
configurations and ``test_replay_pins``' ``small`` geometry, every
selected loop is replayed under both models with ``synchronize_heap``
off and on, and each result must equal the reference's field for
field.

Regenerate the fixtures only when such a change is intended::

    PYTHONPATH=src python -m tests.test_profile_pins
"""

import hashlib
import json
import os

import pytest

from repro.hydra import HydraConfig
from repro.jit import compile_stl
from repro.jrpm import Jrpm
from repro.models import get_model
from repro.runtime.events import ColumnarRecording
from repro.tls import TraceEngine, split_trace
from repro.tracer import select_stls
from repro.workloads import all_workloads

from tests.conftest import reference_schedule
from tests.test_event_stream import device_state
from tests.test_replay_pins import CONFIGS

PINS_PATH = os.path.join(os.path.dirname(__file__), "profile_pins.json")
SWEEP_PINS_PATH = os.path.join(os.path.dirname(__file__),
                               "sweep_replay_pins.json")

#: ``(n_cpus, violation_restart_overhead)`` of the six selection-only
#: configurations the repository benchmark's warm sweep analyzes
SWEEP = tuple((n_cpus, restart) for n_cpus in (2, 4, 8)
              for restart in (5, 20))
MODELS = ("hydra-tls", "doacross")


def recording_digest(recording):
    digest = hashlib.sha256()
    for name in ColumnarRecording.COLUMNS:
        column = getattr(recording, name)
        digest.update(name.encode() + b"\0")
        digest.update(bytes(column))
    return digest.hexdigest()


def arcs_digest(device):
    """SHA-256 of every loop's sorted ``(fn, pc, kind, count,
    total_length, min_length, max_length)`` arc bins."""
    bins = {str(lid): sorted(
                (fn, pc, kind, b.count, b.total_length, b.min_length,
                 b.max_length)
                for (fn, pc, kind), b in device.profile_for(lid).bins.items())
            for lid in sorted(device.stats)}
    return hashlib.sha256(json.dumps(
        bins, sort_keys=True).encode()).hexdigest()


def windows_digest(splits):
    """SHA-256 of every loop's ``(total_cycles, frame_id, bounds,
    starts, sizes)`` entry windows."""
    windows = {str(lid): [(e.total_cycles, e.frame_id, e.bounds,
                           e.starts, e.sizes) for e in entries]
               for lid, entries in sorted(splits.items())}
    return hashlib.sha256(json.dumps(
        windows, sort_keys=True).encode()).hexdigest()


def split_counts(splits):
    """``{loop: (entries, threads, cycles, thread cycles)}`` of each
    loop's split; thread cycles sum every thread's size."""
    return {lid: (len(entries), sum(len(e.sizes) for e in entries),
                  sum(e.total_cycles for e in entries),
                  sum(sum(e.sizes) for e in entries))
            for lid, entries in splits.items()}


def sweep_replay_digest(report):
    """SHA-256 of ``(n_cpus, restart, loop, model, vars(result),
    overflow_points)`` of every replay of the :data:`SWEEP`
    configurations' selected loops, in sweep order."""
    engine = TraceEngine(report.recording)
    replays = []
    for n_cpus, restart in SWEEP:
        config = HydraConfig(n_cpus=n_cpus,
                             violation_restart_overhead=restart)
        selection = select_stls(report.device, report.profiled.cycles,
                                config, models="all")
        for lid in selection.selected_ids():
            comp = compile_stl(report.candidates.by_id[lid], config)
            for model in MODELS:
                result = get_model(model).simulate(comp, config, engine)
                points = []
                if model == "hydra-tls":
                    points = engine.plan(comp, config).overflow_points()
                replays.append((n_cpus, restart, lid, model,
                                sorted(vars(result).items()),
                                [list(p) for p in points]))
    return hashlib.sha256(json.dumps(replays).encode()).hexdigest()


def reference_check(report):
    """``(replays, drained, mismatches)`` of checking every replay the
    :data:`SWEEP` configurations and the ``small`` geometry select
    against :func:`~tests.conftest.reference_schedule`, both models
    and ``synchronize_heap`` off and on.  ``drained`` counts the
    hydra-tls dependences whose store the producer published only
    after it drained an overflow; ``mismatches`` names each replay
    whose result differs from the reference's."""
    engine = TraceEngine(report.recording)
    configs = {"p%d/r%d" % sweep: HydraConfig(
        n_cpus=sweep[0], violation_restart_overhead=sweep[1])
        for sweep in SWEEP}
    configs["small"] = CONFIGS["small"]
    replays = drained = 0
    mismatches = []
    for cname, config in configs.items():
        selection = select_stls(report.device, report.profiled.cycles,
                                config, models="all")
        for lid in selection.selected_ids():
            for sync in (False, True):
                comp = compile_stl(report.candidates.by_id[lid], config,
                                   synchronize_heap=sync)
                plan = engine.plan(comp, config)
                for model in MODELS:
                    post_wait = model == "doacross"
                    got = get_model(model).simulate(comp, config, engine)
                    want = reference_schedule(plan, comp, config,
                                              post_wait)
                    replays += 1
                    if vars(got) != vars(want):
                        mismatches.append((cname, lid, model, sync))
                    if not post_wait:
                        drained += sum(
                            0 <= plan.overflow[k] < store
                            for k, store in zip(plan.producer,
                                                plan.store_rel))
    return replays, drained, mismatches


def profile_all():
    """``{workload: (device, split counts, {"arcs", "device",
    "recording", "windows"}, sweep replay digest, reference check)}``
    over the Table 6 programs (see :func:`reference_check`)."""
    out = {}
    for workload in all_workloads():
        report = Jrpm(source=workload.source(),
                      name=workload.name).run(simulate_tls=False)
        splits = {lid: split_trace(report.recording, lid)
                  for lid in report.device.stats}
        out[workload.name] = (report.device, split_counts(splits), {
            "arcs": arcs_digest(report.device),
            "device": hashlib.sha256(json.dumps(
                device_state(report.device),
                sort_keys=True).encode()).hexdigest(),
            "recording": recording_digest(report.recording),
            "windows": windows_digest(splits),
        }, sweep_replay_digest(report), reference_check(report))
    return out


@pytest.fixture(scope="module")
def profiled():
    return profile_all()


def test_every_profile_matches_pins(profiled):
    with open(PINS_PATH) as fh:
        pinned = json.load(fh)
    assert len(pinned) == 26
    assert sorted(profiled) == sorted(pinned)
    for name, want in pinned.items():
        assert profiled[name][2] == want, name


def test_sweep_replays_match_pins(profiled):
    with open(SWEEP_PINS_PATH) as fh:
        pinned = json.load(fh)
    assert sorted(profiled) == sorted(pinned)
    for name, want in pinned.items():
        assert profiled[name][3] == want, name


def test_timing_pass_matches_reference(profiled):
    """Every selected loop's replay equals the reference timing pass's
    field for field, and the checked replays reach the drained-after-
    overflow store base (only the ``small`` geometry overflows)."""
    replays = drained = 0
    for name, (_, _, _, _, check) in profiled.items():
        assert check[2] == [], name
        replays += check[0]
        drained += check[1]
    assert replays > 2000
    assert drained > 0


def test_arc_bins_reconcile_with_stats(profiled):
    """Per bin kind, a loop's arc bins add up to its ``STLStats`` arc
    counters, and every bin names a load site."""
    loops = 0
    for name, (device, _, _, _, _) in profiled.items():
        for lid, stats in device.stats.items():
            sums = {"prev": [0, 0], "earlier": [0, 0]}
            for (fn, pc, kind), b in device.profile_for(lid).bins.items():
                assert fn != "" and pc >= 0, (name, lid, fn, pc)
                sums[kind][0] += b.count
                sums[kind][1] += b.total_length
            assert sums == {
                "prev": [stats.arcs_prev, stats.arc_len_prev],
                "earlier": [stats.arcs_earlier, stats.arc_len_earlier],
            }, (name, lid)
            loops += 1
    assert loops == 194


def test_split_reconciles_with_device(profiled):
    """The splitter and the TEST device window the same ``sloop``/
    ``eoi``/``eloop`` markers independently: per loop, the split's entry
    count equals ``STLStats.entries``, its summed ``total_cycles`` and
    summed thread sizes both equal ``STLStats.cycles``, and its thread
    count equals ``STLStats.threads``.  A
    converged loop's unbanked entries count no thread when they run no
    iteration, so there the split may count more threads, never
    fewer."""
    loops = 0
    for name, (device, counts, _, _, _) in profiled.items():
        for lid, stats in device.stats.items():
            entries, threads, cycles, thread_cycles = counts[lid]
            assert (entries, cycles, thread_cycles) == (
                stats.entries, stats.cycles, stats.cycles), (name, lid)
            if lid in device.converged:
                assert threads >= stats.threads, (name, lid)
            else:
                assert threads == stats.threads, (name, lid)
            loops += 1
    assert loops == 194


if __name__ == "__main__":
    profiles = profile_all()
    for path, pins in (
            (PINS_PATH, {name: entry for name, (_, _, entry, _, _)
                         in profiles.items()}),
            (SWEEP_PINS_PATH, {name: replay for name, (_, _, _, replay, _)
                               in profiles.items()})):
        with open(path, "w") as fh:
            json.dump(pins, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("wrote", path)
