"""Speculative DOACROSS: synchronized cross-iteration scheduling with
live-in value prediction.

Where Hydra TLS runs iterations fully speculatively — buffering state,
detecting RAW violations after the fact, and restarting — a DOACROSS
schedule (Salamanca et al., PAPERS.md) makes every observed
cross-iteration dependence an explicit post/wait arc: the consumer
iteration *waits* for the producer's store plus the store-load
communication latency, and commits non-speculatively.  The structural
consequences drive the cost model:

* **No overflow stalls.**  Iterations commit as they go, so there is no
  speculative buffer to overflow — the term that serializes
  high-footprint loops under TLS simply disappears.  This is the lever
  that lets DOACROSS win loops whose TLS estimate collapses under
  ``overflow_freq``.
* **Every arc pays.**  TLS only loses cycles on arcs that actually
  violate; post/wait synchronizes *every* dependence, violated or not.
  Arc-free loops therefore never prefer DOACROSS.
* **Prediction breaks the chain.**  A Prophet-style last-value/stride
  predictor (:mod:`repro.models.predictor`) covers regular local
  live-ins; a confident, correct prediction skips the wait entirely,
  while a misprediction waits for the real value *and* pays the
  violation-restart penalty on top.

The analytic estimate (:func:`estimate_doacross`) mirrors Eq. 1's shape
— arc-frequency-weighted inter-thread separation plus Table 2 overheads
— and the trace simulator (:class:`DoacrossSimulator`) mirrors the TLS
simulator's in-order round-robin dispatch, so the predicted-vs-actual
error of this model is directly comparable to hydra-tls's in the
conformance oracle and in ``benchmarks/bench_models.py``.
"""

from typing import Dict, Tuple

from repro.hydra.config import DEFAULT_HYDRA, HydraConfig
from repro.tls.simulator import (
    EntryResult,
    TLSResult,
    elimination_key,
    prepare_thread,
    prepare_view,
)
from repro.tls.thread_trace import ThreadView

from repro.models.base import SpeculationModel
from repro.models.predictor import LiveInPredictor

DOACROSS_MODEL_NAME = "doacross"

#: Analytic stand-in for the live-in predictor's expected coverage of
#: regular local arcs — the fraction of predictable post/wait arcs the
#: estimate assumes are broken.  The simulator measures the real rate;
#: the gap between the two is part of the per-model conformance error.
PREDICTOR_COVERAGE = 0.75


class DoacrossEstimate:
    """Analytic DOACROSS speedup, interface-compatible with
    :class:`repro.tracer.estimator.SpeedupEstimate`."""

    #: DOACROSS commits non-speculatively; nothing can overflow.
    overflow_freq = 0.0

    def __init__(self, loop_id, speedup, base_speedup, spec_time,
                 orig_time, predicted_arc_share):
        self.loop_id = loop_id
        self.speedup = speedup
        self.base_speedup = base_speedup
        self.spec_time = spec_time
        self.orig_time = orig_time
        #: fraction of critical arcs the live-in predictor is assumed
        #: to cover (hit) in this estimate
        self.predicted_arc_share = predicted_arc_share

    def __repr__(self):  # pragma: no cover - debugging aid
        return "<DoacrossEstimate L%d %.2fx (base %.2fx, pred %.2f)>" % (
            self.loop_id, self.speedup, self.base_speedup,
            self.predicted_arc_share)


def estimate_doacross(stats, config=DEFAULT_HYDRA):
    # type: (..., HydraConfig) -> DoacrossEstimate
    """Eq. 1-shaped analytic estimate for the DOACROSS schedule."""
    orig_time = stats.cycles
    if stats.threads == 0 or stats.profiled_threads == 0 \
            or orig_time <= 0:
        return DoacrossEstimate(stats.loop_id, 1.0, 1.0,
                                float(orig_time), orig_time, 0.0)

    p = config.n_cpus
    comm = config.store_load_comm_overhead
    t_size = stats.avg_thread_size
    f_prev = min(1.0, stats.arc_freq_prev)
    f_earl = min(1.0 - f_prev, stats.arc_freq_earlier)
    arc_rate = f_prev + f_earl

    # Predictor coverage: the share of arcs that are local (live-in)
    # recurrences, scaled by the assumed hit rate.  Covered arcs skip
    # the wait; the missed remainder of attempted predictions pays the
    # restart penalty on top of the wait.
    local_share = 0.0
    if arc_rate > 0:
        local_share = min(1.0, stats.local_arc_freq / arc_rate)
    covered = local_share * PREDICTOR_COVERAGE
    missed = local_share * (1.0 - PREDICTOR_COVERAGE)

    # Inter-thread separation forced by a post/wait arc: the consumer
    # cannot start before (producer start + store offset + comm -
    # load offset); averaged over arcs this is T - A + comm for the
    # previous-thread bin and its span-2 analogue for the earlier bin.
    # CPU reuse bounds separation below by T/p regardless.
    floor = t_size / p if t_size > 0 else 0.0
    s_prev = max(floor, t_size - stats.avg_arc_len_prev + comm)
    s_earl = max(floor, (2.0 * t_size - stats.avg_arc_len_earlier) / 2.0
                 + comm)

    f_prev_eff = f_prev * (1.0 - covered)
    f_earl_eff = f_earl * (1.0 - covered)
    f_none = max(0.0, 1.0 - f_prev_eff - f_earl_eff)
    sep = f_prev_eff * s_prev + f_earl_eff * s_earl + f_none * floor
    if t_size > 0 and sep > 0:
        base = max(1.0, min(float(p), t_size / sep))
    else:
        base = float(p)
    iters = stats.avg_iters_per_entry
    if 0 < iters < p:
        base = min(base, max(1.0, iters))

    entry_overhead = (config.startup_overhead
                      + config.shutdown_overhead) * stats.entries
    thread_overhead = config.eoi_overhead * stats.threads
    # every uncovered arc waits for a post (communication latency);
    # every attempted-but-missed prediction restarts on top of it
    sync_overhead = comm * arc_rate * (1.0 - covered) * stats.threads
    miss_overhead = (config.violation_restart_overhead
                     * arc_rate * missed * stats.threads)

    spec_time = (entry_overhead + thread_overhead + sync_overhead
                 + miss_overhead + orig_time / base)
    speedup = orig_time / spec_time if spec_time > 0 else 1.0
    speedup = min(float(p), speedup)
    return DoacrossEstimate(stats.loop_id, speedup, base, spec_time,
                            orig_time, covered * arc_rate)


class DoacrossResult(TLSResult):
    """TLS-shaped aggregate with post/wait and predictor accounting.

    ``violations`` counts live-in mispredictions (each charges the
    restart penalty, the DOACROSS analogue of a TLS violation);
    ``overflows`` is structurally zero.
    """

    model = DOACROSS_MODEL_NAME

    def __init__(self, loop_id):
        TLSResult.__init__(self, loop_id)
        #: post/wait synchronizations honoured (waits actually taken)
        self.posts = 0
        #: confident live-in predictions consumed by a waiter
        self.predictions = 0
        #: of those, predictions that were correct (wait skipped)
        self.predicted_hits = 0

    @property
    def prediction_hit_rate(self):
        if self.predictions == 0:
            return 0.0
        return self.predicted_hits / self.predictions

    def __repr__(self):  # pragma: no cover - debugging aid
        return ("<DoacrossResult L%d %.2fx posts=%d pred=%d/%d>"
                % (self.loop_id, self.speedup, self.posts,
                   self.predicted_hits, self.predictions))


class DoacrossSimulator:
    """Schedules one STL's thread traces under post/wait DOACROSS.

    Mirrors :class:`repro.tls.simulator.TLSSimulator`'s dispatch (in
    sequential order, round-robin over ``p`` CPUs, in-order commit) but
    resolves every cross-thread dependence by waiting instead of
    violating, gates local-arc waits through one
    :class:`LiveInPredictor` shared across the STL's entries (the
    predictor warms on early entries exactly as a persistent hardware
    table would), and never stalls for buffer overflow.
    """

    def __init__(self, compilation, config=DEFAULT_HYDRA, engine=None):
        self.compilation = compilation
        self.config = config
        self.engine = engine
        self._eliminated = elimination_key(compilation)

    def simulate(self, entries):
        result = DoacrossResult(self.compilation.loop_id)
        predictor = LiveInPredictor()
        engine = self.engine
        if engine is None:
            for entry in entries:
                result.add(self._simulate_entry(entry, predictor, result))
        else:
            with engine.stats.timed_exclusive("resolve"):
                for entry in entries:
                    result.add(self._simulate_entry(entry, predictor,
                                                    result))
        return result

    # -- internals ------------------------------------------------------------

    def _prepared(self, entry):
        threads = entry.threads
        engine = self.engine
        if engine is not None and type(threads[0]) is ThreadView:
            return engine.prepare_entry(self.compilation.loop_id, entry,
                                        self._eliminated)
        eliminated = self._eliminated
        out = []
        frame_id = entry.frame_id
        for t in threads:
            if type(t) is ThreadView:
                out.append(prepare_view(t, eliminated, frame_id))
            else:
                out.append(prepare_thread(t.events, eliminated, frame_id))
        return out

    def _simulate_entry(self, entry, predictor, result):
        # type: (..., LiveInPredictor, DoacrossResult) -> EntryResult
        cfg = self.config
        p = cfg.n_cpus
        threads = entry.threads
        n = len(threads)
        if n == 0:
            return EntryResult(0, entry.total_cycles, 0, 0, 0)

        prepared = self._prepared(entry)
        comm = cfg.store_load_comm_overhead
        restart = cfg.violation_restart_overhead
        eoi = cfg.eoi_overhead

        #: address -> (producer thread index, absolute store time, local?)
        last_store = {}  # type: Dict[int, Tuple[int, int, bool]]
        cpu_free = [0] * p
        commit_prev = 0
        clock0 = cfg.startup_overhead
        prev_start = clock0
        mispredicts = 0
        hits = 0
        posts = 0

        for j, thread in enumerate(threads):
            dep_loads, stores, _heap_seq = prepared[j]

            start = max(cpu_free[j % p], prev_start)
            if j == 0:
                start = max(start, clock0)

            for rel, addr, is_local in dep_loads:
                prod = last_store.get(addr)
                if prod is None or prod[0] >= j:
                    continue
                store_abs = prod[1]
                if is_local:
                    outcome = predictor.consume(addr)
                    if outcome == "hit":
                        # predicted live-in: consume the predicted value,
                        # no wait at all
                        hits += 1
                        continue
                    if outcome == "miss":
                        # proceeded on a wrong prediction: wait for the
                        # real post, then re-execute from the load
                        mispredicts += 1
                        need = store_abs + comm + restart - rel
                    else:
                        posts += 1
                        need = store_abs + comm - rel
                else:
                    posts += 1
                    need = store_abs + comm - rel
                if need > start:
                    start = need

            finish = start + thread.size + eoi
            commit = max(finish, commit_prev)
            commit_prev = commit
            cpu_free[j % p] = commit
            prev_start = start

            for rel, addr, is_local in stores:
                last_store[addr] = (j, start + rel, is_local)
                if is_local:
                    predictor.observe(addr, rel)

        # consumption-side books: a prediction counts when a waiter
        # actually used it, so violations == predictions - hits by
        # construction and the conformance checker can hold the
        # accumulation paths to it.  (The predictor's own counters are
        # the training-side view and include unconsumed predictions.)
        result.predictions += hits + mispredicts
        result.predicted_hits += hits
        result.posts += posts
        parallel = commit_prev + cfg.shutdown_overhead
        return EntryResult(parallel, entry.total_cycles, mispredicts,
                           0, n)


def simulate_doacross(compilation, entries, config=DEFAULT_HYDRA,
                      engine=None):
    """One-call wrapper: simulate all entries of one STL as DOACROSS."""
    return DoacrossSimulator(compilation, config, engine=engine) \
        .simulate(entries)


class DoacrossModel(SpeculationModel):
    name = DOACROSS_MODEL_NAME
    description = ("synchronized post/wait DOACROSS with last-value/"
                   "stride live-in prediction")

    def estimate(self, stats, config=DEFAULT_HYDRA):
        return estimate_doacross(stats, config)

    def simulate(self, compilation, entries, config=DEFAULT_HYDRA,
                 engine=None):
        return simulate_doacross(compilation, entries, config,
                                 engine=engine)
