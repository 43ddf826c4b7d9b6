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
  predictor (:mod:`repro.tls.predictor`) covers regular local
  live-ins; a confident, correct prediction skips the wait entirely,
  while a misprediction waits for the real value *and* pays the
  violation-restart penalty on top.

The analytic estimate (:func:`estimate_doacross`) mirrors Eq. 1's shape
— arc-frequency-weighted inter-thread separation plus Table 2 overheads
— and the replay is the one hydra-tls runs
(:meth:`repro.tls.engine.TraceEngine.replay`, the same plan) under the
post/wait dependence policy, so the predicted-vs-actual error of this
model is directly comparable to hydra-tls's in the conformance oracle
and in ``benchmarks/bench_models.py``.
"""

from repro.hydra.config import DEFAULT_HYDRA, HydraConfig
from repro.tls.simulator import DoacrossResult

from repro.models.base import SpeculationModel

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


class DoacrossModel(SpeculationModel):
    name = DOACROSS_MODEL_NAME
    description = ("synchronized post/wait DOACROSS with last-value/"
                   "stride live-in prediction")

    def estimate(self, stats, config=DEFAULT_HYDRA):
        return estimate_doacross(stats, config)

    def simulate(self, compilation, config, engine):
        return engine.replay(compilation, config, post_wait=True)
