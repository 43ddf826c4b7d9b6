"""Last-value/stride predictor for DOACROSS loop live-ins.

Prophet-style value prediction breaks the post/wait serialization of a
DOACROSS loop: when the consumer iteration can predict the value a
live-in will take, it starts immediately instead of waiting for the
producer's post, and only a misprediction pays a restart.

The tracer records timing events, not data values, so we predict the
deterministic trace-visible proxy for a regular recurrence: the
*relative cycle at which the producer iteration stores the live-in*.
An induction-like update (``i += step`` compiled to the same code every
iteration) stores at a stable per-iteration offset; its store-offset
sequence is constant or strided, exactly the pattern a last-value/stride
predictor captures.  An irregular live-in (stored from data-dependent
paths) jitters the offset and the predictor loses confidence — the same
loops where real value prediction fails.

The predictor keeps, per address, the offsets of every producer store
(:meth:`observe`).  A stride table that needs two consecutive equal
strides before it commits to predicting the next store has a closed
form over that history.  Let ``r_0 .. r_k`` be an address's offsets
and ``d_i = r_i - r_(i-1)``; the latest store ``r_k`` was

* not predicted (``None``) if ``k < 3`` or ``d_(k-1) != d_(k-2)``;
* predicted correctly (``"hit"``) if ``d_k == d_(k-1)``;
* mispredicted (``"miss"``) otherwise.

:func:`outcome` is that rule, the one place it is written down.
Consumers query :meth:`consume`, which reports how the most recent
store of an address was covered: ``"hit"`` (no wait), ``"miss"``
(restart penalty), or ``None`` (fall back to post/wait).  Because the
producer always publishes before its consumers are scheduled, the
answer is deterministic and causally sound.  Addresses never interact,
so a history only ever needs its own address's stores.
"""

from collections import defaultdict
from typing import List, Optional


def outcome(history: List[int]) -> Optional[str]:
    """Coverage of the latest store in ``history`` (store offsets of one
    address, oldest first): ``"hit"``, ``"miss"`` or ``None``."""
    if len(history) < 4:
        return None
    r0, r1, r2, r3 = history[-4:]
    stride = r2 - r1
    if stride != r1 - r0:
        return None
    return "hit" if r3 - r2 == stride else "miss"


class LiveInPredictor:
    """Per-address producer-store offset histories plus the stride
    rule of :func:`outcome`."""

    __slots__ = ("histories",)

    def __init__(self):
        #: addr -> offsets of every store of it, oldest first
        self.histories = defaultdict(list)

    def observe(self, addr, rel):
        """Record a producer store of *addr* at relative cycle *rel*."""
        self.histories[addr].append(rel)

    def consume(self, addr):
        """How the latest store of *addr* was covered.

        Returns ``"hit"``, ``"miss"``, or ``None`` (no prediction was
        attempted, or the address was never stored).
        """
        history = self.histories.get(addr)
        return None if history is None else outcome(history)

    # -- training-side counters, derived from the histories ---------------

    @property
    def trains(self):
        """Stores observed."""
        return sum(map(len, self.histories.values()))

    def _graded(self):
        """``(predictions, hits)`` over every store observed."""
        predictions = hits = 0
        for history in self.histories.values():
            for k in range(4, len(history) + 1):
                graded = outcome(history[k - 4:k])
                if graded is not None:
                    predictions += 1
                    hits += graded == "hit"
        return predictions, hits

    @property
    def predictions(self):
        """Stores the table was confident about."""
        return self._graded()[0]

    @property
    def hits(self):
        """Confident predictions that were right."""
        return self._graded()[1]

    @property
    def mispredictions(self):
        predictions, hits = self._graded()
        return predictions - hits

    @property
    def hit_rate(self):
        predictions, hits = self._graded()
        return hits / predictions if predictions else 0.0
