"""Per-STL statistics: the raw counters and derived values of Figure 3.

A :class:`STLStats` accumulates across every entry of one potential STL
during a profiled sequential run.  The raw counters match the paper's
"Values derived from counters" table exactly; the derived properties
match its "Derived values" column:

* average thread size         = cycles / threads
* average iterations/entry    = threads / entries
* critical-arc frequency      = arcs / (threads - 1), per bin
* average critical-arc length = accumulated lengths / arcs, per bin
* overflow frequency          = overflowing threads / threads

A :class:`DependencyProfile` bins the same critical arcs by the load
instruction that closed them (Section 6.3, Figure 8b: the extended
hardware's per-PC critical-arc SRAM), so a programmer or compiler sees
which loads carry the dependencies that limit an STL.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class STLStats:
    """Accumulated trace statistics for one potential STL."""

    __slots__ = (
        "loop_id",
        "cycles",
        "entries",
        "threads",
        "profiled_entries",
        "profiled_threads",
        "arcs_prev",
        "arc_len_prev",
        "arcs_earlier",
        "arc_len_earlier",
        "local_arcs",
        "overflow_threads",
        "load_lines_total",
        "store_lines_total",
        "max_load_lines",
        "max_store_lines",
        "dynamic_depth",
    )

    def __init__(self, loop_id: int):
        self.loop_id = loop_id
        #: total cycles elapsed inside the loop (all entries)
        self.cycles = 0
        #: number of loop entries (sloop events)
        self.entries = 0
        #: number of completed threads (iterations)
        self.threads = 0
        #: entries/threads observed while a comparator bank was armed —
        #: the denominators for arc and overflow frequencies once the
        #: runtime disables a converged loop's analysis (Section 5.2)
        self.profiled_entries = 0
        self.profiled_threads = 0
        #: critical-arc count / accumulated length, to the previous thread
        self.arcs_prev = 0
        self.arc_len_prev = 0
        #: critical-arc count / accumulated length, to earlier threads
        self.arcs_earlier = 0
        self.arc_len_earlier = 0
        #: critical arcs whose producer was a local variable (these become
        #: globalized store-load communication after compilation)
        self.local_arcs = 0
        #: threads whose buffer requirements exceeded the Table 1 limits
        self.overflow_threads = 0
        #: summed per-thread new-line counts (diagnostics / ablations)
        self.load_lines_total = 0
        self.store_lines_total = 0
        #: worst single-thread buffer demand observed
        self.max_load_lines = 0
        self.max_store_lines = 0
        #: deepest dynamic STL nesting observed at entry (Table 6 col d)
        self.dynamic_depth = 0

    # -- derived values (Figure 3) ----------------------------------------

    @property
    def avg_thread_size(self) -> float:
        """Average thread size in cycles."""
        return self.cycles / self.threads if self.threads else 0.0

    @property
    def avg_iters_per_entry(self) -> float:
        """Average iterations per loop entry."""
        return self.threads / self.entries if self.entries else 0.0

    @property
    def arc_freq_prev(self) -> float:
        """Critical-arc frequency to the previous thread."""
        denom = self.profiled_threads - self.profiled_entries
        return self.arcs_prev / denom if denom > 0 else 0.0

    @property
    def arc_freq_earlier(self) -> float:
        """Critical-arc frequency to earlier (< t-1) threads."""
        denom = self.profiled_threads - self.profiled_entries
        return self.arcs_earlier / denom if denom > 0 else 0.0

    @property
    def avg_arc_len_prev(self) -> float:
        """Average critical-arc length to the previous thread."""
        return self.arc_len_prev / self.arcs_prev if self.arcs_prev else 0.0

    @property
    def avg_arc_len_earlier(self) -> float:
        """Average critical-arc length to earlier threads."""
        return self.arc_len_earlier / self.arcs_earlier \
            if self.arcs_earlier else 0.0

    @property
    def overflow_freq(self) -> float:
        """Fraction of profiled threads exceeding the buffer limits."""
        return self.overflow_threads / self.profiled_threads \
            if self.profiled_threads else 0.0

    @property
    def local_arc_freq(self) -> float:
        """Fraction of profiled threads carrying a local critical arc."""
        return self.local_arcs / self.profiled_threads \
            if self.profiled_threads else 0.0

    def invariant_errors(self) -> list:
        """Internal-consistency violations of the accumulated counters.

        Returns human-readable descriptions (empty = consistent).  The
        conformance fuzz campaign runs this after every profiled
        execution; each rule is a structural property of the comparator
        bank, so a violation always indicates a tracer bug:

        * counter ordering — a loop that produced statistics has been
          entered, every entry completed at least one thread, and the
          profiled (bank-armed) counters never exceed the totals;
        * critical-arc minimality — the bank keeps only the *shortest*
          arc of each bin per thread, so each bin can hold at most one
          arc per non-first profiled thread;
        * local-arc accounting — a local critical arc is a refinement
          of a recorded arc, never an extra one;
        * speculative-buffer limits — overflowing threads are a subset
          of profiled threads, and per-thread maxima never exceed the
          accumulated line totals.
        """
        errors = []

        def need(cond: bool, rule: str) -> None:
            if not cond:
                errors.append("L%d: %s" % (self.loop_id, rule))

        need(self.entries >= 1, "stats recorded without an entry")
        need(self.threads >= self.entries,
             "threads (%d) < entries (%d)"
             % (self.threads, self.entries))
        need(self.profiled_entries <= self.entries,
             "profiled entries (%d) > entries (%d)"
             % (self.profiled_entries, self.entries))
        need(self.profiled_threads <= self.threads,
             "profiled threads (%d) > threads (%d)"
             % (self.profiled_threads, self.threads))
        need(self.cycles >= self.threads,
             "cycles (%d) < threads (%d) — a thread costs >= 1 cycle"
             % (self.cycles, self.threads))

        arc_slots = max(0, self.profiled_threads - self.profiled_entries)
        need(self.arcs_prev <= arc_slots,
             "arc minimality: %d t-1 arcs from %d eligible threads"
             % (self.arcs_prev, arc_slots))
        need(self.arcs_earlier <= arc_slots,
             "arc minimality: %d <t-1 arcs from %d eligible threads"
             % (self.arcs_earlier, arc_slots))
        need(self.arc_len_prev >= 0 and self.arc_len_earlier >= 0,
             "negative accumulated arc length")
        need((self.arcs_prev > 0) or (self.arc_len_prev == 0),
             "t-1 arc length without an arc")
        need((self.arcs_earlier > 0) or (self.arc_len_earlier == 0),
             "<t-1 arc length without an arc")
        need(self.local_arcs <= self.arcs_prev + self.arcs_earlier,
             "local arcs (%d) exceed recorded arcs (%d)"
             % (self.local_arcs, self.arcs_prev + self.arcs_earlier))

        need(self.overflow_threads <= self.profiled_threads,
             "overflow threads (%d) > profiled threads (%d)"
             % (self.overflow_threads, self.profiled_threads))
        need(self.max_load_lines <= self.load_lines_total,
             "max load lines (%d) > total (%d)"
             % (self.max_load_lines, self.load_lines_total))
        need(self.max_store_lines <= self.store_lines_total,
             "max store lines (%d) > total (%d)"
             % (self.max_store_lines, self.store_lines_total))
        return errors

    def merge(self, other: "STLStats") -> None:
        """Accumulate another stats object into this one."""
        self.cycles += other.cycles
        self.entries += other.entries
        self.threads += other.threads
        self.profiled_entries += other.profiled_entries
        self.profiled_threads += other.profiled_threads
        self.arcs_prev += other.arcs_prev
        self.arc_len_prev += other.arc_len_prev
        self.arcs_earlier += other.arcs_earlier
        self.arc_len_earlier += other.arc_len_earlier
        self.local_arcs += other.local_arcs
        self.overflow_threads += other.overflow_threads
        self.load_lines_total += other.load_lines_total
        self.store_lines_total += other.store_lines_total
        self.max_load_lines = max(self.max_load_lines, other.max_load_lines)
        self.max_store_lines = max(self.max_store_lines,
                                   other.max_store_lines)
        self.dynamic_depth = max(self.dynamic_depth, other.dynamic_depth)

    def render(self) -> str:
        """Figure 3-style text table of raw and derived values."""
        rows = [
            ("# cycles", self.cycles),
            ("# threads", self.threads),
            ("# entries", self.entries),
            ("# critical arcs to t-1", self.arcs_prev),
            ("Accum. arc lengths to t-1", self.arc_len_prev),
            ("# critical arcs to <t-1", self.arcs_earlier),
            ("Accum. arc lengths to <t-1", self.arc_len_earlier),
            ("# overflow threads", self.overflow_threads),
            ("Avg. thread size", round(self.avg_thread_size, 2)),
            ("Avg. iterations per entry",
             round(self.avg_iters_per_entry, 2)),
            ("Critical arc freq to t-1", round(self.arc_freq_prev, 3)),
            ("Avg. arc length to t-1", round(self.avg_arc_len_prev, 2)),
            ("Critical arc freq to <t-1",
             round(self.arc_freq_earlier, 3)),
            ("Avg. arc length to <t-1",
             round(self.avg_arc_len_earlier, 2)),
            ("Overflow frequency", round(self.overflow_freq, 4)),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join("%-*s  %s" % (width, name, value)
                         for name, value in rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return ("<STLStats L%d threads=%d size=%.1f arcs(t-1)=%d "
                "ovf=%.2f>" % (self.loop_id, self.threads,
                               self.avg_thread_size, self.arcs_prev,
                               self.overflow_freq))


class ArcBin:
    """Accumulated critical-arc statistics for one load site."""

    __slots__ = ("fn", "pc", "count", "total_length", "min_length",
                 "max_length")

    def __init__(self, fn: str, pc: int):
        self.fn = fn
        self.pc = pc
        self.count = 0
        self.total_length = 0
        self.min_length = None
        self.max_length = 0

    def add(self, length: int) -> None:
        self.count += 1
        self.total_length += length
        if self.min_length is None or length < self.min_length:
            self.min_length = length
        if length > self.max_length:
            self.max_length = length

    @property
    def avg_length(self) -> float:
        return self.total_length / self.count if self.count else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<ArcBin %s:%d n=%d avg=%.1f>" % (
            self.fn, self.pc, self.count, self.avg_length)


class DependencyProfile:
    """All arc bins for one STL, queryable by severity."""

    def __init__(self, loop_id: int):
        self.loop_id = loop_id
        self.bins: Dict[Tuple[str, int, str], ArcBin] = {}

    def add(self, bin_kind: str, length: int, fn: str, pc: int) -> None:
        key = (fn, pc, bin_kind)
        entry = self.bins.get(key)
        if entry is None:
            entry = ArcBin(fn, pc)
            self.bins[key] = entry
        entry.add(length)

    def hottest(self, limit: int = 10) -> List[ArcBin]:
        """Load sites causing the most critical arcs, worst first."""
        return sorted(self.bins.values(),
                      key=lambda b: (-b.count, b.avg_length))[:limit]

    def limiting(self, thread_size: float,
                 fraction: float = 0.5) -> List[ArcBin]:
        """Load sites whose average arc is much shorter than the thread
        size — the paper's signal that moving the load/store or adding
        synchronization would pay off (Section 6.3)."""
        return [b for b in self.hottest(limit=len(self.bins))
                if thread_size > 0
                and b.avg_length < fraction * thread_size]
