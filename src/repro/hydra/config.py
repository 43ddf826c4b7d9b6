"""Hydra CMP configuration: the machine model of Section 3.1.

Defaults reproduce the paper exactly:

* Table 1 — per-thread speculative buffer limits: load state 16 kB of
  L1 (512 lines x 32 B, 4-way), store buffer 2 kB (64 lines x 32 B,
  fully associative).
* Table 2 — TLS overheads: loop startup/shutdown 25 cycles each,
  end-of-iteration 5, violation-and-restart 5, store-load communication
  10 cycles.
* Section 5.3 — TEST timestamp buffers: five 2 kB store buffers,
  statically partitioned into three buffers of heap-store timestamps
  (a 192-line FIFO holding 6 kB of write history), one of cache-line
  timestamps, and one of local-variable store timestamps.
* Four single-issue cores (speedup is capped at ``n_cpus``).

The 32 B line is the simulator-wide
:data:`~repro.runtime.heap.LINE_SIZE`, shared by the heap allocator,
the TEST device and the replay.  Every other value is a
constructor parameter so ablation benches can sweep it (the paper
itself notes future Hydras with larger buffers would change STL
selection).
"""

from __future__ import annotations

from repro.runtime.heap import LINE_SIZE


class HydraConfig:
    """Machine parameters for Hydra with TLS + TEST support."""

    def __init__(
        self,
        n_cpus: int = 4,
        # Table 1
        load_buffer_lines: int = 512,
        load_buffer_assoc: int = 4,
        store_buffer_lines: int = 64,
        # Table 2
        startup_overhead: int = 25,
        shutdown_overhead: int = 25,
        eoi_overhead: int = 5,
        violation_restart_overhead: int = 5,
        store_load_comm_overhead: int = 10,
        # Section 5.3 (TEST timestamp storage during profiling)
        heap_ts_fifo_lines: int = 192,
        local_ts_lines: int = 64,
        line_ts_ld_entries: int = 512,
        line_ts_st_entries: int = 64,
        # Section 5.2
        n_comparator_banks: int = 8,
    ):
        if n_cpus < 2:
            raise ValueError("a speculative CMP needs at least 2 CPUs")
        # every replay indexes the load buffer's sets and counts the
        # store buffer's lines, so a geometry without them is refused
        # here, before any stage runs
        if load_buffer_assoc < 1:
            raise ValueError("load_buffer_assoc must be at least 1")
        if load_buffer_lines < 1 or load_buffer_lines % load_buffer_assoc:
            raise ValueError(
                "load_buffer_lines (%r) must be a positive multiple of "
                "load_buffer_assoc (%r)"
                % (load_buffer_lines, load_buffer_assoc))
        if store_buffer_lines < 1:
            raise ValueError("store_buffer_lines must be at least 1")
        self.n_cpus = n_cpus
        self.load_buffer_lines = load_buffer_lines
        self.load_buffer_assoc = load_buffer_assoc
        self.store_buffer_lines = store_buffer_lines
        self.startup_overhead = startup_overhead
        self.shutdown_overhead = shutdown_overhead
        self.eoi_overhead = eoi_overhead
        self.violation_restart_overhead = violation_restart_overhead
        self.store_load_comm_overhead = store_load_comm_overhead
        self.heap_ts_fifo_lines = heap_ts_fifo_lines
        self.local_ts_lines = local_ts_lines
        self.line_ts_ld_entries = line_ts_ld_entries
        self.line_ts_st_entries = line_ts_st_entries
        self.n_comparator_banks = n_comparator_banks

    # -- derived -----------------------------------------------------------

    @property
    def load_buffer_bytes(self) -> int:
        """Table 1: per-thread speculative-read capacity (16 kB)."""
        return self.load_buffer_lines * LINE_SIZE

    @property
    def store_buffer_bytes(self) -> int:
        """Table 1: per-thread store-buffer capacity (2 kB)."""
        return self.store_buffer_lines * LINE_SIZE

    @property
    def heap_ts_history_bytes(self) -> int:
        """Section 5.3: bytes of heap write history during profiling."""
        return self.heap_ts_fifo_lines * LINE_SIZE

    @property
    def heap_ts_fifo_entries(self) -> int:
        """Word-granularity heap store-timestamp capacity."""
        return self.heap_ts_fifo_lines * (LINE_SIZE // 4)

    def buffer_limits_table(self):
        """Rows of Table 1 as (buffer, per-thread limit, associativity)."""
        return [
            ("Load buffer",
             "%dkB (%d lines x %dB)" % (self.load_buffer_bytes // 1024,
                                        self.load_buffer_lines,
                                        LINE_SIZE),
             "%d-way" % self.load_buffer_assoc),
            ("Store buffer",
             "%dkB (%d lines x %dB)" % (self.store_buffer_bytes // 1024,
                                        self.store_buffer_lines,
                                        LINE_SIZE),
             "Fully"),
        ]

    def overheads_table(self):
        """Rows of Table 2 as (operation, cycles, note)."""
        return [
            ("Loop startup", self.startup_overhead,
             "Initialize loop local variables; load register-allocated "
             "loop invariants"),
            ("Loop shutdown", self.shutdown_overhead,
             "Complete sum and min/max reductions"),
            ("Loop end-of-iteration", self.eoi_overhead,
             "Increment loop iterators"),
            ("Violation and restart", self.violation_restart_overhead,
             "Load register-allocated loop invariants"),
            ("Store-load communication", self.store_load_comm_overhead, ""),
        ]


#: The paper's exact configuration.
DEFAULT_HYDRA = HydraConfig()
