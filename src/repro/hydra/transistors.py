"""Transistor-count estimate for Hydra with TLS and TEST support.

Reproduces Table 5 of the paper from structure sizes.  The model:

* SRAM data bits cost 6 transistors (6T cell);
* CAM bits (fully associative tag match) cost 10 transistors;
* register/flip-flop bits cost 8 transistors;
* an n-bit magnitude comparator costs ``COMPARATOR_T_PER_BIT`` per bit;
* random control logic is a calibrated multiplier on datapath cells.

The CPU core count is an opaque constant (the paper likewise quotes a
single 2500K figure for a MIPS integer+FP core).  The headline claim —
the TEST comparator-bank array adds **< 1 %** of the CMP's transistors —
is what the reproduction checks; absolute per-row values track the
paper's to within rounding/calibration.
"""

from __future__ import annotations

from typing import List, NamedTuple

from repro.hydra.config import DEFAULT_HYDRA, HydraConfig
from repro.runtime.heap import LINE_SIZE

SRAM_T_PER_BIT = 6
CAM_T_PER_BIT = 10
REG_T_PER_BIT = 8
COMPARATOR_T_PER_BIT = 60       # comparator + pipeline latch + wiring
ADDER_T_PER_BIT = 28
#: multiplier for decoders, sense amps, muxes and control
CONTROL_OVERHEAD = 1.15

#: Paper's figure for one single-issue MIPS core with FP (transistors).
CPU_CORE_TRANSISTORS = 2_500_000

#: Address/timestamp width used throughout the TEST datapath.
WORD_BITS = 32


class TransistorRow(NamedTuple):
    """One row of Table 5."""

    structure: str
    count: int           # instances
    each: int            # transistors per instance
    total: int           # transistors

    @property
    def each_k(self) -> int:
        return round(self.each / 1000)

    @property
    def total_k(self) -> int:
        return round(self.total / 1000)


def sram_transistors(data_bytes: int, tag_bits_per_line: int = 0,
                     n_lines: int = 0) -> int:
    """SRAM array: data bits + per-line tag bits, with control overhead."""
    bits = data_bytes * 8 + tag_bits_per_line * n_lines
    return int(bits * SRAM_T_PER_BIT * CONTROL_OVERHEAD)


def l1_pair_transistors(config: HydraConfig) -> int:
    """One CPU's 16 kB I-cache + 16 kB D-cache with speculation tag bits."""
    icache = sram_transistors(16 * 1024, tag_bits_per_line=20,
                              n_lines=16 * 1024 // LINE_SIZE)
    # D-cache lines carry extra speculative read/modified tag bits
    dcache = sram_transistors(16 * 1024, tag_bits_per_line=20 + 10,
                              n_lines=16 * 1024 // LINE_SIZE)
    return icache + dcache


def l2_transistors() -> int:
    """The shared 2 MB on-chip L2 (tag overhead folded into the array)."""
    return sram_transistors(2 * 1024 * 1024)


def write_buffer_transistors(config: HydraConfig) -> int:
    """One 2 kB speculative store buffer: SRAM data + CAM tags + state."""
    data = config.store_buffer_lines * LINE_SIZE * 8 * SRAM_T_PER_BIT
    tag_bits = 27  # line address tag for fully associative match
    cam = config.store_buffer_lines * tag_bits * CAM_T_PER_BIT
    # per-line valid bits + byte write masks
    state = config.store_buffer_lines * (LINE_SIZE + 2) * REG_T_PER_BIT
    control = 0.35 * (data + cam + state)  # priority encode, drain logic
    return int(data + cam + state + control)


def comparator_bank_transistors(n_comparators: int = 8) -> int:
    """One TEST comparator bank (Figure 7): comparators, timestamp
    registers, statistics counters, accumulators, and control."""
    comparators = n_comparators * WORD_BITS * COMPARATOR_T_PER_BIT
    # thread-start timestamps (n_cpus deep shift chain) + last-LD/ST
    # timestamp registers + critical-arc length registers
    registers = 20 * WORD_BITS * REG_T_PER_BIT
    # statistics counters (threads, entries, cycles, arcs x2, lengths x2,
    # loaded/stored lines, overflows)
    counters = 10 * WORD_BITS * (REG_T_PER_BIT + 4)  # +4: increment logic
    adders = 2 * WORD_BITS * ADDER_T_PER_BIT
    datapath = comparators + registers + counters + adders
    control = 0.45 * datapath  # allocation FSM, pipeline, muxing
    return int(datapath + control)


class TransistorBudget:
    """The full Table 5, computed from a :class:`HydraConfig`."""

    def __init__(self, config: HydraConfig = DEFAULT_HYDRA,
                 n_write_buffers: int = 5):
        self.config = config
        self.rows: List[TransistorRow] = []
        cpu = CPU_CORE_TRANSISTORS
        l1 = l1_pair_transistors(config)
        l2 = l2_transistors()
        wb = write_buffer_transistors(config)
        bank = comparator_bank_transistors()
        self.rows = [
            TransistorRow("CPU + FP core", config.n_cpus, cpu,
                          config.n_cpus * cpu),
            TransistorRow("16kB I / 16kB D Cache", config.n_cpus, l1,
                          config.n_cpus * l1),
            TransistorRow("2MB L2 cache", 1, l2, l2),
            TransistorRow("Write buffer", n_write_buffers, wb,
                          n_write_buffers * wb),
            TransistorRow("Comparator bank", config.n_comparator_banks,
                          bank, config.n_comparator_banks * bank),
        ]

    @property
    def total(self) -> int:
        return sum(r.total for r in self.rows)

    def fraction(self, structure: str) -> float:
        """Share of the total for one structure."""
        for row in self.rows:
            if row.structure == structure:
                return row.total / self.total
        raise KeyError(structure)

    @property
    def test_fraction(self) -> float:
        """Fraction of the CMP consumed by the TEST comparator array —
        the paper's '< 1% of the total transistor count' claim."""
        return self.fraction("Comparator bank")

    def render(self) -> str:
        """Text rendering in the shape of Table 5."""
        lines = ["%-24s %6s %10s %12s %8s" % (
            "Structure", "Count", "Each(K)", "Total(K)", "% total")]
        for row in self.rows:
            lines.append("%-24s %6d %10d %12d %7.2f%%" % (
                row.structure, row.count, row.each_k, row.total_k,
                100.0 * row.total / self.total))
        lines.append("%-24s %6s %10s %12d %7.2f%%" % (
            "Total", "", "", round(self.total / 1000), 100.0))
        return "\n".join(lines)
