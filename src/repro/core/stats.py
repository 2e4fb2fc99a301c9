"""Run statistics of the SMP prefilter.

These mirror the columns of Table I and Table II in the paper: projected
size, number of runtime-DFA states (split into CW and BM states), average
forward-shift size, the percentage of characters skipped by initial jumps,
and the percentage of character comparisons relative to the document size.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CompilationStatistics:
    """Sizes and timings of the static analysis."""

    dtd_states: int = 0
    dtd_transitions: int = 0
    selected_states: int = 0
    runtime_states: int = 0
    cw_states: int = 0
    bm_states: int = 0
    compile_seconds: float = 0.0

    def states_label(self) -> str:
        """Format like the paper's ``States (CW+BM)`` column, e.g. ``9 (2 + 6)``."""
        return f"{self.runtime_states} ({self.cw_states} + {self.bm_states})"


@dataclass
class RunStatistics:
    """Counters of one prefiltering run."""

    input_size: int = 0
    output_size: int = 0
    char_comparisons: int = 0
    local_scan_chars: int = 0
    shifts: int = 0
    shift_total: int = 0
    initial_jump_chars: int = 0
    initial_jumps: int = 0
    tokens_matched: int = 0
    tokens_copied: int = 0
    regions_copied: int = 0
    run_seconds: float = 0.0
    peak_memory_bytes: int = 0
    #: Number of runs folded into this record that asked for the native
    #: kernels (``delivery="accel"``) but ran the pure ``"batched"``
    #: reference because ``repro._accel`` is not importable.  Excluded
    #: from :meth:`as_dict`: the degrade changes throughput, never output
    #: or paper counters, so delivery-equivalence comparisons must not
    #: see it.
    accel_degraded: int = 0

    # ------------------------------------------------------------------
    # Derived metrics (the paper's table columns)
    # ------------------------------------------------------------------
    @property
    def total_comparisons(self) -> int:
        """Character comparisons of the matchers plus local tag-end scans."""
        return self.char_comparisons + self.local_scan_chars

    @property
    def char_comparison_ratio(self) -> float:
        """``Char Comp. [%]`` of Table I/II: comparisons / document size."""
        if self.input_size == 0:
            return 0.0
        return 100.0 * self.total_comparisons / self.input_size

    @property
    def average_shift(self) -> float:
        """``avg Shift Size [char]``: mean forward shift of the matchers."""
        if self.shifts == 0:
            return 0.0
        return self.shift_total / self.shifts

    @property
    def initial_jump_ratio(self) -> float:
        """``Initial Jumps [%]``: characters skipped by table-J jumps."""
        if self.input_size == 0:
            return 0.0
        return 100.0 * self.initial_jump_chars / self.input_size

    @property
    def projection_ratio(self) -> float:
        """Output size / input size."""
        if self.input_size == 0:
            return 0.0
        return self.output_size / self.input_size

    @property
    def throughput_mb_per_second(self) -> float:
        """Input megabytes processed per second of run time."""
        if self.run_seconds <= 0.0:
            return 0.0
        return (self.input_size / 1_000_000.0) / self.run_seconds

    def merge(self, other: "RunStatistics") -> None:
        """Accumulate ``other`` into this record (corpus aggregation).

        All counters add up -- sizes, comparisons, shifts, jumps, tokens,
        regions and run time -- so the merge of per-document statistics
        equals the statistics of filtering the documents back to back; the
        traced peak takes the maximum (peaks do not add across documents).
        """
        self.input_size += other.input_size
        self.output_size += other.output_size
        self.char_comparisons += other.char_comparisons
        self.local_scan_chars += other.local_scan_chars
        self.shifts += other.shifts
        self.shift_total += other.shift_total
        self.initial_jump_chars += other.initial_jump_chars
        self.initial_jumps += other.initial_jumps
        self.tokens_matched += other.tokens_matched
        self.tokens_copied += other.tokens_copied
        self.regions_copied += other.regions_copied
        self.run_seconds += other.run_seconds
        self.peak_memory_bytes = max(self.peak_memory_bytes,
                                     other.peak_memory_bytes)
        self.accel_degraded += other.accel_degraded

    def export_state(self) -> dict:
        """Every counter as a flat dictionary (checkpoint serialization).

        Unlike :meth:`as_dict` (the benchmark view, which derives ratios and
        drops bookkeeping fields) this is a lossless snapshot:
        ``RunStatistics.from_state(stats.export_state())`` reproduces the
        record field for field.
        """
        return {
            "input_size": self.input_size,
            "output_size": self.output_size,
            "char_comparisons": self.char_comparisons,
            "local_scan_chars": self.local_scan_chars,
            "shifts": self.shifts,
            "shift_total": self.shift_total,
            "initial_jump_chars": self.initial_jump_chars,
            "initial_jumps": self.initial_jumps,
            "tokens_matched": self.tokens_matched,
            "tokens_copied": self.tokens_copied,
            "regions_copied": self.regions_copied,
            "run_seconds": self.run_seconds,
            "peak_memory_bytes": self.peak_memory_bytes,
            "accel_degraded": self.accel_degraded,
        }

    @classmethod
    def from_state(cls, state: dict) -> "RunStatistics":
        """Rebuild a record captured by :meth:`export_state`."""
        stats = cls()
        for name in (
            "input_size", "output_size", "char_comparisons",
            "local_scan_chars", "shifts", "shift_total",
            "initial_jump_chars", "initial_jumps", "tokens_matched",
            "tokens_copied", "regions_copied", "peak_memory_bytes",
            "accel_degraded",
        ):
            if name in state:
                setattr(stats, name, int(state[name]))
        stats.run_seconds = float(state.get("run_seconds", 0.0))
        return stats

    def copy(self) -> "RunStatistics":
        """An independent copy of the current counters."""
        return RunStatistics.from_state(self.export_state())

    def as_dict(self) -> dict[str, float]:
        """All metrics as a flat dictionary (used by the benchmark harness)."""
        return {
            "input_size": float(self.input_size),
            "output_size": float(self.output_size),
            "char_comparison_ratio": self.char_comparison_ratio,
            "average_shift": self.average_shift,
            "initial_jump_ratio": self.initial_jump_ratio,
            "projection_ratio": self.projection_ratio,
            "run_seconds": self.run_seconds,
            "throughput_mb_per_second": self.throughput_mb_per_second,
            "tokens_matched": float(self.tokens_matched),
            "tokens_copied": float(self.tokens_copied),
        }


@dataclass
class FilterRun:
    """The result of prefiltering one document."""

    output: str
    stats: RunStatistics
    compilation: CompilationStatistics = field(default_factory=CompilationStatistics)

    @property
    def output_size(self) -> int:
        """Size of the projected document in characters."""
        return len(self.output)
