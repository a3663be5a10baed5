"""Simulation statistics.

Implements the paper's three headline metrics:

* **IPC** — committed (right-path) instructions per elapsed cycle.
* **Issue-slot breakdown** (Figure 3) — every cycle, each of the 4 AP and 4
  EP slots is classified as useful work, wrong-path, wait-operand-from-
  memory, wait-operand-from-FU, other (structural), or idle. The paper
  plots wrong-path and idle as one category; we keep them separate
  internally and merge in the report.
* **Perceived load-miss latency** (sections 2, 3.2) — "the average number of
  cycles that an instruction that uses a load value cannot issue although
  there is a free issue slot", averaged over load *misses* (hits excluded),
  separately for FP and integer loads.
"""

from __future__ import annotations

from copy import copy as shallow_copy
from dataclasses import dataclass, field, fields

from repro.isa.opclass import Unit

# Issue-slot categories (paper Figure 3).
SLOT_USEFUL = 0
SLOT_WRONG_PATH = 1
SLOT_WAIT_MEM = 2
SLOT_WAIT_FU = 3
SLOT_OTHER = 4
SLOT_IDLE = 5
N_SLOT_CATEGORIES = 6

SLOT_NAMES = ("useful", "wrong_path", "wait_mem", "wait_fu", "other", "idle")


#: Counters that describe *how* the scheduler executed a region rather
#: than what the machine did — legitimately different between the
#: event-horizon fast-forward and the forced per-cycle walk.
SCHEDULER_DIAGNOSTICS = ("ff_jumps", "ff_cycles_skipped")


@dataclass
class SimStats:
    """Mutable counters filled by the pipeline; reset at the warm-up mark."""

    cycles: int = 0
    committed: int = 0
    committed_per_thread: dict[int, int] = field(default_factory=dict)
    fetched: int = 0
    fetched_wrong_path: int = 0
    dispatched: int = 0
    issued: int = 0
    issued_wrong_path: int = 0
    squashes: int = 0
    squashed_instructions: int = 0
    branches: int = 0
    branch_mispredicts: int = 0

    # memory behaviour (right-path accesses only). "Misses" are primary
    # misses (line fetches); "merged" are secondary misses that coalesced
    # into an in-flight fill (they wait on memory but fetch no new line).
    loads_fp: int = 0
    loads_int: int = 0
    load_misses_fp: int = 0
    load_misses_int: int = 0
    load_merged_fp: int = 0
    load_merged_int: int = 0
    stores: int = 0
    store_misses: int = 0
    store_merged: int = 0

    # perceived latency accounting
    perceived_stall_fp: int = 0
    perceived_stall_int: int = 0

    # issue-slot breakdown: [unit][category] counts
    slot_counts: list[list[int]] = field(
        default_factory=lambda: [[0] * N_SLOT_CATEGORIES for _ in range(2)]
    )

    # decoupling diagnostics
    slip_samples: int = 0
    slip_total: int = 0

    # memory-system totals copied in by the runner at snapshot time
    bus_utilization: float = 0.0
    line_fills: int = 0
    writebacks: int = 0
    mshr_alloc_failures: int = 0
    #: structurally refused requests (no MSHR / pinned set) that retried
    blocked_requests: int = 0
    #: per-outer-level fill-stream traffic, in stack order:
    #: ``{level: {"hits": n, "misses": n, "writebacks": n}}``
    level_stats: dict[str, dict[str, int]] = field(default_factory=dict)
    # prefetcher traffic (zero when the hierarchy has no prefetcher)
    prefetch_fills: int = 0
    prefetch_hits: int = 0
    prefetch_dropped: int = 0

    # multi-fidelity router annotations (repro.router): set only on
    # *screened* results returned by the hybrid backend — ``fidelity``
    # becomes ``"analytic"`` and ``ipc_lo``/``ipc_hi`` carry the
    # calibrated IPC error bar. Promoted cells pass through with these
    # at their defaults, exactly as a pure cycle run produces them, so
    # promotion never breaks byte-identity with the cycle backend.
    fidelity: str = ""
    ipc_lo: float = 0.0
    ipc_hi: float = 0.0

    # event-horizon scheduler diagnostics: how much of the region was
    # bulk-jumped instead of walked cycle-by-cycle. Deterministic for a
    # given machine state and fast-forward mode, but excluded from
    # differential comparisons (:meth:`comparable_dict`): the jump and
    # the walk must agree on every architectural counter above while
    # necessarily disagreeing on these two.
    ff_jumps: int = 0
    ff_cycles_skipped: int = 0

    # -- derived metrics ---------------------------------------------------------

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def load_miss_ratio(self) -> float:
        """Fraction of loads that found their line absent (primary misses
        plus merged secondary misses — the paper's Figure 1-c metric, which
        therefore grows with latency and thread count)."""
        loads = self.loads_fp + self.loads_int
        misses = (
            self.load_misses_fp + self.load_misses_int
            + self.load_merged_fp + self.load_merged_int
        )
        return misses / loads if loads else 0.0

    @property
    def load_fill_ratio(self) -> float:
        """Line fetches per load (primary misses only — the bus-traffic
        view of the load miss stream)."""
        loads = self.loads_fp + self.loads_int
        return (self.load_misses_fp + self.load_misses_int) / loads if loads else 0.0

    @property
    def store_miss_ratio(self) -> float:
        misses = self.store_misses + self.store_merged
        return misses / self.stores if self.stores else 0.0

    @property
    def perceived_fp_latency(self) -> float:
        """Average perceived latency of FP load misses (Fig. 1-a, 4-a).

        The denominator includes merged (secondary) misses: they too made a
        consumer wait on memory, just without fetching a new line.
        """
        misses = self.load_misses_fp + self.load_merged_fp
        if not misses:
            return 0.0
        return self.perceived_stall_fp / misses

    @property
    def perceived_int_latency(self) -> float:
        """Average perceived latency of integer load misses (Fig. 1-b)."""
        misses = self.load_misses_int + self.load_merged_int
        if not misses:
            return 0.0
        return self.perceived_stall_int / misses

    @property
    def perceived_load_latency(self) -> float:
        """Average perceived latency over all load misses (Fig. 4-a)."""
        misses = (
            self.load_misses_fp + self.load_misses_int
            + self.load_merged_fp + self.load_merged_int
        )
        if not misses:
            return 0.0
        return (self.perceived_stall_fp + self.perceived_stall_int) / misses

    def level_miss_rate(self, level: str) -> float:
        """Miss rate of one outer level's fill stream (0.0 if unseen)."""
        row = self.level_stats.get(level)
        if not row:
            return 0.0
        seen = row.get("hits", 0) + row.get("misses", 0)
        return row.get("misses", 0) / seen if seen else 0.0

    @property
    def prefetch_coverage(self) -> float:
        """Fraction of issued prefetches whose line served a demand
        access (useful prefetches / prefetch fills). Never exceeds 1:
        hits and fills describe the same measured window (the warm-up
        reset clears stale prefetched flags along with the counters)."""
        if not self.prefetch_fills:
            return 0.0
        return self.prefetch_hits / self.prefetch_fills

    @property
    def mispredict_rate(self) -> float:
        return self.branch_mispredicts / self.branches if self.branches else 0.0

    @property
    def average_slip(self) -> float:
        """Mean AP-ahead-of-EP distance, in instructions, sampled at EP issue."""
        return self.slip_total / self.slip_samples if self.slip_samples else 0.0

    def slot_fractions(self, unit: Unit) -> dict[str, float]:
        """Issue-slot breakdown of one unit as fractions summing to 1."""
        row = self.slot_counts[int(unit)]
        total = sum(row)
        if not total:
            return {name: 0.0 for name in SLOT_NAMES}
        return {name: row[i] / total for i, name in enumerate(SLOT_NAMES)}

    def unit_utilization(self, unit: Unit) -> float:
        """Fraction of a unit's issue slots doing useful work."""
        row = self.slot_counts[int(unit)]
        total = sum(row)
        return row[SLOT_USEFUL] / total if total else 0.0

    # -- serialisation ----------------------------------------------------------

    def to_dict(self) -> dict:
        """Faithful JSON-safe dump of every counter field.

        Round-trips exactly through :meth:`from_dict` (JSON string keys are
        restored to ints), so results can cross process boundaries and live
        in the on-disk result cache without losing information.
        """
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "committed_per_thread":
                value = {str(k): v for k, v in value.items()}
            elif f.name == "slot_counts":
                value = [list(row) for row in value]
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "SimStats":
        """Inverse of :meth:`to_dict`; unknown keys are ignored so newer
        readers tolerate older cache entries (and vice versa), and
        missing keys keep their defaults.

        Every cache hit and every pool result is decoded here, so the
        named fields overwrite a default instance in one step: a call of
        the constructor with some 40 keywords cost two to three times as
        much.
        """
        out = cls()
        known = out.__dict__
        known.update({k: v for k, v in d.items() if k in known})
        out.committed_per_thread = {
            int(k): int(v) for k, v in (out.committed_per_thread or {}).items()
        }
        out.slot_counts = [list(row) for row in out.slot_counts]
        return out

    def copy(self) -> "SimStats":
        """An independent copy: the scalar fields are shared (immutable)
        and each container field — ``committed_per_thread``,
        ``slot_counts``, ``level_stats`` — is copied down to its rows.

        What isolates a memoized or cached result from the caller it is
        handed to, at a seventh of ``copy.deepcopy``'s cost.
        """
        out = shallow_copy(self)
        out.committed_per_thread = dict(self.committed_per_thread)
        out.slot_counts = [list(row) for row in self.slot_counts]
        out.level_stats = {
            name: dict(row) for name, row in self.level_stats.items()
        }
        return out

    def comparable_dict(self) -> dict:
        """:meth:`to_dict` minus the scheduler diagnostics.

        The differential suites compare a fast-forwarded run against the
        forced per-cycle walk: every architectural counter must be
        bit-identical, while ``ff_jumps``/``ff_cycles_skipped`` describe
        the scheduling itself and differ by construction.
        """
        out = self.to_dict()
        for key in SCHEDULER_DIAGNOSTICS:
            del out[key]
        return out

    def snapshot(self) -> dict:
        """Plain-dict summary used by reports and experiment tables."""
        out = {
            "cycles": self.cycles,
            "committed": self.committed,
            "ipc": self.ipc,
            "load_miss_ratio": self.load_miss_ratio,
            "store_miss_ratio": self.store_miss_ratio,
            "perceived_fp_latency": self.perceived_fp_latency,
            "perceived_int_latency": self.perceived_int_latency,
            "perceived_load_latency": self.perceived_load_latency,
            "bus_utilization": self.bus_utilization,
            "mispredict_rate": self.mispredict_rate,
            "average_slip": self.average_slip,
            "line_fills": self.line_fills,
            "writebacks": self.writebacks,
            "blocked_requests": self.blocked_requests,
            "mshr_alloc_failures": self.mshr_alloc_failures,
            "levels": {
                name: dict(row, miss_rate=self.level_miss_rate(name))
                for name, row in self.level_stats.items()
            },
            "prefetch": {
                "fills": self.prefetch_fills,
                "hits": self.prefetch_hits,
                "dropped": self.prefetch_dropped,
                "coverage": self.prefetch_coverage,
            },
            "ap_slots": self.slot_fractions(Unit.AP),
            "ep_slots": self.slot_fractions(Unit.EP),
            "ff": {
                "jumps": self.ff_jumps,
                "cycles_skipped": self.ff_cycles_skipped,
            },
        }
        if self.fidelity:
            out["fidelity"] = self.fidelity
            out["ipc_interval"] = [self.ipc_lo, self.ipc_hi]
        return out
