"""Machine configuration.

Defaults reproduce the paper's Figure 2 parameter table. Two derived
configurations cover the paper's experimental variants:

* :meth:`MachineConfig.scaled_for_latency` — section 2 scales "the sizes of
  all the architectural queues and physical register files ... up
  proportionally to the L2 latency"; we use factor ``max(1, lat/16)`` so the
  Figure-2 values hold at the default 16-cycle latency. MSHRs scale with the
  same factor: the paper's fixed 16 MSHRs cannot sustain the memory-level
  parallelism its own Figure 4 results imply at 256-cycle latency (16
  outstanding misses over a ~258-cycle round trip caps miss bandwidth at
  0.062 lines/cycle), so we treat the MSHR file as one of the scaled
  resources and quantify the difference in the ``abl-mshr`` ablation.
* ``decoupled=False`` — the "degenerated version ... where the instruction
  queues are disabled": both units drain one unified in-order queue per
  thread, so a stalled instruction blocks everything younger, exactly a
  conventional in-order SMT.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.memo import Memoized
from repro.memory.spec import MemSpec
from repro.workloads.profiles import check_scalars, scalar_checks


@dataclass(frozen=True)
class MachineConfig(Memoized):
    """Microarchitecture parameters (paper Figure 2 defaults)."""

    # -- contexts / mode --------------------------------------------------------
    n_threads: int = 1
    decoupled: bool = True

    # -- functional units / issue ------------------------------------------------
    ap_width: int = 4          # AP issue slots == AP functional units
    ep_width: int = 4          # EP issue slots == EP functional units
    ap_latency: int = 1
    ep_latency: int = 4

    # -- front end -----------------------------------------------------------------
    fetch_threads: int = 2     # I-cache ports (threads fetching per cycle)
    fetch_width: int = 8       # instructions per thread per cycle
    fetch_buffer: int = 16     # per-thread fetched-not-dispatched capacity
    fetch_policy: str = "icount"  # "icount" | "rr"
    dispatch_width: int = 8    # total rename/dispatch bandwidth
    max_unresolved_branches: int = 4
    bht_entries: int = 2048    # per-thread, 2-bit counters

    # -- queues / registers (per thread) ------------------------------------------
    iq_size: int = 48          # EP instruction queue (the decoupling queue)
    aq_size: int = 48          # AP-side queue (same depth; paper leaves
                               # it unnamed — the AP must buffer its own
                               # dispatched instructions to slip ahead)
    saq_size: int = 32         # store address queue
    rob_size: int = 256        # not listed in Figure 2; see DESIGN.md
    ap_regs: int = 64          # AP physical registers
    ep_regs: int = 96          # EP physical registers
    commit_width: int = 8      # per-thread graduation bandwidth

    # -- simulation safety net ---------------------------------------------------
    #: cycles without a commit before the simulator declares the pipeline
    #: wedged and raises. Long-latency sweeps (L2 >= 256 with many threads)
    #: can legitimately go tens of thousands of cycles without graduating;
    #: tune this upward rather than patching the processor.
    deadlock_cycles: int = 100_000

    # -- memory system ---------------------------------------------------------------
    l1_bytes: int = 64 * 1024
    line_bytes: int = 32
    l1_ports: int = 4
    l1_hit_latency: int = 1
    mshrs: int = 16
    l2_latency: int = 16
    bus_bytes_per_cycle: int = 16
    #: declarative memory hierarchy (:class:`~repro.memory.spec.MemSpec`).
    #: ``None`` builds the classic machine from the scalars above; a custom
    #: spec may still inherit any scalar through its ``AUTO`` fields (so
    #: e.g. the ``l2_latency`` sweep axis keeps working for finite-L2
    #: machines). Resolve via :meth:`memory`.
    mem: MemSpec | None = None

    # -- workload plumbing --------------------------------------------------------------
    #: Per-thread data-address salts (region-aware). Each salt's 64 MB
    #: component keeps thread address spaces disjoint (no accidental line
    #: sharing); the small component shifts cache-*set* placement per thread.
    #: Hot regions shift by 2816 B and store regions by 4 KB so that four
    #: threads tile the L1's set space; beyond that, regions wrap onto each
    #: other and thrash — reproducing "miss ratios increase progressively
    #: [with threads]" (paper section 3.1). Streams get a small decorrelating
    #: shift.
    salt_stream_bytes: int = (1 << 26) + 1664
    salt_store_bytes: int = (1 << 26) + 4096
    salt_hot_bytes: int = (1 << 26) + 2816

    def __post_init__(self):
        check_scalars(self, _CHECKS)
        for name, low in _MINIMA.items():
            if getattr(self, name) < low:
                raise ValueError(
                    f"{name} must be >= {low}, got {getattr(self, name)}"
                )
        if self.bht_entries & (self.bht_entries - 1):
            raise ValueError(
                f"bht_entries must be a power of two, got {self.bht_entries}"
            )
        if self.fetch_policy not in ("icount", "rr"):
            raise ValueError(f"unknown fetch policy {self.fetch_policy!r}")
        if self.mem is not None and not isinstance(self.mem, MemSpec):
            raise ValueError(
                f"mem must be a MemSpec or None, got "
                f"{type(self.mem).__name__}"
            )

    # -- derived configurations ---------------------------------------------------------

    def with_overrides(self, **kwargs) -> "MachineConfig":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)

    def memory(self) -> MemSpec:
        """The fully-resolved memory hierarchy this machine runs on:
        :attr:`mem` (or the classic default spec) with every ``AUTO``
        field bound to this config's scalars. Resolved once per object:
        the analytic backend asks for it three times per run."""
        return self._memo(
            "_memory", lambda: (self.mem or MemSpec()).resolve(self)
        )

    def scaled_for_latency(self, l2_latency: int) -> "MachineConfig":
        """Scale latency-hiding resources proportionally to the L2 latency
        (paper section 2), anchored at the Figure-2 values for 16 cycles."""
        factor = max(1.0, l2_latency / 16.0)
        return self.with_overrides(
            l2_latency=l2_latency,
            iq_size=int(round(self.iq_size * factor)),
            aq_size=int(round(self.aq_size * factor)),
            saq_size=int(round(self.saq_size * factor)),
            rob_size=int(round(self.rob_size * factor)),
            ap_regs=32 + int(round((self.ap_regs - 32) * factor)),
            ep_regs=32 + int(round((self.ep_regs - 32) * factor)),
            mshrs=int(round(self.mshrs * factor)),
        )

    def non_decoupled(self) -> "MachineConfig":
        """The paper's degenerate baseline: instruction queues disabled."""
        return self.with_overrides(decoupled=False)


#: every field but ``mem`` is an int, bool or str: a config override
#: of ``1.5`` or ``true`` would fail mid-run or run under a cache key of
#: its own
_CHECKS = scalar_checks(
    MachineConfig, {f.name for f in fields(MachineConfig)} - {"mem"}
)

#: the smallest value of each field a machine runs with: below 1, a
#: width, queue or latency wedges the pipeline (or divides by zero in the
#: analytic model); a register file must exceed the 32 architectural
#: registers it renames; the salts are address offsets
_MINIMA = {
    **dict.fromkeys((
        "n_threads", "ap_width", "ep_width", "ap_latency", "ep_latency",
        "fetch_threads", "fetch_width", "fetch_buffer", "dispatch_width",
        "max_unresolved_branches", "bht_entries", "iq_size", "aq_size",
        "saq_size", "rob_size", "commit_width", "deadlock_cycles",
        "l2_latency",
    ), 1),
    "ap_regs": 33, "ep_regs": 33,
    "salt_stream_bytes": 0, "salt_store_bytes": 0, "salt_hot_bytes": 0,
}

#: The exact Figure-2 machine (single thread).
PAPER_BASELINE = MachineConfig()


def paper_config(
    n_threads: int = 1,
    decoupled: bool = True,
    l2_latency: int = 16,
    scale_with_latency: bool = False,
    **overrides,
) -> MachineConfig:
    """Convenience constructor used by the experiment drivers."""
    cfg = PAPER_BASELINE.with_overrides(
        n_threads=n_threads, decoupled=decoupled
    )
    if scale_with_latency:
        cfg = cfg.scaled_for_latency(l2_latency)
    else:
        factor = max(1.0, l2_latency / 16.0)
        cfg = cfg.with_overrides(
            l2_latency=l2_latency,
            mshrs=int(round(cfg.mshrs * factor)),
        )
    if overrides:
        cfg = cfg.with_overrides(**overrides)
    return cfg
