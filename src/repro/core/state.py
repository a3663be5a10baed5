"""The explicit shared machine state the pipeline stages operate on.

:class:`MachineState` is the single mutable object threaded through every
:class:`~repro.core.stages.Stage`: the shared memory system, the per-thread
contexts, the statistics, the completion-event heap and the round-robin
pointers.  Pulling it out of the old ``Processor`` monolith is what makes
stages composable — a stage sees exactly the state every other stage sees,
and a new pipeline variant is a new stage list over the same state, not a
new branch inside a 600-line ``step()``.

The completion-event heap is the machine's *only* clock-driven agenda:
every in-flight instruction (functional-unit op or memory access) has
exactly one entry ``(complete_cycle, seq, inst)``.  That property is what
the idle-cycle fast-forward relies on — when nothing can retire, issue,
dispatch, drain or fetch, the next cycle at which anything *can* change is
the heap head.
"""

from __future__ import annotations

from repro.core.config import MachineConfig
from repro.core.context import ThreadContext
from repro.isa.instruction import DynInst
from repro.isa.trace import Trace
from repro.memory.hierarchy import MemorySystem
from repro.stats.counters import SimStats


class MachineState:
    """Everything the pipeline stages read and write.

    Attribute conventions:

    * ``cycle`` is the cycle currently being simulated; stages may consult
      it but only the scheduler advances it.
    * ``events`` is a min-heap of ``(cycle, seq, inst)`` completion events
      (``seq`` from ``evseq``); the issue stage pushes, only the
      writeback stage pops, and the fast-forward scheduler peeks at the
      root.
    * ``rr_issue`` / ``rr_dispatch`` are the round-robin starting-thread
      pointers; the owning stage rotates its pointer once per cycle.
    """

    __slots__ = (
        "cfg",
        "mem",
        "threads",
        "stats",
        "cycle",
        "total_committed",
        "events",
        "evseq",
        "rr_issue",
        "rr_dispatch",
        "last_commit_cycle",
        "deadlock_cycles",
        "finite",
    )

    def __init__(
        self,
        cfg: MachineConfig,
        playlists: list[list[Trace]],
        seed: int = 0,
        wrap: bool = True,
    ):
        if len(playlists) != cfg.n_threads:
            raise ValueError(
                f"config asks for {cfg.n_threads} threads but "
                f"{len(playlists)} playlists were provided"
            )
        self.cfg = cfg
        self.mem = MemorySystem(
            cfg.memory(),
            n_threads=cfg.n_threads,
            line_bytes=cfg.line_bytes,
        )
        self.threads = [
            ThreadContext(t, cfg, playlists[t], seed=seed, wrap=wrap)
            for t in range(cfg.n_threads)
        ]
        self.finite = not wrap
        self.stats = SimStats()
        self.cycle = 0
        self.total_committed = 0
        self.events: list[tuple[int, int, DynInst]] = []
        self.evseq = 0
        self.rr_issue = 0
        self.rr_dispatch = 0
        self.last_commit_cycle = 0
        self.deadlock_cycles = cfg.deadlock_cycles

    # -- snapshot support --------------------------------------------------------

    def rebind_playlists(self, playlists: list[list[Trace]]) -> None:
        """Re-attach spec-rebuilt trace playlists after unpickling.

        Snapshots exclude the (multi-megabyte, deterministically
        regenerable) playlists and keep only each context's cursors; this
        is the restore-side half of that contract.  In-flight
        :class:`DynInst` objects carry their own pickled ``StaticInst``
        copies, and nothing in the pipeline compares those against trace
        entries by identity, so content-equal rebuilt traces suffice.
        """
        if len(playlists) != len(self.threads):
            raise ValueError(
                f"snapshot has {len(self.threads)} thread contexts but "
                f"{len(playlists)} playlists were provided"
            )
        for ctx, playlist in zip(self.threads, playlists):
            ctx.rebind(playlist)

    def fingerprint(self) -> tuple:
        """Stable summary of the *complete* dynamic machine state.

        The snapshot differential suite compares this (alongside the
        statistics) between an unbroken run and a restored one: equal
        fingerprints mean the two machines would also agree on every
        future cycle, which is a strictly stronger guarantee than equal
        ``SimStats``.  Event-heap entries are reduced to
        ``(cycle, evseq, inst.seq, inst.thread)`` in sorted order — heap
        layout is pop-order-equivalent, and instruction identity is
        process-local.
        """
        return (
            self.cycle, self.total_committed, self.evseq,
            self.rr_issue, self.rr_dispatch, self.last_commit_cycle,
            self.finite,
            tuple(sorted(
                (cyc, seq, inst.seq, inst.thread)
                for cyc, seq, inst in self.events
            )),
            tuple(t.fingerprint() for t in self.threads),
            self.mem.fingerprint(),
        )
