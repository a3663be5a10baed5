"""Register renaming with walk-back squash recovery.

Each thread owns two physical register files (paper Figure 2: 64 AP + 96 EP
registers per thread). We use a flat per-thread physical id space — AP
physical registers are ids ``0 .. ap_regs-1`` and EP physical registers are
``ap_regs .. ap_regs+ep_regs-1`` — so the scoreboard is a single bytearray.

Precise recovery does not snapshot map tables: squashed instructions are
walked youngest-first and each one's rename is undone
(``map[arch] = old_pdest``), which is exact because renames are recorded in
program order in the ROB.
"""

from __future__ import annotations

from collections import deque

from repro.isa.registers import FP_BASE, INT_ZERO, FP_ZERO, NUM_ARCH


class RenameFile:
    """Per-thread rename state: map table, free lists, scoreboard."""

    __slots__ = ("ap_regs", "ep_regs", "map", "free_ap", "free_ep",
                 "ready", "producer")

    def __init__(self, ap_regs: int, ep_regs: int):
        self.ap_regs = ap_regs
        self.ep_regs = ep_regs
        n = ap_regs + ep_regs
        # identity initial mapping: int arch a -> a, fp arch f -> ap_regs + f
        self.map = [a if a < FP_BASE else ap_regs + (a - FP_BASE)
                    for a in range(NUM_ARCH)]
        self.free_ap: deque[int] = deque(range(FP_BASE, ap_regs))
        self.free_ep: deque[int] = deque(range(ap_regs + FP_BASE, n))
        self.ready = bytearray([1]) * n
        self.producer: list = [None] * n

    # -- queries -------------------------------------------------------------

    def can_rename_dest(self, arch: int) -> bool:
        """True when a physical register is free for destination ``arch``."""
        if arch == INT_ZERO or arch == FP_ZERO:
            return True
        free = self.free_ep if arch >= FP_BASE else self.free_ap
        return bool(free)

    def lookup(self, arch: int) -> int:
        """Current physical mapping of architectural register ``arch``."""
        return self.map[arch]

    def srcs_of(self, srcs: tuple[int, ...]) -> tuple[int, ...]:
        """Rename a source list, dropping hardwired-zero registers.

        Unrolled for the 0/1/2-source shapes every trace instruction has;
        dispatch calls this once per instruction.
        """
        m = self.map
        n = len(srcs)
        if n == 1:
            s0 = srcs[0]
            if s0 == INT_ZERO or s0 == FP_ZERO:
                return ()
            return (m[s0],)
        if n == 2:
            s0, s1 = srcs
            if s0 == INT_ZERO or s0 == FP_ZERO:
                if s1 == INT_ZERO or s1 == FP_ZERO:
                    return ()
                return (m[s1],)
            if s1 == INT_ZERO or s1 == FP_ZERO:
                return (m[s0],)
            return (m[s0], m[s1])
        return tuple(
            m[s] for s in srcs if s != INT_ZERO and s != FP_ZERO
        )

    # -- rename / undo / free ---------------------------------------------------

    def rename_dest(self, arch: int) -> tuple[int, int]:
        """Allocate a new physical register for ``arch``.

        Returns ``(pdest, old_pdest)``; for zero registers returns
        ``(-1, -1)`` (writes are discarded). The caller must have checked
        :meth:`can_rename_dest`.
        """
        if arch == INT_ZERO or arch == FP_ZERO:
            return -1, -1
        free = self.free_ep if arch >= FP_BASE else self.free_ap
        p = free.popleft()
        old = self.map[arch]
        self.map[arch] = p
        self.ready[p] = 0
        return p, old

    def undo_rename(self, arch: int, pdest: int, old_pdest: int) -> None:
        """Reverse one rename during walk-back recovery (does not free
        ``pdest``; callers free it immediately or at in-flight completion)."""
        if pdest >= 0:
            self.map[arch] = old_pdest

    def free(self, p: int) -> None:
        """Return physical register ``p`` to its free list."""
        if p < 0:
            return
        if p >= self.ap_regs:
            self.free_ep.append(p)
        else:
            self.free_ap.append(p)

    def fingerprint(self) -> tuple:
        """Complete rename state for snapshot bit-identity checks.

        Free-list *order* is part of the fingerprint: allocation order
        determines which physical ids future renames hand out, so two
        machines with equal sets but different orderings would diverge.
        Producers reduce to instruction seq ids (object identity is a
        process-local accident; seq is the stable name).
        """
        return (
            self.ap_regs, self.ep_regs, tuple(self.map),
            tuple(self.free_ap), tuple(self.free_ep), bytes(self.ready),
            tuple(d.seq if d is not None else None for d in self.producer),
        )

    # -- invariant checks (used by tests) ------------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError when the rename state is inconsistent."""
        mapped = set(self.map)
        free = set(self.free_ap) | set(self.free_ep)
        overlap = mapped & free
        assert not overlap, f"mapped registers on the free list: {overlap}"
        assert len(set(self.free_ap)) == len(self.free_ap), "duplicate AP frees"
        assert len(set(self.free_ep)) == len(self.free_ep), "duplicate EP frees"
        for p in self.free_ap:
            assert p < self.ap_regs
        for p in self.free_ep:
            assert self.ap_regs <= p < self.ap_regs + self.ep_regs
