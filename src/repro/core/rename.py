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

from repro.isa.registers import FP_BASE, NUM_ARCH, ZERO_REGS


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
        if arch in ZERO_REGS:
            return True
        free = self.free_ep if arch >= FP_BASE else self.free_ap
        return bool(free)

    def lookup(self, arch: int) -> int:
        """Current physical mapping of architectural register ``arch``."""
        return self.map[arch]

    # -- rename / undo / free ---------------------------------------------------

    def rename_inst(self, d) -> bool:
        """Rename dispatching instruction ``d`` in place; dispatch calls
        this once per instruction.

        Sources are read before the destination is mapped, so an
        instruction that overwrites one of its own sources reads the
        older mapping, and reads of a hardwired zero register are
        dropped.  A store's first source (the address base) goes to
        ``d.psrcs`` and its second (the data) to ``d.pdata``.  A
        destination other than a zero register gets a fresh physical
        register: its previous mapping goes to ``d.old_pdest`` and ``d``
        becomes its producer.  Unrolled for the 0/1/2-source shapes
        every trace instruction has.

        Returns ``False``, changing nothing, when no physical register is
        free for the destination.
        """
        s = d.static
        dest = s.dest
        free = None
        if dest is not None and dest not in ZERO_REGS:
            free = self.free_ep if dest >= FP_BASE else self.free_ap
            if not free:
                return False
        m = self.map
        srcs = s.srcs
        n = len(srcs)
        if s.is_store:
            if n:
                if srcs[0] not in ZERO_REGS:
                    d.psrcs = (m[srcs[0]],)
                if n > 1 and srcs[1] not in ZERO_REGS:
                    d.pdata = m[srcs[1]]
        elif n == 2:
            s0, s1 = srcs
            if s0 in ZERO_REGS:
                if s1 not in ZERO_REGS:
                    d.psrcs = (m[s1],)
            elif s1 in ZERO_REGS:
                d.psrcs = (m[s0],)
            else:
                d.psrcs = (m[s0], m[s1])
        elif n == 1:
            if srcs[0] not in ZERO_REGS:
                d.psrcs = (m[srcs[0]],)
        elif n:
            d.psrcs = tuple(m[r] for r in srcs if r not in ZERO_REGS)
        if free is not None:
            p = free.popleft()
            d.old_pdest = m[dest]
            m[dest] = p
            self.ready[p] = 0
            d.pdest = p
            self.producer[p] = d
        return True

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
