"""Per-thread hardware context.

The paper replicates, per context: fetch and dispatch state (including the
branch predictor and the register map tables), the register files and all
architectural queues. The issue logic, functional units and caches are
shared and live in :class:`repro.core.processor.Processor`.
"""

from __future__ import annotations

from collections import deque

from repro.core.config import MachineConfig
from repro.core.predictor import BimodalBHT
from repro.core.queues import InstQueue, StoreAddressQueue
from repro.core.rename import RenameFile
from repro.isa.instruction import DynInst
from repro.isa.trace import Trace
from repro.workloads.wrongpath import WrongPathGenerator


def region_salts(cfg: MachineConfig, tid: int) -> tuple[int, dict[int, int]]:
    """One thread's region-aware address salts: ``(default, by_region)``.

    The data layout puts each region class in its own 64 MB space, so a
    region is the address's 26-bit-shifted prefix. Store regions (prefix
    22) and the hot region (prefix 23) get their own set-tiling strides;
    gather tables (prefix 20) tile like stores; everything else uses the
    stream salt. Shared by the cycle backend (:class:`ThreadContext`) and
    the analytic model's characterization walk, so the two can never
    disagree about where a thread's data lives.
    """
    return tid * cfg.salt_stream_bytes, {
        20: tid * cfg.salt_store_bytes,
        22: tid * cfg.salt_store_bytes,
        23: tid * cfg.salt_hot_bytes,
    }


class ThreadContext:
    """All replicated per-context state of the multithreaded machine."""

    __slots__ = (
        "tid", "wrap", "cfg", "playlist", "play_idx", "trace", "pos",
        "salt", "_salt_by_region", "bht", "fetch_buf", "wrong_path",
        "wp_gen", "wp_queue", "branch_resume", "rename", "rob",
        "aq", "iq", "uq", "saq", "unresolved_branches",
        "seq", "committed", "last_ap_seq",
    )

    def __init__(
        self,
        tid: int,
        cfg: MachineConfig,
        playlist: list[Trace],
        seed: int = 0,
        wrap: bool = True,
    ):
        # a deferred trace is never empty, and checking must not build it
        if not playlist or any(tr.built and not len(tr) for tr in playlist):
            raise ValueError("thread playlist must contain non-empty traces")
        self.tid = tid
        self.wrap = wrap
        self.cfg = cfg
        self.playlist = playlist
        self.play_idx = 0
        self.trace = playlist[0]
        self.pos = 0
        # see region_salts() above (and MachineConfig for the rationale)
        self.salt, self._salt_by_region = region_salts(cfg, tid)

        # front end
        self.bht = BimodalBHT(cfg.bht_entries)
        self.fetch_buf: deque[DynInst] = deque()
        self.wrong_path = False
        self.wp_gen = WrongPathGenerator(seed=(seed * 1031 + tid) & 0x7FFFFFFF)
        self.wp_queue: deque = deque()
        #: seq of mispredicted branch -> (play_idx, pos) of the correct path
        self.branch_resume: dict[int, tuple[int, int]] = {}

        # rename + windows
        self.rename = RenameFile(cfg.ap_regs, cfg.ep_regs)
        self.rob: deque[DynInst] = deque()
        self.aq = InstQueue(cfg.aq_size)          # AP-side queue (decoupled)
        self.iq = InstQueue(cfg.iq_size)          # EP instruction queue
        self.uq = InstQueue(cfg.iq_size)          # unified queue (non-dec.)
        self.saq = StoreAddressQueue(cfg.saq_size)
        self.unresolved_branches = 0

        # bookkeeping
        self.seq = 0
        self.committed = 0
        #: seq of the youngest AP instruction issued so far (slip metric)
        self.last_ap_seq = 0

    def salted(self, addr: int) -> int:
        """Apply this thread's region-aware address salt."""
        return addr + self._salt_by_region.get(addr >> 26, self.salt)

    # -- snapshot support ----------------------------------------------------------

    #: slots excluded from pickles: trace playlists are large but fully
    #: deterministic in ``(workload, seed)``, so snapshots keep only the
    #: cursors (``play_idx``/``pos``) and :meth:`rebind` re-attaches the
    #: spec-rebuilt playlist after restore.
    _PICKLE_SKIP = ("playlist", "trace")

    def __getstate__(self) -> dict:
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in self._PICKLE_SKIP
        }

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        # playlist/trace stay unbound until rebind(); touching the context
        # before then is a bug and fails loudly with AttributeError

    def rebind(self, playlist: list[Trace]) -> None:
        """Re-attach the (deterministically rebuilt) trace playlist after a
        snapshot restore; the pickled cursors pick up where capture left.

        The rebuilt playlist's traces are deferred, so the entry under
        the cursor is built when fetch first reads it, which need not be
        the first entry that :meth:`WorkloadSpec.playlists
        <repro.workloads.spec.WorkloadSpec.playlists>` builds."""
        if len(playlist) <= self.play_idx:
            raise ValueError(
                f"thread {self.tid}: restored cursor points at playlist "
                f"entry {self.play_idx} but the rebuilt playlist has only "
                f"{len(playlist)} traces"
            )
        self.playlist = playlist
        self.trace = playlist[self.play_idx]

    def fingerprint(self) -> tuple:
        """Stable structural summary of this context's dynamic state.

        Used by the snapshot bit-identity suite to compare *final machine
        state* — not just statistics — between an unbroken run and a
        restored one. Instruction identity is reduced to ``(seq, state)``
        pairs, which pins pipeline occupancy exactly.
        """
        insts = lambda q: tuple((d.seq, d.state) for d in q)  # noqa: E731
        return (
            self.tid, self.play_idx, self.pos, self.seq, self.committed,
            self.last_ap_seq, self.wrong_path, self.unresolved_branches,
            self.wp_gen.seed, self.wp_gen._pos, len(self.wp_queue),
            tuple(sorted(self.branch_resume.items())),
            insts(self.fetch_buf), insts(self.rob),
            self.aq.fingerprint(), self.iq.fingerprint(),
            self.uq.fingerprint(), self.saq.fingerprint(),
            self.rename.fingerprint(), self.bht.fingerprint(),
        )

    # -- trace walking -------------------------------------------------------------

    def advance(self) -> None:
        """Move to the next correct-path instruction (wrapping the playlist
        unless this context runs a finite program)."""
        self.pos += 1
        if self.pos >= len(self.trace):
            if self.wrap or self.play_idx + 1 < len(self.playlist):
                self.play_idx = (self.play_idx + 1) % len(self.playlist)
                self.trace = self.playlist[self.play_idx]
                self.pos = 0
            # else: exhausted; pos stays just past the end

    @property
    def exhausted(self) -> bool:
        """True when a finite (non-wrapping) program has been fully fetched."""
        return self.pos >= len(self.trace)

    def mark_resume(self, seq: int) -> None:
        """Record the correct-path resume point for a mispredicted branch."""
        self.branch_resume[seq] = (self.play_idx, self.pos)

    def resume_from(self, seq: int) -> None:
        """Restore the correct-path fetch position after a squash."""
        self.play_idx, self.pos = self.branch_resume.pop(seq)
        self.trace = self.playlist[self.play_idx]
        self.wrong_path = False
        self.wp_queue.clear()

    # -- wrong path -------------------------------------------------------------------

    def next_wp_inst(self):
        """Next synthetic wrong-path static instruction."""
        if not self.wp_queue:
            self.wp_queue.extend(self.wp_gen.next_block(16))
        return self.wp_queue.popleft()
