"""The memory-system facade used by the pipeline.

Composes the level stack, MSHR files, interconnect and prefetcher a
resolved :class:`~repro.memory.spec.MemSpec` describes into the three
operations the core needs:

* ``load(addr, now, tid)``  — a data-cache read access,
* ``store(addr, now, tid)`` — a data-cache write access (performed by the
  store drain after graduation; write-back, write-allocate),
* per-cycle port arbitration (level-0 ports, shared by all threads).

Timing model of a primary miss: the request leaves at ``now`` and walks
the outer levels in order, accumulating each visited level's hit latency;
the first level that holds the line serves it (plus any bank-queueing
delay there), a miss past the last level pays ``memory_latency`` more.
The line is then ready to transfer and occupies the interconnect for
``line_bytes / bus_bytes_per_cycle`` cycles behind earlier transfers; the
fill (and every merged secondary miss) completes when the transfer ends.
Dirty L1 victims schedule a write-back transfer on the same interconnect
and land in the first outer level; fills install into every finite level
they passed through (inclusive hierarchy). With the default spec this
reduces exactly to the seed-era hardwired machine: one probe of an
infinite L2 at ``l2_latency``, one bus transfer, bit-identical timing.

Structural refusals (``S_BLOCKED``) are decided *before* any state
changes: level-0 MSHR exhaustion, a pinned L1 set, or an outer level's
own MSHR file being full all leave the machine untouched so the requester
can retry next cycle.
"""

from __future__ import annotations

from heapq import heappop

from repro.memory.interconnect import build_interconnect
from repro.memory.levels import (
    CONFLICT,
    HIT,
    MISS,
    SECONDARY,
    CacheLevel,
    InfiniteLevel,
    L1Cache,
    MSHRFile,
)
from repro.memory.prefetch import build_prefetcher
from repro.memory.spec import MemSpec

# Status values returned to the core.
S_HIT = 0
S_MISS = 1        # primary miss; ready_cycle = fill completion
S_SECONDARY = 2   # merged miss; ready_cycle = fill completion
S_BLOCKED = 3     # structural: no MSHR, or target set pinned by a fill


class _OuterLevel:
    """Runtime state of one outer level: tag store + MSHRs + banks."""

    __slots__ = (
        "name", "store", "mshrs", "hit_latency", "banks", "bank_free",
        "hits", "misses", "writebacks",
    )

    def __init__(self, spec, line_bytes: int, n_threads: int):
        self.name = spec.name
        if spec.capacity_bytes is None:
            self.store = InfiniteLevel()
        else:
            self.store = CacheLevel(
                spec.capacity_bytes,
                line_bytes,
                assoc=spec.assoc,
                partitions=1 if spec.shared else n_threads,
            )
        self.mshrs = MSHRFile(spec.mshrs)
        self.hit_latency = spec.hit_latency
        self.banks = spec.banks
        self.bank_free = [0] * spec.banks if spec.banks else None
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def fingerprint(self) -> tuple:
        """Tag store + MSHR + bank schedule state for snapshot checks."""
        return (
            self.name, self.store.fingerprint(), self.mshrs.fingerprint(),
            tuple(self.bank_free) if self.bank_free is not None else None,
            self.hits, self.misses, self.writebacks,
        )

    def bank_delay(self, line: int, now: int) -> int:
        """Eager FIFO bank arbitration: one access per bank per cycle
        (``banks == 0`` models the paper's conflict-free multibanking)."""
        if not self.banks:
            return 0
        b = line % self.banks
        start = self.bank_free[b]
        if start < now:
            start = now
        self.bank_free[b] = start + 1
        return start - now

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.mshrs.alloc_failures = 0


class MemorySystem:
    """Level stack + MSHRs + interconnect + prefetcher, with port
    arbitration and traffic stats, composed from a :class:`MemSpec`."""

    def __init__(self, spec: MemSpec, n_threads: int = 1,
                 line_bytes: int = 32):
        if not spec.resolved:
            raise ValueError(
                "MemorySystem needs a resolved MemSpec "
                "(call spec.resolve(cfg) first)"
            )
        spec.validate_resolved()
        self.spec = spec
        self.line_bytes = line_bytes
        self.n_threads = n_threads
        l0 = spec.levels[0]
        if not l0.shared and n_threads > 1:
            self._l1s = [
                L1Cache(l0.capacity_bytes // n_threads, line_bytes)
                for _ in range(n_threads)
            ]
        else:
            self._l1s = [L1Cache(l0.capacity_bytes, line_bytes)]
        self.l1 = self._l1s[0]
        self._line_shift = line_bytes.bit_length() - 1
        self.mshrs = MSHRFile(l0.mshrs)
        self.bus = build_interconnect(spec.interconnect, line_bytes)
        self.outer = [
            _OuterLevel(lvl, line_bytes, n_threads)
            for lvl in spec.levels[1:]
        ]
        self.memory_latency = spec.memory_latency
        self.prefetcher = build_prefetcher(spec.prefetch)
        self.ports = l0.ports
        self.hit_latency = l0.hit_latency
        self._ports_used = 0
        # traffic counters (reset together with pipeline stats)
        self.fills = 0
        self.writebacks = 0
        self.blocked_requests = 0
        self.prefetch_fills = 0
        self.prefetch_hits = 0
        self.prefetch_dropped = 0

    # -- snapshot support --------------------------------------------------------

    def __getstate__(self) -> dict:
        """Drop instance-level ``load``/``store`` attributes. A profiler
        may shadow the methods with wrapper closures (perfbench's tracer
        does), and a closure cannot cross a pickle; the restored machine
        runs the class methods, which is what the wrappers called."""
        state = self.__dict__.copy()
        state.pop("load", None)
        state.pop("store", None)
        return state

    @classmethod
    def classic(
        cls,
        l1_bytes: int = 64 * 1024,
        line_bytes: int = 32,
        l1_ports: int = 4,
        mshrs: int = 16,
        l2_latency: int = 16,
        bus_bytes_per_cycle: int = 16,
        l1_hit_latency: int = 1,
        n_threads: int = 1,
    ) -> "MemorySystem":
        """The seed-era hardwired machine, from its original scalars."""
        from repro.core.config import MachineConfig

        cfg = MachineConfig(
            n_threads=n_threads,
            l1_bytes=l1_bytes,
            line_bytes=line_bytes,
            l1_ports=l1_ports,
            l1_hit_latency=l1_hit_latency,
            mshrs=mshrs,
            l2_latency=l2_latency,
            bus_bytes_per_cycle=bus_bytes_per_cycle,
        )
        return cls(MemSpec().resolve(cfg), n_threads=n_threads,
                   line_bytes=line_bytes)

    # -- fast-forward wake protocol -------------------------------------------

    def refusal_wake(self, addr, now, tid=0):
        """Classify what an access to ``addr`` would do *right now* without
        performing it — the memory system's half of the event-horizon
        wake protocol (see ``core/stages.py``).

        Returns ``None`` when the access would succeed (hit, merge or a
        primary miss with every needed MSHR free): the requesting stage
        cannot be skipped over.  Otherwise the access is structurally
        refused and the result is ``(wake_cycle, mshr_file)``:

        * ``wake_cycle`` — the earliest future cycle at which the refusal
          could change shape (the pinned set unpins, or the blocking MSHR
          file's earliest release).  Until then a retry every cycle is a
          pure counter increment that :meth:`replay_refusals` can bulk-
          replay.
        * ``mshr_file`` — the file whose exhaustion blocked the request
          (charged one ``alloc_failures`` per retry by the per-cycle
          walk), or ``None`` for a pinned-set (``CONFLICT``) refusal.

        Stability argument: inside a fast-forward window nothing issues,
        fills or allocates, so probe outcomes are frozen, MSHR files only
        drain (monotonically, and draining here is the same lazy drain
        the walk's own ``available(now)`` would perform), and the first
        blocked level of the outer plan stays the first blocked level
        until its own earliest release.  It classifies with
        :meth:`L1Cache.probe` and the same drain-then-check order as
        :meth:`_access`, so the two cannot disagree on a refusal.
        """
        l1 = self._l1_for(tid)
        outcome, _idx, when = l1.probe(addr, now)
        if outcome == HIT or outcome == SECONDARY:
            return None
        if outcome == CONFLICT:
            return when, None
        mshrs = self.mshrs
        if not mshrs.available(now):
            return mshrs._releases[0], mshrs
        _lat, _serving, missed = self._plan_outer(
            self._line_of_addr(addr), tid
        )
        for lvl in missed:
            if not lvl.mshrs.available(now):
                return lvl.mshrs._releases[0], lvl.mshrs
        return None

    def replay_refusals(self, mshr_file, k: int) -> None:
        """Bulk-replay ``k`` per-cycle structural refusals of one request:
        the counter increments ``k`` refused retries of :meth:`load` or
        :meth:`store` would have made, with ``mshr_file`` as returned by
        :meth:`refusal_wake` (``None`` for a pinned-set conflict)."""
        self.blocked_requests += k
        if mshr_file is not None:
            mshr_file.alloc_failures += k

    # -- per-cycle arbitration -------------------------------------------------

    def begin_cycle(self) -> None:
        """Free every L1 port: the stages that access memory claim one
        by counting ``_ports_used`` up to ``ports``."""
        self._ports_used = 0

    # -- the miss path ----------------------------------------------------------

    def _l1_for(self, tid: int) -> L1Cache:
        l1s = self._l1s
        return l1s[tid % len(l1s)] if len(l1s) > 1 else l1s[0]

    def _plan_outer(self, line: int, tid: int):
        """Walk the outer levels without mutating anything.

        Returns ``(latency, serving, missed)``: the accumulated hit
        latency up to (and including) the serving level — plus
        ``memory_latency`` when everything missed — the serving
        :class:`_OuterLevel` (or ``None`` for memory), and the list of
        levels that missed (they need an MSHR and receive the fill).
        """
        lat = 0
        missed = []
        for lvl in self.outer:
            lat += lvl.hit_latency
            if lvl.store.peek(line, tid):
                return lat, lvl, missed
            missed.append(lvl)
        return lat + self.memory_latency, None, missed

    def _commit_fill(
        self,
        l1: L1Cache,
        addr: int,
        now: int,
        tid: int,
        make_dirty: bool,
        plan,
        prefetched: bool,
    ) -> int:
        """Commit a planned fill; returns the fill-completion cycle."""
        lat, serving, missed = plan
        line = self._line_of_addr(addr)
        ready = now + lat
        if serving is not None:
            if not prefetched:      # per-level stats track the demand
                serving.hits += 1   # fill stream (walk-comparable)
            serving.store.touch(line, tid)
            ready += serving.bank_delay(line, now)
        for lvl in missed:
            if not prefetched:
                lvl.misses += 1
            lvl.mshrs.allocate(ready)
        fill_cycle = self.bus.schedule_line(ready)
        self.mshrs.allocate(fill_cycle)
        victim, victim_dirty = l1.install(
            addr, now, fill_cycle, make_dirty, prefetched=prefetched
        )
        if victim_dirty:
            self.bus.schedule_line(now)
            self.writebacks += 1
            if self.outer:
                if self.outer[0].store.install(victim, tid, dirty=True):
                    self.outer[0].writebacks += 1
        # inclusive fill path: the line lands in every level it missed
        for lvl in missed:
            if lvl.store.install(line, tid, dirty=False):
                lvl.writebacks += 1
        if prefetched:
            self.prefetch_fills += 1
        else:
            self.fills += 1
            self.prefetcher.on_demand_fill(self, line, now, tid)
        return fill_cycle

    def _line_of_addr(self, addr: int) -> int:
        return addr >> self._line_shift

    def try_prefetch(self, line: int, now: int, tid: int) -> bool:
        """Attempt one prefetch fill of ``line`` (called by prefetchers).

        Never blocking: a prefetch is simply *dropped* (counted) when it
        is structurally refused — pinned L1 set, or any needed MSHR busy
        — and silently skipped when the line is already present or in
        flight (nothing left to prefetch).
        """
        addr = line << self._line_shift
        l1 = self._l1_for(tid)
        outcome, _idx, _when = l1.probe(addr, now)
        if outcome == CONFLICT:
            self.prefetch_dropped += 1
            return False
        if outcome != MISS:
            return False
        if not self.mshrs.available(now):
            self.prefetch_dropped += 1
            return False
        plan = self._plan_outer(line, tid)
        if any(not lvl.mshrs.available(now) for lvl in plan[2]):
            self.prefetch_dropped += 1
            return False
        self._commit_fill(l1, addr, now, tid, False, plan, prefetched=True)
        return True

    # -- accesses ---------------------------------------------------------------

    def _access(
        self, addr: int, now: int, tid: int, make_dirty: bool
    ) -> tuple[int, int]:
        """One demand access, shared by :meth:`load` and :meth:`store`.

        The L1 probe (as :meth:`L1Cache.probe`) and the level-0 MSHR
        check (with the lazy drain of :meth:`MSHRFile.available`) run
        inline: hits and refusals are most accesses. A primary miss then
        checks every MSHR file its fill needs — each missed outer level's
        file is drained before the first blocked one is charged — and
        refuses without touching anything, or commits the fill.
        """
        l1s = self._l1s
        l1 = l1s[0] if len(l1s) == 1 else l1s[tid % len(l1s)]
        line = addr >> self._line_shift
        idx = line & l1._set_mask
        pend = l1.pending[idx]
        if l1.tags[idx] == line:
            # a hit, or a merge into the line's in-flight fill
            if make_dirty:
                l1.dirty[idx] = 1
            if l1.prefetched[idx]:
                self.prefetch_hits += 1
                l1.prefetched[idx] = 0
            if pend > now:
                return S_SECONDARY, pend
            return S_HIT, now + self.hit_latency
        if pend > now:                      # set pinned by another fill
            self.blocked_requests += 1
            return S_BLOCKED, pend
        mshrs = self.mshrs
        if mshrs.count is not None:
            releases = mshrs._releases
            while releases and releases[0] <= now:
                heappop(releases)
                mshrs.in_use -= 1
            if mshrs.in_use >= mshrs.count:
                mshrs.alloc_failures += 1
                self.blocked_requests += 1
                return S_BLOCKED, 0
        plan = self._plan_outer(line, tid)
        blocked = [lvl for lvl in plan[2] if not lvl.mshrs.available(now)]
        if blocked:
            blocked[0].mshrs.note_failure()
            self.blocked_requests += 1
            return S_BLOCKED, 0
        fill = self._commit_fill(
            l1, addr, now, tid, make_dirty, plan, prefetched=False
        )
        return S_MISS, fill

    def load(self, addr: int, now: int, tid: int = 0) -> tuple[int, int]:
        """Perform a read access. Returns ``(status, data_ready_cycle)``.

        The caller must have claimed a port. ``S_BLOCKED`` means the
        access could not even start (retry next cycle; no state was
        changed).
        """
        return self._access(addr, now, tid, False)

    def store(self, addr: int, now: int, tid: int = 0) -> tuple[int, int]:
        """Perform a write access (write-back, write-allocate).

        Returns ``(status, write_done_cycle)``; on a miss the write
        completes with the fill, at which point the line is dirty. A
        write that merges into an in-flight fill dirties the line too.
        """
        return self._access(addr, now, tid, True)

    # -- stats -------------------------------------------------------------------

    def reset_stats(self) -> None:
        self.fills = 0
        self.writebacks = 0
        self.blocked_requests = 0
        self.prefetch_fills = 0
        self.prefetch_hits = 0
        self.prefetch_dropped = 0
        # MSHR refusals reset with the other traffic counters so every
        # reported number describes the same (post-warm-up) window —
        # including the L1 prefetched flags, whose measured hits must
        # pair with measured fills (coverage can never exceed 100%)
        self.mshrs.alloc_failures = 0
        for l1 in self._l1s:
            l1.prefetched = bytearray(l1.n_sets)
        for lvl in self.outer:
            lvl.reset_stats()
        self.bus.reset_stats()

    def bus_utilization(self, elapsed_cycles: int) -> float:
        return self.bus.utilization(elapsed_cycles)

    def fingerprint(self) -> tuple:
        """Complete dynamic state of the hierarchy for snapshot checks:
        every tag array, MSHR file, the bus schedule, prefetcher training
        state and all traffic counters — if any of it differed between a
        restored machine and the original, future timing could too."""
        bus = self.bus
        return (
            tuple(l1.fingerprint() for l1 in self._l1s),
            self.mshrs.fingerprint(),
            (bus.free_at, bus.busy_cycles, bus._stats_floor),
            tuple(lvl.fingerprint() for lvl in self.outer),
            self.prefetcher.fingerprint(),
            (self.fills, self.writebacks, self.blocked_requests,
             self.prefetch_fills, self.prefetch_hits, self.prefetch_dropped),
        )

    def level_stats(self) -> dict[str, dict[str, int]]:
        """Per-outer-level traffic of the demand fill stream (JSON-safe):
        ``{name: {hits, misses, writebacks, mshr_failures}}`` in stack
        order — nothing stays trapped on the facade."""
        return {
            lvl.name: {
                "hits": lvl.hits,
                "misses": lvl.misses,
                "writebacks": lvl.writebacks,
                "mshr_failures": lvl.mshrs.alloc_failures,
            }
            for lvl in self.outer
        }
