"""Cache-level models: the L1 array, outer levels and MSHR files.

Three level kinds compose the :class:`~repro.memory.hierarchy.MemorySystem`
stack described by a :class:`~repro.memory.spec.MemSpec`:

* :class:`L1Cache` — the core-facing level 0: direct-mapped, write-back,
  write-allocate, tag-updated at *request* time with per-set pending-fill
  state (paper Figure 2; unchanged semantics from the seed facade).
* :class:`CacheLevel` — a finite outer level: set-associative LRU tag/dirty
  arrays, optionally thread-partitioned (each hardware context gets an
  equal capacity slice with its own tags).
* :class:`InfiniteLevel` — the paper's "infinite multibanked L2": every
  access hits.

Outer levels are pure tag state: :meth:`peek` classifies without mutating
(so the facade can refuse a request for structural reasons before touching
anything), :meth:`touch`/:meth:`install` commit the access. All timing —
latencies, banking, bus transfers, MSHR occupancy — lives in the facade.
"""

from __future__ import annotations

import heapq

# L1 access outcomes.
HIT = 0
MISS = 1        # primary miss: caller must obtain an MSHR + bus slot
SECONDARY = 2   # merged into an in-flight fill of the same line
CONFLICT = 3    # set is pinned by an in-flight fill of a different line


class L1Cache:
    """Tag/dirty-bit model of the L1 data cache (no data values).

    The tag array is updated at *request* time and the line's data becomes
    available at *fill* time; accesses that hit the tag of an in-flight
    line are secondary misses (they merge and complete with the fill). A
    new miss mapping to a set whose resident line is still in flight is
    refused (``CONFLICT``): the MSHR pins the victim until the fill
    completes, so the requester retries — this is also what makes
    direct-mapped set conflicts between thread working sets expensive, the
    effect behind the paper's "miss ratios increase progressively [with
    threads]" observation.
    """

    def __init__(self, size_bytes: int, line_bytes: int):
        if size_bytes % line_bytes:
            raise ValueError("cache size must be a multiple of the line size")
        self.line_bytes = line_bytes
        self.n_sets = size_bytes // line_bytes
        if self.n_sets & (self.n_sets - 1):
            raise ValueError("number of sets must be a power of two")
        self._set_mask = self.n_sets - 1
        self._line_shift = line_bytes.bit_length() - 1
        self.tags = [-1] * self.n_sets
        self.dirty = bytearray(self.n_sets)
        # fill completion cycle per set; 0 = line (if any) is resident
        self.pending = [0] * self.n_sets
        # set holds a prefetched line not yet touched by a demand access
        self.prefetched = bytearray(self.n_sets)

    def line_of(self, addr: int) -> int:
        return addr >> self._line_shift

    def probe(self, addr: int, now: int) -> tuple[int, int, int]:
        """Classify an access without changing state.

        Returns ``(outcome, set_index, ready_cycle)``; ``ready_cycle`` is
        meaningful for ``SECONDARY`` (the in-flight fill completion) and
        for ``CONFLICT`` (when the set unpins). The demand path,
        ``MemorySystem._access``, inlines this classification, so the
        two must change together.
        """
        line = addr >> self._line_shift
        idx = line & self._set_mask
        tag = line >> 0  # full line id kept as tag (simpler, equivalent)
        pend = self.pending[idx]
        if self.tags[idx] == tag:
            if pend > now:
                return SECONDARY, idx, pend
            return HIT, idx, now
        if pend > now:
            return CONFLICT, idx, pend
        return MISS, idx, 0

    def install(
        self,
        addr: int,
        now: int,
        fill_cycle: int,
        make_dirty: bool,
        prefetched: bool = False,
    ) -> tuple[int, bool]:
        """Begin a line fill for ``addr``: evict the victim and claim the
        set until ``fill_cycle``. Returns ``(victim_line, victim_dirty)``
        — the evicted line id (``-1`` if the set was empty) and whether it
        was dirty (the caller must schedule a write-back)."""
        line = addr >> self._line_shift
        idx = line & self._set_mask
        victim = self.tags[idx]
        victim_dirty = victim != -1 and bool(self.dirty[idx])
        self.tags[idx] = line
        self.dirty[idx] = 1 if make_dirty else 0
        self.pending[idx] = fill_cycle
        self.prefetched[idx] = 1 if prefetched else 0
        return victim, victim_dirty

    def touch_write(self, addr: int) -> None:
        """Mark the resident line dirty (write hit)."""
        line = addr >> self._line_shift
        idx = line & self._set_mask
        if self.tags[idx] == line:
            self.dirty[idx] = 1

    def flush(self) -> None:
        """Invalidate every line (used between experiment phases in tests)."""
        for i in range(self.n_sets):
            self.tags[i] = -1
            self.dirty[i] = 0
            self.pending[i] = 0
            self.prefetched[i] = 0

    def fingerprint(self) -> tuple:
        """Complete tag-array state for snapshot bit-identity checks."""
        return (
            tuple(self.tags), bytes(self.dirty), tuple(self.pending),
            bytes(self.prefetched),
        )


class CacheLevel:
    """Finite set-associative outer level (LRU), optionally partitioned.

    Pure tag/dirty state over line ids; the facade owns every counter and
    all timing. With ``partitions > 1`` the capacity splits evenly and
    ``tid`` selects the slice (the thread-private-L2 scenario); a shared
    level ignores ``tid``.
    """

    def __init__(
        self,
        capacity_bytes: int,
        line_bytes: int,
        assoc: int = 1,
        partitions: int = 1,
    ):
        if partitions < 1:
            raise ValueError("partitions must be >= 1")
        if capacity_bytes % (line_bytes * assoc * partitions):
            raise ValueError(
                f"capacity {capacity_bytes} is not a multiple of "
                f"line_bytes x assoc x partitions "
                f"({line_bytes} x {assoc} x {partitions}) — the set "
                "count would be silently rounded"
            )
        lines = capacity_bytes // (line_bytes * partitions)
        self.n_sets = max(1, lines // assoc)
        self.assoc = assoc
        self.partitions = partitions
        # per partition, per set: LRU-ordered [(line, dirty), ...] with the
        # most recently used entry first
        self._sets: list[list[list[list]]] = [
            [[] for _ in range(self.n_sets)] for _ in range(partitions)
        ]

    def _set(self, line: int, tid: int) -> list[list]:
        part = tid % self.partitions if self.partitions > 1 else 0
        return self._sets[part][line % self.n_sets]

    def peek(self, line: int, tid: int = 0) -> bool:
        """True when the line is resident; never mutates (no LRU touch)."""
        return any(e[0] == line for e in self._set(line, tid))

    def touch(self, line: int, tid: int = 0, dirty: bool = False) -> None:
        """Commit a hit: move the line to MRU (and optionally dirty it)."""
        s = self._set(line, tid)
        for i, e in enumerate(s):
            if e[0] == line:
                if dirty:
                    e[1] = True
                s.insert(0, s.pop(i))
                return

    def install(self, line: int, tid: int = 0, dirty: bool = False) -> bool:
        """Insert a line at MRU, evicting the LRU way when the set is
        full; returns True when the evicted victim was dirty."""
        s = self._set(line, tid)
        for i, e in enumerate(s):
            if e[0] == line:       # refresh in place (e.g. L1 victim landing
                e[1] = e[1] or dirty  # on a line the level already holds)
                s.insert(0, s.pop(i))
                return False
        victim_dirty = False
        if len(s) >= self.assoc:
            victim_dirty = bool(s.pop()[1])
        s.insert(0, [line, dirty])
        return victim_dirty

    def fingerprint(self) -> tuple:
        """Tag/dirty/LRU state (recency order included) for snapshot
        bit-identity checks."""
        return tuple(
            tuple(tuple((e[0], bool(e[1])) for e in s) for s in part)
            for part in self._sets
        )


class InfiniteLevel:
    """The paper's infinite multibanked L2: every access hits."""

    def peek(self, line: int, tid: int = 0) -> bool:
        return True

    def touch(self, line: int, tid: int = 0, dirty: bool = False) -> None:
        pass

    def install(self, line: int, tid: int = 0, dirty: bool = False) -> bool:
        return False

    def fingerprint(self) -> tuple:
        return ()


class MSHRFile:
    """Finite pool of miss-status registers with time-based release.

    A primary miss allocates one MSHR until its line fill completes;
    secondary misses merge into the existing entry and consume no extra
    MSHR or bus bandwidth. When all MSHRs are busy, new primary misses are
    refused and the requester retries (a structural stall). ``count=None``
    builds an unbounded file (outer levels default to it).
    """

    def __init__(self, count: int | None):
        if count is not None and count <= 0:
            raise ValueError("MSHR count must be positive (or None)")
        self.count = count
        self.in_use = 0
        self._releases: list[int] = []
        self.alloc_failures = 0

    def _drain(self, now: int) -> None:
        releases = self._releases
        while releases and releases[0] <= now:
            heapq.heappop(releases)
            self.in_use -= 1

    def available(self, now: int) -> bool:
        """True when at least one MSHR is free at cycle ``now``.
        ``MemorySystem._access`` inlines this (drain included) for the
        level-0 file, so the two must change together."""
        if self.count is None:
            return True
        self._drain(now)
        return self.in_use < self.count

    def allocate(self, release_cycle: int) -> None:
        """Occupy one MSHR until ``release_cycle``."""
        if self.count is None:
            return
        self.in_use += 1
        heapq.heappush(self._releases, release_cycle)

    def note_failure(self) -> None:
        self.alloc_failures += 1

    @property
    def outstanding(self) -> int:
        return self.in_use

    def fingerprint(self) -> tuple:
        """Occupancy + pending-release schedule for snapshot checks.

        The release heap is compared in sorted order: heap layout depends
        on insertion history, but drain order — the only thing the model
        observes — depends only on the multiset of release cycles.
        """
        return (
            self.count, self.in_use, tuple(sorted(self._releases)),
            self.alloc_failures,
        )
