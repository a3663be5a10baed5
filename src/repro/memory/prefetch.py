"""Hardware prefetchers in front of the L1 miss path.

A prefetcher observes demand primary misses and may inject *prefetch
fills* through the normal miss machinery (MSHR + outer-level walk + bus
transfer), so prefetching pays real bandwidth and real MSHR occupancy —
useless prefetches show up as bus utilization and structural pressure,
exactly the trade-off the experiments want to expose.

Fast-forward contract (see DESIGN.md "Memory hierarchy"): the prefetchers
are **miss-triggered** — all of their state changes happen synchronously
inside a demand ``load``/``store`` call, which can only execute during a
non-quiescent cycle, so the idle-cycle fast-forward remains bit-exact
with them enabled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memory.hierarchy import MemorySystem


class Prefetcher:
    """Observer of demand primary misses; may inject prefetch fills."""

    name = "none"

    def on_demand_fill(
        self, mem: "MemorySystem", line: int, now: int, tid: int
    ) -> None:
        """Called after a demand primary miss started its fill."""

    def fingerprint(self) -> tuple:
        """Dynamic predictor state for snapshot bit-identity checks.

        The base prefetcher (and next-line, whose only state is its
        configured degree) is stateless; stateful prefetchers override
        this so a restored machine provably carries their training state.
        """
        return (self.name,)


class NextLinePrefetcher(Prefetcher):
    """On a demand miss of line ``X``, fetch ``X+1 .. X+degree``."""

    name = "nextline"

    def __init__(self, degree: int = 1):
        self.degree = degree

    def on_demand_fill(self, mem, line, now, tid):
        for d in range(1, self.degree + 1):
            mem.try_prefetch(line + d, now, tid)


class StreamPrefetcher(Prefetcher):
    """Ascending-stream detector: prefetch only when a miss continues a
    run (line ``X`` missing after ``X-1`` recently missed), then fetch
    ``degree`` lines ahead. Streams are tracked per hardware context —
    interleaved thread miss streams must not masquerade as one stream.
    """

    name = "stream"

    def __init__(self, degree: int = 2, table_size: int = 16):
        self.degree = degree
        self.table_size = table_size
        # per tid: recent miss lines, insertion-ordered (dict as LRU set)
        self._recent: dict[int, dict[int, None]] = {}

    def on_demand_fill(self, mem, line, now, tid):
        table = self._recent.setdefault(tid, {})
        ascending = (line - 1) in table
        table.pop(line, None)
        table[line] = None
        while len(table) > self.table_size:
            del table[next(iter(table))]
        if ascending:
            for d in range(1, self.degree + 1):
                mem.try_prefetch(line + d, now, tid)

    def fingerprint(self) -> tuple:
        """Per-thread recent-miss tables, insertion order included (the
        LRU eviction point depends on it)."""
        return (
            self.name, self.degree, self.table_size,
            tuple(
                (tid, tuple(table))
                for tid, table in sorted(self._recent.items())
            ),
        )


def build_prefetcher(spec) -> Prefetcher:
    """Instantiate the prefetcher a resolved
    :class:`~repro.memory.spec.PrefetchSpec` describes."""
    if spec.kind == "none":
        return Prefetcher()
    if spec.kind == "nextline":
        return NextLinePrefetcher(degree=spec.degree)
    if spec.kind == "stream":
        return StreamPrefetcher(degree=spec.degree)
    raise ValueError(  # pragma: no cover - spec validation rejects earlier
        f"unknown prefetcher kind {spec.kind!r}"
    )
