"""Pipeline event tracing.

A lightweight observer that records per-instruction pipeline timelines
(fetch/dispatch/issue/complete/commit cycles, unit, squash fate) from a
running :class:`~repro.core.processor.Processor`. Useful for debugging the
model, for teaching (the slip between AP and EP becomes visible instruction
by instruction), and for the tests that assert pipeline-order invariants.

The tracer polls architectural state rather than hooking the hot paths, so
attaching it costs one pass over each thread's ROB per cycle — acceptable
for the short windows it is meant for, and zero cost when not attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.isa.instruction import ST_SQUASHED
from repro.isa.opclass import OpClass, Unit

if TYPE_CHECKING:  # pragma: no cover - avoid a circular runtime import
    from repro.core.processor import Processor


@dataclass
class InstRecord:
    """Timeline of one dynamic instruction."""

    seq: int
    thread: int
    op: OpClass
    unit: Unit
    pc: int
    wrong_path: bool
    fetch_cycle: int
    issue_cycle: int = -1
    complete_cycle: int = -1
    commit_cycle: int = -1
    squashed: bool = False


@dataclass
class PipelineTrace:
    """A bounded recording of instruction timelines."""

    records: dict[tuple[int, int], InstRecord] = field(default_factory=dict)
    capacity: int = 10_000

    def committed(self) -> list[InstRecord]:
        return sorted(
            (r for r in self.records.values() if r.commit_cycle >= 0),
            key=lambda r: (r.thread, r.seq),
        )

    def squashed(self) -> list[InstRecord]:
        return [r for r in self.records.values() if r.squashed]

    def for_thread(self, tid: int) -> list[InstRecord]:
        return sorted(
            (r for r in self.records.values() if r.thread == tid),
            key=lambda r: r.seq,
        )

    def format_timeline(self, tid: int, limit: int = 40) -> str:
        """Human-readable per-instruction timeline for one thread."""
        lines = [
            f"{'seq':>5} {'op':10} {'unit':4} {'F':>6} {'I':>6} {'C':>6} "
            f"{'R':>6}  note"
        ]
        for r in self.for_thread(tid)[:limit]:
            note = "squashed" if r.squashed else (
                "wrong-path" if r.wrong_path else ""
            )
            lines.append(
                f"{r.seq:>5} {r.op.name:10} {r.unit.name:4} "
                f"{r.fetch_cycle:>6} {r.issue_cycle:>6} "
                f"{r.complete_cycle:>6} {r.commit_cycle:>6}  {note}"
            )
        return "\n".join(lines)


class Tracer:
    """Attach to a processor and record instruction timelines while stepping.

    Usage::

        proc = Processor(cfg, playlists)
        tracer = Tracer(proc)
        for _ in range(2000):
            proc.step()
            tracer.observe()
        print(tracer.trace.format_timeline(tid=0))
    """

    def __init__(self, proc: Processor, capacity: int = 10_000):
        self.proc = proc
        self.trace = PipelineTrace(capacity=capacity)
        self._live: dict[tuple[int, int], object] = {}

    def observe(self) -> None:
        """Record the current cycle's state; call once per ``step()``."""
        records = self.trace.records
        now = self.proc.cycle
        for t in self.proc.threads:
            # new instructions appear in the fetch buffer or ROB
            for d in list(t.fetch_buf) + list(t.rob):
                key = (t.tid, d.seq)
                rec = records.get(key)
                if rec is None:
                    if len(records) >= self.trace.capacity:
                        continue
                    rec = InstRecord(
                        seq=d.seq, thread=t.tid, op=d.static.op,
                        unit=d.unit, pc=d.static.pc,
                        wrong_path=d.wrong_path,
                        fetch_cycle=d.fetch_cycle,
                    )
                    records[key] = rec
                    self._live[key] = d
                rec.issue_cycle = d.issue_cycle
                rec.complete_cycle = d.complete_cycle
        # detect commits and squashes among previously-live instructions
        for key, d in list(self._live.items()):
            tid, _seq = key
            t = self.proc.threads[tid]
            if d.state == ST_SQUASHED:
                records[key].squashed = True
                del self._live[key]
            elif d not in t.rob and d not in t.fetch_buf:
                rec = records[key]
                rec.issue_cycle = d.issue_cycle
                rec.complete_cycle = d.complete_cycle
                if not rec.squashed:
                    rec.commit_cycle = now
                del self._live[key]

    def run_traced(self, cycles: int) -> PipelineTrace:
        """Step the processor ``cycles`` times while observing."""
        for _ in range(cycles):
            self.proc.step()
            self.observe()
        return self.trace
