"""Trace containers and summary statistics.

A trace is an immutable sequence of :class:`~repro.isa.instruction.StaticInst`
plus a little metadata. The simulator is trace-driven exactly like the
paper's: the correct execution path, effective addresses and branch outcomes
all come from the trace; the pipeline adds timing, speculation and squashes.

Synthesized traces are cached per process and shared by every context and run
that plays them, and one instruction object may fill many positions of a
trace (see :mod:`repro.isa.instruction`): nothing writes to a trace or
its instructions after synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instruction import StaticInst
from repro.isa.opclass import OpClass, Unit, steer


@dataclass
class TraceStats:
    """Static instruction-mix summary of a trace."""

    total: int = 0
    by_op: dict[OpClass, int] = field(default_factory=dict)

    @property
    def ap_fraction(self) -> float:
        """Fraction of instructions steered to the Address Processor."""
        if not self.total:
            return 0.0
        ap = sum(n for op, n in self.by_op.items() if steer(op) == Unit.AP)
        return ap / self.total

    def fraction(self, *ops: OpClass) -> float:
        """Fraction of instructions whose class is one of ``ops``."""
        if not self.total:
            return 0.0
        return sum(self.by_op.get(op, 0) for op in ops) / self.total


class Trace:
    """An immutable instruction trace with metadata.

    Args:
        insts: the instruction sequence (not copied; treat as frozen).
        name: label used in reports (benchmark name).
    """

    def __init__(self, insts: list[StaticInst], name: str = "anon"):
        self._insts = insts
        self.name = name

    def __len__(self) -> int:
        return len(self._insts)

    def __getitem__(self, i: int) -> StaticInst:
        return self._insts[i]

    def __iter__(self):
        return iter(self._insts)

    @property
    def insts(self) -> list[StaticInst]:
        """The underlying instruction list (shared, do not mutate)."""
        return self._insts

    def stats(self) -> TraceStats:
        """Compute the static instruction mix of the trace."""
        out = TraceStats(total=len(self._insts))
        by_op: dict[OpClass, int] = {}
        for inst in self._insts:
            by_op[inst.op] = by_op.get(inst.op, 0) + 1
        out.by_op = by_op
        return out

    def concat(self, other: "Trace", name: str | None = None) -> "Trace":
        """Return a new trace that runs ``self`` then ``other``."""
        return Trace(self._insts + other._insts, name or f"{self.name}+{other.name}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Trace {self.name!r} n={len(self._insts)}>"
