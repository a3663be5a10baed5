"""Trace containers and summary statistics.

A trace is an immutable sequence of :class:`~repro.isa.instruction.StaticInst`
plus a little metadata. The simulator is trace-driven exactly like the
paper's: the correct execution path, effective addresses and branch outcomes
all come from the trace; the pipeline adds timing, speculation and squashes.

Synthesized traces are cached per process and built there on first use
(:meth:`Trace.deferred`): the first reader of a trace's instructions
synthesizes them, so a run that never leaves its threads' first traces
builds those and not the rest of a ten-trace rotation. A built trace is
shared by every context and run that plays it, and one instruction
object may fill many positions of a trace (see
:mod:`repro.isa.instruction`): nothing writes to a trace or its
instructions after synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

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

    @classmethod
    def deferred(
        cls, build: Callable[[], list[StaticInst]], name: str
    ) -> "Trace":
        """A trace whose instruction list ``build()`` makes on first use.

        ``build`` must be deterministic and return a non-empty list:
        validation never builds a deferred trace to look for an empty
        one. Every access reads ``_insts``, which stays missing until
        the first reader builds and publishes it and is a plain
        attribute from then on, so the loops that hold the list pay
        nothing. No lock is held across the build, because engines fork
        pools and the service runs maps on threads: readers that race
        to a first use may each build a list, and the first one
        published is the one they all return. A child forked before the
        first use builds its own. Pickling a deferred trace builds it,
        and the pickle holds the instructions, as for any trace.
        """
        trace = cls.__new__(cls)
        trace.name = name
        trace._build = build
        return trace

    def __getattr__(self, attr: str):
        # reached only for a missing attribute: a deferred trace's list
        # before its first use
        if attr != "_insts" or "_build" not in self.__dict__:
            raise AttributeError(attr)
        return self.__dict__.setdefault("_insts", self._build())

    def __reduce__(self):
        # ``_build`` is a closure; a pickle or copy carries the list
        return Trace, (self._insts, self.name)

    @property
    def built(self) -> bool:
        """Whether the instruction list exists (false only for a
        deferred trace no reader has touched yet)."""
        return "_insts" in self.__dict__

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
        n = len(self._insts) if self.built else "deferred"
        return f"<Trace {self.name!r} n={n}>"
