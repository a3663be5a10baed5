"""Static and dynamic instruction representations.

A :class:`StaticInst` is one element of a trace: immutable, shared between
runs, and holding everything the trace-driven pipeline needs (op class,
architectural registers, effective address, branch outcome). A
:class:`DynInst` is one *dynamic* instance flowing through the pipeline; it
carries renamed physical registers, timing and bookkeeping state and is
created at fetch time.

Sharing contract: one ``StaticInst`` object may stand for many dynamic
instances.  A synthesized trace repeats each non-memory instruction of its
loop body by reference, traces are cached per process and shared by every
context that plays them, and every wrong-path generator with the same seed
cycles the same pool.  Nothing writes to a ``StaticInst`` slot after
``__init__``; ``tests/test_pinned_traces.py`` re-digests the shared objects
after a run to keep it that way.

Both classes use ``__slots__``: the simulator allocates one ``DynInst`` per
fetched instruction, which is the hottest allocation path in the model.
"""

from __future__ import annotations

from repro.isa.opclass import OpClass, Unit, is_load, is_store, steer

_NO_SRCS: tuple[int, ...] = ()

#: op class -> ``(unit, is_load, is_store, is_branch)``: the traits every
#: instruction caches, computed once per class instead of once per
#: instruction
_TRAITS = {
    op: (steer(op), is_load(op), is_store(op), op == OpClass.BRANCH)
    for op in OpClass
}


class StaticInst:
    """One trace entry; shared and never written after construction (see
    the module docstring).

    Attributes:
        pc: instruction address (used to index the branch predictor).
        op: :class:`~repro.isa.opclass.OpClass` of the instruction.
        dest: flat architectural destination register id, or ``None``.
        srcs: tuple of flat architectural source register ids.
        addr: effective byte address for memory ops (trace-driven), else 0.
        taken: actual branch outcome (branches only).
        target: taken-branch target pc (branches only; 0 otherwise).
    """

    __slots__ = ("pc", "op", "dest", "srcs", "addr", "taken", "target", "unit",
                 "is_load", "is_store", "is_branch")

    def __init__(
        self,
        pc: int,
        op: OpClass,
        dest: int | None = None,
        srcs: tuple[int, ...] = _NO_SRCS,
        addr: int = 0,
        taken: bool = False,
        target: int = 0,
    ):
        self.pc = pc
        self.op = op
        self.dest = dest
        self.srcs = srcs
        self.addr = addr
        self.taken = taken
        self.target = target
        # Pre-computed at trace build time: steering saves a dict lookup per
        # fetch, the class predicates a property call per commit/dispatch.
        self.unit, self.is_load, self.is_store, self.is_branch = _TRAITS[op]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"pc={self.pc:#x}", self.op.name]
        if self.dest is not None:
            parts.append(f"d={self.dest}")
        if self.srcs:
            parts.append(f"s={list(self.srcs)}")
        if self.addr:
            parts.append(f"@{self.addr:#x}")
        if self.op == OpClass.BRANCH:
            parts.append("T" if self.taken else "NT")
        return f"<StaticInst {' '.join(parts)}>"


# DynInst lifecycle states.
ST_DISPATCHED = 0   # renamed, sitting in an issue queue
ST_ISSUED = 1       # sent to a functional unit / cache, result pending
ST_COMPLETED = 2    # result written back, eligible for graduation
ST_SQUASHED = 3     # cancelled by branch-misprediction recovery


class DynInst:
    """One dynamic instruction in flight.

    The pipeline reaches into these fields directly (documented hot path);
    nothing outside ``repro.core`` should depend on them.
    """

    __slots__ = (
        "static",
        "thread",
        "seq",
        "wrong_path",
        "unit",
        "pdest",
        "psrcs",
        "pdata",
        "old_pdest",
        "state",
        "fetch_cycle",
        "issue_cycle",
        "complete_cycle",
        "pred_taken",
        "load_miss",
        "store_ready",
        "mem_done",
    )

    def __init__(self, static: StaticInst, thread: int, seq: int, wrong_path: bool):
        self.static = static
        self.thread = thread
        self.seq = seq
        self.wrong_path = wrong_path
        self.unit = static.unit
        self.pdest = -1          # physical destination (-1: none)
        self.psrcs: tuple[int, ...] = _NO_SRCS
        self.pdata = -1          # store only: renamed data source register
        self.old_pdest = -1      # previous mapping of static.dest (for undo/free)
        self.state = ST_DISPATCHED
        self.fetch_cycle = -1
        self.issue_cycle = -1
        self.complete_cycle = -1
        self.pred_taken = False  # branch prediction made at fetch
        self.load_miss = False   # load only: this access missed in L1
        self.store_ready = False # store only: committed, write may drain
        self.mem_done = False    # store only: cache write performed

    @property
    def op(self) -> OpClass:
        return self.static.op

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DynInst t{self.thread}#{self.seq} {self.static.op.name}"
            f"{' WP' if self.wrong_path else ''} st={self.state}>"
        )


__all__ = [
    "StaticInst",
    "DynInst",
    "ST_DISPATCHED",
    "ST_ISSUED",
    "ST_COMPLETED",
    "ST_SQUASHED",
    "Unit",
]
