"""Wrong-path instruction synthesis.

Trace-driven simulators only know the correct execution path. Like the
paper's simulator, ours models control speculation: after a mispredicted
branch is fetched, the thread keeps fetching *somewhere* until the branch
resolves in the AP. This module supplies that "somewhere": a deterministic
stream of plausible instructions whose loads genuinely access the cache
(occupying ports, MSHRs and bus bandwidth and polluting lines) so that
speculation has its real costs.

Wrong-path streams contain no branches (the mispredicted branch already pins
the recovery point and the paper's AP permits only four unresolved branches)
and no stores never reach memory anyway since wrong-path instructions are
squashed before commit.

The generator pre-builds one full PC-wrap period (0x4000 bytes = 4096
instructions) and cycles it.  Besides removing per-instruction RNG and
allocation cost from the fetch hot path, the cyclic pool is the more
faithful model: a real wrong path falls into *adjacent, already-existing*
code, so re-encountering the same instructions (and the same load
addresses) on later mispredictions is exactly what happens in hardware —
an endless stream of fresh random instructions is not.

The pool is a *pure function of the seed* (and the data layout):
:func:`_build_pool` draws from a fresh ``random.Random(seed)``, so the
generator's complete dynamic state is ``(seed, _pos)``.  Machine snapshots
rely on this — pickling drops the (identically rebuildable) pool and keeps
only the cursor, and a restored generator regenerates the exact same
stream.  Purity also lets one process build each pool once:
:func:`_build_pool` is memoized on ``(seed, data_base, data_span)`` (16
pools, about 11 MB), and every generator with those arguments cycles the
same tuple of shared, never-written
:class:`~repro.isa.instruction.StaticInst` objects.  A fig4-shaped grid
builds 80 generators over 4 distinct seeds.

A pool is a fixed sequence of draws.  The op weights' cumulative sums
are taken once, in ``_MIX`` order, so each draw picks the op a running
sum would pick, and every ``randrange(n)`` is drawn inline the way
CPython 3.11 draws it (``k = n.bit_length()`` bits from
``getrandbits``, drawn again while ``>= n``), so a pool is the one
``randrange`` calls would give.  ``tests/test_pinned_traces.py`` pins
the pools.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate

from repro.isa.instruction import StaticInst
from repro.isa.opclass import OpClass
from repro.workloads.synth import HOT_BASE

_WP_PC_BASE = 0x7F0000
_INST_BYTES = 4


class WrongPathGenerator:
    """Per-thread generator of synthetic wrong-path instructions."""

    #: op mix of the wrong-path stream (load-heavy: mispredicted paths in FP
    #: codes usually fall into an adjacent loop body)
    _MIX = (
        (OpClass.LOAD_F, 0.25),
        (OpClass.IALU, 0.35),
        (OpClass.FALU, 0.35),
        (OpClass.LOAD_I, 0.05),
    )

    #: instructions per PC-wrap period: the pool the stream cycles through
    _POOL_SIZE = 0x4000 // _INST_BYTES

    def __init__(self, seed: int, data_base: int = HOT_BASE, data_span: int = 2 * 1024):
        self.seed = seed
        self.data_base = data_base
        self.data_span = data_span
        self._pool: tuple[StaticInst, ...] | None = None
        self._pos = 0

    def __getstate__(self) -> dict:
        """Snapshot support: the pool is rebuilt from the seed on demand,
        so only the seed, the layout knobs and the cursor are state."""
        return {
            "seed": self.seed,
            "data_base": self.data_base,
            "data_span": self.data_span,
            "_pos": self._pos,
        }

    def __setstate__(self, state: dict) -> None:
        self.seed = state["seed"]
        self.data_base = state["data_base"]
        self.data_span = state["data_span"]
        self._pool = None
        self._pos = state["_pos"]

    def next_block(self, n: int) -> tuple[StaticInst, ...]:
        """Produce the next ``n`` wrong-path instructions (cyclic pool)."""
        pool = self._pool
        if pool is None:
            pool = self._pool = _build_pool(self.seed, self.data_base, self.data_span)
        size = self._POOL_SIZE
        pos = self._pos
        end = pos + n
        if end <= size:
            out = pool[pos:end]
        else:
            out = pool[pos:]
            whole, rem = divmod(end - size, size)
            out += pool * whole + pool[:rem]
        self._pos = end % size
        return out


#: the op a uniform draw ``x`` picks is ``_OPS[bisect_right(_CUTS, x)]``:
#: the first of ``_MIX`` whose cumulative weight exceeds ``x``, else IALU
_CUTS = tuple(accumulate(w for _, w in WrongPathGenerator._MIX))
_OPS = tuple(op for op, _ in WrongPathGenerator._MIX) + (OpClass.IALU,)


@lru_cache(maxsize=16)
def _build_pool(seed: int, data_base: int, data_span: int) -> tuple[StaticInst, ...]:
    """Synthesise one PC-wrap period of wrong-path instructions.

    Deterministic in its arguments alone: the RNG is created fresh here,
    so a generator restored from a snapshot (which carries no pool) gets
    byte-for-byte the pool it was using before.  A tuple, because the
    cache hands the same pool to every generator that asks.
    """
    rng = random.Random(seed)
    draw = rng.random
    bits = rng.getrandbits
    span_k = data_span.bit_length()
    load_f, load_i, falu = OpClass.LOAD_F, OpClass.LOAD_I, OpClass.FALU
    pool = []
    end = _WP_PC_BASE + WrongPathGenerator._POOL_SIZE * _INST_BYTES
    for pc in range(_WP_PC_BASE, end, _INST_BYTES):
        op = _OPS[bisect_right(_CUTS, draw())]
        # each inline loop below is randrange(n) for the n it compares with
        if op is load_f or op is load_i:
            if op is load_f:
                r = bits(5)
                while r >= 16:
                    r = bits(5)
                dest, srcs = 40 + r, (1,)
            else:
                r = bits(3)
                while r >= 6:
                    r = bits(3)
                dest, srcs = 18 + r, (2,)
            a = bits(span_k)
            while a >= data_span:
                a = bits(span_k)
            inst = StaticInst(pc, op, dest, srcs, data_base + (a & ~7))
        elif op is falu:
            r = bits(4)
            while r >= 8:
                r = bits(4)
            s = bits(5)
            while s >= 16:
                s = bits(5)
            inst = StaticInst(pc, op, 32 + r, (32 + r, 40 + s))
        else:
            r = bits(3)
            while r >= 6:
                r = bits(3)
            inst = StaticInst(pc, op, 18 + r, (18 + r,))
        pool.append(inst)
    return tuple(pool)
