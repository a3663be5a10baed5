"""Synthetic trace generation from benchmark profiles.

The generator emits the *executed path* of a software-pipelined FP loop nest,
the dominant code shape of SPEC FP95 inner loops after compilation for the
Alpha. One inner-loop iteration contains, in schedule order:

1. integer overhead: induction-variable updates (a single strength-reduced
   index feeds every stream, as compilers do), loop counter;
2. integer *index loads* for gather references, software-pipelined
   ``index_dist`` iterations ahead of their use;
3. FP loads: each static load slot has a fixed role — streaming, hot-region
   or gather — so the static code structure repeats every iteration while
   effective addresses evolve;
4. occasional ITOF moves (AP feeds the EP a scalar, behaves like a load);
5. FP computation: ``n_chains`` interleaved independent dependence chains
   consuming the loaded values plus one carried reduction op — this fixes
   the EP ILP seen by the in-order issue stage;
6. loss-of-decoupling events (``FTOI`` + dependent address computation +
   load), the mechanism that makes ``fpppp`` decouple badly;
7. FP stores of chain results;
8. the loop-back branch (taken for ``iters-1`` executions, then not taken
   once — the misprediction source), plus optional data-dependent branches.

Addresses are emitted un-salted; the pipeline adds a per-thread, region-aware
address salt so one synthesised trace can be shared by many hardware contexts
(the paper runs a different benchmark rotation per thread; working sets must
not alias).

The body plan
-------------

Only memory instructions carry an address, so the others repeat from one
iteration to the next.  Each synthesizer plans its loop body once, from
the profile's :meth:`~repro.workloads.profiles.BenchProfile.body_counts`:
the constants of each load and store slot, and every *stretch* of
instructions that carry no address, as a tuple built on first use and
keyed by its start pc and variant.  The stretches are the induction
head, the run from the last load to the first store (the ITOF pair when
one fires, the FP chains and reduction, the loss-of-decoupling pair of
the chain an event picks, the extra integer work), and the
data-dependent branches with the loop-back branch after them.  Their
instructions, and the outer-loop block's, are *interned*: an ``IALU``,
``FALU``, ``BRANCH``, ``ITOF`` or ``FTOI`` with the same ``(pc, op,
dest, srcs, taken, target)`` is one shared
:class:`~repro.isa.instruction.StaticInst` object however many
iterations and stretches repeat it (a ten-profile rotation builds about
76k objects for its 200k instructions).  An iteration extends the trace
by whole stretches and builds only its loads and stores.

Planning draws nothing, so every draw is an iteration's own, in body
order: the loss-of-decoupling coin, each hot load's skew coin and
offset, each gather offset, the ITOF coin, the loss-of-decoupling chain
and each data-dependent branch's coin.  An offset below ``n`` is drawn
inline the way CPython 3.11's ``randrange(n)`` draws it (``k =
n.bit_length()`` bits from ``getrandbits``, drawn again while ``>= n``,
with ``k`` computed once wherever ``n`` is fixed), so a trace is the
one ``randrange`` calls would give.  ``tests/test_pinned_traces.py``
pins every built-in trace, the paths no built-in reaches and each
trace's count of distinct objects.

Set-placement model ("folded streams")
--------------------------------------

The L1 is 64 KB direct-mapped, so an address's ``mod 64K`` residue — its
cache *set* — decides what it conflicts with. Real multi-MB arrays sweep
every set; in a synthetic workload that makes every region's hit rate depend
on every other region's sweep rate, which is impossible to calibrate. We
instead *fold* each streaming region into a fixed 4 KB set window: the
low bits cycle within the window while a higher "fold" component keeps
changing the tag, so the stream keeps its compulsory-miss behaviour (one
line fetch per 32 bytes advanced) but only ever occupies its own sets.

Zone map of the 64 KB set space (shared by all benchmarks, which keeps the
resident regions warm across a thread's benchmark switches):

====================  =======================================================
sets                  contents
====================  =======================================================
``[ 0 K, 16 K)``      load-stream windows (4 KB per static stream slot)
``[16 K, 32 K)``      gather target tables (resident, <= 16 KB)
``[32 K, 36 K)``      gather index arrays (folded stream or resident)
``[36 K, 52 K)``      store targets (4 KB per thread via the store salt)
``[52 K, 64 K)``      hot regions (per-thread salt tiles four skew zones)
====================  =======================================================

Each zone also lives in its own 64 MB address space, so regions never share
cache *lines* or salts, only (intentionally) cache sets.
"""

from __future__ import annotations

import random
import zlib
from functools import lru_cache

from repro.isa.instruction import StaticInst
from repro.isa.opclass import OpClass
from repro.isa.trace import Trace
from repro.workloads.profiles import MAX_BODY_INSTRS, BenchProfile

# Integer register allocation (flat ids 0..31).
R_INDEX = 1  # strength-reduced induction index (updated every iteration)
R_COUNT = 9  # loop counter
R_IDXPTR = 2  # index-array pointer for gather references
R_RING0 = 10  # first gather index ring register (r10..r17, profiles.RING_REGS)
R_SCRATCH0 = 18  # scratch integer chain (r18..r23)
R_NSCRATCH = 6
R_LOD_DEST = 24  # FTOI destination
R_LOD_ADDR = 25  # address derived from an FTOI result
R_STOREPTR = 26

# FP register allocation (architectural f0..f31, flat ids 32..63).
F_BASE = 32
F_ACC0 = 0  # chain accumulators f0..f7
F_LOAD0 = 8  # loaded values f8..f23 (round robin)
F_NLOAD = 16
F_ITOF = 24  # ITOF destination
F_RED = 30  # cross-iteration reduction accumulator

_INST_BYTES = 4
#: the outer-loop block's distance from the loop body's first pc
_OUTER_OFFSET = MAX_BODY_INSTRS * _INST_BYTES

# Layout constants (see module docstring).
_SET_SPACE = 64 * 1024
STREAM_SPACE = 0x10000000  # hi bits 4..19 (one space per slot)
GATHER_BASE = 0x50000000 + 16 * 1024  # hi bits 20, set zone [16K, 32K)
INDEX_BASE = 0x54000000 + 32 * 1024  # hi bits 21, set zone [32K, 36K)
STORE_BASE = 0x58000000 + 36 * 1024  # hi bits 22, set zone [36K, 52K)
HOT_BASE = 0x5C000000 + 52 * 1024  # hi bits 23, set zone [52K, 64K)

#: set-window width of a folded stream
FOLD_WINDOW = 4 * 1024
#: a region is "resident" (reuses tags) up to this size; larger ones fold
RESIDENT_CAP = 16 * 1024
#: gather tables are capped to one per-thread tile of the gather zone
GATHER_CAP = 4 * 1024


def fold(base: int, off: int, window: int = FOLD_WINDOW) -> int:
    """Map stream offset ``off`` into a bounded set window.

    The ``off % window`` component cycles through the window's sets; the
    fold component advances the tag every ``window`` bytes (staying inside
    the region's 64 MB address space), so consecutive lines are always
    cold — a compulsory-miss stream confined to its own sets.
    """
    return base + (off % window) + ((off // window) % 512) * _SET_SPACE


def _fr(n: int) -> int:
    """Flat id of FP register f{n}."""
    return F_BASE + n


def _updates(regs) -> list[tuple]:
    """``(op, dest, srcs)`` of an ``IALU r <- r`` for each register."""
    return [(OpClass.IALU, r, (r,)) for r in regs]


def _bits_below(n: int) -> tuple[int, int]:
    """``(n, k)``: ``randrange(n)`` draws ``k`` bits until one is below
    ``n``."""
    return n, n.bit_length()


class _LoadSlot:
    """Static role of one FP load position in the loop body."""

    __slots__ = ("role", "window", "ring_reg", "fdest")

    def __init__(self, role: str, window: int, ring_reg: int, fdest: int):
        self.role = role  # "stream" | "hot" | "gather"
        self.window = window  # stream only: which 4 KB window/subarray
        self.ring_reg = ring_reg  # gather only: ring register base
        self.fdest = fdest


def synth_seed(name: str, seed: int) -> int:
    """The RNG seed a synthesizer derives for ``(benchmark, seed)``.

    zlib.crc32, not ``hash()``: str hashing is salted per process, which
    would make traces (and every simulation result) differ between
    invocations and across scheduler worker processes.  The checkpoint
    subsystem leans on the same property — snapshots exclude trace
    playlists entirely and re-synthesize them at restore time, which is
    only sound because this derivation is stable across processes.
    """
    return (zlib.crc32(name.encode("utf-8")) ^ (seed * 0x9E3779B1)) & 0x7FFFFFFF


class _Interned(dict):
    """``(pc, op, dest, srcs, taken, target)`` -> the one non-memory
    instruction with those fields, built on first use."""

    def __missing__(self, key) -> StaticInst:
        pc, op, dest, srcs, taken, target = key
        inst = self[key] = StaticInst(pc, op, dest, srcs, 0, taken, target)
        return inst

    # Stretches share their op lists between variants, but each new
    # instruction gets a sources tuple of its own, as loads and stores
    # do: how many objects a trace holds does not depend on the plan.

    def stretch(self, pc: int, ops) -> tuple[StaticInst, ...]:
        """The instructions ``ops`` (``(op, dest, srcs)`` each, none a
        branch) laid out from ``pc``."""
        return tuple(
            self[pc + i * _INST_BYTES, op, dest, (*srcs,), False, 0]
            for i, (op, dest, srcs) in enumerate(ops)
        )

    def branch_pair(self, pc: int, srcs: tuple[int, ...], target: int) -> tuple:
        """The branch at ``pc`` with these fields, not taken and taken."""
        not_taken = self[pc, OpClass.BRANCH, None, (*srcs,), False, target]
        return not_taken, self[pc, OpClass.BRANCH, None, (*srcs,), True, target]


class KernelSynthesizer:
    """Emit a synthetic trace for one benchmark profile.

    Args:
        profile: the benchmark parameter set.
        seed: RNG seed; traces are fully deterministic in (profile, seed).
    """

    def __init__(self, profile: BenchProfile, seed: int = 0):
        self.profile = profile
        name_hash = zlib.crc32(profile.name.encode("utf-8"))
        self.rng = random.Random(synth_seed(profile.name, seed))
        self.code_base = 0x400000 + (name_hash % 64) * 0x10000
        # gather index arrays: resident codes keep them inside the 4 KB
        # index zone; others stream (folded) at the benchmark's scale
        if profile.ws_bytes >= RESIDENT_CAP:
            self.index_ws = profile.ws_bytes  # folded stream
        else:
            self.index_ws = min(profile.ws_bytes, FOLD_WINDOW)  # resident
        self.gather_ws = min(profile.gather_ws_bytes, GATHER_CAP)
        self._interned = _Interned()
        self._plan_body()

    # -- static body planning -------------------------------------------------

    def _plan_body(self) -> None:
        p = self.profile
        counts = p.body_counts()
        self.n_loads = counts.n_loads
        self.n_gather = counts.n_gather
        self.n_hot = counts.n_hot
        self.n_lod = counts.n_lod
        self.n_rand_branch = counts.n_rand_branch
        self.ring_len = ring_len = p.index_dist + 1

        # Assign static roles: first the hot slots, then streaming slots
        # (each with its own 4 KB window = its own subarray), gathers last
        # (their indices are loaded earlier in the body).
        n_stream = self.n_loads - self.n_gather - self.n_hot
        roles = (
            [("hot", -1, -1)] * self.n_hot
            + [("stream", w, -1) for w in range(n_stream)]
            + [("gather", -1, R_RING0 + g * ring_len) for g in range(self.n_gather)]
        )
        slots = self.load_slots = [
            _LoadSlot(role, window, ring_reg, _fr(F_LOAD0 + (k % F_NLOAD)))
            for k, (role, window, ring_reg) in enumerate(roles)
        ]
        #: address-space base per stream window
        self.stream_base = [
            STREAM_SPACE + w * (1 << 26) + w * FOLD_WINDOW
            for w in range(max(1, n_stream))
        ]
        #: whether streaming regions reuse tags (resident) or fold
        self.stream_resident = p.ws_bytes < RESIDENT_CAP

        # Load and store constants.  A loss-of-decoupling event redirects
        # the address of the first load in the body's second half, unless
        # it is a gather, through the FTOI result, so the hot and stream
        # plans come without (False) and with (True) that event.
        half = len(slots) // 2
        self._loads = {}
        for lod in (False, True):
            src = [R_INDEX] * len(slots)
            if lod and slots[half].role != "gather":
                src[half] = R_LOD_ADDR
            hot = [(s.fdest, src[k]) for k, s in enumerate(slots) if s.role == "hot"]
            stream = [
                (s.fdest, src[k], self.stream_base[s.window])
                for k, s in enumerate(slots)
                if s.role == "stream"
            ]
            self._loads[lod] = hot, stream
        #: per gather slot: its destination and its ring's first register
        self._gathers = [(s.fdest, s.ring_reg) for s in slots if s.role == "gather"]
        #: per ring phase: the destination of each index load
        self._index_dests = [
            tuple(R_RING0 + g * ring_len + u for g in range(self.n_gather))
            for u in range(ring_len)
        ]
        #: per store: the chain accumulator whose result it writes
        self._store_accs = [
            _fr(F_ACC0 + (j % p.n_chains)) for j in range(counts.n_stores)
        ]

        # Event odds, and the bounds of the offset draws.
        self._lod_p = p.lod_rate * counts.nominal
        self._itof_p = p.itof_rate * counts.nominal
        skewed = _bits_below(max(8, p.hot_bytes // 4))
        self._hot_draws = (p.hot_skew, *skewed, *_bits_below(p.hot_bytes))
        self._gather_draw = _bits_below(self.gather_ws)
        self._chain_draw = _bits_below(p.n_chains)

        # FP chains, interleaved round-robin across n_chains independent
        # intra-iteration chains (each restarts from loaded values, so the
        # in-order EP sees n_chains-way ILP), plus one carried reduction op
        # at the end (the cross-iteration serial floor).
        loaded = [s.fdest for s in slots]
        chain_len = [0] * p.n_chains
        chains = []
        for j in range(max(1, counts.n_falu - 1)):
            c = j % p.n_chains
            acc = _fr(F_ACC0 + c)
            if chain_len[c] == 0:
                srcs = (loaded[j % len(loaded)], loaded[(j + 1) % len(loaded)])
            else:
                srcs = (acc, loaded[j % len(loaded)])
            chains.append((OpClass.FALU, acc, srcs))
            chain_len[c] += 1
            if chain_len[c] >= p.chain_depth:
                chain_len[c] = 0
        if counts.n_falu > 1:
            red = _fr(F_RED)
            chains.append((OpClass.FALU, red, (red, _fr(F_ACC0))))
        self._chains = chains
        # extra integer work (independent scratch chains)
        scratch = [R_SCRATCH0 + (x % R_NSCRATCH) for x in range(counts.n_extra_ialu)]
        self._extra_ialu = _updates(scratch)

        # Stretches: the induction head, which every iteration starts
        # with, and caches of the others, which vary: (start pc, itof, lod
        # chain or -1) -> (stretch to the stores, the pc after it), and
        # start pc -> (data-dependent branch pairs, loop-back pair).
        head = [R_INDEX, R_COUNT] + ([R_IDXPTR] if self.n_gather else [])
        self._head = self._interned.stretch(self.code_base, _updates(head))
        self._head_end = self.code_base + len(head) * _INST_BYTES
        self._middles: dict[tuple, tuple] = {}
        self._tails: dict[int, tuple] = {}

    def _plan_middle(self, pc: int, itof: bool, chain: int) -> tuple:
        """Cache and return the stretch from the last load to the first
        store, laid out from ``pc``, with the pc after it: the ITOF move
        when ``itof``, the FP chains and reduction, the ITOF's consumer
        when ``itof``, the loss-of-decoupling pair through accumulator
        ``chain`` unless it is -1, and the extra integer work."""
        ops = []
        if itof:  # AP feeds EP a scalar, folded into the last chain
            ops.append((OpClass.ITOF, _fr(F_ITOF), (R_COUNT,)))
        ops += self._chains
        if itof:
            acc = _fr(F_ACC0 + (self.profile.n_chains - 1))
            ops.append((OpClass.FALU, acc, (acc, _fr(F_ITOF))))
        if chain >= 0:  # FTOI into an address computation
            ops.append((OpClass.FTOI, R_LOD_DEST, (_fr(F_ACC0 + chain),)))
            ops.append((OpClass.IALU, R_LOD_ADDR, (R_LOD_DEST,)))
        ops += self._extra_ialu
        stretch = self._interned.stretch(pc, ops)
        entry = self._middles[pc, itof, chain] = stretch, pc + len(ops) * _INST_BYTES
        return entry

    def _plan_tail(self, pc: int) -> tuple:
        """Cache and return the data-dependent branches laid out from
        ``pc`` and the loop-back branch after them, each as its ``(not
        taken, taken)`` pair."""
        pair = self._interned.branch_pair
        at = pc
        branches = []
        for b in range(self.n_rand_branch):
            srcs = (R_SCRATCH0 + (b % R_NSCRATCH),)
            branches.append(pair(at, srcs, at + 2 * _INST_BYTES))
            at += _INST_BYTES
        loop = pair(at, (R_COUNT,), self.code_base)
        entry = self._tails[pc] = tuple(branches), loop
        return entry

    # -- emission --------------------------------------------------------------

    def synthesize(self, n_instrs: int) -> Trace:
        """Generate a trace of at least ``n_instrs`` instructions.

        The trace ends at an iteration boundary, so its length can exceed
        ``n_instrs`` by at most one loop body.
        """
        out: list[StaticInst] = []
        it = 0
        while len(out) < n_instrs:
            self._emit_iteration(it, out)
            if (it + 1) % self.profile.iters == 0:
                self._emit_outer_block(out)
            it += 1
        return Trace(out, name=self.profile.name)

    def _emit_iteration(self, it: int, out: list[StaticInst]) -> None:
        p = self.profile
        random = self.rng.random
        getrandbits = self.rng.getrandbits
        add = out.append
        load_f = OpClass.LOAD_F

        # 1. induction updates
        out.extend(self._head)
        pc = self._head_end

        # 2. software-pipelined index loads for gathers (used index_dist
        #    index-iterations from now; sparse index streams only reload
        #    every index_every iterations)
        idx_it, idx_phase = divmod(it, p.index_every)
        if self.n_gather and not idx_phase:
            off = idx_it * self.n_gather * 8
            for dest in self._index_dests[idx_it % self.ring_len]:
                if self.index_ws <= FOLD_WINDOW:
                    addr = INDEX_BASE + (off % self.index_ws)
                else:
                    addr = fold(INDEX_BASE, off)
                add(StaticInst(pc, OpClass.LOAD_I, dest, (R_IDXPTR,), addr))
                pc += _INST_BYTES
                off += 8

        # 3. FP loads: hot slots, streams, gathers. Loss-of-decoupling
        # events are stochastic: slip collapses when one fires and rebuilds
        # in between, so the average perceived latency reflects the LOD
        # *rate* (fpppp hides ~90% of the latency in the paper despite
        # decoupling badly).
        lod = self.n_lod > 0 and random() < self._lod_p
        hot, stream = self._loads[lod]
        # skewed reuse: most hot accesses land in the first quarter of the
        # region, keeping their reuse distance short
        skew, skew_n, skew_k, hot_n, hot_k = self._hot_draws
        for fdest, src in hot:
            if random() < skew:
                n, k = skew_n, skew_k
            else:
                n, k = hot_n, hot_k
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            add(StaticInst(pc, load_f, fdest, (src,), HOT_BASE + (r & ~7)))
            pc += _INST_BYTES
        if stream:
            # every stream advances by the same offset, and each base is a
            # multiple of 8, so the alignment mask applies to the offset
            off = it * p.elem_bytes
            if self.stream_resident:
                delta = (off % p.ws_bytes) & ~7
            else:
                delta = fold(0, off & ~7)
            for fdest, src, base in stream:
                add(StaticInst(pc, load_f, fdest, (src,), base + delta))
                pc += _INST_BYTES
        if self._gathers:
            use = (idx_it - p.index_dist) % self.ring_len
            n, k = self._gather_draw
            for fdest, ring in self._gathers:
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                addr = GATHER_BASE + (r & ~7)
                add(StaticInst(pc, load_f, fdest, (ring + use,), addr))
                pc += _INST_BYTES

        # 4-7. occasional ITOF (AP feeds EP a scalar), FP chains, the
        # loss-of-decoupling pair and extra integer work: one stretch
        itof = random() < self._itof_p
        chain = -1
        if lod:
            n, k = self._chain_draw
            chain = getrandbits(k)
            while chain >= n:
                chain = getrandbits(k)
        key = pc, itof, chain
        middle, pc = self._middles.get(key) or self._plan_middle(*key)
        out.extend(middle)

        # 8. FP stores of chain results
        if self._store_accs:
            ws = p.store_ws_bytes
            off = it * len(self._store_accs) * 8
            for acc in self._store_accs:
                if ws <= RESIDENT_CAP:
                    addr = STORE_BASE + (off % ws)
                else:
                    addr = fold(STORE_BASE, off)
                add(StaticInst(pc, OpClass.STORE_F, None, (R_INDEX, acc), addr))
                pc += _INST_BYTES
                off += 8
        if it % 16 == 15:
            # occasional integer spill into the top of the store window
            addr = STORE_BASE + 3072 + ((it * 8) % 1024)
            add(StaticInst(pc, OpClass.STORE_I, None, (R_INDEX, R_COUNT), addr))
            pc += _INST_BYTES

        # 9. data-dependent branches (taken p=.5; poorly predictable)
        branches, loop = self._tails.get(pc) or self._plan_tail(pc)
        for pair in branches:
            add(pair[random() < 0.5])
        # 10. loop-back branch: taken until the trip count expires
        add(loop[(it + 1) % p.iters != 0])

    def _emit_outer_block(self, out: list[StaticInst]) -> None:
        """Outer-loop overhead after an inner-loop exit: pointer rebasing and
        an always-taken branch back to the inner loop."""
        pc = self.code_base + _OUTER_OFFSET
        add = out.append
        interned = self._interned
        for r in (R_INDEX, R_IDXPTR, R_STOREPTR, R_COUNT):
            add(interned[pc, OpClass.IALU, r, (r,), False, 0])
            pc += _INST_BYTES
        add(interned[pc, OpClass.BRANCH, None, (R_COUNT,), True, self.code_base])


def synthesize(profile: BenchProfile, n_instrs: int, seed: int = 0) -> Trace:
    """Generate a synthetic trace of ``>= n_instrs`` instructions."""
    return KernelSynthesizer(profile, seed).synthesize(n_instrs)


@lru_cache(maxsize=128)
def profile_trace(profile: BenchProfile, n_instrs: int, seed: int, /) -> Trace:
    """A (cached) synthetic trace for one resolved profile.

    Keyed by the frozen profile *value* (not its name), so two inline
    variants of the same benchmark never share a trace — the invariant
    :meth:`~repro.workloads.spec.WorkloadSpec.playlists` relies on.
    The cache keys on the shape of the call as well as its values, so
    every argument is positional and required: one call shape per
    ``(profile, n_instrs, seed)``, hence one trace.

    The trace is deferred (:meth:`Trace.deferred`): this call
    synthesizes nothing, and the first reader of its instructions in
    this process runs ``synthesize(profile, n_instrs, seed)``. Since
    that returns at least ``n_instrs`` instructions, ``n_instrs`` must
    be positive, which keeps every deferred trace non-empty.
    """
    if n_instrs < 1:
        raise ValueError(f"n_instrs must be positive, got {n_instrs}")
    return Trace.deferred(
        lambda: synthesize(profile, n_instrs, seed=seed).insts, profile.name
    )
