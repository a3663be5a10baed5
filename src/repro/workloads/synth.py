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

Only memory instructions carry an address, so the others repeat from one
iteration to the next, and each synthesizer *interns* them: an ``IALU``,
``FALU``, ``BRANCH``, ``ITOF`` or ``FTOI`` with the same ``(pc, op, dest,
srcs, taken, target)`` is one shared
:class:`~repro.isa.instruction.StaticInst` object however many iterations
repeat it (a ten-profile rotation builds about 76k objects for its 200k
instructions).  Loads and stores are built fresh.  Interning draws
nothing from the RNG, so traces are unchanged.

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
from repro.workloads.profiles import BenchProfile

# Integer register allocation (flat ids 0..31).
R_INDEX = 1        # strength-reduced induction index (updated every iteration)
R_COUNT = 9        # loop counter
R_IDXPTR = 2       # index-array pointer for gather references
R_RING0 = 10       # first gather index ring register (r10..r17 reserved)
R_RING_LAST = 17
R_SCRATCH0 = 18    # scratch integer chain (r18..r23)
R_NSCRATCH = 6
R_LOD_DEST = 24    # FTOI destination
R_LOD_ADDR = 25    # address derived from an FTOI result
R_STOREPTR = 26

# FP register allocation (architectural f0..f31, flat ids 32..63).
F_BASE = 32
F_ACC0 = 0         # chain accumulators f0..f7
F_LOAD0 = 8        # loaded values f8..f23 (round robin)
F_NLOAD = 16
F_ITOF = 24        # ITOF destination
F_RED = 30         # cross-iteration reduction accumulator

_INST_BYTES = 4

# Layout constants (see module docstring).
_SET_SPACE = 64 * 1024
STREAM_SPACE = 0x10000000              # hi bits 4..19 (one space per slot)
GATHER_BASE = 0x50000000 + 16 * 1024   # hi bits 20, set zone [16K, 32K)
INDEX_BASE = 0x54000000 + 32 * 1024    # hi bits 21, set zone [32K, 36K)
STORE_BASE = 0x58000000 + 36 * 1024    # hi bits 22, set zone [36K, 52K)
HOT_BASE = 0x5C000000 + 52 * 1024      # hi bits 23, set zone [52K, 64K)

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


class _LoadSlot:
    """Static role of one FP load position in the loop body."""

    __slots__ = ("role", "window", "ring_reg", "fdest")

    def __init__(self, role: str, window: int, ring_reg: int, fdest: int):
        self.role = role          # "stream" | "hot" | "gather"
        self.window = window      # stream only: which 4 KB window/subarray
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
            self.index_ws = profile.ws_bytes        # folded stream
        else:
            self.index_ws = min(profile.ws_bytes, FOLD_WINDOW)  # resident
        self.gather_ws = min(profile.gather_ws_bytes, GATHER_CAP)
        self._interned = _Interned()
        self._plan_body()

    # -- static body planning -------------------------------------------------

    def _plan_body(self) -> None:
        p = self.profile
        self.n_loads = p.n_streams * p.unroll
        ring_len = p.index_dist + 1
        max_gather = max(0, (R_RING_LAST - R_RING0 + 1) // ring_len)
        wanted = int(round(p.gather_frac * self.n_loads))
        if p.gather_frac > 0:
            wanted = max(1, wanted)
        self.n_gather = min(wanted, max_gather)
        self.ring_len = ring_len
        n_rest = self.n_loads - self.n_gather
        self.n_hot = min(int(round(p.hot_frac * self.n_loads)), n_rest)
        self.n_falu = max(1, int(round(self.n_loads * p.fp_per_load)))
        self.n_stores = int(round(self.n_loads * p.store_per_load))
        body_est = (
            3 + self.n_gather + self.n_loads + self.n_falu + self.n_stores + 2
        )
        self.n_extra_ialu = int(round(p.extra_ialu_per_load * self.n_loads))
        self.n_lod = 1 if p.lod_rate > 0 else 0
        self.n_rand_branch = int(round(p.rand_branch_frac * body_est))

        # Assign static roles: first the hot slots, then streaming slots
        # (each with its own 4 KB window = its own subarray), gathers last
        # (their indices are loaded earlier in the body).
        slots: list[_LoadSlot] = []
        k = 0
        n_stream = self.n_loads - self.n_gather - self.n_hot
        for i in range(self.n_hot):
            slots.append(_LoadSlot("hot", -1, -1, _fr(F_LOAD0 + (k % F_NLOAD))))
            k += 1
        for w in range(n_stream):
            slots.append(_LoadSlot("stream", w, -1, _fr(F_LOAD0 + (k % F_NLOAD))))
            k += 1
        for g in range(self.n_gather):
            ring_reg = R_RING0 + g * self.ring_len
            slots.append(
                _LoadSlot("gather", -1, ring_reg, _fr(F_LOAD0 + (k % F_NLOAD)))
            )
            k += 1
        self.load_slots = slots
        #: address-space base per stream window
        self.stream_base = [
            STREAM_SPACE + w * (1 << 26) + w * FOLD_WINDOW
            for w in range(max(1, n_stream))
        ]
        #: whether streaming regions reuse tags (resident) or fold
        self.stream_resident = p.ws_bytes < RESIDENT_CAP

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

    def _stream_addr(self, window: int, it: int) -> int:
        p = self.profile
        off = it * p.elem_bytes
        base = self.stream_base[window]
        if self.stream_resident:
            return base + (off % p.ws_bytes) & ~7
        return fold(base, off & ~7)

    def _emit_iteration(self, it: int, out: list[StaticInst]) -> None:
        p = self.profile
        rng = self.rng
        pc = self.code_base
        add = out.append
        interned = self._interned

        def emit(op, dest=None, srcs=(), taken=False, target=0):
            nonlocal pc
            add(interned[pc, op, dest, srcs, taken, target])
            pc += _INST_BYTES

        def emit_mem(op, dest=None, srcs=(), addr=0):
            nonlocal pc
            add(StaticInst(pc, op, dest, srcs, addr))
            pc += _INST_BYTES

        # 1. induction updates
        emit(OpClass.IALU, dest=R_INDEX, srcs=(R_INDEX,))
        emit(OpClass.IALU, dest=R_COUNT, srcs=(R_COUNT,))
        if self.n_gather:
            emit(OpClass.IALU, dest=R_IDXPTR, srcs=(R_IDXPTR,))

        # 2. software-pipelined index loads for gathers (used index_dist
        #    index-iterations from now; sparse index streams only reload
        #    every index_every iterations)
        idx_it = it // p.index_every
        if it % p.index_every == 0:
            for g in range(self.n_gather):
                ring_reg = R_RING0 + g * self.ring_len + (idx_it % self.ring_len)
                idx_off = (idx_it * self.n_gather + g) * 8
                if self.index_ws <= FOLD_WINDOW:
                    idx_addr = INDEX_BASE + (idx_off % self.index_ws)
                else:
                    idx_addr = fold(INDEX_BASE, idx_off)
                emit_mem(OpClass.LOAD_I, dest=ring_reg, srcs=(R_IDXPTR,), addr=idx_addr)

        # 3. FP loads. Loss-of-decoupling events are stochastic: slip
        # collapses when one fires and rebuilds in between, so the average
        # perceived latency reflects the LOD *rate* (fpppp hides ~90% of the
        # latency in the paper despite decoupling badly).
        body_len = 3 + self.n_gather + self.n_loads + self.n_falu + self.n_stores + 2
        do_lod = self.n_lod > 0 and rng.random() < self.profile.lod_rate * body_len
        loaded: list[int] = []
        lod_pending = 1 if do_lod else 0
        for k, slot in enumerate(self.load_slots):
            if slot.role == "stream":
                addr = self._stream_addr(slot.window, it)
                srcs: tuple[int, ...] = (R_INDEX,)
            elif slot.role == "hot":
                # skewed reuse: most hot accesses land in the first quarter
                # of the region, keeping their reuse distance short
                if rng.random() < p.hot_skew:
                    span = max(8, p.hot_bytes // 4)
                else:
                    span = p.hot_bytes
                addr = HOT_BASE + (rng.randrange(0, span) & ~7)
                srcs = (R_INDEX,)
            else:  # gather
                use_it = idx_it - p.index_dist
                ring_reg = slot.ring_reg + (use_it % self.ring_len)
                addr = GATHER_BASE + (rng.randrange(0, self.gather_ws) & ~7)
                srcs = (ring_reg,)
            # A pending loss-of-decoupling event redirects one load's address
            # dependence through the FTOI result.
            if lod_pending and slot.role != "gather" and k >= len(self.load_slots) // 2:
                srcs = (R_LOD_ADDR,)
                lod_pending -= 1
            emit_mem(OpClass.LOAD_F, dest=slot.fdest, srcs=srcs, addr=addr)
            loaded.append(slot.fdest)

        # 4. occasional ITOF (AP feeds EP a scalar)
        do_itof = rng.random() < p.itof_rate * body_len
        if do_itof:
            emit(OpClass.ITOF, dest=_fr(F_ITOF), srcs=(R_COUNT,))

        # 5. FP chains, interleaved round-robin across n_chains independent
        #    intra-iteration chains (each restarts from loaded values, so the
        #    in-order EP sees n_chains-way ILP), plus one carried reduction
        #    op at the end (the cross-iteration serial floor).
        chain_len = [0] * p.n_chains
        nxt = 0
        n_independent = max(1, self.n_falu - 1)
        for j in range(n_independent):
            c = j % p.n_chains
            acc = _fr(F_ACC0 + c)
            if chain_len[c] == 0:
                srcs = (loaded[nxt % len(loaded)], loaded[(nxt + 1) % len(loaded)])
            else:
                srcs = (acc, loaded[nxt % len(loaded)])
            nxt += 1
            emit(OpClass.FALU, dest=acc, srcs=srcs)
            chain_len[c] += 1
            if chain_len[c] >= p.chain_depth:
                chain_len[c] = 0
        if self.n_falu > 1:
            red = _fr(F_RED)
            emit(OpClass.FALU, dest=red, srcs=(red, _fr(F_ACC0)))
        if do_itof:
            acc = _fr(F_ACC0 + (p.n_chains - 1))
            emit(OpClass.FALU, dest=acc, srcs=(acc, _fr(F_ITOF)))

        # 6. loss-of-decoupling events: FTOI into an address computation
        if do_lod:
            acc = _fr(F_ACC0 + rng.randrange(p.n_chains))
            emit(OpClass.FTOI, dest=R_LOD_DEST, srcs=(acc,))
            emit(OpClass.IALU, dest=R_LOD_ADDR, srcs=(R_LOD_DEST,))

        # 7. extra integer work (independent scratch chains)
        for x in range(self.n_extra_ialu):
            r = R_SCRATCH0 + (x % R_NSCRATCH)
            emit(OpClass.IALU, dest=r, srcs=(r,))

        # 8. FP stores of chain results
        for j in range(self.n_stores):
            off = (it * self.n_stores + j) * 8
            if p.store_ws_bytes <= RESIDENT_CAP:
                addr = STORE_BASE + (off % p.store_ws_bytes)
            else:
                addr = fold(STORE_BASE, off)
            acc = _fr(F_ACC0 + (j % p.n_chains))
            emit_mem(OpClass.STORE_F, srcs=(R_INDEX, acc), addr=addr)
        if it % 16 == 15:
            # occasional integer spill into the top of the store window
            emit_mem(
                OpClass.STORE_I, srcs=(R_INDEX, R_COUNT),
                addr=STORE_BASE + 3072 + ((it * 8) % 1024),
            )

        # 9. data-dependent branches (taken p=.5; poorly predictable)
        for b in range(self.n_rand_branch):
            emit(
                OpClass.BRANCH, srcs=(R_SCRATCH0 + (b % R_NSCRATCH),),
                taken=rng.random() < 0.5, target=pc + 2 * _INST_BYTES,
            )

        # 10. loop-back branch: taken until the trip count expires
        last = (it + 1) % p.iters == 0
        emit(
            OpClass.BRANCH, srcs=(R_COUNT,), taken=not last,
            target=self.code_base,
        )

    def _emit_outer_block(self, out: list[StaticInst]) -> None:
        """Outer-loop overhead after an inner-loop exit: pointer rebasing and
        an always-taken branch back to the inner loop."""
        pc = self.code_base + 0x2000
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
