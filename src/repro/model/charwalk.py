"""Functional characterization walk for the analytic backend.

The mean-value model needs workload facts the cycle simulator discovers
dynamically: the instruction mix of the *measured window*, branch-predictor
accuracy, L1 miss rates under the real multi-thread set-conflict geometry,
line-reuse distances (for estimating merged secondary misses) and dirty-
victim rates (write-back bus traffic). All of these are properties of the
workload and the cache/predictor *geometry* alone — they do not depend on
latencies, queue depths or the decoupling mode — so they can be computed by
a single timing-free pass and reused across every point of a sweep.

The walk mirrors the cycle backend's measurement protocol exactly: thread
``t`` executes its playlist from the start, the first ``warmup`` committed
instructions warm the cache and predictor without being counted, and the
next ``measured`` instructions are tallied. Threads advance in lockstep
round-robin (the cycle machine's ICOUNT fetch keeps per-thread progress
balanced), which reproduces the cross-thread L1 set conflicts behind the
paper's "miss ratios increase progressively [with threads]" observation.

Reuse histograms: every L1 hit records the line's age — per-thread
instructions since the line was installed — in power-of-two buckets. At
solve time, hits younger than the in-flight window (miss latency divided by
per-thread CPI) are re-classified as merged secondary misses, which is how
the model's miss *ratios* grow with latency the way the cycle backend's do.

Results are cached per :func:`character_key` (the frozen,
content-hashed :class:`~repro.workloads.spec.WorkloadSpec` plus budgets
and cache/predictor geometry), so a 1000-spec sweep over latencies and
modes pays for a handful of walks — and any declarative workload, not
just the paper's rotation, characterizes the same way.  Threads that
first need one walk together (the job server's executor threads) walk
it once: the others wait for its result (:func:`~repro.memo.once_per_key`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import MachineConfig
from repro.core.context import region_salts
from repro.core.predictor import BimodalBHT
from repro.isa.opclass import OpClass
from repro.memo import once_per_key
from repro.memory.levels import HIT, CacheLevel, InfiniteLevel, L1Cache
from repro.memory.prefetch import build_prefetcher
from repro.workloads.profiles import BenchProfile
from repro.workloads.spec import WorkloadSpec

#: number of power-of-two reuse-age buckets (ages up to 2**23 instructions)
N_AGE_BUCKETS = 24

#: two load fills of one thread within this many instructions of each
#: other belong to one latency-overlap cluster (the synthesizer emits a
#: benchmark's loads as one consecutive block per iteration)
CLUSTER_GAP = 8

_OP_LOAD_F = OpClass.LOAD_F
_OP_STORE_F = OpClass.STORE_F
_OP_STORE_I = OpClass.STORE_I
_OP_BRANCH = OpClass.BRANCH
_OP_FALU = OpClass.FALU
_OP_IALU = OpClass.IALU
_OP_ITOF = OpClass.ITOF
_OP_FTOI = OpClass.FTOI

# reuse-histogram class indices
CLS_LOAD_FP = 0
CLS_LOAD_INT = 1
CLS_STORE = 2


@dataclass(frozen=True)
class WorkloadCharacter:
    """Timing-free facts about one measured workload window."""

    n_threads: int
    instrs: int                 # measured instructions, total over threads

    # instruction mix (measured region, totals)
    ialu: int
    falu: int
    loads_fp: int
    loads_int: int
    stores: int
    branches: int
    mispredicts: int
    itof: int
    ftoi: int

    # L1 behaviour (measured region, totals)
    fills_fp: int               # primary line fetches by FP loads
    fills_int: int
    fills_st: int
    writebacks: int             # dirty victims evicted by measured fills
    #: per outer level (stack order): demand fills served there / missed
    #: there — the finite-L2 miss stream the solver turns into an
    #: expected fill-service latency
    outer_hits: tuple[int, ...]
    outer_misses: tuple[int, ...]
    outer_writebacks: tuple[int, ...]
    #: prefetch fills issued (bus traffic) and the demand accesses they
    #: covered; coverage also shows up as *reduced* ``fills_*`` and as
    #: short-age reuse-histogram entries (-> merged misses at solve time)
    prefetch_fills: int
    prefetch_hits: int
    #: load-fill *clusters*: consecutive load fills of one thread within
    #: CLUSTER_GAP instructions overlap their latencies (the loads issue
    #: back-to-back before the first consumer can block), so only one
    #: stall per cluster is exposed. ``clusters / load fills`` is the
    #: exposed-stall fraction.
    load_fill_clusters: int
    #: per class, hits bucketed by line age in per-thread instructions
    #: (bucket ``b`` holds ages in ``[2**(b-1), 2**b)``; bucket 0 is age 0)
    reuse: tuple[tuple[int, ...], ...]

    # profile-derived structure, blended over the measured window
    #: independent EP dependence chains (ILP available to in-order issue)
    ep_chains: float
    #: instructions per inner-loop iteration (scheduling-distance unit)
    iter_len: float
    #: software-pipelined distance (instructions) from an integer index
    #: load to its consuming gather load
    int_use_dist: float
    #: fraction of instructions that are FTOI loss-of-decoupling events
    lod_per_instr: float

    @property
    def f(self) -> dict:
        """Per-instruction frequencies of the measured mix."""
        n = max(1, self.instrs)
        return {
            "ialu": self.ialu / n,
            "falu": self.falu / n,
            "load_fp": self.loads_fp / n,
            "load_int": self.loads_int / n,
            "store": self.stores / n,
            "branch": self.branches / n,
            "itof": self.itof / n,
            "ftoi": self.ftoi / n,
        }


def character_key(spec, cfg: MachineConfig) -> tuple:
    """Everything the walk result depends on, as a hashable key.

    Keyed on the workload itself — :class:`WorkloadSpec` is frozen and
    hashes by content, so two specs with identical workloads share a
    walk no matter how they were built. The memory hierarchy enters as
    its :meth:`~repro.memory.spec.MemSpec.geometry` (capacities,
    associativity, sharing, prefetch policy — every *timing* field
    normalized away), so the walk stays latency-free and all points of a
    latency x mode x bus-width sweep share one characterization.
    """
    commits, warmup = spec.budgets()
    n_threads = spec.workload.n_threads
    return (
        spec.workload,
        spec.seed,
        commits // n_threads,
        warmup // n_threads,
        cfg.memory().geometry(),
        cfg.line_bytes,
        cfg.bht_entries,
        cfg.salt_stream_bytes,
        cfg.salt_store_bytes,
        cfg.salt_hot_bytes,
    )


def characterize(spec, cfg: MachineConfig) -> WorkloadCharacter:
    """The (cached) characterization of one spec's measured window."""
    return _characterize(character_key(spec, cfg))


class _WalkPrefetchPort:
    """Adapter letting the *runtime* prefetcher policies drive the
    timing-free walk: ``try_prefetch`` installs the line immediately
    (fills are instantaneous in a timing-free world). Reusing
    :func:`~repro.memory.prefetch.build_prefetcher` keeps the walk's
    prefetch decisions in lockstep with the cycle machine's."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        self.fill = fill

    def try_prefetch(self, line: int, now: int, tid: int) -> bool:
        return self.fill(line, tid)


@once_per_key(maxsize=128)
def _characterize(key: tuple) -> WorkloadCharacter:
    (
        workload, seed, meas_pt, warm_pt,
        geometry, line_bytes, bht_entries,
        salt_stream, salt_store, salt_hot,
    ) = key
    assert isinstance(workload, WorkloadSpec)
    n_threads = workload.n_threads
    playlists = workload.playlists(seed=seed)
    profiles = workload.profiles()

    # -- the memory geometry (capacities/sharing only; walk is timing-free)
    l0 = geometry.levels[0]
    if l0.shared or n_threads == 1:
        l1s = [L1Cache(l0.capacity_bytes, line_bytes)]
    else:
        l1s = [
            L1Cache(l0.capacity_bytes // n_threads, line_bytes)
            for _ in range(n_threads)
        ]
    line_shift = line_bytes.bit_length() - 1
    # per-L1-slice, per-set install bookkeeping for reuse ages
    install_tick = [[0] * l1.n_sets for l1 in l1s]
    outer = [
        InfiniteLevel()
        if lvl.capacity_bytes is None
        else CacheLevel(
            lvl.capacity_bytes, line_bytes, assoc=lvl.assoc,
            partitions=1 if lvl.shared else n_threads,
        )
        for lvl in geometry.levels[1:]
    ]
    n_outer = len(outer)
    outer_hits = [0] * n_outer
    outer_misses = [0] * n_outer
    outer_wb = [0] * n_outer

    # per-thread walk state (salting shared with the cycle backend's
    # ThreadContext via core.context.region_salts)
    cfg = MachineConfig(
        n_threads=n_threads,
        salt_stream_bytes=salt_stream,
        salt_store_bytes=salt_store,
        salt_hot_bytes=salt_hot,
    )
    bhts = [BimodalBHT(bht_entries) for _ in range(n_threads)]
    salted = [region_salts(cfg, t) for t in range(n_threads)]
    salts = [default for default, _by_region in salted]
    salt_region = [by_region for _default, by_region in salted]
    play_idx = [0] * n_threads
    pos = [0] * n_threads
    # each thread's current trace, its instruction list and its length,
    # switched on a playlist wrap, so a step indexes the list directly
    # instead of calling Trace.__getitem__ and __len__
    traces = [pl[0] for pl in playlists]
    insts = [trace._insts for trace in traces]
    lens = [len(trace_insts) for trace_insts in insts]
    ticks = [0] * n_threads          # per-thread instruction counters

    counts = dict(
        ialu=0, falu=0, loads_fp=0, loads_int=0, stores=0,
        branches=0, mispredicts=0, itof=0, ftoi=0,
        fills_fp=0, fills_int=0, fills_st=0, writebacks=0,
        load_fill_clusters=0, prefetch_fills=0, prefetch_hits=0,
    )
    last_load_fill = [-(10 * CLUSTER_GAP)] * n_threads
    reuse = [[0] * N_AGE_BUCKETS for _ in range(3)]
    bench_weight: dict[str, int] = {}
    measuring = False

    def outer_fill(line: int, t: int, l1, addr: int, dirty: bool,
                   prefetched: bool, count: bool) -> bool:
        """Mirror the facade's fill path exactly: plan (pure peeks),
        touch the serving level, install into the L1 (evicting the
        victim into the first outer level when dirty), then land the
        line in every missed level. Returns whether the L1 victim was
        dirty (a write-back in the cycle machine)."""
        serving = None
        missed = []
        for k in range(n_outer):
            if outer[k].peek(line, t):
                serving = k
                break
            missed.append(k)
        if serving is not None:
            outer[serving].touch(line, t)
            if count:
                outer_hits[serving] += 1
        if count:
            for k in missed:
                outer_misses[k] += 1
        victim, victim_dirty = l1.install(
            addr, 0, 0, make_dirty=dirty, prefetched=prefetched
        )
        if victim_dirty and n_outer:
            if outer[0].install(victim, t, dirty=True) and measuring:
                outer_wb[0] += 1
        for k in missed:
            if outer[k].install(line, t, dirty=False) and measuring:
                outer_wb[k] += 1
        return victim_dirty

    def prefetch_fill(line: int, t: int) -> bool:
        bank = t % len(l1s)
        l1 = l1s[bank]
        addr = line << line_shift
        outcome, idx, _when = l1.probe(addr, 0)
        if outcome == HIT:
            return False
        victim_dirty = outer_fill(
            line, t, l1, addr, dirty=False, prefetched=True, count=False
        )
        install_tick[bank][idx] = ticks[t]
        if measuring:
            counts["prefetch_fills"] += 1
            if victim_dirty:
                counts["writebacks"] += 1
        return True

    prefetcher = build_prefetcher(geometry.prefetch)
    pf_port = _WalkPrefetchPort(prefetch_fill)

    budget = warm_pt + meas_pt
    for step in range(budget):
        measuring = step >= warm_pt
        if step == warm_pt:
            # mirror the facade's warm-up stats reset: stale prefetched
            # flags must not pair measured hits with unmeasured fills
            for l1 in l1s:
                l1.prefetched = bytearray(l1.n_sets)
        for t in range(n_threads):
            trace = traces[t]
            s = insts[t][pos[t]]
            pos[t] += 1
            if pos[t] >= lens[t]:
                pl = playlists[t]
                play_idx[t] = (play_idx[t] + 1) % len(pl)
                pos[t] = 0
                traces[t] = pl[play_idx[t]]
                insts[t] = traces[t]._insts
                lens[t] = len(insts[t])
            ticks[t] += 1
            op = s.op
            if measuring:
                bench_weight[trace.name] = bench_weight.get(trace.name, 0) + 1
            if op == _OP_IALU:
                if measuring:
                    counts["ialu"] += 1
                continue
            if op == _OP_FALU:
                if measuring:
                    counts["falu"] += 1
                continue
            if op == _OP_BRANCH:
                pred = bhts[t].predict_and_update(s.pc, s.taken)
                if measuring:
                    counts["branches"] += 1
                    if pred != s.taken:
                        counts["mispredicts"] += 1
                continue
            if op == _OP_ITOF:
                if measuring:
                    counts["itof"] += 1
                continue
            if op == _OP_FTOI:
                if measuring:
                    counts["ftoi"] += 1
                continue
            # memory operation: apply the per-thread region salt
            addr = s.addr
            addr += salt_region[t].get(addr >> 26, salts[t])
            is_store = op == _OP_STORE_F or op == _OP_STORE_I
            if is_store:
                cls = CLS_STORE
                if measuring:
                    counts["stores"] += 1
            elif op == _OP_LOAD_F:
                cls = CLS_LOAD_FP
                if measuring:
                    counts["loads_fp"] += 1
            else:
                cls = CLS_LOAD_INT
                if measuring:
                    counts["loads_int"] += 1
            bank = t % len(l1s)
            l1 = l1s[bank]
            outcome, idx, _when = l1.probe(addr, 0)
            if outcome == HIT:
                if l1.prefetched[idx]:
                    l1.prefetched[idx] = 0
                    if measuring:
                        counts["prefetch_hits"] += 1
                if is_store:
                    l1.touch_write(addr)
                if measuring:
                    age = ticks[t] - install_tick[bank][idx]
                    reuse[cls][min(age.bit_length(), N_AGE_BUCKETS - 1)] += 1
            else:
                line = addr >> line_shift
                victim_dirty = outer_fill(
                    line, t, l1, addr, dirty=is_store,
                    prefetched=False, count=measuring,
                )
                install_tick[bank][idx] = ticks[t]
                prefetcher.on_demand_fill(pf_port, line, 0, t)
                if measuring:
                    if victim_dirty:
                        counts["writebacks"] += 1
                    if cls == CLS_STORE:
                        counts["fills_st"] += 1
                    else:
                        if cls == CLS_LOAD_FP:
                            counts["fills_fp"] += 1
                        else:
                            counts["fills_int"] += 1
                        if ticks[t] - last_load_fill[t] > CLUSTER_GAP:
                            counts["load_fill_clusters"] += 1
                        last_load_fill[t] = ticks[t]
                elif cls != CLS_STORE:
                    last_load_fill[t] = ticks[t]

    return WorkloadCharacter(
        n_threads=n_threads,
        instrs=meas_pt * n_threads,
        reuse=tuple(tuple(row) for row in reuse),
        outer_hits=tuple(outer_hits),
        outer_misses=tuple(outer_misses),
        outer_writebacks=tuple(outer_wb),
        **counts,
        **_blend_profiles(bench_weight, profiles),
    )


def _plan(p: BenchProfile) -> dict:
    """Static per-iteration structure of one benchmark profile, from the
    counts the synthesizer plans its body with."""
    c = p.body_counts()
    body = (
        3 + c.n_gather / max(1, p.index_every) + c.n_loads + c.n_falu
        + c.n_stores + c.n_extra_ialu + 1
        + c.n_rand_branch
    )
    return {
        "iter_len": body,
        "ep_chains": float(p.n_chains),
        "int_use_dist": p.index_dist * body,
    }


def _blend_profiles(
    bench_weight: dict[str, int], profiles: dict[str, BenchProfile]
) -> dict:
    """Measured-window-weighted blend of profile-derived structure.

    ``profiles`` maps trace names to resolved profiles (the workload's
    own mapping — never the global registry, so inline variants blend
    with their *overridden* parameters).
    """
    total = sum(bench_weight.values()) or 1
    out = {"ep_chains": 0.0, "iter_len": 0.0, "int_use_dist": 0.0,
           "lod_per_instr": 0.0}
    for name, w in bench_weight.items():
        p = profiles[name]
        plan = _plan(p)
        frac = w / total
        out["ep_chains"] += frac * plan["ep_chains"]
        out["iter_len"] += frac * plan["iter_len"]
        out["int_use_dist"] += frac * plan["int_use_dist"]
        out["lod_per_instr"] += frac * p.lod_rate
    return out
