"""Numpy-vectorized characterization walk (the analytic backend's hot path).

:mod:`repro.model.charwalk` interprets the workload one instruction at a
time: per step it indexes the trace, classifies the op, salts the address,
probes the L1 and updates the reuse bookkeeping — a few dozen bytecodes
per instruction, millions of instructions per walk.  On the *classic*
geometry — direct-mapped L1 slices in front of infinite outer levels, no
prefetcher — every one of those per-instruction decisions is data-parallel:

* the instruction stream of a thread is its playlist tiled to the budget,
  so op/pc/addr/taken become arrays built once per distinct trace;
* a direct-mapped cache's behaviour is a pure function of the *per-set
  access subsequence*: stable-sorting the access stream by set index makes
  every set's history contiguous, a miss is simply "first access of a
  run of equal line ids", the install tick of the line serving a hit is
  the step of the last preceding miss in the set (propagated with
  ``maximum.accumulate`` — legal because a set's first access is always a
  miss), and a victim is dirty iff its run contains a store;
* reuse ages bucket by ``bit_length``, which is ``frexp``'s exponent;
* threads advance in lockstep, so "per-thread instructions" equals the
  step counter and install ticks are thread-independent.

The only state that genuinely is sequential — the per-thread 2-bit
bimodal BHT — stays a python loop, but over *branches only* (~10% of the
stream with all other work amortized into numpy).

:func:`characterize_np` must return a :class:`~repro.model.charwalk.
WorkloadCharacter` **equal** to the interpreted walk's — enforced by
``tests/test_charwalk_np.py`` across the workload grid.  Geometries the
closed forms do not model (finite or partitioned outer levels, any
prefetcher) and numpy-free installs fall back to the interpreter (CI's
no-numpy job installs the repo without numpy and proves tier-1 passes
that way).
"""

from __future__ import annotations

from weakref import WeakKeyDictionary

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by CI's no-numpy job
    np = None

from repro.core.config import MachineConfig
from repro.core.context import region_salts
from repro.memory.levels import L1Cache
from repro.model.charwalk import (
    CLS_LOAD_FP,
    CLS_LOAD_INT,
    CLS_STORE,
    CLUSTER_GAP,
    N_AGE_BUCKETS,
    WorkloadCharacter,
    _blend_profiles,
)

# OpClass values, as plain ints for array comparisons
_IALU, _FALU, _LOAD_I, _LOAD_F = 0, 1, 2, 3
_STORE_I, _STORE_F, _BRANCH, _ITOF, _FTOI = 4, 5, 6, 7, 8


def eligible(geometry) -> bool:
    """True when the vectorized walk models this geometry exactly."""
    if np is None:
        return False
    if geometry.prefetch.kind != "none":
        return False  # prefetch decisions depend on the miss *sequence*
    return all(lvl.capacity_bytes is None for lvl in geometry.levels[1:])


#: trace -> column arrays; traces are cached by the synthesizer and
#: shared across walks, so one extraction serves a whole sweep (weak keys:
#: the cache must not pin a workload's traces alive)
_TRACE_COLS: WeakKeyDictionary = WeakKeyDictionary()


def _trace_arrays(trace):
    """Column arrays (op, pc, addr, taken) of one trace, built once."""
    arrs = _TRACE_COLS.get(trace)
    if arrs is None:
        n = len(trace)
        insts = trace._insts
        op = np.fromiter((s.op for s in insts), dtype=np.int16, count=n)
        pc = np.fromiter((s.pc for s in insts), dtype=np.int64, count=n)
        addr = np.fromiter((s.addr for s in insts), dtype=np.int64, count=n)
        taken = np.fromiter((s.taken for s in insts), dtype=bool, count=n)
        arrs = _TRACE_COLS[trace] = (op, pc, addr, taken)
    return arrs


def _thread_stream(playlist, budget: int):
    """One thread's first ``budget`` instructions (playlist wrapped) as
    column arrays, plus ``(trace_name, start, end)`` stream segments."""
    chunks: list[tuple] = []
    segments: list[tuple[str, int, int]] = []
    n = 0
    i = 0
    while n < budget:
        trace = playlist[i % len(playlist)]
        op, pc, addr, taken = _trace_arrays(trace)
        take = min(len(trace), budget - n)
        chunks.append((op[:take], pc[:take], addr[:take], taken[:take]))
        segments.append((trace.name, n, n + take))
        n += take
        i += 1
    cols = tuple(np.concatenate(c) for c in zip(*chunks))
    return cols, segments


def _bht_mispredicts(
    pc, taken, warm_pt: int, entries: int
) -> int:
    """Measured mispredicts of one thread's branch stream (sequential
    2-bit counters; mirrors :class:`~repro.core.predictor.BimodalBHT`)."""
    mask = entries - 1
    idxs = ((pc >> 2) & mask).tolist()
    takens = taken.tolist()
    table = bytearray([2]) * entries
    mis = 0
    for i, (bi, tk) in enumerate(zip(idxs, takens)):
        c = table[bi]
        if i >= warm_pt and (c >= 2) != tk:
            mis += 1
        if tk:
            if c < 3:
                table[bi] = c + 1
        elif c > 0:
            table[bi] = c - 1
    return mis


def characterize_np(
    workload, seed, meas_pt, warm_pt, geometry, line_bytes,
    bht_entries, salt_stream, salt_store, salt_hot,
) -> WorkloadCharacter:
    n_threads = workload.n_threads
    playlists = workload.playlists(seed=seed)
    profiles = workload.profiles()
    budget = warm_pt + meas_pt

    l0 = geometry.levels[0]
    if l0.shared or n_threads == 1:
        n_l1 = 1
        proto = L1Cache(l0.capacity_bytes, line_bytes)
    else:
        n_l1 = n_threads
        proto = L1Cache(l0.capacity_bytes // n_threads, line_bytes)
    set_mask = proto._set_mask
    line_shift = proto._line_shift
    n_outer = len(geometry.levels) - 1

    cfg = MachineConfig(
        n_threads=n_threads,
        salt_stream_bytes=salt_stream,
        salt_store_bytes=salt_store,
        salt_hot_bytes=salt_hot,
    )

    counts = dict(
        ialu=0, falu=0, loads_fp=0, loads_int=0, stores=0,
        branches=0, mispredicts=0, itof=0, ftoi=0,
        fills_fp=0, fills_int=0, fills_st=0, writebacks=0,
        load_fill_clusters=0, prefetch_fills=0, prefetch_hits=0,
    )
    reuse_flat = np.zeros(3 * N_AGE_BUCKETS, dtype=np.int64)
    outer_hits0 = 0
    bench_weight: dict[str, int] = {}

    # per-bank chronological memory-event columns, filled thread by thread
    bank_events: list[list[tuple]] = [[] for _ in range(n_l1)]
    steps_all = np.arange(budget, dtype=np.int64)

    for t in range(n_threads):
        (op, pc, addr, taken), segments = _thread_stream(playlists[t], budget)
        for name, start, end in segments:
            w = min(end, budget) - max(start, warm_pt)
            if w > 0:
                bench_weight[name] = bench_weight.get(name, 0) + w

        meas_ops = op[warm_pt:]
        counts["ialu"] += int(np.count_nonzero(meas_ops == _IALU))
        counts["falu"] += int(np.count_nonzero(meas_ops == _FALU))
        counts["itof"] += int(np.count_nonzero(meas_ops == _ITOF))
        counts["ftoi"] += int(np.count_nonzero(meas_ops == _FTOI))
        counts["branches"] += int(np.count_nonzero(meas_ops == _BRANCH))
        counts["loads_fp"] += int(np.count_nonzero(meas_ops == _LOAD_F))
        counts["loads_int"] += int(np.count_nonzero(meas_ops == _LOAD_I))
        counts["stores"] += int(
            np.count_nonzero((meas_ops == _STORE_I) | (meas_ops == _STORE_F))
        )

        br = op == _BRANCH
        if br.any():
            # branch warm-up boundary in *branch stream* coordinates
            warm_br = int(np.count_nonzero(br[:warm_pt]))
            counts["mispredicts"] += _bht_mispredicts(
                pc[br], taken[br], warm_br, bht_entries
            )

        mem = (op >= _LOAD_I) & (op <= _STORE_F)
        if mem.any():
            m_op = op[mem]
            m_addr = addr[mem]
            m_step = steps_all[mem]
            default, by_region = region_salts(cfg, t)
            salt = np.full(m_addr.shape, default, dtype=np.int64)
            region = m_addr >> 26
            for reg, sval in by_region.items():
                salt[region == reg] = sval
            line = (m_addr + salt) >> line_shift
            cls = np.where(
                m_op >= _STORE_I, CLS_STORE,
                np.where(m_op == _LOAD_F, CLS_LOAD_FP, CLS_LOAD_INT),
            )
            bank_events[t % n_l1].append((m_step, line, cls, t))

    for events in bank_events:
        if not events:
            continue
        step = np.concatenate([e[0] for e in events])
        line = np.concatenate([e[1] for e in events])
        cls = np.concatenate([e[2] for e in events])
        tid = np.concatenate(
            [np.full(e[0].shape, e[3], dtype=np.int64) for e in events]
        )
        if len(events) > 1:
            # global access order of a shared slice: (step, tid) — every
            # thread executes exactly one instruction per lockstep step
            order = np.argsort(step * n_threads + tid, kind="stable")
            step, line, cls, tid = (
                step[order], line[order], cls[order], tid[order]
            )
        n = step.shape[0]
        is_store = cls == CLS_STORE
        measured = step >= warm_pt

        # group the stream by set; stable sort keeps each set's history
        # in chronological order
        idx = line & set_mask
        sort = np.argsort(idx, kind="stable")
        idx_s = idx[sort]
        line_s = line[sort]
        step_s = step[sort]
        store_s = is_store[sort]
        meas_s = measured[sort]

        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(idx_s[1:], idx_s[:-1], out=first[1:])
        miss = first.copy()
        miss[1:] |= line_s[1:] != line_s[:-1]

        # install step of the line serving each access = the last miss at
        # or before it in the same set run (a set's first access is always
        # a miss, so the accumulate cannot leak across groups)
        pos = np.arange(n, dtype=np.int64)
        lastm = np.maximum.accumulate(np.where(miss, pos, 0))

        hm = ~miss & meas_s
        if hm.any():
            age = step_s[hm] - step_s[lastm[hm]]
            buckets = np.minimum(
                np.frexp(age.astype(np.float64))[1], N_AGE_BUCKETS - 1
            )
            reuse_flat += np.bincount(
                cls[sort][hm] * N_AGE_BUCKETS + buckets,
                minlength=3 * N_AGE_BUCKETS,
            )

        mm = miss & meas_s
        n_mm = int(np.count_nonzero(mm))
        outer_hits0 += n_mm
        fill_by_cls = np.bincount(cls[sort][mm], minlength=3)
        counts["fills_fp"] += int(fill_by_cls[CLS_LOAD_FP])
        counts["fills_int"] += int(fill_by_cls[CLS_LOAD_INT])
        counts["fills_st"] += int(fill_by_cls[CLS_STORE])

        # a victim is dirty iff its run — the install plus every hit up
        # to the evicting miss — contains a store
        evict = miss & ~first
        if evict.any():
            cs0 = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(store_s)]
            )
            i_idx = pos[evict]
            prev_install = lastm[i_idx - 1]
            victim_dirty = (cs0[i_idx] - cs0[prev_install]) > 0
            counts["writebacks"] += int(
                np.count_nonzero(victim_dirty & meas_s[i_idx])
            )

        # latency-overlap clusters of load fills, per thread in
        # chronological order
        miss_chrono = np.empty(n, dtype=bool)
        miss_chrono[sort] = miss
        load_fill = miss_chrono & (cls != CLS_STORE)
        for _, _, _, t in events:
            sel = load_fill & (tid == t)
            if not sel.any():
                continue
            ticks = step[sel] + 1
            fresh = np.diff(ticks, prepend=-(10 * CLUSTER_GAP)) > CLUSTER_GAP
            counts["load_fill_clusters"] += int(
                np.count_nonzero(fresh & measured[sel])
            )

    reuse = tuple(
        tuple(int(v) for v in reuse_flat[c * N_AGE_BUCKETS:(c + 1) * N_AGE_BUCKETS])
        for c in range(3)
    )
    return WorkloadCharacter(
        n_threads=n_threads,
        instrs=meas_pt * n_threads,
        reuse=reuse,
        outer_hits=((outer_hits0,) + (0,) * (n_outer - 1)) if n_outer else (),
        outer_misses=(0,) * n_outer,
        outer_writebacks=(0,) * n_outer,
        **counts,
        **_blend_profiles(bench_weight, profiles),
    )
