"""Property-based tests for core data structures and invariants.

Two flavours: hypothesis-driven structure tests on the micro components,
and a seeded-random *machine grid* — randomized ``MachineConfig`` points
driving the full cycle backend on real synthetic workloads — asserting
the cross-cutting invariants every configuration must satisfy:
issue-slot conservation (``cycles * width == sum(breakdown)`` per unit),
exact commit counts on finite programs, faithful stats serialisation,
and fast-forward ≡ per-cycle-walk bit-identity.
"""

import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ProgramBuilder
from repro.core.config import MachineConfig
from repro.core.predictor import BimodalBHT
from repro.core.processor import Processor
from repro.core.queues import InstQueue, StoreAddressQueue
from repro.core.rename import RenameFile
from repro.isa.instruction import DynInst, StaticInst
from repro.isa.opclass import OpClass
from repro.memory.levels import HIT, MISS, L1Cache
from repro.stats.counters import SimStats
from repro.workloads.spec import WorkloadSpec
from repro.workloads.synth import fold, FOLD_WINDOW


# ------------------------------------------------------------------ cache model

@settings(max_examples=60, deadline=None)
@given(
    addrs=st.lists(
        st.integers(min_value=0, max_value=1 << 20).map(lambda a: a & ~7),
        min_size=1, max_size=200,
    )
)
def test_cache_agrees_with_reference_model(addrs):
    """The tag array must behave exactly like a dict-based direct-mapped
    reference model when every fill completes instantly."""
    cache = L1Cache(4096, 32)  # 128 sets: small, conflict-prone
    reference: dict[int, int] = {}
    now = 0
    for addr in addrs:
        now += 1
        line = addr >> 5
        idx = line % 128
        outcome, _i, _w = cache.probe(addr, now)
        expected_hit = reference.get(idx) == line
        assert (outcome == HIT) == expected_hit
        if outcome == MISS:
            cache.install(addr, now, fill_cycle=now, make_dirty=False)
            reference[idx] = line


@settings(max_examples=40, deadline=None)
@given(offs=st.lists(st.integers(min_value=0, max_value=1 << 24), max_size=60))
def test_fold_preserves_window_and_region(offs):
    base = 0x10000000 + 16 * 1024
    for off in offs:
        addr = fold(base, off)
        assert addr >> 26 == base >> 26
        set_off = addr % (64 * 1024)
        base_off = base % (64 * 1024)
        assert base_off <= set_off < base_off + FOLD_WINDOW


# ------------------------------------------------------------------ queues

@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("push"), st.integers(0, 1000)),
            st.tuples(st.just("pop"), st.just(0)),
            st.tuples(st.just("squash"), st.integers(0, 1000)),
        ),
        max_size=80,
    )
)
def test_inst_queue_stays_ordered_and_bounded(ops):
    q = InstQueue(16)
    model: deque = deque()
    seq = 0
    for kind, _arg in ops:
        if kind == "push" and not q.full:
            seq += 1
            d = DynInst(StaticInst(0, OpClass.IALU, dest=4), 0, seq, False)
            q.push(d)
            model.append(seq)
        elif kind == "pop" and q:
            assert q.pop_head().seq == model.popleft()
        elif kind == "squash":
            cut = seq - 3
            q.squash_tail(cut)
            while model and model[-1] > cut:
                model.pop()
        assert len(q) == len(model)
        assert len(q) <= 16
        seqs = [d.seq for d in q.q]
        assert seqs == sorted(seqs)


@settings(max_examples=60, deadline=None)
@given(
    stores=st.lists(
        st.tuples(st.integers(0, 30).map(lambda x: 0x1000 + x * 8),),
        min_size=1, max_size=20,
    ),
    probe=st.integers(0, 30).map(lambda x: 0x1000 + x * 8),
)
def test_saq_match_agrees_with_linear_scan(stores, probe):
    q = StoreAddressQueue(64)
    entries = []
    for seq, (addr,) in enumerate(stores, start=1):
        d = DynInst(
            StaticInst(0, OpClass.STORE_F, srcs=(2, 36), addr=addr), 0, seq, False
        )
        q.push(d)
        entries.append(d)
    load_seq = len(stores) + 1
    expected = None
    for d in entries:
        if d.seq < load_seq and d.static.addr == probe:
            expected = d
    assert q.find_older_match(probe, load_seq) is expected


# ------------------------------------------------------------------ rename

@settings(max_examples=40, deadline=None)
@given(
    archs=st.lists(st.integers(0, 30), min_size=1, max_size=30),
)
def test_rename_walkback_is_exact_inverse(archs):
    """Renaming a sequence then undoing it youngest-first must restore the
    map table and free lists exactly."""
    r = RenameFile(64, 96)
    before_map = list(r.map)
    before_free = (list(r.free_ap), list(r.free_ep))
    done = []
    for arch in archs:
        if not r.can_rename_dest(arch):
            break
        p, old = r.rename_dest(arch)
        done.append((arch, p, old))
    for arch, p, old in reversed(done):
        r.undo_rename(arch, p, old)
        r.free(p)
    assert r.map == before_map
    assert sorted(r.free_ap) == sorted(before_free[0])
    assert sorted(r.free_ep) == sorted(before_free[1])
    r.check_invariants()


# ------------------------------------------------------------------ predictor

@settings(max_examples=40, deadline=None)
@given(outcomes=st.lists(st.booleans(), max_size=100))
def test_bht_counters_stay_saturated(outcomes):
    bht = BimodalBHT(64)
    for taken in outcomes:
        bht.predict_and_update(0x1000, taken)
        assert 0 <= bht.table[(0x1000 >> 2) & 63] <= 3


# ------------------------------------------------------------------ pipeline

_OP_POOL = st.sampled_from(["ialu", "falu", "load", "store", "branch"])


@settings(max_examples=25, deadline=None)
@given(ops=st.lists(_OP_POOL, min_size=1, max_size=120), data=st.data())
def test_random_programs_commit_exactly_and_hold_invariants(ops, data):
    """Any random well-formed program commits every instruction exactly once
    and never corrupts rename/queue ordering invariants."""
    b = ProgramBuilder()
    for i, kind in enumerate(ops):
        if kind == "ialu":
            b.ialu(dest=4 + (i % 6), srcs=(4 + ((i + 1) % 6),))
        elif kind == "falu":
            b.falu(dest=36 + (i % 6), srcs=(36 + ((i + 1) % 6),))
        elif kind == "load":
            b.load_f(dest=40 + (i % 8), base=2,
                     addr=0x2000 + (i % 50) * 32)
        elif kind == "store":
            b.store_f(base=2, data=36 + (i % 6), addr=0x4000 + (i % 20) * 8)
        else:
            b.branch(taken=data.draw(st.booleans()), src=4)
    tr = b.trace()
    cfg = MachineConfig()
    proc = Processor(cfg, [[tr]], wrap=False)
    stats = proc.run(max_cycles=60_000)
    assert stats.committed == len(tr)
    proc.check_invariants()
    # all stores eventually drained
    assert stats.stores == sum(1 for k in ops if k == "store")


# --------------------------------------------------- randomized machine grid


def sample_config(seed: int) -> MachineConfig:
    """One random-but-sane machine configuration, deterministic in seed."""
    rng = random.Random(0xC0FFEE ^ (seed * 0x9E3779B1))
    return MachineConfig(
        n_threads=rng.randint(1, 3),
        decoupled=rng.random() < 0.5,
        l2_latency=rng.choice((1, 8, 16, 48, 96)),
        ap_width=rng.randint(2, 4),
        ep_width=rng.randint(2, 4),
        dispatch_width=rng.choice((4, 6, 8)),
        fetch_width=rng.choice((4, 8)),
        fetch_policy=rng.choice(("icount", "rr")),
        iq_size=rng.choice((16, 32, 64)),
        aq_size=rng.choice((16, 32, 64)),
        saq_size=rng.choice((16, 32)),
        rob_size=rng.choice((64, 128, 256)),
        ap_regs=rng.choice((48, 64, 96)),
        ep_regs=rng.choice((64, 96, 128)),
        mshrs=rng.choice((4, 8, 16, 24)),
        max_unresolved_branches=rng.randint(2, 6),
    )


GRID_SEEDS = range(6)


def _grid_run(seed: int, fast_forward: bool = True):
    cfg = sample_config(seed)
    workload = WorkloadSpec.rotation(cfg.n_threads, seg_instrs=2500)
    playlists = workload.playlists(seed)
    proc = Processor(cfg, playlists, seed=seed)
    stats = proc.run(
        max_commits=1200 * cfg.n_threads,
        warmup_commits=300 * cfg.n_threads,
        max_cycles=400_000,
        fast_forward=fast_forward,
    )
    return cfg, proc, stats


@pytest.mark.parametrize("seed", GRID_SEEDS)
def test_issue_slots_are_conserved(seed):
    """Every cycle classifies every issue slot of both units exactly once,
    whatever the configuration: cycles * width == sum(breakdown)."""
    cfg, proc, stats = _grid_run(seed)
    for unit, width in ((0, cfg.ap_width), (1, cfg.ep_width)):
        row = stats.slot_counts[unit]
        assert all(v >= 0 for v in row)
        assert sum(row) == stats.cycles * width, (cfg, unit, row)
    proc.check_invariants()


@pytest.mark.parametrize("seed", GRID_SEEDS)
def test_stats_round_trip_on_random_configs(seed):
    _cfg, _proc, stats = _grid_run(seed)
    clone = SimStats.from_dict(stats.to_dict())
    assert clone == stats
    assert clone.to_dict() == stats.to_dict()


@pytest.mark.parametrize("seed", GRID_SEEDS)
def test_fast_forward_is_bit_identical_on_random_configs(seed):
    # comparable_dict: every architectural counter must match; only the
    # scheduler's own ff_jumps/ff_cycles_skipped diagnostics may differ
    walked = _grid_run(seed, fast_forward=False)[2]
    jumped = _grid_run(seed, fast_forward=True)[2]
    assert jumped.comparable_dict() == walked.comparable_dict()


@pytest.mark.parametrize("seed", GRID_SEEDS)
def test_finite_programs_commit_exactly_once_per_context(seed):
    """On every sampled config, a finite trace commits each instruction
    exactly once per hardware context — no loss, no duplication."""
    cfg = sample_config(seed)
    b = ProgramBuilder()
    rng = random.Random(seed)
    for i in range(160):
        kind = rng.choice(("ialu", "falu", "load", "store", "branch"))
        if kind == "ialu":
            b.ialu(dest=4 + (i % 6), srcs=(4 + ((i + 1) % 6),))
        elif kind == "falu":
            b.falu(dest=36 + (i % 6), srcs=(36 + ((i + 1) % 6),))
        elif kind == "load":
            b.load_f(dest=40 + (i % 8), base=2, addr=0x2000 + (i % 50) * 32)
        elif kind == "store":
            b.store_f(base=2, data=36 + (i % 6), addr=0x4000 + (i % 20) * 8)
        else:
            b.branch(taken=rng.random() < 0.5, src=4)
    tr = b.trace()
    proc = Processor(cfg, [[tr]] * cfg.n_threads, wrap=False)
    stats = proc.run(max_cycles=120_000)
    assert stats.committed == len(tr) * cfg.n_threads
    assert sorted(stats.committed_per_thread.values()) == (
        [len(tr)] * cfg.n_threads
    )
    proc.check_invariants()
