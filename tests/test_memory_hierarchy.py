"""MemorySystem facade: end-to-end miss timing, MSHRs, bus, ports."""

import hashlib
import random
import pytest

from repro.core.config import MachineConfig
from repro.memory.hierarchy import (
    S_BLOCKED,
    S_HIT,
    S_MISS,
    S_SECONDARY,
    MemorySystem,
)
from repro.memory.spec import LevelSpec, MemSpec, mem_preset


def make_mem(**kw):
    defaults = dict(
        l1_bytes=64 * 1024, line_bytes=32, l1_ports=4, mshrs=16,
        l2_latency=16, bus_bytes_per_cycle=16, l1_hit_latency=1,
    )
    defaults.update(kw)
    return MemorySystem.classic(**defaults)


class TestLoadTiming:
    def test_cold_miss_latency(self):
        mem = make_mem()
        status, ready = mem.load(0x1000, now=0)
        assert status == S_MISS
        # L2 latency (16) + line transfer (2 bus cycles)
        assert ready == 18

    def test_hit_after_fill(self):
        mem = make_mem()
        mem.load(0x1000, now=0)
        status, ready = mem.load(0x1008, now=20)
        assert status == S_HIT
        assert ready == 21  # 1-cycle hit

    def test_secondary_merges_into_fill(self):
        mem = make_mem()
        _status, fill = mem.load(0x1000, now=0)
        status, ready = mem.load(0x1010, now=3)
        assert status == S_SECONDARY
        assert ready == fill

    def test_secondary_consumes_no_bus(self):
        mem = make_mem()
        mem.load(0x1000, now=0)
        before = mem.bus.busy_cycles
        mem.load(0x1008, now=1)
        assert mem.bus.busy_cycles == before

    def test_bus_contention_serialises_fills(self):
        mem = make_mem()
        _s, r1 = mem.load(0x1000, now=0)
        _s, r2 = mem.load(0x2000, now=0)
        _s, r3 = mem.load(0x3000, now=0)
        assert r1 == 18
        assert r2 == 20  # waits for the first transfer
        assert r3 == 22


class TestStructuralLimits:
    def test_mshr_exhaustion_blocks(self):
        mem = make_mem(mshrs=2)
        assert mem.load(0x1000, now=0)[0] == S_MISS
        assert mem.load(0x2000, now=0)[0] == S_MISS
        status, _ = mem.load(0x3000, now=0)
        assert status == S_BLOCKED
        assert mem.mshrs.alloc_failures == 1

    def test_mshr_released_at_fill(self):
        mem = make_mem(mshrs=1)
        _s, fill = mem.load(0x1000, now=0)
        assert mem.load(0x2000, now=fill)[0] == S_MISS

    def test_pinned_set_conflict_blocks(self):
        mem = make_mem()
        mem.load(0x1000, now=0)
        status, retry = mem.load(0x1000 + 64 * 1024, now=1)
        assert status == S_BLOCKED
        assert retry == 18

    def test_ports_per_cycle(self):
        # the stages claim a port by counting _ports_used up to ports;
        # begin_cycle frees them all
        mem = make_mem(l1_ports=2)
        assert mem.ports == 2
        mem._ports_used = 2
        mem.begin_cycle()
        assert mem._ports_used == 0


class TestStores:
    def test_store_hit_marks_dirty_and_writes_back_on_eviction(self):
        mem = make_mem()
        mem.load(0x1000, now=0)              # bring line in (clean)
        mem.store(0x1008, now=20)            # dirty it
        before = mem.writebacks
        mem.load(0x1000 + 64 * 1024, now=30)  # evict the dirty victim
        assert mem.writebacks == before + 1

    def test_store_miss_allocates(self):
        mem = make_mem()
        status, done = mem.store(0x7000, now=0)
        assert status == S_MISS
        assert done == 18
        # write-allocate: the line is now present (and dirty)
        assert mem.load(0x7008, now=20)[0] == S_HIT

    def test_store_secondary_merges(self):
        mem = make_mem()
        mem.store(0x7000, now=0)
        status, _done = mem.store(0x7008, now=1)
        assert status == S_SECONDARY

    def test_writeback_consumes_bus(self):
        mem = make_mem()
        mem.store(0x7000, now=0)                # line dirty at fill
        busy_before = mem.bus.busy_cycles
        mem.load(0x7000 + 64 * 1024, now=30)    # evicts dirty line
        assert mem.bus.busy_cycles == busy_before + 2 + 2  # fill + wb


class TestStatsReset:
    def test_reset_clears_traffic_counters(self):
        mem = make_mem()
        mem.load(0x1000, now=0)
        mem.reset_stats()
        assert mem.fills == 0
        assert mem.writebacks == 0
        assert mem.bus_utilization(100) == 0.0

    def test_reset_clears_mshr_failures_with_the_window(self):
        # every reported counter must describe the same post-warm-up
        # window; a warmup-inclusive MSHR-full count next to a
        # warmup-excluded blocked count is a contradiction
        mem = make_mem(mshrs=1)
        mem.load(0x1000, now=0)
        assert mem.load(0x2000, now=0)[0] == 3  # S_BLOCKED
        assert mem.mshrs.alloc_failures == 1
        mem.reset_stats()
        assert mem.mshrs.alloc_failures == 0
        assert mem.blocked_requests == 0


class TestPinnedStreams:
    """A seeded 20,000-access stream per hierarchy shape, pinned by a
    sha256 over every ``(status, ready)`` return and the final
    :meth:`MemorySystem.fingerprint` — any change to the timing, the
    refusal order or a counter of the memory path moves a digest."""

    # (id, memory spec, n_threads, config overrides, digest); the presets
    # run two threads so partitioned levels and per-thread prefetch tables
    # see both tids (a shared classic L1 ignores tid: classic_4T == classic)
    CLASSIC = mem_preset("classic")
    # two outer levels with equal bounded MSHR files fill up together, so
    # the per-level failure counters show which blocked level a refusal
    # is charged to (the first one)
    L3_BOUNDED = MemSpec(
        name="l3_bounded",
        levels=(
            LevelSpec(name="L1"),
            LevelSpec(name="L2", capacity_bytes=64 * 1024, assoc=4,
                      hit_latency=12, mshrs=5, banks=4),
            LevelSpec(name="L3", capacity_bytes=1024 * 1024, assoc=8,
                      hit_latency=30, mshrs=5),
        ),
        memory_latency=50,
    )
    SHAPES = [
        ("classic", CLASSIC, 1, {},
         "1ffa26192bf89fabdb2032f3d0f06ec2eb99d7008d1c817cebf8dabb7a0f17f2"),
        ("mshrs=2", CLASSIC, 1, {"mshrs": 2},
         "3bab65885a9a69cf732d8ed05b664c3e83e14b9288d270ee13af6fd2f14b9095"),
        ("l2_latency=256", CLASSIC, 1, {"l2_latency": 256},
         "df18f889163fc8e77a7b4423ba18db641e102583a630e9179824b1f49a08a3f1"),
        ("bus_bytes_per_cycle=32", CLASSIC, 1, {"bus_bytes_per_cycle": 32},
         "381553340c5d0ee453f2fcd0e4166b04d5a88009a1a7c60bead4de4c4b387133"),
        ("l1_bytes=4K", CLASSIC, 1, {"l1_bytes": 4 * 1024},
         "d0a93d9f82279873a5cb0fa78fd7ecfd58c3fd6fb8a8942ddb1377c09e1ac917"),
        ("classic_4T", CLASSIC, 4, {},
         "1ffa26192bf89fabdb2032f3d0f06ec2eb99d7008d1c817cebf8dabb7a0f17f2"),
        ("l2_finite", mem_preset("l2_finite"), 2, {},
         "4805209c149be3a1d943f62836bfe97fe4239ba64e9bd63b60e5476961fb1167"),
        ("l2_small", mem_preset("l2_small"), 2, {},
         "0a0ebf12351a47dbe40f379da3d1d70642c5e4014e7b202f242a2a4c2bf7b29e"),
        ("l2_partitioned", mem_preset("l2_partitioned"), 2, {},
         "0891c5af45caa50b115a61626fef5ef40678fde8199a21bb4d23e49b72e91047"),
        ("nextline", mem_preset("nextline"), 2, {},
         "c429e6a0e59ff794e0c35a56362e84f06f7455f6d28d62a6b67b823ebf285374"),
        ("stream", mem_preset("stream"), 2, {},
         "d01f8e4a3857a73488291187ad75f7279021a078211e8751e6eec09a935f042f"),
        ("wide_bus", mem_preset("wide_bus"), 2, {},
         "381553340c5d0ee453f2fcd0e4166b04d5a88009a1a7c60bead4de4c4b387133"),
        ("split_l1_4T", CLASSIC.override("L1.shared", False), 4, {},
         "d590b51e7eeb905ce0cf737178f5a9c743875b45a30747e5d36ae17db87dc396"),
        ("l3_bounded", L3_BOUNDED, 2, {},
         "549215916145534cbe2971c9a83638e55a5702c8a4dec6a935e940f57ce55fa5"),
    ]

    @pytest.mark.parametrize(
        "spec,n_threads,cfg_kw,digest",
        [s[1:] for s in SHAPES], ids=[s[0] for s in SHAPES],
    )
    def test_stream_digest(self, spec, n_threads, cfg_kw, digest):
        cfg = MachineConfig(n_threads=n_threads, **cfg_kw)
        mem = MemorySystem(spec.resolve(cfg), n_threads=n_threads)
        rng = random.Random(1234)
        now = 0
        returns = []
        for i in range(20_000):
            now += rng.randrange(0, 3)
            if i % 512 == 0:
                mem.begin_cycle()
            # a few 64 KB regions, with some very hot lines mixed in
            addr = (rng.randrange(0, 4) << 26) | rng.randrange(0, 1 << 16)
            tid = rng.randrange(n_threads)
            if rng.random() < 0.3:
                returns.append(mem.store(addr, now, tid))
            else:
                returns.append(mem.load(addr, now, tid))
        blob = repr((returns, mem.fingerprint())).encode()
        assert hashlib.sha256(blob).hexdigest() == digest
