"""The declarative memory hierarchy (`repro.memory.spec` + facade).

Covers the PR-5 tentpole contracts:

* ``MemSpec`` identity: JSON round-trips, AUTO resolution against the
  machine scalars, geometry normalization (one characterization walk per
  latency sweep), preset/override ergonomics with did-you-mean errors.
* The composed facade reproduces the seed-era hardwired machine exactly:
  a reference implementation of the pre-refactor arithmetic is driven
  over random request streams and must agree call-for-call.
* Dirty-victim write-backs are conserved against a shadow model.
* Finite-L2 timing, thread-partitioned levels, prefetch accounting and
  the fast-forward eligibility gate for tick-driven prefetchers.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.config import MachineConfig
from repro.engine.spec import RunSpec
from repro.memory.hierarchy import (
    S_BLOCKED,
    S_HIT,
    S_MISS,
    S_SECONDARY,
    MemorySystem,
)
from repro.memory.spec import (
    InterconnectSpec,
    LevelSpec,
    MemSpec,
    PrefetchSpec,
    load_memspec,
    mem_preset,
)

KB = 1024


def resolved(mem: MemSpec | None = None, **scalars) -> MemSpec:
    cfg = MachineConfig(mem=mem, **scalars)
    return cfg.memory()


# ---------------------------------------------------------------- spec layer


class TestResolution:
    def test_default_spec_resolves_to_classic_scalars(self):
        ms = resolved()
        l1, l2 = ms.levels
        assert l1.capacity_bytes == 64 * KB
        assert l1.hit_latency == 1
        assert l1.mshrs == 16
        assert l1.ports == 4
        assert l2.capacity_bytes is None          # infinite L2
        assert l2.hit_latency == 16
        assert l2.mshrs is None
        assert ms.interconnect.bytes_per_cycle == 16
        assert ms.resolved

    def test_auto_tracks_overridden_scalars(self):
        ms = resolved(l2_latency=64, mshrs=32, bus_bytes_per_cycle=8)
        assert ms.levels[1].hit_latency == 64
        assert ms.levels[0].mshrs == 32
        assert ms.interconnect.bytes_per_cycle == 8

    def test_custom_spec_inherits_through_auto(self):
        mem = mem_preset("l2_finite")
        ms = resolved(mem, l2_latency=128)
        assert ms.levels[1].capacity_bytes == 1024 * KB
        assert ms.levels[1].hit_latency == 128    # AUTO -> sweep axis alive
        assert ms.memory_latency == 4 * 128       # AUTO -> 4x last level

    def test_resolve_is_idempotent(self):
        cfg = MachineConfig()
        ms = cfg.memory()
        assert ms.resolve(cfg) == ms

    def test_explicit_fields_win_over_scalars(self):
        mem = MemSpec(levels=(
            LevelSpec(name="L1", capacity_bytes=8 * KB, hit_latency=2),
            LevelSpec(name="L2"),
        ))
        ms = resolved(mem)
        assert ms.levels[0].capacity_bytes == 8 * KB
        assert ms.levels[0].hit_latency == 2


class TestValidation:
    def test_infinite_l1_rejected(self):
        with pytest.raises(ValueError, match="cannot be infinite"):
            MemSpec(levels=(LevelSpec(name="L1", capacity_bytes=None),))

    def test_associative_l1_rejected(self):
        with pytest.raises(ValueError, match="direct-mapped"):
            MemSpec(levels=(LevelSpec(name="L1", assoc=2),))

    def test_duplicate_level_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            MemSpec(levels=(LevelSpec(name="L1"), LevelSpec(name="L1")))

    def test_unknown_level_field_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'assoc'"):
            LevelSpec.from_dict({"name": "L2", "asoc": 2})

    def test_unknown_bus_policy_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'fifo'"):
            InterconnectSpec(policy="fifi")

    def test_unknown_prefetch_kind_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'nextline'"):
            PrefetchSpec(kind="nexline")

    def test_unresolved_spec_rejected_by_facade(self):
        with pytest.raises(ValueError, match="resolved"):
            MemorySystem(MemSpec())

    def test_fractional_set_count_fails_at_resolve(self):
        # 128 B at 8 ways x 32 B lines is half a set; CacheLevel would
        # silently round it up to a whole (256 B!) set
        mem = MemSpec(levels=(
            LevelSpec(name="L1"),
            LevelSpec(name="L2", capacity_bytes=128, assoc=8),
        ))
        with pytest.raises(ValueError, match="whole sets"):
            MachineConfig(mem=mem).memory()

    def test_cache_level_rejects_rounded_capacity(self):
        from repro.memory.levels import CacheLevel

        with pytest.raises(ValueError, match="silently rounded"):
            CacheLevel(1000, line_bytes=32, assoc=2)

    def test_unpartitionable_capacity_fails_at_resolve(self):
        # 64K across 12 threads is not a power-of-two-sets line-multiple
        # slice; must fail with one actionable message, not a traceback
        # from deep inside machine construction
        mem = MemSpec(levels=(
            LevelSpec(name="L1", shared=False), LevelSpec(name="L2"),
        ))
        with pytest.raises(ValueError, match="partitioned across 12"):
            MachineConfig(n_threads=12, mem=mem).memory()
        # a clean power-of-two split resolves fine
        assert MachineConfig(n_threads=4, mem=mem).memory().resolved


class TestIdentity:
    def test_json_round_trip(self):
        for name in ("classic", "l2_finite", "l2_partitioned", "stream",
                     "wide_bus"):
            ms = mem_preset(name)
            again = MemSpec.from_dict(json.loads(json.dumps(ms.to_dict())))
            assert again == ms
            assert again.key() == ms.key()

    def test_resolved_round_trip(self):
        ms = resolved(mem_preset("l2_finite"), l2_latency=64)
        assert MemSpec.from_dict(ms.to_dict()) == ms

    def test_geometry_is_latency_invariant(self):
        a = resolved(mem_preset("l2_finite"), l2_latency=16)
        b = resolved(mem_preset("l2_finite"), l2_latency=256,
                     bus_bytes_per_cycle=4, mshrs=64)
        assert a != b
        assert a.geometry() == b.geometry()

    def test_geometry_ignores_override_names(self):
        # override() renames the spec per axis value; a *timing-only*
        # axis must still share one characterization walk
        a = resolved(MemSpec().override("bus_bytes_per_cycle", 8))
        b = resolved(MemSpec().override("bus_bytes_per_cycle", 32))
        assert a != b
        assert a.geometry() == b.geometry()

    def test_geometry_sees_capacity(self):
        a = resolved(mem_preset("l2_finite"))
        b = resolved(mem_preset("l2_small"))
        assert a.geometry() != b.geometry()

    def test_unknown_preset_suggests(self):
        with pytest.raises(KeyError, match="did you mean 'l2_finite'"):
            mem_preset("l2finite")

    def test_load_from_json_file(self, tmp_path):
        path = tmp_path / "mem.json"
        path.write_text(json.dumps({
            "name": "filemem",
            "levels": [
                {"name": "L1"},
                {"name": "L2", "capacity_bytes": 512 * KB, "assoc": 4},
            ],
            "prefetch": {"kind": "nextline", "degree": 2},
        }))
        ms = load_memspec(path)
        assert ms.name == "filemem"
        assert ms.levels[1].assoc == 4
        assert ms.prefetch.degree == 2


class TestOverride:
    def test_flat_field(self):
        ms = MemSpec().override("prefetch_degree", 3)
        assert ms.prefetch.degree == 3
        assert "prefetch_degree=3" in ms.name

    def test_level_field(self):
        ms = mem_preset("l2_finite").override("L2.capacity_bytes", 256 * KB)
        assert ms.levels[1].capacity_bytes == 256 * KB

    def test_unknown_flat_field_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'prefetch_kind'"):
            MemSpec().override("prefetchkind", "stream")

    def test_unknown_level_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'L2'"):
            MemSpec().override("L22.assoc", 2)

    def test_unknown_level_lists_levels(self):
        with pytest.raises(ValueError, match="levels: L1, L2"):
            MemSpec().override("L3.assoc", 2)

    def test_unknown_level_field_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'capacity_bytes'"):
            MemSpec().override("L2.capacity", 1)


class TestRunSpecIntegration:
    def test_mem_round_trips_through_dict(self):
        spec = RunSpec.multiprogrammed(2, mem=mem_preset("l2_finite"))
        again = RunSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.key() == spec.key()

    def test_mem_changes_cache_key(self):
        a = RunSpec.multiprogrammed(2)
        b = RunSpec.multiprogrammed(2, mem=mem_preset("l2_finite"))
        assert a.key() != b.key()
        assert "mem=l2_finite" in b.label()

    def test_machine_config_carries_mem(self):
        spec = RunSpec.multiprogrammed(2, mem=mem_preset("l2_finite"),
                                       l2_latency=64)
        ms = spec.machine_config().memory()
        assert ms.levels[1].capacity_bytes == 1024 * KB
        assert ms.levels[1].hit_latency == 64


# ------------------------------------------------- seed-reference differential


class _SeedReference:
    """The pre-refactor ``MemorySystem`` arithmetic, reimplemented
    standalone (dict tag store, eager bus, heap-free MSHR accounting) as
    the oracle for the composed facade's default configuration."""

    def __init__(self, l1_bytes=64 * KB, line_bytes=32, mshrs=16,
                 l2_latency=16, bus_bytes_per_cycle=16, hit_latency=1):
        self.n_sets = l1_bytes // line_bytes
        self.shift = line_bytes.bit_length() - 1
        self.tags: dict[int, int] = {}
        self.dirty: dict[int, bool] = {}
        self.pending: dict[int, int] = {}
        self.mshr_count = mshrs
        self.mshr_releases: list[int] = []
        self.l2_latency = l2_latency
        self.cycles_per_line = max(1, -(-line_bytes // bus_bytes_per_cycle))
        self.bus_free = 0
        self.hit_latency = hit_latency
        self.fills = 0
        self.writebacks = 0

    def _mshr_free(self, now):
        self.mshr_releases = [r for r in self.mshr_releases if r > now]
        return len(self.mshr_releases) < self.mshr_count

    def _bus(self, earliest):
        start = max(earliest, self.bus_free)
        self.bus_free = start + self.cycles_per_line
        return self.bus_free

    def access(self, addr, now, is_store):
        line = addr >> self.shift
        idx = line % self.n_sets
        pend = self.pending.get(idx, 0)
        if self.tags.get(idx) == line:
            if pend > now:
                if is_store:
                    self.dirty[idx] = True
                return S_SECONDARY, pend
            if is_store:
                self.dirty[idx] = True
            return S_HIT, now + self.hit_latency
        if pend > now:
            return S_BLOCKED, pend
        if not self._mshr_free(now):
            return S_BLOCKED, 0
        fill = self._bus(now + self.l2_latency)
        self.mshr_releases.append(fill)
        victim_dirty = idx in self.tags and self.dirty.get(idx, False)
        self.tags[idx] = line
        self.dirty[idx] = is_store
        self.pending[idx] = fill
        if victim_dirty:
            self._bus(now)
            self.writebacks += 1
        self.fills += 1
        return S_MISS, fill


class TestDefaultBitIdentity:
    """The composed facade with the default MemSpec must agree with the
    seed arithmetic on every call of a random request stream."""

    @pytest.mark.parametrize("draw", [0, 1, 2])
    def test_random_streams(self, draw):
        rng = random.Random(0xC0FFEE + draw)
        kw = dict(
            l1_bytes=rng.choice([4 * KB, 64 * KB]),
            mshrs=rng.choice([2, 4, 16]),
            l2_latency=rng.choice([4, 16, 100]),
            bus_bytes_per_cycle=rng.choice([8, 16, 32]),
        )
        mem = MemorySystem.classic(**kw)
        ref = _SeedReference(**kw)
        now = 0
        # a small address pool makes hits/secondaries/conflicts all common
        pool = [rng.randrange(0, 1 << 18) for _ in range(64)]
        for _ in range(3000):
            now += rng.randrange(0, 3)
            addr = rng.choice(pool)
            is_store = rng.random() < 0.3
            got = (mem.store if is_store else mem.load)(addr, now)
            want = ref.access(addr, now, is_store)
            assert got == want, (kw, addr, now, is_store)
        assert mem.fills == ref.fills
        assert mem.writebacks == ref.writebacks
        assert mem.bus.free_at == ref.bus_free


class TestWritebackConservation:
    """Property: write-backs == evictions of valid victims minus clean
    evictions (every dirty victim, and only dirty victims, go out)."""

    def test_random_stream_against_shadow(self):
        rng = random.Random(0xD1127)
        mem = MemorySystem.classic(l1_bytes=2 * KB, l2_latency=4)
        shadow: dict[int, bool] = {}   # set index -> resident line is dirty
        n_sets = mem.l1.n_sets
        valid_evictions = 0
        clean_evictions = 0
        installs = 0
        now = 0
        for _ in range(5000):
            now += 1
            addr = rng.randrange(0, 1 << 16)
            is_store = rng.random() < 0.4
            status, _when = (mem.store if is_store else mem.load)(addr, now)
            idx = (addr >> 5) % n_sets
            if status == S_MISS:
                installs += 1
                if idx in shadow:
                    valid_evictions += 1
                    if not shadow[idx]:
                        clean_evictions += 1
                shadow[idx] = is_store
            elif status in (S_HIT, S_SECONDARY) and is_store:
                shadow[idx] = True
        assert installs == mem.fills
        assert mem.writebacks == valid_evictions - clean_evictions
        assert mem.writebacks > 0           # the stream really was dirty


# ---------------------------------------------------------- finite outer level


def _finite_mem(**kw) -> MemorySystem:
    """32-byte (1-set) L1 over a 2-line finite L2, fully explicit."""
    spec = MemSpec(
        name="tiny",
        levels=(
            LevelSpec(name="L1", capacity_bytes=32, hit_latency=1,
                      mshrs=16, ports=4),
            LevelSpec(name="L2", capacity_bytes=64, assoc=2,
                      hit_latency=10, mshrs=None),
        ),
        interconnect=InterconnectSpec(bytes_per_cycle=16),
        memory_latency=100,
        **kw,
    )
    cfg = MachineConfig()
    return MemorySystem(spec.resolve(cfg), n_threads=1, line_bytes=32)


class TestFiniteL2:
    def test_l2_miss_pays_memory_latency(self):
        mem = _finite_mem()
        status, ready = mem.load(0x0, now=0)
        assert status == S_MISS
        # L2 lookup (10) + memory (100) + bus transfer (2)
        assert ready == 112
        assert mem.level_stats()["L2"] == {
            "hits": 0, "misses": 1, "writebacks": 0, "mshr_failures": 0,
        }

    def test_l2_hit_after_l1_eviction(self):
        mem = _finite_mem()
        mem.load(0x0, now=0)         # line 0 -> L1 + L2
        mem.load(0x20, now=200)      # line 1 evicts line 0 from the L1
        status, ready = mem.load(0x0, now=400)
        assert status == S_MISS      # L1 miss...
        assert ready == 400 + 10 + 2  # ...but served by the L2, no memory
        assert mem.level_stats()["L2"]["hits"] == 1

    def test_l2_lru_eviction_forgets(self):
        mem = _finite_mem()
        mem.load(0x0, now=0)         # L2 set 0 way 1   (lines 0,2 -> set 0)
        mem.load(0x40, now=200)      # line 2, same L2 set
        mem.load(0x80, now=400)      # line 4, same L2 set: evicts line 0
        status, ready = mem.load(0x0, now=600)
        assert status == S_MISS
        assert ready == 600 + 110 + 2  # back to memory
        assert mem.level_stats()["L2"]["misses"] == 4

    def test_dirty_l1_victim_lands_in_l2(self):
        mem = _finite_mem()
        mem.store(0x0, now=0)        # line 0 dirty in L1
        mem.load(0x20, now=200)      # evicts it -> write-back + L2 install
        assert mem.writebacks == 1
        status, _ready = mem.load(0x0, now=400)
        assert status == S_MISS
        assert mem.level_stats()["L2"]["hits"] == 1  # victim was cached

    def test_banked_level_serializes(self):
        spec = MemSpec(
            name="banked",
            levels=(
                LevelSpec(name="L1", capacity_bytes=64, hit_latency=1,
                          mshrs=16, ports=4),
                LevelSpec(name="L2", capacity_bytes=None, hit_latency=10,
                          mshrs=None, banks=1),
            ),
            interconnect=InterconnectSpec(bytes_per_cycle=32),
            memory_latency=100,
        )
        mem = MemorySystem(spec.resolve(MachineConfig()), line_bytes=32)
        s1, r1 = mem.load(0x000, now=0)   # L1 set 0
        s2, r2 = mem.load(0x420, now=0)   # L1 set 1, same (single) L2 bank
        assert (s1, s2) == (S_MISS, S_MISS)
        assert r2 == r1 + 1               # one access per bank per cycle

    def test_outer_mshr_exhaustion_blocks(self):
        spec = MemSpec(
            name="l2mshr",
            levels=(
                LevelSpec(name="L1", capacity_bytes=32 * KB, hit_latency=1,
                          mshrs=16, ports=4),
                LevelSpec(name="L2", capacity_bytes=64, assoc=2,
                          hit_latency=10, mshrs=1),
            ),
            interconnect=InterconnectSpec(bytes_per_cycle=16),
            memory_latency=100,
        )
        mem = MemorySystem(spec.resolve(MachineConfig()), line_bytes=32)
        assert mem.load(0x0000, now=0)[0] == S_MISS   # occupies the L2 MSHR
        status, _ = mem.load(0x1000, now=0)
        assert status == S_BLOCKED                    # L2 MSHR full
        assert mem.blocked_requests == 1
        assert mem.load(0x1000, now=200)[0] == S_MISS  # released by then


class TestPartitionedLevels:
    def test_partitioned_l1_slices_are_private(self):
        mem = MemorySystem(
            MemSpec(
                name="split-l1",
                levels=(
                    LevelSpec(name="L1", capacity_bytes=4 * KB,
                              shared=False),
                    LevelSpec(name="L2"),
                ),
            ).resolve(MachineConfig(n_threads=2)),
            n_threads=2,
        )
        assert mem.load(0x1000, now=0, tid=0)[0] == S_MISS
        # thread 1's slice is cold for the same address
        assert mem.load(0x1000, now=100, tid=1)[0] == S_MISS
        assert mem.load(0x1000, now=200, tid=0)[0] == S_HIT
        # both cold-slice fills walked to the (infinite, shared) L2
        assert mem.level_stats()["L2"]["hits"] == 2


# -------------------------------------------------------------------- prefetch


def _prefetch_mem(kind: str, degree: int = 1, **kw) -> MemorySystem:
    spec = MemSpec(
        name=f"pf-{kind}",
        prefetch=PrefetchSpec(kind=kind, degree=degree),
        **kw,
    )
    cfg = MachineConfig()
    return MemorySystem(spec.resolve(cfg), line_bytes=32)


class TestPrefetch:
    def test_nextline_covers_sequential_stream(self):
        mem = _prefetch_mem("nextline")
        assert mem.load(0x1000, now=0)[0] == S_MISS
        assert mem.prefetch_fills == 1                  # line+1 in flight
        status, ready = mem.load(0x1020, now=2)
        assert status == S_SECONDARY                    # merged into prefetch
        assert mem.prefetch_hits == 1
        # the prefetch transfer queued behind the demand fill on the bus
        assert ready > mem.hit_latency + 2

    def test_prefetched_line_hit_counts_once(self):
        mem = _prefetch_mem("nextline")
        mem.load(0x1000, now=0)
        mem.load(0x1020, now=100)   # resident by now: a prefetched HIT
        mem.load(0x1028, now=101)   # same line again: normal hit
        assert mem.prefetch_hits == 1

    def test_stream_needs_an_ascending_run(self):
        mem = _prefetch_mem("stream", degree=2)
        mem.load(0x1000, now=0)     # isolated miss: no prefetch yet
        assert mem.prefetch_fills == 0
        mem.load(0x1020, now=1)     # line+1 misses -> ascending run
        assert mem.prefetch_fills == 2                  # two lines ahead
        assert mem.load(0x1040, now=200)[0] == S_HIT    # covered

    def test_random_misses_trigger_no_stream_prefetch(self):
        mem = _prefetch_mem("stream")
        mem.load(0x1000, now=0)
        mem.load(0x9000, now=1)
        mem.load(0x4000, now=2)
        assert mem.prefetch_fills == 0

    def test_warmup_prefetch_flags_cleared_by_stats_reset(self):
        # a warm-up prefetch must not pair a measured hit with an
        # unmeasured fill (coverage would exceed 100%)
        mem = _prefetch_mem("nextline")
        mem.load(0x1000, now=0)            # prefetches the next line
        mem.reset_stats()                  # the warm-up boundary
        mem.load(0x1020, now=100)          # demand-touches that line
        assert mem.prefetch_fills == 0
        assert mem.prefetch_hits == 0

    def test_prefetch_dropped_on_pinned_set(self):
        mem = _prefetch_mem("nextline")
        mem.load(0x0, now=0)             # line 0 pins set 0 until its fill
        # line 2047 misses; its next line (2048) maps back onto pinned
        # set 0 with a different tag -> structurally refused = dropped
        mem.load(64 * KB - 32, now=1)
        assert mem.prefetch_dropped == 1

    def test_prefetch_dropped_when_mshrs_full(self):
        mem = _prefetch_mem("nextline", degree=1)
        mem.mshrs.count = 1         # the demand miss takes the only MSHR
        mem.load(0x1000, now=0)
        assert mem.prefetch_fills == 0
        assert mem.prefetch_dropped == 1

    def test_prefetch_consumes_bus_bandwidth(self):
        plain = MemorySystem.classic()
        pf = _prefetch_mem("nextline", degree=2)
        plain.load(0x1000, now=0)
        pf.load(0x1000, now=0)
        assert pf.bus.busy_cycles == 3 * plain.bus.busy_cycles


# -------------------------------------------------------- analytic integration


class TestAnalyticHierarchy:
    def test_walk_sees_finite_l2_miss_stream(self):
        from repro.model.charwalk import characterize

        spec = RunSpec.multiprogrammed(
            2, l2_latency=64, mem=mem_preset("l2_small"),
            commits_per_thread=2000, warmup_per_thread=500, scale=1.0,
        )
        char = characterize(spec, spec.machine_config())
        assert len(char.outer_misses) == 1
        assert char.outer_misses[0] > 0          # the L2 really is finite
        assert char.outer_hits[0] > 0

    def test_characterization_shared_across_latencies(self):
        from repro.model.charwalk import character_key

        a = RunSpec.multiprogrammed(2, l2_latency=16,
                                    mem=mem_preset("l2_finite"), scale=1.0)
        b = RunSpec.multiprogrammed(2, l2_latency=256,
                                    mem=mem_preset("l2_finite"), scale=1.0,
                                    bus_bytes_per_cycle=4)
        assert character_key(a, a.machine_config()) == \
            character_key(b, b.machine_config())

    def test_analytic_models_finite_l2_not_ignores_it(self):
        classic = RunSpec.multiprogrammed(
            4, l2_latency=64, backend="analytic",
            commits_per_thread=3000, warmup_per_thread=800, scale=1.0,
        )
        finite = RunSpec.multiprogrammed(
            4, l2_latency=64, backend="analytic",
            mem=mem_preset("l2_small"),
            commits_per_thread=3000, warmup_per_thread=800, scale=1.0,
        )
        s_classic = classic.execute()
        s_finite = finite.execute()
        # a small shared L2 must cost IPC in the model, not be a no-op
        assert s_finite.ipc < s_classic.ipc * 0.9
        assert s_finite.level_stats["L2"]["misses"] > 0

    def test_analytic_sees_prefetch_traffic(self):
        spec = RunSpec.from_workload(
            __import__("repro.workloads.spec", fromlist=["workload_preset"])
            .workload_preset("stream4"),
            l2_latency=64, backend="analytic", mem=mem_preset("stream"),
            commits=2000, warmup=500, scale=1.0,
        )
        stats = spec.execute()
        assert stats.prefetch_fills > 0

    def test_auto_in_geometry_never_reaches_the_walk(self):
        # geometry() of a resolved spec must itself be fully resolved
        geo = resolved(mem_preset("l2_finite")).geometry()
        assert geo.resolved
