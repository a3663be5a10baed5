"""Differential tests: snapshot/restore vs unbroken execution.

The checkpoint subsystem's core claim is **bit-identity**: capture a
machine at the warm-up boundary (or anywhere in the measured region),
restore it — through a full serialize/deserialize round trip — and run to
completion, and you get exactly the statistics *and* exactly the final
machine state of a run that was never interrupted.  These tests gate that
claim the same way ``tests/test_fast_forward.py`` gates the idle-cycle
fast-forward: exact equality of ``SimStats.to_dict()`` plus the strictly
stronger ``MachineState.fingerprint()`` (queues, rename files, cache tag
arrays, MSHR occupancy, event heap, RNG cursors — everything).

Coverage deliberately includes shapes beyond the classic machine —
finite banked L2, a stream prefetcher, per-thread split L1 — whose
per-level state (tag/LRU/dirty lists, bank queues, prefetch tables) must
survive the pickle too.  A wrapped-accessor test pins the memory
system's own pickling contract: a profiler's instance-level
``load``/``store`` wrappers are dropped at capture, and the restored
machine still finishes exactly like a cold run.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.snapshot import (
    Snapshot,
    SnapshotError,
    capture_warmup,
    measure_group,
    run_tail,
)
from repro.engine.spec import RunSpec
from repro.memory.spec import mem_preset

# Small budgets: bit-identity holds cycle-for-cycle, so short runs test it
# as strictly as long ones while keeping tier-1 fast.
_BUDGET = dict(commits_per_thread=1000, warmup_per_thread=400, scale=1.0,
               seg_instrs=4000)


def run_cold(spec: RunSpec):
    """An unbroken run; returns ``(proc, stats)``."""
    proc, kw = spec.instantiate()
    return proc, proc.run(**kw)


def run_restored(spec: RunSpec):
    """Warm up, snapshot, serialize, restore into a *fresh* machine and
    run only the measured tail; returns ``(restored_proc, stats)``."""
    snap, _warm_proc = capture_warmup(spec)
    snap = Snapshot.from_bytes(snap.to_bytes())  # full round trip
    proc = snap.restore(spec)
    kw = spec.run_kwargs()
    kw["warmup_commits"] = 0
    return proc, proc.run(**kw)


def assert_bit_identical(spec: RunSpec):
    """The differential gate: cold vs snapshot-restored, exact equality
    of statistics, final cycle and complete machine fingerprint."""
    proc_cold, stats_cold = run_cold(spec)
    proc_rest, stats_rest = run_restored(spec)
    d_cold, d_rest = stats_cold.to_dict(), stats_rest.to_dict()
    diff = {
        k: (d_cold[k], d_rest[k]) for k in d_cold if d_cold[k] != d_rest[k]
    }
    assert not diff, f"restore diverged from cold on {spec.label()}: {diff}"
    assert proc_cold.cycle == proc_rest.cycle
    assert proc_cold.state.fingerprint() == proc_rest.state.fingerprint(), (
        f"final machine states diverged on {spec.label()}"
    )
    proc_rest.check_invariants()
    return proc_rest


class TestFigure3Grid:
    """Warm-up-boundary restore across the paper's Figure-3 cells."""

    @pytest.mark.parametrize("n_threads", [1, 2, 4])
    def test_bit_identical(self, n_threads):
        assert_bit_identical(
            RunSpec.multiprogrammed(n_threads, l2_latency=16, **_BUDGET)
        )

    def test_long_latency_idle_heavy(self):
        # fast-forward active in both halves of the comparison
        assert_bit_identical(
            RunSpec.single("su2cor", l2_latency=256, scale=1.0,
                           commits=3000, warmup=1000)
        )


class TestRandomizedConfigs:
    """Seeded-random machine configurations (the acceptance grid's
    randomized cells)."""

    @pytest.mark.parametrize("draw", [0, 1])
    def test_bit_identical(self, draw):
        rng = random.Random(0x20260807 + draw)
        spec = RunSpec.multiprogrammed(
            rng.choice([1, 2, 3]),
            l2_latency=rng.choice([32, 64, 128]),
            decoupled=rng.random() < 0.5,
            seed=rng.randrange(100),
            commits_per_thread=900,
            warmup_per_thread=300,
            scale=1.0,
            seg_instrs=4000,
            iq_size=rng.choice([16, 48, 96]),
            mshrs=rng.choice([4, 16, 32]),
            fetch_threads=rng.choice([1, 2]),
        )
        assert_bit_identical(spec)


class TestExoticShapes:
    """Shapes beyond the classic machine: their per-level state must
    survive the pickle byte-for-byte."""

    def test_finite_banked_l2(self):
        spec = RunSpec.multiprogrammed(
            2, l2_latency=64,
            mem=mem_preset("l2_small").override("L2.banks", 2), **_BUDGET,
        )
        assert_bit_identical(spec)

    def test_stream_prefetcher(self):
        spec = RunSpec.single(
            "su2cor", l2_latency=128, scale=1.0, commits=2500, warmup=800,
            mem=mem_preset("stream"),
        )
        proc = assert_bit_identical(spec)
        assert proc.mem.prefetch_fills > 0  # the prefetcher really ran

    def test_split_per_thread_l1(self):
        spec = RunSpec.multiprogrammed(
            2, l2_latency=64,
            mem=mem_preset("classic").override("L1.shared", False),
            **_BUDGET,
        )
        proc = assert_bit_identical(spec)
        assert len(proc.mem._l1s) == 2

    def test_prefetch_on_finite_l2(self):
        # the acceptance grid's combined prefetch + finite-L2 cell
        spec = RunSpec.multiprogrammed(
            2, l2_latency=64,
            mem=mem_preset("l2_small").override("prefetch_kind", "nextline"),
            **_BUDGET,
        )
        assert_bit_identical(spec)


class TestWrappedAccessors:
    """A profiler may shadow ``mem.load``/``store`` with instance-level
    wrappers (perfbench's tracer does).  Closures cannot cross a pickle,
    so ``MemorySystem.__getstate__`` drops them; the restored machine
    runs the class methods and must finish exactly like a cold run."""

    def test_capture_restore_with_wrapped_accessors(self):
        spec = RunSpec.multiprogrammed(2, l2_latency=64, **_BUDGET)
        proc_cold, stats_cold = run_cold(spec)
        proc, kw = spec.instantiate()
        calls = []

        def passthrough(method):
            def wrapper(addr, now, tid=0):
                calls.append(addr)
                return method(addr, now, tid)
            return wrapper

        proc.mem.load = passthrough(proc.mem.load)
        proc.mem.store = passthrough(proc.mem.store)
        proc.run(max_commits=kw["warmup_commits"], max_cycles=None)
        proc.reset_stats()
        assert calls  # the warm-up really ran through the wrappers
        snap = Snapshot.capture(proc, spec=spec)
        restored = Snapshot.from_bytes(snap.to_bytes()).restore(spec)
        assert "load" not in vars(restored.mem)
        kw["warmup_commits"] = 0
        stats = restored.run(**kw)
        assert stats.to_dict() == stats_cold.to_dict()
        assert restored.state.fingerprint() == proc_cold.state.fingerprint()


class TestMidRegionCapture:
    """Capture is legal anywhere, not just the warm-up boundary — and is
    non-destructive: the captured machine keeps running and must agree
    with its own restored twin to the last counter."""

    def test_capture_mid_measured_region(self):
        spec = RunSpec.multiprogrammed(2, l2_latency=32, **_BUDGET)
        proc, kw = spec.instantiate()
        proc.run(max_commits=kw["warmup_commits"], max_cycles=None)
        proc.reset_stats()
        half = kw["max_commits"] // 2
        proc.run(max_commits=half, warmup_commits=0,
                 max_cycles=kw["max_cycles"])
        snap = Snapshot.capture(proc, spec=spec)
        # the original machine continues past the capture point...
        rest_commits = kw["max_commits"] - proc.stats.committed
        stats_a = proc.run(max_commits=rest_commits, warmup_commits=0,
                           max_cycles=kw["max_cycles"])
        # ...and its restored twin runs the identical remainder
        twin = Snapshot.from_bytes(snap.to_bytes()).restore(spec)
        stats_b = twin.run(max_commits=rest_commits, warmup_commits=0,
                           max_cycles=kw["max_cycles"])
        assert stats_a.to_dict() == stats_b.to_dict()
        assert proc.state.fingerprint() == twin.state.fingerprint()

    def test_capture_lands_mid_stall_window(self):
        """A ``max_cycles`` stop can truncate an event-horizon jump,
        parking the machine inside a memory-stall window; capture there
        must still restore bit-identically (the ff diagnostics travel
        inside the pickled ``SimStats``)."""
        spec = RunSpec.multiprogrammed(
            2, l2_latency=256, commits_per_thread=800,
            warmup_per_thread=200, scale=1.0, seg_instrs=4000,
        )
        proc, kw = spec.instantiate()
        proc.run(max_commits=kw["warmup_commits"], max_cycles=None)
        proc.reset_stats()
        # a tight cycle budget at latency 256 stops between events, not
        # at a commit boundary — the adversarial capture point
        proc.run(max_commits=kw["max_commits"], warmup_commits=0,
                 max_cycles=700)
        assert proc.stats.ff_cycles_skipped > 0
        snap = Snapshot.capture(proc, spec=spec)
        rest = kw["max_commits"] - proc.stats.committed
        stats_a = proc.run(max_commits=rest, warmup_commits=0,
                           max_cycles=kw["max_cycles"])
        twin = Snapshot.from_bytes(snap.to_bytes()).restore(spec)
        stats_b = twin.run(max_commits=rest, warmup_commits=0,
                           max_cycles=kw["max_cycles"])
        assert stats_a.to_dict() == stats_b.to_dict()
        assert proc.state.fingerprint() == twin.state.fingerprint()


def fork_sibling(commits: int, n_threads: int = 2, **kw) -> RunSpec:
    return RunSpec.multiprogrammed(
        n_threads, l2_latency=64, commits_per_thread=commits,
        warmup_per_thread=400, scale=1.0, seg_instrs=4000, **kw,
    )


#: warm-up groups of the forked-sweep suites (here and in
#: ``test_engine.py``): name -> members in submission order
FORK_GROUPS = {
    # 1600 and 1602 commits: one cycle's commits pass both budgets
    "one_commit_apart": [fork_sibling(800), fork_sibling(801)],
    # _scaled's 500-commit floor resolves both to one budget
    "floor_collapse": [fork_sibling(c, seed=1) for c in (100, 400)],
    "four_threads": [fork_sibling(c, n_threads=4) for c in (1200, 800, 1000)],
    "non_decoupled": [fork_sibling(c, decoupled=False) for c in (1000, 800, 1200)],
}


class TestForkedSiblings:
    """One warm-up snapshot fans out to cells with different measured
    budgets; every tail must equal its own cold run."""

    def _spec(self, commits):
        return fork_sibling(commits)

    def test_shared_warmup_key(self):
        a, b = self._spec(800), self._spec(1600)
        assert a.warmup_key() == b.warmup_key()
        assert a.key() != b.key()

    def test_tails_equal_cold(self):
        base = self._spec(800)
        snap, _ = capture_warmup(base)
        snap = Snapshot.from_bytes(snap.to_bytes())
        sibs = [self._spec(commits) for commits in (800, 1200, 1600)]
        for sib, stats in zip(sibs, run_tail(sibs, snap)):
            assert stats.to_dict() == sib.execute().to_dict()

    def test_group_shapes_hold_what_they_pin(self):
        keys = [{s.warmup_key() for s in m} for m in FORK_GROUPS.values()]
        assert all(len(k) == 1 for k in keys)
        assert len(set.union(*keys)) == len(FORK_GROUPS)
        specs = [s for members in FORK_GROUPS.values() for s in members]
        assert len(set(specs)) == len(specs)
        a, b = FORK_GROUPS["one_commit_apart"]
        assert b.budgets()[0] - a.budgets()[0] == 2
        assert run_cold(a)[1].cycles == run_cold(b)[1].cycles
        a, b = FORK_GROUPS["floor_collapse"]
        assert a.budgets() == b.budgets()

    @pytest.mark.parametrize("name", list(FORK_GROUPS))
    def test_group_shapes_restore_to_each_cold_run(self, name):
        members = FORK_GROUPS[name]
        snap, _ = capture_warmup(members[0])
        snap = Snapshot.from_bytes(snap.to_bytes())
        for spec in members:
            proc_cold, stats_cold = run_cold(spec)
            proc = snap.restore(spec)
            kw = spec.run_kwargs()
            kw["warmup_commits"] = 0
            assert proc.run(**kw).to_dict() == stats_cold.to_dict()
            assert proc.state.fingerprint() == proc_cold.state.fingerprint()

    @pytest.mark.parametrize("name", list(FORK_GROUPS))
    def test_one_restore_measures_every_member(self, name):
        members = FORK_GROUPS[name]
        snap, _ = capture_warmup(members[0])
        proc = Snapshot.from_bytes(snap.to_bytes()).restore(members[0])
        results = measure_group(proc, members)
        colds = [run_cold(spec) for spec in members]
        assert len({id(stats) for stats in results}) == len(members)
        for stats, (_, stats_cold) in zip(results, colds):
            assert stats.to_dict() == stats_cold.to_dict()
        # the machine stops where the largest member's cold run stopped
        largest = max(colds, key=lambda c: c[1].committed)[0]
        assert proc.state.fingerprint() == largest.state.fingerprint()
        proc.check_invariants()

    def test_a_group_shares_one_warmup_boundary(self):
        snap, proc = capture_warmup(self._spec(800))
        with pytest.raises(ValueError, match="warm-up boundary"):
            measure_group(proc, [self._spec(800), fork_sibling(800, seed=1)])


class TestMultiBudgetRun:
    """``Processor.run`` through several budgets equals one run per
    budget, whichever stop ends each: its commit budget, the cycle limit
    set when the region starts, or a finite program's drain."""

    def _compare(self, build, budgets, **kw):
        together = build().run(max_commits=list(budgets), **kw)
        for budget, stats in zip(budgets, together):
            alone = build().run(max_commits=budget, **kw)
            assert stats.to_dict() == alone.to_dict()
        return together

    @pytest.mark.parametrize("fast_forward", [True, False])
    def test_cycle_limit_stops_the_larger_budgets(self, fast_forward):
        spec = fork_sibling(800, n_threads=2)
        warm = spec.run_kwargs()["warmup_commits"]
        together = self._compare(
            lambda: spec.instantiate()[0], (2000, 900, 60_000, 2000),
            max_cycles=1500, warmup_commits=warm, fast_forward=fast_forward,
        )
        assert together[2].cycles == 1500 > together[1].cycles
        assert together[0] is not together[3]

    def test_finite_program_drains_before_the_larger_budgets(self):
        from conftest import ProgramBuilder

        from repro.core.config import MachineConfig
        from repro.core.processor import Processor

        b = ProgramBuilder()
        for i in range(60):
            b.load_f(dest=40 + i % 8, addr=0x2000 + 64 * i)
            b.falu(dest=48 + i % 8, srcs=(40 + i % 8,))
        trace = b.trace()
        cfg = MachineConfig(n_threads=2)
        together = self._compare(
            lambda: Processor(cfg, [[trace]] * 2, wrap=False),
            (50, 100_000, 150), max_cycles=100_000,
        )
        assert together[1].committed == 2 * len(trace)


class TestSnapshotFormat:
    """Serialization format, validation and refusal paths."""

    def _snap(self):
        spec = RunSpec.multiprogrammed(1, l2_latency=16, **_BUDGET)
        return spec, capture_warmup(spec)[0]

    def test_meta_fields(self):
        spec, snap = self._snap()
        assert snap.meta["spec_key"] == spec.key()
        assert snap.meta["warmup_key"] == spec.warmup_key()
        assert snap.meta["cycle"] > 0
        assert snap.meta["total_committed"] > 0

    def test_roundtrip_preserves_meta_and_payload(self):
        _, snap = self._snap()
        back = Snapshot.from_bytes(snap.to_bytes())
        assert back.meta == snap.meta
        assert back.payload == snap.payload

    def test_bad_magic_rejected(self):
        with pytest.raises(SnapshotError, match="magic"):
            Snapshot.from_bytes(b"not a snapshot at all")

    def test_corrupt_header_rejected(self):
        with pytest.raises(SnapshotError, match="corrupt"):
            Snapshot.from_bytes(b"repro-snap\n{never closed")

    def test_stale_format_rejected(self):
        _, snap = self._snap()
        snap.meta["format"] = 999
        with pytest.raises(SnapshotError, match="format"):
            Snapshot.from_bytes(snap.to_bytes())

    def test_stale_spec_version_rejected(self):
        _, snap = self._snap()
        snap.meta["spec_version"] = 1
        with pytest.raises(SnapshotError, match="spec_version"):
            Snapshot.from_bytes(snap.to_bytes())

    def test_mismatched_warmup_key_refused(self):
        spec, snap = self._snap()
        other = RunSpec.multiprogrammed(2, l2_latency=16, **_BUDGET)
        assert other.warmup_key() != spec.warmup_key()
        with pytest.raises(SnapshotError, match="warmup_key"):
            snap.restore(other)
