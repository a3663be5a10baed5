"""Shared-cache-dir hardening: defects that only bite under concurrency.

A cache directory stops being private the moment two engines point at it
— CI jobs sharing a warm cache, the job server's worker pool, or two
users on one machine.  This suite pins the behaviours that make that
safe: entry permissions honor the umask instead of ``mkstemp``'s 0600
(a root-owned 0600 entry reads as permission-denied, i.e. an eternal
miss, for everyone else); orphaned ``*.tmp`` files from killed writers
get swept; racing ``put``/``get``/``put_snapshot`` calls never observe a
torn entry; a forked group whose ``.snap`` file is concurrently
rewritten or removed, truncated, corrupt or foreign re-warms and
replaces the file instead of killing the whole sweep; and a pool worker
killed mid-sweep fails the map promptly while every result that landed
first stays in the cache.
"""

from __future__ import annotations

import os
import signal
import stat
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.engine import Engine, ResultCache, RunSpec, Sweep
from repro.engine.cache import ORPHAN_TMP_AGE_S


@pytest.fixture(autouse=True)
def fast_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.08")


def tiny_spec(**kw):
    """A cycle-backend spec cheap enough to execute inside a unit test."""
    base = dict(
        n_threads=1, l2_latency=16, seed=0,
        commits_per_thread=1500, warmup_per_thread=500, seg_instrs=3000,
    )
    base.update(kw)
    return RunSpec.multiprogrammed(**base)


def fast_spec(**kw):
    """An analytic-backend spec (milliseconds per run) for tight races."""
    kw.setdefault("backend", "analytic")
    return tiny_spec(**kw)


@pytest.fixture
def umask_022():
    """A permissive umask, restored afterwards, so group/other read bits
    are expected on everything the cache publishes."""
    old = os.umask(0o022)
    yield 0o022
    os.umask(old)


def _mode(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


class TestSharedDirPermissions:
    """``mkstemp`` opens 0600 and ``os.replace`` preserves it; entries
    must get the mode the umask allows, without touching the umask."""

    def test_result_entries_honor_umask(self, tmp_path, umask_022):
        cache = ResultCache(tmp_path)
        spec = fast_spec()
        path = cache.put(spec, spec.execute())
        assert _mode(path) == 0o644

    def test_snapshot_entries_honor_umask(self, tmp_path, umask_022):
        path = ResultCache(tmp_path).put_snapshot("a" * 32, b"payload")
        assert _mode(path) == 0o644

    def test_overwrite_keeps_umask_mode(self, tmp_path, umask_022):
        # the second put replaces the entry through a fresh temp file;
        # the published mode must not regress to 0600 either
        cache = ResultCache(tmp_path)
        spec = fast_spec()
        stats = spec.execute()
        cache.put(spec, stats)
        path = cache.put(spec, stats)
        assert _mode(path) == 0o644

    def test_restrictive_umask_still_wins(self, tmp_path):
        # honoring the umask also means *not* widening past it
        old = os.umask(0o077)
        try:
            path = ResultCache(tmp_path).put_snapshot("b" * 32, b"x")
            assert _mode(path) == 0o600
        finally:
            os.umask(old)

    def test_writes_never_touch_the_umask(self, tmp_path, monkeypatch):
        # reading the umask means setting it, which races between the
        # threads of one process; the kernel applies it instead
        def no_umask(mask):
            raise AssertionError("os.umask called")

        cache = ResultCache(tmp_path)
        spec = fast_spec()
        stats = spec.execute()
        monkeypatch.setattr(os, "umask", no_umask)
        cache.put(spec, stats)
        cache.put_snapshot("a" * 32, b"payload")
        assert cache.get(spec) == stats

    def test_racing_writers_publish_umask_modes(self, tmp_path, umask_022):
        """More writer threads than cores, switching every microsecond:
        every published file is 0644 and the umask is still 0o022 (a
        writer that set the umask to read it could leave it 0o077 and
        another writer's file 0600)."""
        n_threads, per_thread = 2 * (os.cpu_count() or 1) + 8, 300
        stop = time.monotonic() + 1.0
        errors: list = []

        def writer(i):
            cache = ResultCache(tmp_path)
            try:
                for j in range(per_thread):
                    if time.monotonic() > stop:
                        break
                    cache.put_snapshot(f"{i:04x}{j:04x}" + "0" * 24, b"x")
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(n_threads)]
        try:
            sys.setswitchinterval(1e-6)
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old_interval)
            umask_after = os.umask(0o022)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        modes = [_mode(p) for p in tmp_path.glob("*.snap")]
        assert modes
        assert [oct(m) for m in modes if m != 0o644] == []
        assert umask_after == 0o022


class TestOrphanSweep:
    def test_stale_tmp_swept_fresh_tmp_kept(self, tmp_path):
        orphan = tmp_path / "deadbeef.tmp"
        orphan.write_bytes(b"killed mid-write")
        ancient = time.time() - ORPHAN_TMP_AGE_S - 60
        os.utime(orphan, (ancient, ancient))
        live = tmp_path / "live.tmp"
        live.write_bytes(b"a concurrent writer owns this")

        ResultCache(tmp_path).put_snapshot("c" * 32, b"data")
        assert not orphan.exists()  # swept
        assert live.exists()        # too young to be an orphan

    def test_sweep_runs_once_per_instance(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_snapshot("d" * 32, b"data")
        late_orphan = tmp_path / "later.tmp"
        late_orphan.write_bytes(b"x")
        ancient = time.time() - ORPHAN_TMP_AGE_S - 60
        os.utime(late_orphan, (ancient, ancient))
        cache.put_snapshot("e" * 32, b"data")
        assert late_orphan.exists()  # this instance already swept
        ResultCache(tmp_path).put_snapshot("f" * 32, b"data")
        assert not late_orphan.exists()  # a fresh instance sweeps again


class TestRacingEngines:
    """Two engines over one cache dir: races corrupt nothing."""

    def test_concurrent_sweeps_agree_and_warm_the_cache(self, tmp_path):
        sweep = Sweep.of(*(fast_spec(l2_latency=lat) for lat in
                           (4, 8, 16, 32, 64, 128)))
        reference = Engine.serial().map(sweep)
        engines = [Engine(workers=1, cache=ResultCache(tmp_path))
                   for _ in range(2)]
        results: list = [None, None]
        errors: list = []

        def go(i):
            try:
                results[i] = engines[i].map(sweep)
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [threading.Thread(target=go, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for res in results:
            for spec in sweep:
                assert res[spec].to_dict() == reference[spec].to_dict()
        # whoever lost each per-spec race simply overwrote an identical
        # entry; a third engine now runs everything from disk
        warm = Engine(workers=1, cache=ResultCache(tmp_path)).map(sweep)
        assert warm.n_executed == 0 and warm.n_cached == len(sweep)

    def test_put_get_snapshot_hammering(self, tmp_path):
        spec = fast_spec()
        stats = spec.execute()
        expected = stats.to_dict()
        snap_payload = b"snapshot-bytes" * 64
        stop = time.time() + 1.0
        errors: list = []

        def writer():
            cache = ResultCache(tmp_path)
            try:
                while time.time() < stop:
                    cache.put(spec, stats)
                    cache.put_snapshot(spec.warmup_key(), snap_payload)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def reader():
            cache = ResultCache(tmp_path)
            try:
                while time.time() < stop:
                    got = cache.get(spec)
                    # atomic publication: a reader sees a complete entry
                    # or a miss, never a torn one
                    assert got is None or got.to_dict() == expected
                    snap = cache.get_snapshot(spec.warmup_key())
                    assert snap is None or snap == snap_payload
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=f)
                   for f in (writer, writer, reader, reader)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert ResultCache(tmp_path).get(spec).to_dict() == expected


class _RewrittenSnapCache(ResultCache):
    """Serves the planner's read of each group's snapshot from ``valid``
    but points pool workers at another file, modelling a ``.snap`` that
    another process rewrites or removes between the planner's read and
    the worker's.  A lead's snapshot goes where the workers read."""

    def __init__(self, root, valid: dict[str, bytes]):
        super().__init__(root)
        self._valid = valid

    def get_snapshot(self, warmup_key):
        return self._valid[warmup_key]

    def snapshot_path(self, warmup_key):
        return self.root / f"{warmup_key}.rewritten.snap"


class TestForkFollowerFallback:
    """A cached snapshot that cannot be restored re-warms its group: the
    results equal cold runs, the group's lead replaces the bad file, and
    a following map forks from the new one."""

    def _groups(self):
        # two warm-up groups of two cells that differ only in their
        # measured budget: with two workers, a pool worker restores each
        # group's snapshot
        return [
            [tiny_spec(seed=seed, commits_per_thread=c) for c in (1000, 1400)]
            for seed in (0, 1)
        ]

    def _valid(self, groups) -> dict[str, bytes]:
        from repro.engine.snapshot import capture_warmup

        return {
            g[0].warmup_key(): capture_warmup(g[0])[0].to_bytes()
            for g in groups
        }

    def _assert_rewarmed(self, cache, groups, workers):
        from repro.engine.snapshot import Snapshot

        specs = [s for g in groups for s in g]
        results = Engine(workers=workers, cache=cache, fork_warmup=2).map(specs)
        reference = Engine.serial().map(specs)
        for spec in specs:
            assert results[spec].to_dict() == reference[spec].to_dict()
        # each group's first cell paid the warm-up again, its second forked
        assert results.n_executed == 4 and results.n_forked == 2
        for g in groups:
            key = g[0].warmup_key()
            data = cache.snapshot_path(key).read_bytes()
            assert Snapshot.from_bytes(data).meta["warmup_key"] == key
        newcomers = [
            tiny_spec(seed=g[0].seed, commits_per_thread=2000) for g in groups
        ]
        following = Engine(workers=workers, cache=cache, fork_warmup=2).map(
            newcomers
        )
        assert following.n_forked == 2
        for spec in newcomers:
            assert following[spec].to_dict() == spec.execute().to_dict()

    def test_parallel_follower_corrupt_snap_runs_cold(self, tmp_path):
        groups = self._groups()
        cache = _RewrittenSnapCache(tmp_path, self._valid(groups))
        for g in groups:
            path = cache.snapshot_path(g[0].warmup_key())
            path.write_bytes(b"repro-snap\n{torn")
        self._assert_rewarmed(cache, groups, workers=2)

    def test_parallel_follower_vanished_snap_runs_cold(self, tmp_path):
        # the workers' files were never written: they get
        # FileNotFoundError instead of SnapshotError
        groups = self._groups()
        cache = _RewrittenSnapCache(tmp_path, self._valid(groups))
        self._assert_rewarmed(cache, groups, workers=2)

    def test_serial_foreign_snapshot_runs_cold(self, tmp_path):
        # a valid snapshot filed under the *wrong* warmup key (copied
        # between cache dirs by hand) fails restore's fork-key check
        from repro.engine.snapshot import capture_warmup

        groups = self._groups()
        foreign = capture_warmup(tiny_spec(seed=7))[0].to_bytes()
        cache = ResultCache(tmp_path)
        for g in groups:
            cache.put_snapshot(g[0].warmup_key(), foreign)
        self._assert_rewarmed(cache, groups, workers=1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_truncated_payload_runs_cold(self, tmp_path, workers):
        # an intact header passes the planner's check, so only restore
        # sees the cut-short payload; it must fail as SnapshotError (not
        # zlib.error) for the group to re-warm instead of killing the map
        groups = self._groups()
        cache = ResultCache(tmp_path)
        for key, data in self._valid(groups).items():
            cache.put_snapshot(key, data[:-200])
        self._assert_rewarmed(cache, groups, workers=workers)


class TestKilledWorker:
    """A pool worker killed mid-sweep fails the map instead of hanging,
    and the rerun resumes from every result that landed before it."""

    def test_map_raises_and_rerun_resumes(self, tmp_path, monkeypatch):
        specs = [tiny_spec(l2_latency=lat) for lat in (4, 8, 16, 32, 64, 128)]
        first, victim = specs[0], specs[-1]
        cache = ResultCache(tmp_path)
        execute = RunSpec.execute

        def execute_or_die(spec):
            if spec == victim:
                # die only once an earlier cell has landed, so the rerun
                # has something to resume from; an engine that held
                # results back would keep this worker waiting here
                deadline = time.time() + 60
                while first not in cache and time.time() < deadline:
                    time.sleep(0.01)
                os.kill(os.getpid(), signal.SIGKILL)
            return execute(spec)

        errors: list = []

        def go():
            try:
                Engine(workers=2, cache=ResultCache(tmp_path)).map(specs)
            except Exception as exc:
                errors.append(exc)

        # patched before the pool starts: the forked workers inherit it
        with monkeypatch.context() as patch:
            patch.setattr(RunSpec, "execute", execute_or_die)
            thread = threading.Thread(target=go, daemon=True)
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive(), "map hung on a killed worker"
        assert len(errors) == 1 and isinstance(errors[0], BrokenProcessPool)

        landed = [s for s in specs if s in cache]
        assert first in landed and victim not in landed
        rerun = Engine(workers=2, cache=ResultCache(tmp_path)).map(specs)
        assert rerun.n_cached == len(landed)
        assert rerun.n_executed == len(specs) - len(landed)
        reference = Engine.serial().map(specs)
        for spec in specs:
            assert rerun[spec].to_dict() == reference[spec].to_dict()
