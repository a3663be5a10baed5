"""Experiment engine: spec hashing, sweeps, cache, scheduler (tiny budgets)."""

import copy
import dataclasses
import json
import os
import re
import warnings
from pathlib import Path

import pytest
from test_snapshot import FORK_GROUPS, fork_sibling

from repro.engine import Engine, ResultCache, RunSpec, Sweep, submit
from repro.engine.cache import CACHE_FORMAT, default_cache_dir
from repro.engine.scheduler import resolve_workers
from repro.engine.spec import SPEC_VERSION
from repro.stats.counters import SimStats


@pytest.fixture(autouse=True)
def fast_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.08")


def tiny_spec(**kw):
    """A spec cheap enough to execute inside a unit test."""
    base = dict(
        n_threads=1, l2_latency=16, seed=0,
        commits_per_thread=1500, warmup_per_thread=500, seg_instrs=3000,
    )
    base.update(kw)
    return RunSpec.multiprogrammed(**base)


class TestRunSpecIdentity:
    def test_same_description_same_key(self):
        assert tiny_spec() == tiny_spec()
        assert tiny_spec().key() == tiny_spec().key()

    @pytest.mark.parametrize("change", [
        {"n_threads": 2},
        {"l2_latency": 64},
        {"decoupled": False},
        {"seed": 1},
        {"commits_per_thread": 1501},
        {"seg_instrs": 3001},
        {"fetch_policy": "rr"},     # config override
    ])
    def test_any_field_change_changes_key(self, change):
        assert tiny_spec(**change).key() != tiny_spec().key()

    def test_scale_change_changes_key(self, monkeypatch):
        a = tiny_spec()
        monkeypatch.setenv("REPRO_SCALE", "0.16")
        b = tiny_spec()
        assert a.scale != b.scale
        assert a.key() != b.key()
        # and explicitly pinned scales behave the same way
        assert tiny_spec(scale=0.1).key() != tiny_spec(scale=0.2).key()

    def test_backend_is_part_of_the_key(self):
        # cache entries can never be served across backends
        assert tiny_spec(backend="analytic").key() != tiny_spec().key()
        assert "[analytic]" in tiny_spec(backend="analytic").label()
        assert "[" not in tiny_spec().label()

    def test_with_backend_changes_the_backend(self):
        spec = tiny_spec()
        ana = spec.with_backend("analytic")
        assert ana.backend == "analytic" and ana.n_threads == spec.n_threads
        assert spec.with_backend("cycle") is spec

    def test_backend_validated(self):
        from repro.workloads.spec import WorkloadSpec

        with pytest.raises(ValueError):
            RunSpec(workload=WorkloadSpec.rotation(1), backend="")

    def test_override_order_is_canonical(self):
        a = RunSpec.multiprogrammed(1, mshrs=8, fetch_policy="rr")
        b = RunSpec.multiprogrammed(1, fetch_policy="rr", mshrs=8)
        assert a == b and a.key() == b.key()

    def test_dict_round_trip(self):
        spec = tiny_spec(fetch_policy="rr", mshrs=8)
        clone = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.key() == spec.key()

    def test_single_requires_known_profile(self):
        with pytest.raises(KeyError, match="did you mean"):
            RunSpec.single("swmi")

    def test_workload_validated(self):
        with pytest.raises(ValueError, match="WorkloadSpec"):
            RunSpec(workload="swim")

    def test_workload_is_part_of_the_key(self):
        from repro.workloads.spec import WorkloadSpec

        a = RunSpec.from_workload(WorkloadSpec.single("swim"), scale=1.0)
        b = RunSpec.from_workload(
            WorkloadSpec.single("swim?hot_frac=0.1"), scale=1.0
        )
        assert a.key() != b.key()


class TestSweep:
    def test_grid_expansion_order(self):
        sweep = Sweep.grid(
            RunSpec.multiprogrammed,
            n_threads=(1, 2),
            l2_latency=(16, 64),
            decoupled=True,          # scalar axis: held constant
        )
        assert len(sweep) == 4
        assert [(s.n_threads, s.l2_latency) for s in sweep] == [
            (1, 16), (1, 64), (2, 16), (2, 64)
        ]

    def test_concat_and_dedupe(self):
        sweep = Sweep.of(tiny_spec()) + Sweep.of(tiny_spec(), tiny_spec(seed=1))
        assert len(sweep) == 3
        assert len(sweep.deduped()) == 2

    def test_filter(self):
        sweep = Sweep.grid(RunSpec.multiprogrammed, n_threads=(1, 2, 3))
        assert len(sweep.filter(lambda s: s.n_threads > 1)) == 2


class TestSimStatsRoundTrip:
    def test_handmade_stats(self):
        stats = SimStats(
            cycles=100, committed=42, committed_per_thread={0: 30, 1: 12},
            loads_fp=7, perceived_stall_fp=19, bus_utilization=0.25,
        )
        stats.slot_counts[0][2] = 5
        clone = SimStats.from_dict(json.loads(json.dumps(stats.to_dict())))
        assert clone == stats
        assert clone.committed_per_thread == {0: 30, 1: 12}  # int keys back

    def test_simulated_stats(self):
        stats = tiny_spec().execute()
        clone = SimStats.from_dict(json.loads(json.dumps(stats.to_dict())))
        assert clone == stats
        assert clone.ipc == stats.ipc

    def test_unknown_keys_ignored(self):
        d = SimStats(cycles=1).to_dict()
        d["from_the_future"] = 1
        clone = SimStats.from_dict(d)
        assert clone.cycles == 1
        assert not hasattr(clone, "from_the_future")
        assert clone == SimStats(cycles=1)

    def test_missing_keys_keep_their_defaults(self):
        d = SimStats(cycles=7, committed=3).to_dict()
        for name in ("committed_per_thread", "slot_counts", "level_stats",
                     "fidelity", "ipc_hi"):
            del d[name]
        clone = SimStats.from_dict(d)
        assert clone == SimStats(cycles=7, committed=3)
        # defaults are fresh per decode, never shared between results
        clone.slot_counts[0][0] += 1
        assert SimStats.from_dict(d).slot_counts[0][0] == 0


#: the head of a current cache entry, so that the stats payloads after
#: it decide a read (``test_current_head_with_stats_is_a_hit`` is the
#: control)
HEAD = f'{{"format": {CACHE_FORMAT}, "spec_version": {SPEC_VERSION}'


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        assert cache.get(spec) is None
        stats = spec.execute()
        cache.put(spec, stats)
        assert spec in cache
        assert cache.get(spec) == stats

    def test_no_cross_spec_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(tiny_spec(), tiny_spec().execute())
        assert cache.get(tiny_spec(seed=1)) is None
        assert cache.get(tiny_spec(scale=0.5)) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        cache.put(spec, spec.execute())
        cache.path_for(spec).write_text("not json")
        assert cache.get(spec) is None

    @pytest.mark.parametrize("payload", [
        "",                                    # empty file
        pytest.param(HEAD + ', "stats": {"cyc', id="truncated_stats"),
        "5",                                   # valid JSON, non-dict root
        "[1, 2, 3]",                           # valid JSON, list root
        '"just a string"',
        '{"format": 999, "stats": {}}',        # future format
        pytest.param(HEAD + "}", id="missing_stats"),
        pytest.param(HEAD + ', "stats": 5}', id="stats_not_a_mapping"),
        pytest.param(HEAD + ', "stats": {"slot_counts": 7}}',
                     id="malformed_stats_field"),
    ])
    def test_unreadable_entries_read_as_misses(self, tmp_path, payload):
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        cache.path_for(spec).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(spec).write_text(payload)
        assert cache.get(spec) is None

    def test_current_head_with_stats_is_a_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        cache.root.mkdir(parents=True, exist_ok=True)
        cache.path_for(spec).write_text(HEAD + ', "stats": {"cycles": 9}}')
        assert cache.get(spec) == SimStats(cycles=9)

    def test_format_1_entry_is_rewritten_as_format_2(self, tmp_path):
        # byte for byte what format 1 wrote: the spec embedded in full
        spec = tiny_spec()
        stats = spec.execute()
        cache = ResultCache(tmp_path)
        cache.root.mkdir(parents=True, exist_ok=True)
        cache.path_for(spec).write_bytes(json.dumps({
            "format": 1, "spec_version": SPEC_VERSION, "key": spec.key(),
            "spec": spec.to_dict(), "stats": stats.to_dict(),
        }, sort_keys=True).encode("utf-8"))
        assert cache.get(spec) is None
        engine = Engine(workers=1, cache=ResultCache(tmp_path))
        assert engine.map([spec])[spec] == stats
        assert engine.n_executed == 1 and engine.n_cached == 0
        entry = json.loads(cache.path_for(spec).read_text())
        assert entry["format"] == CACHE_FORMAT == 2
        assert "spec" not in entry
        assert cache.get(spec) == stats

    def test_entries_hold_no_spec(self, tmp_path, monkeypatch):
        spec = tiny_spec(n_threads=4, backend="analytic")
        stats = spec.execute()
        spec.key()  # memoized: keying never serializes the spec again

        def no_serialization(self):
            raise AssertionError("the cache serialized a spec")

        monkeypatch.setattr(RunSpec, "to_dict", no_serialization)
        cache = ResultCache(tmp_path)
        path = cache.put(spec, stats)
        assert cache.get(spec) == stats
        entry = json.loads(path.read_text())
        assert sorted(entry) == ["format", "key", "label", "spec_version",
                                 "stats"]
        assert entry["key"] == spec.key()
        assert entry["label"] == "4T L2=16 dec [analytic]"
        assert path.stat().st_size < 2048  # 19.1 KB with the spec in it

    def test_corrupt_entry_is_overwritten_by_next_put(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        stats = spec.execute()
        cache.path_for(spec).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(spec).write_text("[truncated")
        assert cache.get(spec) is None
        cache.put(spec, stats)
        assert cache.get(spec) == stats

    def test_engine_reexecutes_over_corrupt_entry(self, tmp_path):
        # end to end: a corrupt on-disk entry must cost one re-simulation,
        # never an exception, and the rerun repairs the entry
        spec = tiny_spec()
        Engine(workers=1, cache=ResultCache(tmp_path)).run(spec)
        ResultCache(tmp_path).path_for(spec).write_text("{]")
        engine = Engine(workers=1, cache=ResultCache(tmp_path))
        engine.run(spec)
        assert engine.n_executed == 1 and engine.n_cached == 0
        assert ResultCache(tmp_path).get(spec) is not None

    def test_default_dir_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "x"))
        assert default_cache_dir() == tmp_path / "x"

    def test_default_dir_honours_xdg_cache_home(self, monkeypatch, tmp_path):
        # precedence: $REPRO_CACHE_DIR > $XDG_CACHE_HOME/repro-sim >
        # ~/.cache/repro-sim ($XDG_CACHE_HOME used to be ignored)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro-sim"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "explicit"))
        assert default_cache_dir() == tmp_path / "explicit"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.delenv("XDG_CACHE_HOME")
        assert default_cache_dir() == Path.home() / ".cache" / "repro-sim"


class TestEngine:
    def test_serial_map_ordering_and_dedupe(self):
        specs = [tiny_spec(seed=1), tiny_spec(), tiny_spec(seed=1)]
        results = submit(specs)
        assert list(results) == [tiny_spec(seed=1), tiny_spec()]
        assert results.n_executed == 2 and results.n_cached == 0
        assert all(s.committed > 0 for s in results.values())

    def test_memo_dedupes_across_maps(self):
        engine = Engine.serial()
        first = engine.run(tiny_spec())
        again = engine.map([tiny_spec()])
        assert again.n_cached == 1 and again.n_executed == 0
        assert again[tiny_spec()] == first

    def test_warm_disk_cache_runs_nothing(self, tmp_path):
        sweep = Sweep.of(tiny_spec(), tiny_spec(seed=1))
        cold = Engine(workers=1, cache=ResultCache(tmp_path)).map(sweep)
        assert cold.n_executed == 2
        warm = Engine(workers=1, cache=ResultCache(tmp_path)).map(sweep)
        assert warm.n_executed == 0 and warm.n_cached == 2
        assert warm == cold

    def test_parallel_equals_serial(self, tmp_path):
        sweep = Sweep.of(
            tiny_spec(), tiny_spec(seed=1), tiny_spec(l2_latency=32)
        )
        serial = Engine(workers=1).map(sweep)
        parallel = Engine(workers=2, cache=ResultCache(tmp_path)).map(sweep)
        assert list(parallel) == list(serial)
        for spec in sweep:
            assert parallel[spec].to_dict() == serial[spec].to_dict()
        # the parallel run populated the cache as results landed
        assert Engine(cache=ResultCache(tmp_path)).map(sweep).n_executed == 0

    def test_resolve_workers(self, monkeypatch):
        assert resolve_workers(3) == 3
        assert resolve_workers(0) == 1
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers() == 5

    @pytest.mark.parametrize("bad", ["junk", "0", "-3"])
    def test_resolve_workers_warns_once_on_bad_env(self, monkeypatch, bad):
        # a malformed or non-positive $REPRO_WORKERS used to be silently
        # swallowed; now it warns once, naming the value, and falls back
        # to cpu_count()
        from repro.engine import scheduler

        monkeypatch.setenv("REPRO_WORKERS", bad)
        monkeypatch.setattr(scheduler, "_warned_bad_workers", False)
        with pytest.warns(RuntimeWarning, match=re.escape(bad)):
            assert resolve_workers() == (os.cpu_count() or 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the second call stays silent
            assert resolve_workers() == (os.cpu_count() or 1)

    def test_drivers_accept_engine(self, tmp_path):
        # the figure drivers submit through whatever engine they are given
        from repro.experiments import figures

        engine = Engine(workers=1, cache=ResultCache(tmp_path))
        data = figures.fig3(thread_counts=(1,), engine=engine)
        assert data["runs"][1]["ipc"] > 0
        assert engine.n_executed == 1
        figures.fig3(thread_counts=(1,), engine=engine)
        assert engine.n_executed == 1  # second pass fully cached


class TestSpecVersionGuard:
    """Entries embed the SPEC_VERSION that produced them; a mismatch (or
    its absence, for entries written before it was recorded) is a miss."""

    def test_recorded_on_put(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        cache.put(spec, spec.execute())
        entry = json.loads(cache.path_for(spec).read_text())
        assert entry["spec_version"] == SPEC_VERSION

    @pytest.mark.parametrize("stale", ["older", "missing"])
    def test_mismatch_is_a_miss(self, tmp_path, stale):
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        stats = spec.execute()
        cache.put(spec, stats)
        path = cache.path_for(spec)
        entry = json.loads(path.read_text())
        if stale == "older":
            entry["spec_version"] = SPEC_VERSION - 1
        else:
            del entry["spec_version"]
        path.write_text(json.dumps(entry))
        assert cache.get(spec) is None
        cache.put(spec, stats)  # the next put repairs the entry
        assert cache.get(spec) == stats


def forkable(commits, **kw):
    """Specs that differ only in measured budget share a warm-up prefix."""
    base = dict(
        n_threads=2, l2_latency=32, commits_per_thread=commits,
        warmup_per_thread=500, seg_instrs=3000,
    )
    base.update(kw)
    return RunSpec.multiprogrammed(**base)


class TestWarmupKey:
    def test_measured_budget_is_masked(self):
        assert forkable(600).warmup_key() == forkable(1200).warmup_key()
        assert forkable(600).key() != forkable(1200).key()

    @pytest.mark.parametrize("change", [
        {"n_threads": 1},
        {"l2_latency": 64},
        {"decoupled": False},
        {"seed": 1},
        {"warmup_per_thread": 501},
        {"seg_instrs": 3001},
    ])
    def test_warmup_shaping_fields_differ(self, change):
        # everything that affects the machine before the boundary forks
        # the key — only the measured budget may differ within a group
        assert forkable(600, **change).warmup_key() != forkable(600).warmup_key()


class TestForkedSweeps:
    def _grid(self):
        return [forkable(c) for c in (600, 900, 1200)]

    def test_serial_forked_equals_cold(self):
        cold = Engine(workers=1).map(self._grid())
        forked = Engine(workers=1, fork_warmup=2).map(self._grid())
        assert forked.n_forked == 2
        assert forked.warmup_cycles_saved > 0
        assert forked.n_executed == 3 and forked.n_cached == 0
        for spec in self._grid():
            assert forked[spec].to_dict() == cold[spec].to_dict()

    def test_parallel_forked_equals_cold(self, tmp_path):
        cold = Engine(workers=1).map(self._grid())
        engine = Engine(
            workers=2, cache=ResultCache(tmp_path), fork_warmup=2
        )
        forked = engine.map(self._grid())
        assert forked.n_forked == 2
        for spec in self._grid():
            assert forked[spec].to_dict() == cold[spec].to_dict()

    def test_snapshot_persisted_and_reused(self, tmp_path):
        cache = ResultCache(tmp_path)
        Engine(workers=1, cache=cache, fork_warmup=2).map(self._grid())
        key = forkable(600).warmup_key()
        assert cache.snapshot_path(key).is_file()
        assert len(cache) == 3  # .snap files don't count as result entries
        # a later invocation sweeping a NEW budget over the same warm
        # prefix forks even as a singleton: the snapshot is already paid
        newcomer = forkable(1500)
        result = Engine(workers=1, cache=cache, fork_warmup=2).map([newcomer])
        assert result.n_forked == 1
        assert result[newcomer].to_dict() == newcomer.execute().to_dict()

    def test_corrupt_snapshot_is_rewarmed(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = self._grid()[:2]
        cache.put_snapshot(specs[0].warmup_key(), b"garbage")
        result = Engine(workers=1, cache=cache, fork_warmup=2).map(specs)
        assert result.n_forked == 1  # leader re-warmed, follower forked
        cold = Engine(workers=1).map(specs)
        for spec in specs:
            assert result[spec].to_dict() == cold[spec].to_dict()

    def test_corrupt_snapshot_of_a_lone_cell_is_replaced(self, tmp_path):
        # below the fork threshold, but the cache meant to fork this
        # group: the cell re-warms as a lead and rewrites the file
        from repro.engine.snapshot import Snapshot

        cache = ResultCache(tmp_path)
        spec, newcomer = forkable(600), forkable(1500)
        key = spec.warmup_key()
        cache.put_snapshot(key, b"garbage")
        result = Engine(workers=1, cache=cache, fork_warmup=2).map([spec])
        assert result.n_executed == 1 and result.n_forked == 0
        snap = Snapshot.from_bytes(cache.get_snapshot(key))
        assert snap.meta["warmup_key"] == key
        again = Engine(workers=1, cache=cache, fork_warmup=2).map([newcomer])
        assert again.n_forked == 1
        assert again[newcomer].to_dict() == newcomer.execute().to_dict()

    @pytest.mark.parametrize("name", list(FORK_GROUPS))
    def test_group_shapes_serial(self, name):
        members = FORK_GROUPS[name]
        events = {}
        engine = Engine(
            workers=1, fork_warmup=2,
            progress=lambda ev, s: events.setdefault(s, ev),
        )
        result = engine.map(members)
        assert result.n_executed == len(members)
        assert result.n_forked == len(members) - 1
        # the first member in submission order pays the warm-up
        assert events == {
            s: "forked" if i else "executed" for i, s in enumerate(members)
        }
        for spec in members:
            assert result[spec].to_dict() == spec.execute().to_dict()

    def test_group_shapes_with_a_pool(self, tmp_path):
        # every group in one map, so that the pool runs several at once
        specs = [s for members in FORK_GROUPS.values() for s in members]
        engine = Engine(workers=2, cache=ResultCache(tmp_path), fork_warmup=2)
        result = engine.map(specs)
        assert result.n_executed == len(specs)
        assert result.n_forked == len(specs) - len(FORK_GROUPS)
        for spec in specs:
            assert result[spec].to_dict() == spec.execute().to_dict()

    def test_new_budgets_beside_an_old_member_fork_from_the_cache(
        self, tmp_path
    ):
        cache = ResultCache(tmp_path)
        old, other, *new = (fork_sibling(c) for c in (1000, 800, 1200, 900))
        Engine(workers=1, cache=cache, fork_warmup=2).map([old, other])
        assert cache.snapshot_path(old.warmup_key()).is_file()
        result = Engine(workers=1, cache=cache, fork_warmup=2).map(
            [old, *new]
        )
        assert result.n_cached == 1 and result.n_executed == 2
        assert result.n_forked == 2
        for spec in (old, *new):
            assert result[spec].to_dict() == spec.execute().to_dict()

    def test_a_group_simulates_one_measured_region(self, monkeypatch):
        # one run to warm up and one through every budget; a lone group
        # is one task, so even two workers run it in this process
        from repro.core.processor import Processor

        calls = []
        run = Processor.run
        monkeypatch.setattr(
            Processor, "run",
            lambda proc, **kw: calls.append(kw) or run(proc, **kw),
        )
        members = FORK_GROUPS["non_decoupled"]
        result = Engine(workers=2, fork_warmup=2).map(members)
        assert result.n_forked == len(members) - 1
        assert [type(kw["max_commits"]) for kw in calls] == [int, list]
        assert calls[1]["max_commits"] == [
            s.budgets()[0] for s in members
        ]

    def test_a_cached_group_takes_one_restore(self, tmp_path, monkeypatch):
        from repro.engine.snapshot import Snapshot

        cache = ResultCache(tmp_path)
        old, other, *new = (
            fork_sibling(c) for c in (1000, 800, 1200, 900, 1100)
        )
        Engine(workers=1, cache=cache, fork_warmup=2).map([old, other])
        restores = []
        restore = Snapshot.restore
        monkeypatch.setattr(
            Snapshot, "restore",
            lambda snap, spec: restores.append(spec) or restore(snap, spec),
        )
        result = Engine(workers=1, cache=cache, fork_warmup=2).map(
            [old, *new]
        )
        assert len(restores) == 1
        assert result.n_cached == 1 and result.n_forked == len(new)
        for spec in new:
            assert result[spec].to_dict() == spec.execute().to_dict()

    def test_group_below_threshold_stays_cold(self):
        result = Engine(workers=1, fork_warmup=2).map([forkable(600)])
        assert result.n_forked == 0 and result.n_executed == 1

    def test_analytic_backend_never_forks(self):
        specs = [forkable(c, backend="analytic") for c in (600, 900)]
        result = Engine(workers=1, fork_warmup=2).map(specs)
        assert result.n_forked == 0
        assert all(s.committed > 0 for s in result.values())

    def test_counters_default_zero_without_forking(self):
        result = submit([tiny_spec()])
        assert result.n_forked == 0 and result.warmup_cycles_saved == 0


class TestSkipEffectivenessSurfacing:
    def test_sweep_and_engine_totals(self):
        # a latency-dominated single-thread cell fast-forwards heavily
        spec = tiny_spec(l2_latency=256)
        engine = Engine.serial()
        result = engine.map([spec])
        assert result.ff_jumps > 0
        assert result.ff_cycles_skipped > 0
        assert engine.ff_jumps == result.ff_jumps
        assert engine.ff_cycles_skipped == result.ff_cycles_skipped
        # a memo hit re-reports the batch totals (they describe how the
        # result was produced) without growing the lifetime counters
        again = engine.map([spec])
        assert again.ff_cycles_skipped == result.ff_cycles_skipped
        assert engine.ff_cycles_skipped == result.ff_cycles_skipped


class TestDeepCopySafety:
    @staticmethod
    def _mutate(stats):
        """Touch every container field, nested rows included."""
        stats.slot_counts[0][0] += 1
        stats.committed_per_thread[99] = 1
        stats.level_stats["L2"]["hits"] += 1
        stats.level_stats["L9"] = {}
        stats.committed += 7

    def test_caller_mutation_cannot_corrupt_memo(self):
        # the engine hands out independent objects: mutating a returned
        # result (even nested fields) must not poison later hits
        engine = Engine.serial()
        a = engine.run(tiny_spec())
        assert a.level_stats["L2"]  # the nested rows below exist
        pristine = copy.deepcopy(a)
        self._mutate(a)
        again = engine.run(tiny_spec())
        assert again == pristine
        assert again != a
        self._mutate(again)  # a memo hit's copy is just as isolated
        assert engine.run(tiny_spec()) == pristine

    def test_caller_mutation_cannot_corrupt_a_disk_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        pristine = Engine(workers=1, cache=cache).run(tiny_spec())
        engine = Engine(workers=1, cache=cache)
        a = engine.run(tiny_spec())
        assert engine.n_cached == 1 and engine.n_executed == 0
        assert a == pristine
        self._mutate(a)
        assert engine.run(tiny_spec()) == pristine
        assert Engine(workers=1, cache=cache).run(tiny_spec()) == pristine

    def test_copy_shares_no_container(self):
        # walks every field, so a container field added later cannot be
        # shared between a result and its copy without failing here
        def containers(value):
            """Every list, dict and set reachable from ``value``."""
            if isinstance(value, (list, dict, set)):
                yield value
                for v in value.values() if isinstance(value, dict) else value:
                    yield from containers(v)

        stats = Engine.serial().run(tiny_spec())
        dup = stats.copy()
        assert dup == stats and dup is not stats
        walked = 0
        for f in dataclasses.fields(stats):
            mine = list(containers(getattr(stats, f.name)))
            theirs = {id(c) for c in containers(getattr(dup, f.name))}
            assert not {id(c) for c in mine} & theirs, f.name
            walked += len(mine)
        assert walked >= 6  # the three fields, their rows and level rows
