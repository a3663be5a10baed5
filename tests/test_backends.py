"""Backend registry + analytic fast model (tiny budgets)."""

import threading
import time

import pytest

from repro.engine import (
    Engine,
    ResultCache,
    RunSpec,
    backend_names,
    get_backend,
    register_backend,
)
from repro.engine.backends import Backend, CycleBackend
from repro.model.analytic import AnalyticBackend, solve
from repro.model.charwalk import character_key, characterize
from repro.stats.counters import N_SLOT_CATEGORIES, SimStats
from repro.workloads.spec import WorkloadSpec


@pytest.fixture(autouse=True)
def fast_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.08")


def tiny(backend="analytic", **kw):
    base = dict(
        n_threads=2, l2_latency=64, seed=0,
        commits_per_thread=2000, warmup_per_thread=500, seg_instrs=3000,
        backend=backend,
    )
    base.update(kw)
    return RunSpec.multiprogrammed(**base)


class TestRegistry:
    def test_builtins_resolve(self):
        assert isinstance(get_backend("cycle"), CycleBackend)
        assert isinstance(get_backend("analytic"), AnalyticBackend)
        assert {"cycle", "analytic"} <= set(backend_names())

    def test_unknown_backend_names_the_known_ones(self):
        with pytest.raises(KeyError, match="cycle"):
            get_backend("quantum")

    def test_custom_registration(self):
        class Fake(Backend):
            name = "fake-test-backend"

            def run(self, spec):
                return SimStats(cycles=1, committed=1)

        register_backend(Fake())
        try:
            assert get_backend("fake-test-backend").run(None).committed == 1
        finally:
            from repro.engine import backends as mod
            del mod._REGISTRY["fake-test-backend"]

    def test_nameless_backend_rejected(self):
        class Nameless(Backend):
            name = ""

        with pytest.raises(ValueError):
            register_backend(Nameless())

    def test_placeholder_name_rejected(self):
        # forgetting to set `name` must fail loudly, not register the
        # subclass under the base class's placeholder
        class Forgot(Backend):
            pass

        with pytest.raises(ValueError, match="placeholder"):
            register_backend(Forgot())

    def test_execute_dispatches_through_registry(self):
        stats = tiny().execute()
        assert stats.committed == sum(tiny().budgets()[:1])
        assert stats.cycles > 0


class TestCharacterization:
    def test_walk_is_latency_and_mode_independent(self):
        base = tiny()
        keys = {
            character_key(s, s.machine_config())
            for s in (
                base,
                tiny(l2_latency=256),
                tiny(decoupled=False),
                tiny(mshrs=4),
            )
        }
        assert len(keys) == 1  # one walk serves the whole latency sweep
        assert character_key(
            tiny(n_threads=3), tiny(n_threads=3).machine_config()
        ) not in keys

    def test_mix_accounts_every_instruction(self):
        spec = tiny()
        char = characterize(spec, spec.machine_config())
        mix = (char.ialu + char.falu + char.loads_fp + char.loads_int
               + char.stores + char.branches + char.itof + char.ftoi)
        assert mix == char.instrs
        assert char.fills_fp <= char.loads_fp
        assert char.load_fill_clusters <= char.fills_fp + char.fills_int
        assert 0 <= char.mispredicts <= char.branches

    def test_single_benchmark_kind(self):
        spec = RunSpec.single("tomcatv", backend="analytic", commits=2000,
                              warmup=500)
        char = characterize(spec, spec.machine_config())
        assert char.n_threads == 1
        assert char.instrs == spec.budgets()[0]

    def test_threads_that_first_need_one_walk_walk_it_once(self, monkeypatch):
        spec = tiny(seed=7919)  # a key no other test walks
        cfg = spec.machine_config()
        walks = []
        playlists = WorkloadSpec.playlists

        def slow_playlists(workload, seed=0):
            walks.append(seed)
            time.sleep(0.2)  # the other thread asks while this one walks
            return playlists(workload, seed)

        monkeypatch.setattr(WorkloadSpec, "playlists", slow_playlists)
        start = threading.Barrier(2)
        chars = [None, None]

        def walk(i):
            start.wait(timeout=30)
            chars[i] = characterize(spec, cfg)

        threads = [threading.Thread(target=walk, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert walks == [7919]
        assert chars[0] is chars[1] is not None

    def test_a_failed_walk_is_not_kept(self, monkeypatch):
        spec = tiny(seed=7927)
        playlists = WorkloadSpec.playlists
        calls = []

        def failing_once(workload, seed=0):
            calls.append(seed)
            if len(calls) == 1:
                raise OSError("disk full")
            return playlists(workload, seed)

        monkeypatch.setattr(WorkloadSpec, "playlists", failing_once)
        with pytest.raises(OSError, match="disk full"):
            characterize(spec, spec.machine_config())
        assert characterize(spec, spec.machine_config()).instrs > 0
        assert len(calls) == 2


class TestAnalyticModel:
    def test_stats_are_fully_populated_and_conserved(self):
        spec = tiny()
        stats = spec.execute()
        cfg = spec.machine_config()
        assert stats.committed == spec.budgets()[0]
        assert sum(stats.committed_per_thread.values()) == stats.committed
        # issue-slot conservation, the same invariant the cycle backend
        # satisfies (tests/test_properties.py)
        for unit, width in ((0, cfg.ap_width), (1, cfg.ep_width)):
            assert len(stats.slot_counts[unit]) == N_SLOT_CATEGORIES
            assert sum(stats.slot_counts[unit]) == stats.cycles * width
            assert all(v >= 0 for v in stats.slot_counts[unit])
        assert 0.0 <= stats.bus_utilization <= 1.0
        assert stats.ipc > 0

    def test_round_trips_and_caches_like_any_result(self, tmp_path):
        spec = tiny()
        stats = spec.execute()
        assert SimStats.from_dict(stats.to_dict()) == stats
        engine = Engine(workers=1, cache=ResultCache(tmp_path))
        assert engine.run(spec) == stats
        warm = Engine(workers=1, cache=ResultCache(tmp_path))
        assert warm.run(spec) == stats
        assert warm.n_cached == 1

    def test_never_shipped_to_a_worker_pool(self, monkeypatch):
        # workers=8 with an analytic-only batch must execute in-process:
        # make any pool construction explode to prove none is created
        import repro.engine.scheduler as sched

        def boom(*args, **kwargs):
            raise AssertionError("analytic specs must not spawn a pool")

        monkeypatch.setattr(sched, "ProcessPoolExecutor", boom)
        engine = Engine(workers=8, cache=None)
        res = engine.map([tiny(), tiny(l2_latency=128)])
        assert res.n_executed == 2
        assert all(s.ipc > 0 for s in res.values())

    def test_latency_monotonicity(self):
        ipcs = [tiny(l2_latency=lat).execute().ipc
                for lat in (16, 64, 128, 256)]
        assert ipcs == sorted(ipcs, reverse=True)

    def test_decoupling_speedup_and_latency_tolerance(self):
        # the paper's headline effects, reproduced by the model
        dec = tiny(l2_latency=128).execute()
        non = tiny(l2_latency=128, decoupled=False).execute()
        assert dec.ipc > non.ipc
        assert dec.perceived_load_latency < non.perceived_load_latency

    def test_smt_scales_ipc(self):
        one = tiny(n_threads=1).execute()
        four = tiny(n_threads=4).execute()
        assert four.ipc > one.ipc

    def test_perceived_latency_grows_with_l2(self):
        p = [tiny(l2_latency=lat).execute().perceived_load_latency
             for lat in (16, 128, 256)]
        assert p[0] < p[1] < p[2]

    def test_solver_converges_on_degenerate_configs(self):
        # narrow machine, tiny queues: the fixed point must stay finite
        spec = tiny(
            ap_width=1, ep_width=1, dispatch_width=2, iq_size=4,
            aq_size=4, mshrs=1, l2_latency=256,
        )
        stats = spec.execute()
        assert 0 < stats.ipc < 8
        cfg = spec.machine_config()
        char = characterize(spec, cfg)
        sol = solve(spec, cfg, char)
        # stats.ipc re-derives from integer cycles, so only rounding apart
        assert sol.ipc == pytest.approx(stats.ipc, rel=1e-3)


class TestConformance:
    def test_quick_document_shape(self, tmp_path):
        from repro.experiments.conformance import (
            render_conformance,
            run_conformance,
        )

        doc = run_conformance(quick=True)
        assert doc["n_cells"] == 14  # 12 classic + 2 finite-L2 cells
        assert 0 <= doc["mean_abs_ipc_err"] <= doc["max_abs_ipc_err"]
        assert "timing" not in doc
        assert doc["counters"]["n_executed"] == 14
        text = render_conformance(doc)
        assert "mean |IPC err|" in text
        assert ("PASS" in text) or ("FAIL" in text)

    def test_cli_exit_codes(self, capsys, monkeypatch, tmp_path):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert main(["conformance", "--quick",
                     "--output", str(tmp_path / "conf.json")]) == 0
        assert (tmp_path / "conf.json").is_file()
        capsys.readouterr()
        # an impossible tolerance must flip the exit code
        assert main(["conformance", "--quick",
                     "--tolerance", "0.000001"]) == 1
        assert "CONFORMANCE FAILURE" in capsys.readouterr().err
