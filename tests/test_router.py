"""Multi-fidelity sweep router: spec, error model, policies, routing.

The hard guarantees gated here:

* **Determinism** — the same grid with the same error model yields the
  byte-identical promotion set and results, serial or parallel, warm or
  cold cache.
* **Byte-identity** — a promoted cell's stats are exactly what a pure
  cycle-backend run of the same spec produces.
* **Calibration** — the error bars fitted from the committed conformance
  corpus cover the true cycle IPC for at least 90% of a held-out slice.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.engine import Engine, ResultCache, RouterSpec, RunSpec, Sweep
from repro.router.errmodel import (
    COVERAGE_MIN,
    CORPUS_SCHEMA,
    ErrorModel,
    corpus_from_conformance,
    default_corpus_path,
    features_of,
    load_corpus,
    load_model,
    split_cells,
)
from repro.router.policies import ScreenedCell, select_promotions


@pytest.fixture(autouse=True)
def fast_scale(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SCALE", "0.08")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_WORKERS", "1")


def fast_spec(**kw):
    """A quick spec (tiny budgets); backend/router via kw."""
    base = dict(
        n_threads=1, l2_latency=16, seed=0, backend="hybrid",
        commits_per_thread=1500, warmup_per_thread=500, seg_instrs=3000,
    )
    base.update(kw)
    return RunSpec.multiprogrammed(**base)


def hybrid_grid(latencies=(16, 64, 256), modes=(True, False), **kw):
    return list(Sweep.grid(
        fast_spec, l2_latency=list(latencies), decoupled=list(modes), **kw
    ))


# -- RouterSpec -------------------------------------------------------------------


class TestRouterSpec:
    def test_defaults_round_trip(self):
        r = RouterSpec()
        assert RouterSpec.from_dict(r.to_dict()) == r
        assert r.promote_budget == 0.15
        assert r.corpus == "default"

    def test_custom_round_trip(self):
        r = RouterSpec(policies=("extrema",), promote_budget=7,
                       error_budget=0.1, quantile=0.9, corpus="c.json")
        assert RouterSpec.from_dict(json.loads(json.dumps(r.to_dict()))) == r

    def test_hashable_and_frozen(self):
        assert len({RouterSpec(), RouterSpec()}) == 1
        with pytest.raises(AttributeError):
            RouterSpec().promote_budget = 0.5

    @pytest.mark.parametrize("kw", [
        {"policies": ("extrema", "nope")},
        {"promote_budget": 0.0},
        {"promote_budget": 1.5},
        {"promote_budget": 0},
        {"promote_budget": -3},
        {"promote_budget": "lots"},
        {"error_budget": -0.1},
        {"quantile": 0.4},
        {"quantile": 1.0},
        {"corpus": ""},
    ])
    def test_rejects_bad_config(self, kw):
        with pytest.raises(ValueError):
            RouterSpec(**kw)

    def test_promote_cap_fraction_vs_count(self):
        assert RouterSpec(promote_budget=0.15).promote_cap(200) == 30
        assert RouterSpec(promote_budget=0.15).promote_cap(3) == 1  # floor
        assert RouterSpec(promote_budget=5).promote_cap(200) == 5
        assert RouterSpec(promote_budget=5).promote_cap(3) == 3
        assert RouterSpec(promote_budget=1.0).promote_cap(4) == 4


class TestRunSpecRouter:
    def test_router_none_not_serialized(self):
        doc = fast_spec(backend="cycle").to_dict()
        assert "router" not in doc  # pre-router spec hashes stay valid

    def test_router_round_trips_through_dict(self):
        spec = fast_spec(router=RouterSpec(promote_budget=3))
        restored = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert restored.router == RouterSpec(promote_budget=3)

    def test_router_changes_the_key(self):
        plain = fast_spec()
        assert plain.key() != fast_spec(router=RouterSpec()).key()
        assert (fast_spec(router=RouterSpec(promote_budget=3)).key()
                != fast_spec(router=RouterSpec(promote_budget=4)).key())

    def test_rejects_non_routerspec(self):
        with pytest.raises(ValueError, match="router"):
            fast_spec(router={"promote_budget": 0.5})


# -- the error model --------------------------------------------------------------


def _corpus_cell(mode="dec", threads=1, lat="low", mem="classic",
                 cycle=1.0, analytic=1.0):
    return {
        "features": {"mode": mode, "threads": threads,
                     "lat": lat, "mem": mem},
        "cycle_ipc": cycle,
        "analytic_ipc": analytic,
    }


class TestErrorModel:
    def test_features_of(self):
        spec = fast_spec(l2_latency=64, decoupled=False)
        assert features_of(spec) == {
            "mode": "non", "threads": 1, "lat": "mid", "mem": "classic",
        }
        assert features_of(fast_spec(l2_latency=256))["lat"] == "high"
        assert features_of(fast_spec(l2_latency=16))["lat"] == "low"

    def test_interval_covers_region_errors(self):
        # ten cells, analytic consistently 10% low -> bias correction
        cells = [
            _corpus_cell(cycle=1.1 + 0.01 * i, analytic=1.0)
            for i in range(10)
        ]
        model = ErrorModel.fit(cells)
        lo, hi = model.interval(cells[0]["features"], 1.0)
        assert lo <= 1.1 <= hi and lo <= 1.19 <= hi
        assert model.coverage(cells) == 1.0

    def test_dead_analytic_is_degenerate(self):
        model = ErrorModel.fit([_corpus_cell()])
        assert model.interval({"mode": "dec", "threads": 1,
                               "lat": "low", "mem": "classic"}, 0.0) == (0, 0)

    def test_sparse_region_falls_back_to_global(self):
        cells = [_corpus_cell(cycle=1.0, analytic=1.0) for _ in range(8)]
        model = ErrorModel.fit(cells)
        unseen = {"mode": "non", "threads": 4, "lat": "high", "mem": "x"}
        assert model.half_width_rel(unseen) == model.half_width_rel(
            cells[0]["features"]
        )

    def test_round_trip_and_stable_key(self):
        model = ErrorModel.fit(
            [_corpus_cell(cycle=1.0 + 0.1 * i) for i in range(6)]
        )
        clone = ErrorModel.from_dict(json.loads(json.dumps(model.to_dict())))
        assert clone.to_dict() == model.to_dict()
        assert clone.key() == model.key()

    def test_committed_corpus_calibrates(self):
        """The headline gate: fitted bars cover >= 90% of held-out cells."""
        cells = load_corpus(default_corpus_path())
        assert len(cells) >= 50  # the full Figure-4 + finite-L2 grid
        train, holdout = split_cells(cells)
        model = ErrorModel.fit(train)
        assert model.coverage(holdout) >= COVERAGE_MIN

    def test_load_corpus_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other/1", "cells": [{}]}))
        with pytest.raises(ValueError, match="not a conformance corpus"):
            load_corpus(bad)

    def test_load_model_missing_corpus_names_the_fix(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="conformance --out"):
            load_model(str(tmp_path / "absent.json"), 0.95)

    def test_corpus_from_conformance_distills(self):
        doc = {
            "quick": True, "seed": 0,
            "cells": [{
                "label": "1T", "features": {"mode": "dec", "threads": 1,
                                            "lat": "low", "mem": "classic"},
                "cycle": {"ipc": 1.0, "perceived": 2.0, "bus": 0.1},
                "analytic": {"ipc": 0.9, "perceived": 2.0, "bus": 0.1},
                "ipc_err": 0.1,
            }],
        }
        corpus = corpus_from_conformance(doc)
        assert corpus["schema"] == CORPUS_SCHEMA
        assert corpus["cells"] == [{
            "label": "1T",
            "features": {"mode": "dec", "threads": 1,
                         "lat": "low", "mem": "classic"},
            "cycle_ipc": 1.0, "analytic_ipc": 0.9,
        }]


# -- promotion policies -----------------------------------------------------------


def _screened(spec, ipc, hw_rel=0.1):
    return ScreenedCell(
        spec=spec, ipc=ipc,
        lo=ipc * (1 - hw_rel), hi=ipc * (1 + hw_rel), hw_rel=hw_rel,
    )


class TestPolicies:
    def _curve(self, latencies=(16, 64, 256), decoupled=True):
        """One figure curve with well-separated intervals."""
        return [
            _screened(fast_spec(l2_latency=lat, decoupled=decoupled),
                      ipc=4.0 / (i + 1), hw_rel=0.05)
            for i, lat in enumerate(latencies)
        ]

    def test_extrema_promotes_curve_ends(self):
        cells = self._curve()
        chosen = dict(select_promotions(cells, RouterSpec(promote_budget=1.0)))
        extrema = {s for s, r in chosen.items() if r == "extrema"}
        assert extrema == {cells[0].spec, cells[-1].spec}

    def test_mode_boundary_promotes_overlapping_twins(self):
        dec = _screened(fast_spec(decoupled=True), ipc=1.0, hw_rel=0.2)
        non = _screened(fast_spec(decoupled=False), ipc=1.1, hw_rel=0.2)
        chosen = dict(select_promotions(
            [dec, non],
            RouterSpec(policies=("boundary",), promote_budget=1.0),
        ))
        assert chosen == {dec.spec: "mode-boundary",
                          non.spec: "mode-boundary"}

    def test_disjoint_intervals_are_not_boundaries(self):
        dec = _screened(fast_spec(decoupled=True), ipc=1.0, hw_rel=0.01)
        non = _screened(fast_spec(decoupled=False), ipc=2.0, hw_rel=0.01)
        assert select_promotions(
            [dec, non],
            RouterSpec(policies=("boundary",), promote_budget=1.0),
        ) == []

    def test_dead_analytic_outranks_everything(self):
        cells = self._curve()
        cells.append(_screened(fast_spec(l2_latency=512), ipc=0.0))
        ranked = select_promotions(cells, RouterSpec(promote_budget=1))
        assert ranked == [(cells[-1].spec, "dead-analytic")]

    def test_error_budget_nominates_wide_bars(self):
        wide = _screened(fast_spec(l2_latency=999), ipc=1.0, hw_rel=0.3)
        chosen = dict(select_promotions(
            self._curve() + [wide],
            RouterSpec(policies=(), error_budget=0.2, promote_budget=1.0),
        ))
        assert chosen == {wide.spec: "error-budget"}

    def test_budget_caps_the_set(self):
        cells = self._curve() + self._curve(decoupled=False)
        assert len(select_promotions(
            cells, RouterSpec(promote_budget=2))) == 2
        assert len(select_promotions(
            cells, RouterSpec(promote_budget=1.0))) <= len(cells)

    def test_deterministic_under_input_order(self):
        cells = self._curve() + self._curve(decoupled=False)
        a = select_promotions(cells, RouterSpec(promote_budget=3))
        b = select_promotions(list(reversed(cells)),
                              RouterSpec(promote_budget=3))
        assert a == b


# -- grid routing through the engine ----------------------------------------------


class TestHybridRouting:
    def test_screened_cells_carry_analytic_stats_and_bars(self):
        specs = hybrid_grid()
        res = Engine.serial().map(specs)
        assert res.n_screened + res.n_promoted == len(specs)
        assert res.n_promoted <= RouterSpec().promote_cap(len(specs))
        screened = [s for s in specs
                    if res.router[s]["fidelity"] == "analytic"]
        assert screened
        for spec in screened:
            stats = res[spec]
            assert stats.fidelity == "analytic"
            assert stats.ipc_lo <= stats.ipc <= stats.ipc_hi
            # the annotation is exactly the analytic result otherwise
            pure = replace(spec, backend="analytic", router=None).execute()
            assert stats.ipc == pure.ipc
            snap = stats.snapshot()
            assert snap["fidelity"] == "analytic"
            assert snap["ipc_interval"] == [stats.ipc_lo, stats.ipc_hi]

    def test_promoted_cells_byte_identical_to_pure_cycle(self):
        specs = hybrid_grid()
        res = Engine.serial().map(specs)
        promoted = [s for s in specs if res.router[s]["fidelity"] == "cycle"]
        assert promoted
        for spec in promoted:
            pure = replace(spec, backend="cycle", router=None).execute()
            assert res[spec].to_dict() == pure.to_dict()
            assert "fidelity" not in res[spec].snapshot()

    def test_single_hybrid_run_promotes_itself(self):
        spec = fast_spec()
        stats = Engine.serial().run(spec)
        pure = replace(spec, backend="cycle", router=None).execute()
        assert stats.to_dict() == pure.to_dict()

    def test_engine_lifetime_counters_accumulate(self):
        engine = Engine.serial()
        engine.map(hybrid_grid())
        first = (engine.n_screened, engine.n_promoted)
        assert first[0] > 0 and first[1] > 0
        engine.map(hybrid_grid())
        assert engine.n_screened == 2 * first[0]
        assert engine.n_promoted == 2 * first[1]

    def test_progress_streams_screened_and_promoted(self):
        events = []
        engine = Engine(workers=1, cache=None,
                        progress=lambda ev, spec: events.append(ev))
        res = engine.map(hybrid_grid())
        assert events.count("screened") == res.n_screened
        assert events.count("promoted") == res.n_promoted

    def test_unset_and_default_router_run_each_sub_spec_once(self):
        # both specs route in the default group and retarget to the same
        # analytic spec (and cycle spec), which must run only once
        specs = [fast_spec(), fast_spec(router=RouterSpec())]
        res = Engine.serial().map(specs)
        assert (res.n_screened, res.n_promoted) == (1, 1)
        assert (res.n_executed, res.n_cached) == (2, 0)

    def test_mixed_batch_routes_only_hybrid_specs(self):
        plain = fast_spec(backend="analytic", l2_latency=32)
        specs = [plain] + hybrid_grid(latencies=(16, 64), modes=(True,))
        res = Engine.serial().map(specs)
        assert plain not in res.router
        assert res[plain].fidelity == ""
        assert all(s in res.router for s in specs[1:])

    def test_error_budget_config_rides_in_the_spec(self):
        # an absurdly tight error budget turns every cell into a
        # candidate; the absolute budget still caps promotions
        router = RouterSpec(policies=(), error_budget=1e-6,
                            promote_budget=2)
        specs = hybrid_grid(router=router)
        res = Engine.serial().map(specs)
        assert res.n_promoted == 2
        reasons = {res.router[s]["reason"] for s in specs
                   if res.router[s]["fidelity"] == "cycle"}
        assert reasons == {"error-budget"}


class TestRoutingDeterminism:
    """Same grid + same error model -> byte-identical promotion set."""

    def _doc(self, res, specs):
        return {
            "runs": [res[s].to_dict() for s in specs],
            "router": [
                {k: res.router[s][k] for k in
                 ("fidelity", "reason", "ipc_lo", "ipc_hi", "model")}
                for s in specs
            ],
        }

    def test_serial_vs_parallel(self, monkeypatch):
        from repro.engine import scheduler

        pools, real = [], scheduler.ProcessPoolExecutor

        def spy(max_workers):
            pools.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(scheduler, "ProcessPoolExecutor", spy)
        # three promoted cells: a single pool-worthy task would run
        # in-process, and the comparison would be serial against serial
        specs = hybrid_grid(router=RouterSpec(promote_budget=3))
        serial = Engine(workers=1, cache=None).map(specs)
        parallel = Engine(workers=2, cache=None).map(specs)
        assert pools == [2]
        assert self._doc(serial, specs) == self._doc(parallel, specs)

    def test_warm_vs_cold_cache(self, tmp_path):
        specs = hybrid_grid()
        cold = Engine(workers=1, cache=ResultCache(tmp_path)).map(specs)
        # a fresh engine over the same cache: every sub-fidelity run is
        # served from disk, the routing is recomputed from them
        warm_engine = Engine(workers=1, cache=ResultCache(tmp_path))
        warm = warm_engine.map(specs)
        assert self._doc(cold, specs) == self._doc(warm, specs)
        assert warm.n_promoted == cold.n_promoted
        assert warm_engine.n_executed == 0  # everything came from cache

    def test_repeat_map_on_one_engine_is_stable(self):
        engine = Engine.serial()
        specs = hybrid_grid()
        first = engine.map(specs)
        second = engine.map(specs)
        assert self._doc(first, specs) == self._doc(second, specs)


def _routed_doc(specs, warm=False, sort_events=False, **engine_kw) -> dict:
    """Everything a map exposes: results, provenance, counters, events."""
    if warm:  # a first engine fills the cache that the measured one reads
        Engine(**engine_kw).map(specs)
    events: list = []
    res = Engine(
        progress=lambda ev, s: events.append([ev, s.key()]), **engine_kw
    ).map(specs)
    return {
        "runs": [[s.key(), stats.to_dict()] for s, stats in res.items()],
        "router": [[s.key(), prov] for s, prov in res.router.items()],
        "counters": res.counters.to_dict(),
        "events": sorted(events) if sort_events else events,
    }


def _run_doc(tmp) -> dict:
    events: list = []
    engine = Engine.serial()
    engine.progress = lambda ev, s: events.append([ev, s.key()])
    spec = fast_spec()
    return {
        "runs": [[spec.key(), engine.run(spec).to_dict()]],
        "counters": engine.counters.to_dict(),
        "events": events,
    }


def _mixed_forked_doc(tmp) -> dict:
    return _routed_doc(
        [fast_spec(backend="analytic"), fast_spec(backend="cycle")]
        + hybrid_grid(latencies=(16, 256), commits_per_thread=[1500, 3000],
                      router=RouterSpec(promote_budget=5)),
        workers=1, cache=None, fork_warmup=2)


#: name -> (the scenario's document from a tmp dir, its sha256)
PINNED_ROUTING = {
    "serial": (
        lambda tmp: _routed_doc(hybrid_grid(), workers=1, cache=None),
        "c62ae26f1c092a4cd4fde8d7d3138ac11a5b0bff1f78b0ca963e5cd6c445a41d"),
    # completion order decides the event order in a pool
    "two_workers": (
        lambda tmp: _routed_doc(
            hybrid_grid(router=RouterSpec(promote_budget=3)),
            sort_events=True, workers=2, cache=None),
        "b3846233fe66dd20f0a3e3c9c145e0bd9db4fdf45a632475c8edfc7738dcfe0e"),
    "cold_cache": (
        lambda tmp: _routed_doc(
            hybrid_grid(), workers=1, cache=ResultCache(tmp)),
        "c62ae26f1c092a4cd4fde8d7d3138ac11a5b0bff1f78b0ca963e5cd6c445a41d"),
    "warm_cache": (
        lambda tmp: _routed_doc(
            hybrid_grid(), warm=True, workers=1, cache=ResultCache(tmp)),
        "e469cf4a2dda81eecc85072d210991332c24fce192355398e8a908a331df3a79"),
    "two_groups": (
        lambda tmp: _routed_doc(
            hybrid_grid() + hybrid_grid(router=RouterSpec(promote_budget=2)),
            workers=1, cache=None),
        "0ee550c3d147ca817991cd0a48cfc97de68f398009e3a8ee1b48a4388f930eae"),
    # the plain specs are twins of two routed sub-specs (memo hits), and
    # promoted cells that differ only in their budget fork
    "mixed_forked": (
        _mixed_forked_doc,
        "0da254ce074ae107c4ba612a79b07e9997e6f3778518cfd22854c82ce9c6f81c"),
    # the same map apart from the order in which its results land
    "mixed_forked_without_events": (
        lambda tmp: {
            k: v for k, v in _mixed_forked_doc(tmp).items() if k != "events"
        },
        "fa03cd78a46fa5458616c979b34680ff928821181106448e7a97745f82748c64"),
    "mixed_forked_sorted_events": (
        lambda tmp: sorted(_mixed_forked_doc(tmp)["events"]),
        "bf65b3f78dd265da06e2014da3d1b6118950c413265949ba82be62a02eb67088"),
    "engine_run": (
        _run_doc,
        "3e04f8e99840eb921e0ff20d6b008480ca322d283c8d347cb2d85a9fe7c7990c"),
    "execute": (
        lambda tmp: {"runs": fast_spec().execute().to_dict()},
        "ef6954f42746cccd8df189fe067c8fe01d8ba013b6c628056722fb79b112d8a9"),
}


class TestPinnedRouting:
    """A sha256 per routing scenario over every result's ``to_dict()``,
    the provenance, the counters and the progress events: routing
    refactors must leave each one where it is."""

    @pytest.mark.parametrize("name", list(PINNED_ROUTING))
    def test_routing_is_pinned(self, name, tmp_path):
        build, pinned = PINNED_ROUTING[name]
        text = json.dumps(build(tmp_path), sort_keys=True)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == pinned, f"{name} routes to {text[:2000]}"


# -- CLI --------------------------------------------------------------------------


class TestRouterCLI:
    def test_sweep_hybrid_emits_provenance_and_counters(self, capsys):
        from repro.cli import main

        assert main([
            "sweep", "--backend", "hybrid", "--threads", "1",
            "--latencies", "16,64,256", "--modes", "dec,non",
            "--promote-budget", "2", "--no-cache",
        ]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["n_screened"] == 4 and doc["n_promoted"] == 2
        fidelities = [run["router"]["fidelity"] for run in doc["runs"]]
        assert fidelities.count("cycle") == 2
        for run in doc["runs"]:
            assert run["spec"]["router"]["promote_budget"] == 2
            assert "model" in run["router"]
        assert "screened" in captured.err and "promoted" in captured.err

    def test_router_flags_require_hybrid_backend(self, capsys):
        from repro.cli import main

        assert main([
            "sweep", "--threads", "1", "--promote-budget", "0.5",
        ]) == 2
        assert "--backend hybrid" in capsys.readouterr().err

    def test_bad_promote_budget_is_rejected(self, capsys):
        from repro.cli import main

        assert main([
            "sweep", "--backend", "hybrid", "--threads", "1",
            "--promote-budget", "1.5",
        ]) == 2
        assert "promote_budget" in capsys.readouterr().err

    def test_conformance_fit_from_committed_corpus(self, capsys):
        """The CI drift gate: no simulation, just fit + coverage."""
        from repro.cli import main

        assert main([
            "conformance", "--fit",
            "--corpus", str(default_corpus_path()),
        ]) == 0
        out = capsys.readouterr().out
        assert "held-out interval coverage" in out
        assert "PASS" in out

    def test_conformance_corpus_without_fit_is_an_error(self, capsys):
        from repro.cli import main

        assert main(["conformance", "--corpus", "x.json"]) == 2
        assert "--fit" in capsys.readouterr().err

    def test_conformance_out_writes_a_loadable_corpus(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "sub" / "corpus.json"
        assert main([
            "conformance", "--quick",
            "--no-cache", "--out", str(out), "--fit",
        ]) == 0
        cells = load_corpus(out)
        assert len(cells) == 14  # the quick grid
        assert all("features" in c for c in cells)
        assert ErrorModel.fit(cells).coverage(cells) >= COVERAGE_MIN
