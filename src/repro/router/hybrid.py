"""The ``"hybrid"`` backend: route a grid across two fidelities.

:meth:`Engine.map <repro.engine.scheduler.Engine.map>` hands every spec
whose backend is ``"hybrid"`` to :func:`route_grid` as one batch:

1. the whole grid runs on the **analytic** backend (in-process,
   milliseconds per cell, results cached under the analytic specs' own
   keys);
2. the fitted :class:`~repro.router.errmodel.ErrorModel` attaches a
   calibrated IPC interval to every cell;
3. the promotion policies (:mod:`repro.router.policies`) pick the subset
   worth cycle fidelity, capped by the promote budget;
4. the promoted cells run on the **cycle** backend through the same
   engine — process pool, ``fork_warmup``, result cache all apply — and
   their stats pass through *untouched*, so a promoted cell is
   byte-identical to a pure-cycle run of the same spec.

Steps 1 and 4 go through :meth:`Engine.resolve
<repro.engine.scheduler.Engine.resolve>`, the lookup step of every map.
Screened cells return the analytic stats annotated with
``fidelity="analytic"`` and the interval (``ipc_lo``/``ipc_hi``).
Hybrid results are deliberately **not** cached under the hybrid spec's
key: both underlying fidelities already are, routing is recomputed from
them in microseconds, and recomputing is what keeps warm and cold sweeps
byte-identical even when the promote budget changes between runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.backends import Backend, register_backend
from repro.router.errmodel import features_of, load_model
from repro.router.policies import ScreenedCell, select_promotions
from repro.router.spec import RouterSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.scheduler import Engine
    from repro.engine.spec import RunSpec


def route_grid(
    specs: list["RunSpec"], engine: "Engine", done: dict
) -> dict:
    """Route one batch of hybrid specs; fills ``done[spec]`` per spec.

    Returns each spec's routing provenance::

        {spec: {"fidelity", "reason", "ipc_lo", "ipc_hi",
                "model": <error-model content key>}}

    The sub-fidelity runs go through ``engine.resolve``, and each routed
    cell adds one ``n_screened`` or ``n_promoted`` to ``engine.counters``
    as its event is emitted.  Specs may mix router configs (each config
    group is routed — and budget-capped — independently); results and
    provenance pool.
    """
    provenance: dict = {}
    groups: dict[RouterSpec, list["RunSpec"]] = {}
    for spec in specs:
        groups.setdefault(spec.router or RouterSpec(), []).append(spec)
    for rspec, members in groups.items():
        _route_group(rspec, members, engine, done, provenance)
    return provenance


def _route_group(
    rspec: RouterSpec,
    specs: list["RunSpec"],
    engine: "Engine",
    done: dict,
    provenance: dict,
) -> None:
    model = load_model(rspec.corpus, rspec.quantile)
    model_key = model.key()  # serializes the whole model: once per group

    # 1-2: analytic screen + fitted interval per cell.  Sub-specs are
    # deduped: a spec with no router and one with the default router
    # route in the same group and retarget to the same sub-spec.
    analytic = {spec: spec.with_backend("analytic") for spec in specs}
    a_res: dict = {}
    engine.resolve(dict.fromkeys(analytic.values()), a_res)
    cells = []
    for spec in specs:
        stats = a_res[analytic[spec]]
        feats = features_of(spec)
        lo, hi = model.interval(feats, stats.ipc)
        cells.append(ScreenedCell(
            spec=spec, ipc=stats.ipc, lo=lo, hi=hi,
            hw_rel=model.half_width_rel(feats),
        ))

    # 3: promotion set (deterministic, budget-capped)
    promoted = dict(select_promotions(cells, rspec))

    # 4: promoted cells at cycle fidelity, through the ordinary engine
    # machinery (pool, fork_warmup, cache); stats pass through untouched
    cycle = {spec: spec.with_backend("cycle") for spec in promoted}
    c_res: dict = {}
    engine.resolve(dict.fromkeys(cycle.values()), c_res)

    for spec, cell in zip(specs, cells):
        if spec in promoted:
            done[spec] = c_res[cycle[spec]]
            prov = {"fidelity": "cycle", "reason": promoted[spec]}
            engine.counters.n_promoted += 1
            engine._emit("promoted", spec)
        else:
            # an isolated copy per hybrid cell: two router configs can
            # screen the same analytic spec, and annotations must not
            # alias across them (or corrupt the engine's memo)
            stats = a_res[analytic[spec]].copy()
            stats.fidelity = "analytic"
            stats.ipc_lo, stats.ipc_hi = cell.lo, cell.hi
            done[spec] = stats
            prov = {"fidelity": "analytic", "reason": "screened"}
            engine.counters.n_screened += 1
            engine._emit("screened", spec)
        prov["ipc_lo"], prov["ipc_hi"] = cell.lo, cell.hi
        prov["model"] = model_key
        provenance[spec] = prov


class HybridBackend(Backend):
    """The ``"hybrid"`` name in the backend registry, so the CLI, the
    wire and :meth:`RunSpec.execute` resolve it like any other backend.
    A single spec run directly is a one-cell grid through
    :meth:`Engine.map <repro.engine.scheduler.Engine.map>`: the extrema
    policy promotes it, so the result is the cycle result — the safe
    reading of "verify what matters" when there is only one cell.
    Routing gains come from grids."""

    name = "hybrid"

    def run(self, spec: "RunSpec"):
        from repro.engine.scheduler import Engine

        return Engine.serial().run(spec)


register_backend(HybridBackend())
