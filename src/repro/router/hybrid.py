"""The ``"hybrid"`` backend: route a grid across two fidelities.

:func:`route_grid` is the subsystem's engine-side entry point, called by
:meth:`Engine.map <repro.engine.scheduler.Engine.map>` for every spec
whose backend :attr:`routes_grids`:

1. the whole grid runs on the **analytic** backend (in-process,
   milliseconds per cell, results cached under the analytic specs' own
   keys);
2. the fitted :class:`~repro.router.errmodel.ErrorModel` attaches a
   calibrated IPC interval to every cell;
3. the promotion policies (:mod:`repro.router.policies`) pick the subset
   worth cycle fidelity, capped by the promote budget;
4. the promoted cells run on the **cycle** backend through the very same
   engine — process pool, ``fork_warmup``, result cache all apply — and
   their stats pass through *untouched*, so a promoted cell is
   byte-identical to a pure-cycle run of the same spec.

Screened cells return the analytic stats annotated with
``fidelity="analytic"`` and the interval (``ipc_lo``/``ipc_hi``).
Hybrid results are deliberately **not** cached under the hybrid spec's
key: both underlying fidelities already are, routing is recomputed from
them in microseconds, and recomputing is what keeps warm and cold sweeps
byte-identical even when the promote budget changes between runs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.engine.backends import Backend, register_backend
from repro.router.errmodel import features_of, load_model
from repro.router.policies import ScreenedCell, select_promotions
from repro.router.spec import RouterSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.scheduler import Engine
    from repro.engine.spec import RunSpec


def _retarget(spec: "RunSpec", backend: str) -> "RunSpec":
    """The underlying single-fidelity spec of one hybrid cell.  The
    router config is stripped so the sub-result shares its cache entry
    with plain runs of the same spec on that backend."""
    return replace(spec, backend=backend, router=None)


def route_grid(
    specs: list["RunSpec"], engine: "Engine", done: dict
) -> dict:
    """Route one batch of hybrid specs; fills ``done[spec]`` per spec.

    Returns each spec's routing provenance::

        {spec: {"fidelity", "reason", "ipc_lo", "ipc_hi",
                "model": <error-model content key>}}

    The sub-fidelity runs go through ``engine``'s own ``map``, and each
    routed cell adds one ``n_screened`` or ``n_promoted`` to
    ``engine.counters`` as its event is emitted.  Specs may mix router
    configs (each config group is routed — and budget-capped —
    independently); results and provenance pool.
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

    # 1-2: analytic screen + fitted interval per cell
    analytic = {spec: _retarget(spec, "analytic") for spec in specs}
    a_res = engine.map(list(analytic.values()))
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
    cycle = {spec: _retarget(spec, "cycle") for spec in promoted}
    c_res = engine.map(list(cycle.values())) if cycle else {}

    by_cell = {cell.spec: cell for cell in cells}
    for spec in specs:
        cell = by_cell[spec]
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
    """Multi-fidelity router (see module docstring).  A single spec run
    directly (``spec.execute()`` / ``Engine.run``) is a one-cell grid:
    the extrema policy promotes it, so the result is the cycle result —
    the safe reading of "verify what matters" when there is only one
    cell.  Routing gains come from grids."""

    name = "hybrid"
    process_pool_worthwhile = False
    routes_grids = True

    def run(self, spec: "RunSpec"):
        from repro.engine.scheduler import Engine

        done: dict = {}
        route_grid([spec], Engine.serial(), done)
        return done[spec]


register_backend(HybridBackend())
