"""Declarative experiment engine.

The engine decouples *describing* an experiment from *executing* it — the
same split the paper applies to the processor pipeline. Four layers:

* **Spec** (:mod:`repro.engine.spec`) — :class:`RunSpec` is a frozen,
  hashable description of one simulation (workload + config overrides +
  budgets + seed + ``REPRO_SCALE``); :class:`Sweep` expands grids of specs
  declaratively.
* **Execution** (:mod:`repro.engine.scheduler`) — :class:`Engine` runs a
  batch of specs as tasks through one executor loop (a process pool, or
  this process for one worker) and returns results keyed by spec, in
  submission order regardless of completion order, with one
  :class:`Counters` record of how they were produced. Its ``"hybrid"``
  specs are routed as one grid (:func:`repro.router.hybrid.route_grid`).
* **Persistence** (:mod:`repro.engine.cache`) — :class:`ResultCache` is a
  content-addressed on-disk store keyed by :meth:`RunSpec.key`, so reruns
  and interrupted sweeps resume for free.
* **Backends** (:mod:`repro.engine.backends`) — the registry mapping
  ``RunSpec.backend`` names to simulation engines: ``"cycle"`` (the staged
  cycle-accurate kernel), ``"analytic"`` (the mean-value fast model in
  :mod:`repro.model`) and ``"hybrid"`` (the multi-fidelity router in
  :mod:`repro.router`: analytic screens with calibrated error bars,
  cycle verifies the cells that matter, both through the engine's
  lookup step). The name is part of the spec's content hash, so the
  cache never mixes backends.

Typical driver::

    sweep = Sweep.grid(RunSpec.multiprogrammed,
                       n_threads=(1, 2, 4), l2_latency=(16, 64))
    results = Engine(workers=4, cache=ResultCache()).map(sweep)
    for spec in sweep:
        print(spec.n_threads, spec.l2_latency, results[spec].ipc)
"""

from repro.engine.backends import (
    Backend,
    backend_names,
    get_backend,
    register_backend,
)
from repro.engine.cache import CACHE_DIR_ENV, ResultCache, default_cache_dir
from repro.engine.scheduler import (
    WORKERS_ENV,
    Counters,
    Engine,
    SweepResult,
    resolve_workers,
    submit,
)
from repro.engine.spec import RunSpec, Sweep, scale_factor
from repro.router.spec import RouterSpec

__all__ = [
    "Backend",
    "CACHE_DIR_ENV",
    "Counters",
    "Engine",
    "RouterSpec",
    "backend_names",
    "get_backend",
    "register_backend",
    "ResultCache",
    "RunSpec",
    "Sweep",
    "SweepResult",
    "WORKERS_ENV",
    "default_cache_dir",
    "resolve_workers",
    "scale_factor",
    "submit",
]
