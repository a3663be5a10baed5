"""Backend registry: pluggable simulation engines behind one protocol.

A *backend* turns a :class:`~repro.engine.spec.RunSpec` into a
:class:`~repro.stats.counters.SimStats`. Two ship with the repo:

* ``"cycle"`` — the faithful staged cycle-accurate kernel
  (:class:`CycleBackend`, defined here); the reference semantics.
* ``"analytic"`` — the mean-value fast model (:mod:`repro.model.analytic`),
  which predicts the same metrics in milliseconds per run and is validated
  against ``"cycle"`` by the differential conformance suite
  (``repro-sim conformance``).

A third name, ``"hybrid"`` (:mod:`repro.router.hybrid`), routes a grid
over the other two: it screens every cell analytically with calibrated
error bars and promotes only the cells that matter to the cycle kernel.
:meth:`Engine.map <repro.engine.scheduler.Engine.map>` recognises hybrid
specs by name and routes them as one batch; the registry entry lets the
CLI, the wire and :meth:`RunSpec.execute` resolve the name.

The backend name is part of every spec — and therefore of its content hash
— so the result cache can never serve one backend's numbers to the other.
Backends register themselves at import time via :func:`register_backend`;
:func:`get_backend` lazily imports the built-in providers, so importing the
spec layer never drags the whole model (or pipeline) in.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

from repro.stats.counters import SimStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.spec import RunSpec


class Backend:
    """One simulation engine: ``run(spec) -> SimStats``.

    Subclasses set :attr:`name` and implement :meth:`run`. A backend whose
    per-run cost is far below process start-up (the analytic model) keeps
    :attr:`process_pool_worthwhile` at ``False`` and the scheduler executes
    its specs in the submitting process even when a worker pool is up.

    The default is ``False`` deliberately: freshly spawned worker
    processes only know the built-in providers, so a backend registered
    at runtime via :func:`register_backend` would be unresolvable there —
    in-process execution is the only safe default. Built-ins that worker
    processes can re-import (the cycle kernel) opt in to pooling.
    """

    #: registry key; also the value of ``RunSpec.backend``
    name = "backend"
    #: whether shipping a run to a worker process can ever pay off (and
    #: the worker can resolve this backend by name — see class docstring)
    process_pool_worthwhile = False

    def run(self, spec: "RunSpec") -> SimStats:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class CycleBackend(Backend):
    """The faithful staged cycle-accurate kernel (reference semantics)."""

    name = "cycle"
    process_pool_worthwhile = True

    def run(self, spec: "RunSpec") -> SimStats:
        proc, run_kwargs = spec.instantiate()
        return proc.run(**run_kwargs)


_REGISTRY: dict[str, Backend] = {}

#: built-in providers, imported on first lookup so ``repro.engine`` stays
#: light; a provider module registers its backend(s) at import time
_BUILTIN_PROVIDERS = {
    "cycle": "repro.engine.backends",
    "analytic": "repro.model.analytic",
    "hybrid": "repro.router.hybrid",
}


def register_backend(backend: Backend) -> Backend:
    """Add (or replace) a backend under ``backend.name``."""
    if not backend.name or not isinstance(backend.name, str):
        raise ValueError("backend needs a non-empty string name")
    if backend.name == Backend.name:
        raise ValueError(
            f"{type(backend).__name__} kept the Backend base class's "
            f"placeholder name {Backend.name!r}; set a real `name`"
        )
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> Backend:
    """Look up a backend, lazily importing built-in providers."""
    backend = _REGISTRY.get(name)
    if backend is None:
        provider = _BUILTIN_PROVIDERS.get(name)
        if provider is not None:
            importlib.import_module(provider)
            backend = _REGISTRY.get(name)
    if backend is None:
        from repro.workloads.profiles import did_you_mean

        known = sorted(set(_REGISTRY) | set(_BUILTIN_PROVIDERS))
        raise KeyError(
            f"unknown backend {name!r}{did_you_mean(name, known)}; "
            f"known: {', '.join(known)}"
        )
    return backend


def backend_names() -> list[str]:
    """Every selectable backend name (registered or built-in)."""
    return sorted(set(_REGISTRY) | set(_BUILTIN_PROVIDERS))


register_backend(CycleBackend())
