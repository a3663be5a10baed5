"""Spec layer: frozen run descriptions and declarative sweeps.

A :class:`RunSpec` captures *everything* that determines a simulation's
result — the workload (an open, declarative
:class:`~repro.workloads.spec.WorkloadSpec`: per-thread playlists of
profile references with inline overrides), machine-config overrides,
instruction budgets, RNG seed, the executing backend (``"cycle"`` or
``"analytic"``; see :mod:`repro.engine.backends`) and the ``REPRO_SCALE``
factor in force when the spec was built. Two specs are equal iff the
simulations they describe are identical, so a spec's stable hash
(:meth:`RunSpec.key`) can address a result cache: a cached result can
never be served across different workloads, scale factors, seeds,
configurations or backends, because each of those is part of the key.

The paper's two run shapes are presets, not kinds:
:meth:`RunSpec.multiprogrammed` builds the section-3 rotation and
:meth:`RunSpec.single` the section-2 single-benchmark run, but any
:class:`WorkloadSpec` — a named preset, a JSON/TOML file, or one built in
code — runs through :meth:`RunSpec.from_workload` on either backend.

Budget constants live in :mod:`repro.workloads.spec` (re-exported
here): the measured/warm-up commit counts behind every figure in the
paper.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import warnings
from dataclasses import dataclass, field, fields, replace as dataclasses_replace
from typing import Any, Iterable, Iterator

from repro.memo import Memoized
from repro.memory.spec import MemSpec
from repro.router.spec import RouterSpec
from repro.stats.counters import SimStats
from repro.workloads.profiles import _check_known, check_scalars, scalar_checks
from repro.workloads.spec import (
    COMMITS_PER_THREAD,
    SEG_INSTRS,
    SINGLE_COMMITS,
    SINGLE_WARMUP,
    WARMUP_PER_THREAD,
    WorkloadSpec,
)

__all__ = [
    "COMMITS_PER_THREAD",
    "SEG_INSTRS",
    "SINGLE_COMMITS",
    "SINGLE_WARMUP",
    "SPEC_VERSION",
    "WARMUP_PER_THREAD",
    "RunSpec",
    "Sweep",
    "scale_factor",
]

#: bump when the spec schema or execution semantics change incompatibly;
#: part of the hashed payload, so stale cache entries simply stop matching.
#: v2: wrong-path synthesis cycles a pooled PC-wrap period (PR 2).
#: v3: ``kind``/``bench``/``seg_instrs`` replaced by the declarative
#:     ``workload`` (WorkloadSpec) field (PR 4).
#: v4: the declarative ``mem`` (MemSpec) field joins the hashed payload;
#:     the default hierarchy is bit-identical to v3 semantics (PR 5).
SPEC_VERSION = 4

#: ``scale_factor`` never returns less than this (tiny scales would
#: shrink budgets below anything statistically meaningful — see
#: ``_scaled``'s 500-commit floor, which binds first anyway)
SCALE_FLOOR = 0.05

_warned_bad_scale = False


def scale_factor() -> float:
    """Global instruction-budget scale (``REPRO_SCALE`` env var).

    Values are clamped to :data:`SCALE_FLOOR`; a malformed value falls
    back to 1.0 with a one-time :class:`RuntimeWarning` (it used to be
    swallowed silently, which made typos look like slow runs).
    """
    global _warned_bad_scale
    raw = os.environ.get("REPRO_SCALE", "1.0")
    try:
        value = float(raw)
    except ValueError:
        if not _warned_bad_scale:
            warnings.warn(
                f"REPRO_SCALE={raw!r} is not a float; using 1.0",
                RuntimeWarning,
                stacklevel=2,
            )
            _warned_bad_scale = True
        return 1.0
    return max(SCALE_FLOOR, value)


def _scaled(n: int, scale: float) -> int:
    return max(500, int(n * scale))


def _canonical(doc: dict, workload: WorkloadSpec) -> str:
    """The canonical JSON of a spec document: ``doc`` (every field but
    the workload) dumped with sorted keys, and the workload's memoized
    canonical JSON spliced in as the last member.

    Sorting puts ``"workload"`` after every other top-level key
    (``backend`` ... ``warmup``), so the text is byte-identical to a
    dump of the whole document, without serializing the workload (about
    95% of a 4-thread document) again for each spec that shares it.
    """
    assert max(doc) < "workload", "the workload must sort last"
    head = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return f'{head[:-1]},"workload":{workload.canonical_json()}}}'


def _digest(doc: dict, workload: WorkloadSpec) -> str:
    """sha256 prefix of the canonical JSON of a spec document and the
    spec version (see :func:`_canonical`)."""
    payload = _canonical({"spec_version": SPEC_VERSION, **doc}, workload)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


@dataclass(frozen=True)
class RunSpec(Memoized):
    """One simulation, fully described. Build via :meth:`from_workload`,
    :meth:`multiprogrammed` or :meth:`single`; execute via
    :meth:`execute` (or hand a batch to the scheduler)."""

    workload: WorkloadSpec
    backend: str = "cycle"        # simulation engine (see engine/backends.py)
    #: declarative memory hierarchy; ``None`` = the classic paper machine
    #: built from the config scalars (see :mod:`repro.memory.spec`).
    #: Identity is by *description*, same as ``workload``: the spec name
    #: is part of the hash, so ``mem=None`` and an explicit ``classic``
    #: preset are distinct cache entries even though they build the same
    #: machine — the cache trades a rare duplicate run for never having
    #: to prove two descriptions equivalent.
    mem: MemSpec | None = None
    #: multi-fidelity router configuration (see :mod:`repro.router`);
    #: only a ``"hybrid"`` spec may carry one, since no other backend
    #: reads it. ``None`` means the router defaults on a hybrid spec.
    #: Serialized only when set, keeping every pre-router spec hash (and
    #: therefore the whole cache and golden corpus) stable.
    router: RouterSpec | None = None
    l2_latency: int = 16
    decoupled: bool = True
    scale_with_latency: bool = False   # section-2 resource scaling
    seed: int = 0
    commits: int | None = None    # pre-scale budget override, per thread
    warmup: int | None = None
    scale: float = 1.0            # REPRO_SCALE captured at spec build time
    config_overrides: tuple[tuple[str, Any], ...] = field(default_factory=tuple)

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_workload(
        cls,
        workload: WorkloadSpec,
        l2_latency: int = 16,
        decoupled: bool = True,
        scale_with_latency: bool = False,
        seed: int = 0,
        commits: int | None = None,
        warmup: int | None = None,
        scale: float | None = None,
        backend: str = "cycle",
        mem: MemSpec | None = None,
        router: RouterSpec | None = None,
        **config_overrides,
    ) -> "RunSpec":
        """Any declarative workload — preset, file or hand-built — on a
        configured machine. ``commits``/``warmup`` are per-thread,
        pre-scale; unset they defer to the workload's budget hints."""
        return cls(
            workload=workload,
            backend=backend,
            mem=mem,
            router=router,
            l2_latency=l2_latency,
            decoupled=decoupled,
            scale_with_latency=scale_with_latency,
            seed=seed,
            commits=commits,
            warmup=warmup,
            scale=scale_factor() if scale is None else scale,
            config_overrides=tuple(sorted(config_overrides.items())),
        )

    @classmethod
    def multiprogrammed(
        cls,
        n_threads: int,
        l2_latency: int = 16,
        decoupled: bool = True,
        seed: int = 0,
        commits_per_thread: int | None = None,
        warmup_per_thread: int | None = None,
        seg_instrs: int = SEG_INSTRS,
        scale: float | None = None,
        backend: str = "cycle",
        mem: MemSpec | None = None,
        router: RouterSpec | None = None,
        **config_overrides,
    ) -> "RunSpec":
        """A paper-section-3 run: rotated SPEC FP95 mix on all contexts
        (a thin preset over :meth:`from_workload`)."""
        return cls.from_workload(
            WorkloadSpec.rotation(n_threads, seg_instrs=seg_instrs),
            l2_latency=l2_latency,
            decoupled=decoupled,
            seed=seed,
            commits=commits_per_thread,
            warmup=warmup_per_thread,
            scale=scale,
            backend=backend,
            mem=mem,
            router=router,
            **config_overrides,
        )

    @classmethod
    def single(
        cls,
        bench: str,
        l2_latency: int = 16,
        decoupled: bool = True,
        scale_with_latency: bool = True,
        seed: int = 0,
        commits: int | None = None,
        warmup: int | None = None,
        scale: float | None = None,
        backend: str = "cycle",
        mem: MemSpec | None = None,
        router: RouterSpec | None = None,
        **config_overrides,
    ) -> "RunSpec":
        """A paper-section-2 run: a single benchmark on one context (a
        thin preset over :meth:`from_workload`). The trace segment covers
        the whole measured window, so the playlist never wraps early."""
        scale = scale_factor() if scale is None else scale
        seg = max(_scaled(commits or SINGLE_COMMITS, scale), 20_000)
        return cls.from_workload(
            WorkloadSpec.single(bench, seg_instrs=seg),
            l2_latency=l2_latency,
            decoupled=decoupled,
            scale_with_latency=scale_with_latency,
            seed=seed,
            commits=commits,
            warmup=warmup,
            scale=scale,
            backend=backend,
            mem=mem,
            router=router,
            **config_overrides,
        )

    def __post_init__(self):
        if not isinstance(self.workload, WorkloadSpec):
            raise ValueError(
                f"workload must be a WorkloadSpec, got "
                f"{type(self.workload).__name__}"
            )
        if not self.backend or not isinstance(self.backend, str):
            raise ValueError("backend must be a non-empty string")
        if self.mem is not None and not isinstance(self.mem, MemSpec):
            raise ValueError(
                f"mem must be a MemSpec or None, got "
                f"{type(self.mem).__name__}"
            )
        if self.router is not None and not isinstance(self.router, RouterSpec):
            raise ValueError(
                f"router must be a RouterSpec or None, got "
                f"{type(self.router).__name__}"
            )
        if self.router is not None and self.backend != "hybrid":
            # a router nothing reads would key a second cache entry for
            # the same simulation
            raise ValueError(
                f"router config needs the hybrid backend, not {self.backend!r}"
            )
        check_scalars(self, _CHECKS)

    # -- identity ----------------------------------------------------------------

    @property
    def n_threads(self) -> int:
        return self.workload.n_threads

    def to_dict(self) -> dict:
        """JSON-safe representation; round-trips through :meth:`from_dict`.

        ``router`` is emitted only when set: every spec without router
        config keeps the exact serialization (and content hash) it had
        before the router subsystem existed, so the result cache and the
        golden corpus survived the field's introduction untouched.
        """
        return {"workload": self.workload.to_dict(), **self._run_doc()}

    def _run_doc(self) -> dict:
        """:meth:`to_dict` without the workload: what the keys dump."""
        doc = {
            "backend": self.backend,
            "mem": self.mem.to_dict() if self.mem is not None else None,
            "l2_latency": self.l2_latency,
            "decoupled": self.decoupled,
            "scale_with_latency": self.scale_with_latency,
            "seed": self.seed,
            "commits": self.commits,
            "warmup": self.warmup,
            "scale": self.scale,
            "config_overrides": dict(self.config_overrides),
        }
        if self.router is not None:
            doc["router"] = self.router.to_dict()
        return doc

    @classmethod
    def from_dict(cls, d: dict) -> "RunSpec":
        _check_known(d, cls, "spec")
        kw = dict(d)
        kw["workload"] = WorkloadSpec.from_dict(d["workload"])
        if d.get("mem") is not None:
            kw["mem"] = MemSpec.from_dict(d["mem"])
        else:
            kw.pop("mem", None)
        if d.get("router") is not None:
            kw["router"] = RouterSpec.from_dict(d["router"])
        else:
            kw.pop("router", None)
        kw["config_overrides"] = tuple(
            sorted((d.get("config_overrides") or {}).items())
        )
        return cls(**kw)

    def __hash__(self) -> int:
        """Structural, like the generated hash, but computed once per
        object: ``Engine.map`` hashes a spec six times on a cache hit."""
        return self._memo("_hash", lambda: hash(
            tuple(getattr(self, f.name) for f in fields(self))
        ))

    def canonical_json(self) -> str:
        """:meth:`to_dict` as canonical JSON (sorted keys, no spaces),
        built once per object: the text the job server stores and
        serves for this spec.  The workload's part is its own memo."""
        return self._memo(
            "_json", lambda: _canonical(self._run_doc(), self.workload)
        )

    def key(self) -> str:
        """Stable content hash; the cache filename stem.

        Computed once per object (see :mod:`repro.memo`): the canonical
        JSON of a 4-thread spec is 16 KB, and a cold cell asks for its
        key several times. The workload's part of that JSON is memoized
        on the workload object (see :func:`_digest`).
        """
        return self._memo(
            "_key", lambda: _digest(self._run_doc(), self.workload)
        )

    def warmup_key(self) -> str:
        """Stable hash of everything that shapes the machine *through the
        warm-up boundary* — the fork key of the checkpoint subsystem.

        Two specs with equal warmup keys are guaranteed to evolve
        cycle-identically from reset to the end of warm-up: the measured
        commit budget is the **only** spec field that first takes effect
        after that boundary, so it is the only field masked out.  The
        scheduler groups sweep cells by this key, simulates the shared
        warm-up once, and forks each cell's measured tail from the
        snapshot (see :mod:`repro.engine.snapshot`).  Computed once per
        object, like :meth:`key`.
        """
        return self._memo("_warmup_key", lambda: _digest(
            {**self._run_doc(), "commits": None}, self.workload
        ))

    def label(self) -> str:
        """Short human-readable description for logs and JSON output."""
        mode = "dec" if self.decoupled else "non-dec"
        tail = "" if self.mem is None else f" mem={self.mem.name}"
        tail += "" if self.backend == "cycle" else f" [{self.backend}]"
        return f"{self.workload.label()} L2={self.l2_latency} {mode}{tail}"

    # -- execution ---------------------------------------------------------------

    def machine_config(self):
        """The :class:`~repro.core.config.MachineConfig` this spec runs on
        (shared by every backend, so config semantics can never drift)."""
        from repro.core.config import paper_config

        return paper_config(
            n_threads=self.workload.n_threads,
            decoupled=self.decoupled,
            l2_latency=self.l2_latency,
            scale_with_latency=self.scale_with_latency,
            mem=self.mem,
            **dict(self.config_overrides),
        )

    def budgets(self) -> tuple[int, int]:
        """``(measured_commits, warmup_commits)`` — totals over threads.

        Per-thread budgets resolve as: explicit spec override, else the
        workload's hint, else the rotation defaults; then the scale
        factor and the 500-commit floor apply per thread.
        """
        wl = self.workload
        meas = self.commits or wl.default_commits or COMMITS_PER_THREAD
        warm = self.warmup or wl.default_warmup or WARMUP_PER_THREAD
        return (
            _scaled(meas, self.scale) * wl.n_threads,
            _scaled(warm, self.scale) * wl.n_threads,
        )

    def playlists(self) -> list:
        """One trace playlist per hardware context (cached trace objects)."""
        return self.workload.playlists(seed=self.seed)

    def run_kwargs(self) -> dict:
        """The resolved ``Processor.run`` arguments for this spec.

        Shared by :meth:`instantiate` and the forked path, which measures
        a warm-up group from its boundary
        (:func:`repro.engine.snapshot.measure_group`), so budget
        resolution can never drift between them.
        """
        commits, warmup = self.budgets()
        max_cycles = 8_000_000 if self.workload.n_threads == 1 else 4_000_000
        return dict(
            max_commits=commits, warmup_commits=warmup, max_cycles=max_cycles
        )

    def instantiate(self) -> tuple:
        """Build the configured machine and its run budgets.

        Returns ``(processor, run_kwargs)`` so callers that need the
        machine itself — warm-up capture for forked sweeps, perfbench's
        ``kernel`` workload, which times ``proc.run(**kwargs)`` with
        workload construction excluded — share one spec-to-machine
        translation with :meth:`execute`.
        """
        # imported here so the spec layer stays importable without pulling
        # the whole pipeline in (and to keep worker start-up lazy)
        from repro.core.processor import Processor

        cfg = self.machine_config()
        proc = Processor(cfg, self.playlists(), seed=self.seed)
        return proc, self.run_kwargs()

    def with_backend(self, backend: str) -> "RunSpec":
        """This spec re-targeted at another backend (new cache identity).
        A target other than ``"hybrid"`` drops the router config, so the
        result is the plain spec on that backend and shares its cache
        entry."""
        if backend == self.backend:
            return self
        router = self.router if backend == "hybrid" else None
        return dataclasses_replace(self, backend=backend, router=router)

    def execute(self) -> SimStats:
        """Run this spec on its backend (``"cycle"`` runs the staged
        kernel via :meth:`instantiate`; others dispatch through the
        backend registry)."""
        from repro.engine.backends import get_backend

        return get_backend(self.backend).run(self)


#: a string seed would fail inside the job, and ``decoupled: "no"`` would
#: run decoupled under a cache key of its own
_CHECKS = scalar_checks(RunSpec, {
    "l2_latency", "decoupled", "scale_with_latency", "seed", "commits",
    "warmup", "scale",
})


def _as_axis(value) -> tuple:
    """One grid axis: scalars (and strings) are single-point axes."""
    if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
        return (value,)
    return tuple(value)


class Sweep:
    """An ordered batch of :class:`RunSpec`, built declaratively.

    ``Sweep.grid(factory, a=(1, 2), b=("x", "y"))`` expands the Cartesian
    product in axis-declaration order (last axis fastest) and calls
    ``factory(a=..., b=...)`` for each point; scalar axis values are held
    constant. Sweeps concatenate with ``+`` and keep duplicates — the
    scheduler dedupes at submission time.
    """

    __slots__ = ("specs",)

    def __init__(self, specs: Iterable[RunSpec] = ()):
        self.specs: tuple[RunSpec, ...] = tuple(specs)

    @classmethod
    def of(cls, *specs: RunSpec) -> "Sweep":
        return cls(specs)

    @classmethod
    def grid(cls, factory, **axes) -> "Sweep":
        names = list(axes)
        values = [_as_axis(axes[name]) for name in names]
        return cls(
            factory(**dict(zip(names, point)))
            for point in itertools.product(*values)
        )

    def filter(self, pred) -> "Sweep":
        return Sweep(s for s in self.specs if pred(s))

    def deduped(self) -> "Sweep":
        return Sweep(dict.fromkeys(self.specs))

    def __add__(self, other: "Sweep") -> "Sweep":
        return Sweep(self.specs + tuple(other))

    def __iter__(self) -> Iterator[RunSpec]:
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __getitem__(self, i):
        return self.specs[i]

    def __repr__(self) -> str:
        return f"Sweep({len(self.specs)} specs)"
