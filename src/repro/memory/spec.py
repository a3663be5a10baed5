"""Declarative memory-hierarchy descriptions: the open memory API.

A :class:`MemSpec` is a frozen, hashable, JSON-round-trippable description
of the whole memory system — the level stack (capacity, associativity,
sharing, banking, MSHRs, hit latency per level), the L1-side interconnect
(width + arbitration policy) and an optional prefetcher — mirroring the
:class:`~repro.workloads.spec.WorkloadSpec` design: parse once, resolve
against the machine scalars, and from then on the spec is self-contained,
content-addressable and identical across processes.

Fields that default to :data:`AUTO` inherit the classic
:class:`~repro.core.config.MachineConfig` scalars at :meth:`MemSpec.resolve`
time (``l1_bytes``, ``l1_ports``, ``l1_hit_latency``, ``mshrs``,
``l2_latency``, ``bus_bytes_per_cycle``), which keeps the existing
experiment axes alive: a finite-L2 preset with an AUTO last-level latency
still sweeps over ``RunSpec.l2_latency`` exactly like the classic machine.
The default ``MemSpec()`` resolves to the paper's Figure-2 memory system
and is bit-identical to the pre-refactor hardwired facade (enforced by
``tests/test_memspec.py`` and the golden corpus).

Level-stack semantics (see :mod:`repro.memory.hierarchy` for timing):

* ``levels[0]`` is the core-facing L1: direct-mapped, port-arbitrated,
  lockup-free behind its MSHR file, with the pending-set fill machinery.
* ``levels[1:]`` are outer levels walked on an L1 miss. A finite outer
  level is set-associative (LRU) and may be thread-partitioned
  (``shared=False``) or banked; an infinite level (``capacity_bytes is
  None``) always hits — the classic "infinite multibanked L2".
* A miss past the last level pays :attr:`MemSpec.memory_latency`.

Line size stays a machine scalar (``MachineConfig.line_bytes``): the
per-thread region salts and the synthetic address streams are derived
from it, so a per-level line size would silently change the workloads.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace

from repro.workloads.profiles import (
    KB,
    MB,
    _check_known,
    check_scalars,
    did_you_mean,
    scalar_checks,
)

__all__ = [
    "AUTO",
    "BUS_POLICIES",
    "PREFETCH_KINDS",
    "InterconnectSpec",
    "LevelSpec",
    "MemSpec",
    "PrefetchSpec",
    "load_memspec",
    "mem_preset",
    "mem_preset_names",
    "register_mem_preset",
    "resolve_memspec",
]

#: sentinel: inherit this field from the machine-config scalars
AUTO = "auto"

#: implemented interconnect arbitration policies
BUS_POLICIES = ("fifo", "ideal")
#: implemented prefetcher kinds
PREFETCH_KINDS = ("none", "nextline", "stream")


def _auto_checks(cls) -> tuple:
    """``(field, nullable)`` for each field of ``cls`` that takes
    :data:`AUTO`: annotated ``int | str``, or ``int | None | str``."""
    return tuple(
        (f.name, "None" in f.type) for f in fields(cls)
        if f.type.startswith("int |") and f.type.endswith("| str")
    )


def _check_auto(obj, checks: tuple, where: str) -> None:
    """Raise :class:`ValueError` unless each field from
    :func:`_auto_checks` holds an int (not a bool), :data:`AUTO` or,
    where nullable, None. The other scalars are checked by
    :func:`~repro.workloads.profiles.check_scalars`."""
    for name, nullable in checks:
        value = getattr(obj, name)
        if type(value) is int or value == AUTO or (
            nullable and value is None
        ):
            continue
        null = ", null" if nullable else ""
        raise ValueError(
            f"{where}{name}: expected an integer{null} or {AUTO!r}, "
            f"got {value!r}"
        )


@dataclass(frozen=True)
class LevelSpec:
    """One cache level. ``levels[0]`` is the L1; the rest are outer."""

    name: str = "L1"
    #: ``None`` = infinite (always hits); AUTO = ``l1_bytes`` at level 0,
    #: infinite for outer levels
    capacity_bytes: int | None | str = AUTO
    #: ways per set; the L1 (level 0) must stay direct-mapped (assoc=1)
    assoc: int = 1
    #: AUTO = ``l1_hit_latency`` at level 0, ``l2_latency`` elsewhere
    hit_latency: int | str = AUTO
    #: miss-status registers; ``None`` = unbounded; AUTO = the config
    #: ``mshrs`` scalar at level 0, unbounded for outer levels
    mshrs: int | None | str = AUTO
    #: 0 = conflict-free multibanking (the paper's L2); N > 0 models N
    #: banks each accepting one access per cycle (eager FIFO, like the bus)
    banks: int = 0
    #: ``False`` partitions the capacity evenly across hardware contexts
    shared: bool = True
    #: per-cycle access ports; only enforced at level 0 (AUTO = ``l1_ports``)
    ports: int | str = AUTO

    def __post_init__(self):
        check_scalars(self, _LEVEL_CHECKS)
        _check_auto(self, _LEVEL_AUTO, f"{self.name}.")
        if self.assoc < 1:
            raise ValueError(f"{self.name}: assoc must be >= 1")
        if self.banks < 0:
            raise ValueError(f"{self.name}: banks must be >= 0")
        # outer levels resolve to 0 ports (unenforced); the L1 needs one,
        # which validate_resolved checks
        if self.ports != AUTO and self.ports < 0:
            raise ValueError(f"{self.name}: ports must be >= 0")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "LevelSpec":
        _check_known(d, cls, "memory level")
        return cls(**d)


#: a float, bool or null in a count would fail while the machine is
#: built, or run as the int it stands for under a cache key of its own
_LEVEL_CHECKS = scalar_checks(LevelSpec, {"name", "assoc", "banks", "shared"})
_LEVEL_AUTO = _auto_checks(LevelSpec)


@dataclass(frozen=True)
class InterconnectSpec:
    """The L1-side line interconnect (fills + write-backs)."""

    kind: str = "bus"
    #: AUTO = the config ``bus_bytes_per_cycle`` scalar
    bytes_per_cycle: int | str = AUTO
    #: ``fifo``: single shared bus, eager FIFO scheduling (the paper's);
    #: ``ideal``: contention-free crossbar (transfers never queue) —
    #: isolates bus saturation in experiments
    policy: str = "fifo"

    def __post_init__(self):
        check_scalars(self, _INTERCONNECT_CHECKS)
        _check_auto(self, _INTERCONNECT_AUTO, "interconnect.")
        if self.kind != "bus":
            raise ValueError(
                f"unknown interconnect kind {self.kind!r}"
                f"{did_you_mean(self.kind, ('bus',))}"
            )
        if self.policy not in BUS_POLICIES:
            raise ValueError(
                f"unknown bus policy {self.policy!r}"
                f"{did_you_mean(self.policy, BUS_POLICIES)}; "
                f"known: {', '.join(BUS_POLICIES)}"
            )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "InterconnectSpec":
        _check_known(d, cls, "interconnect")
        return cls(**d)


_INTERCONNECT_CHECKS = scalar_checks(InterconnectSpec, {"kind", "policy"})
_INTERCONNECT_AUTO = _auto_checks(InterconnectSpec)


@dataclass(frozen=True)
class PrefetchSpec:
    """Optional hardware prefetcher in front of the L1 miss path.

    Both built-in kinds are *miss-triggered*: they act only inside demand
    accesses, never on a clock, which is what keeps them eligible for the
    idle-cycle fast-forward (see DESIGN.md "Memory hierarchy").
    """

    kind: str = "none"
    #: lines fetched ahead per triggering miss
    degree: int = 1

    def __post_init__(self):
        check_scalars(self, _PREFETCH_CHECKS)
        if self.kind not in PREFETCH_KINDS:
            raise ValueError(
                f"unknown prefetcher kind {self.kind!r}"
                f"{did_you_mean(self.kind, PREFETCH_KINDS)}; "
                f"known: {', '.join(PREFETCH_KINDS)}"
            )
        if self.degree < 1:
            raise ValueError("prefetch degree must be >= 1")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "PrefetchSpec":
        _check_known(d, cls, "prefetch")
        return cls(**d)


_PREFETCH_CHECKS = scalar_checks(PrefetchSpec)


@dataclass(frozen=True)
class MemSpec:
    """The whole memory hierarchy, declaratively."""

    name: str = "classic"
    levels: tuple[LevelSpec, ...] = (
        LevelSpec(name="L1"),
        LevelSpec(name="L2"),
    )
    interconnect: InterconnectSpec = field(default_factory=InterconnectSpec)
    prefetch: PrefetchSpec = field(default_factory=PrefetchSpec)
    #: latency of a miss past the last level; AUTO = 4x the resolved
    #: last-level hit latency (only reachable when the last level is finite)
    memory_latency: int | str = AUTO

    def __post_init__(self):
        check_scalars(self, _MEM_CHECKS)
        _check_auto(self, _MEM_AUTO, "")
        if not self.levels:
            raise ValueError("memory hierarchy needs at least one level")
        if isinstance(self.levels, list):
            object.__setattr__(self, "levels", tuple(self.levels))
        l0 = self.levels[0]
        if l0.assoc != 1:
            raise ValueError(
                "level 0 (the L1) must be direct-mapped (assoc=1); "
                f"got assoc={l0.assoc}"
            )
        if l0.capacity_bytes is None:
            raise ValueError("level 0 (the L1) cannot be infinite")
        seen = set()
        for lvl in self.levels:
            if lvl.name in seen:
                raise ValueError(f"duplicate level name {lvl.name!r}")
            seen.add(lvl.name)

    # -- resolution ------------------------------------------------------------

    @property
    def resolved(self) -> bool:
        """True when no field is still :data:`AUTO`."""
        vals = [self.memory_latency]
        vals.append(self.interconnect.bytes_per_cycle)
        for lvl in self.levels:
            vals += [lvl.capacity_bytes, lvl.hit_latency, lvl.mshrs, lvl.ports]
        return AUTO not in [v for v in vals if isinstance(v, str)]

    def resolve(self, cfg) -> "MemSpec":
        """Fill every :data:`AUTO` field from the machine-config scalars;
        the result is fully concrete (and idempotent under re-resolution).
        """
        last = len(self.levels) - 1
        levels = []
        for i, lvl in enumerate(self.levels):
            kw = {}
            if lvl.capacity_bytes == AUTO:
                kw["capacity_bytes"] = cfg.l1_bytes if i == 0 else None
            if lvl.hit_latency == AUTO:
                kw["hit_latency"] = (
                    cfg.l1_hit_latency if i == 0 else cfg.l2_latency
                )
            if lvl.mshrs == AUTO:
                kw["mshrs"] = cfg.mshrs if i == 0 else None
            if lvl.ports == AUTO:
                kw["ports"] = cfg.l1_ports if i == 0 else 0
            levels.append(replace(lvl, **kw) if kw else lvl)
        ic = self.interconnect
        if ic.bytes_per_cycle == AUTO:
            ic = replace(ic, bytes_per_cycle=cfg.bus_bytes_per_cycle)
        mem_lat = self.memory_latency
        if mem_lat == AUTO:
            mem_lat = 4 * levels[last].hit_latency
        out = MemSpec(
            name=self.name,
            levels=tuple(levels),
            interconnect=ic,
            prefetch=self.prefetch,
            memory_latency=mem_lat,
        )
        out.validate_resolved()
        # capacities must divide cleanly into line x assoc x partition
        # units — CacheLevel would otherwise silently round the set
        # count, simulating a different machine than the label claims —
        # and the L1 needs a power-of-two set count per slice. Checked
        # here, where line size and n_threads are known, so a bad
        # combination fails with one actionable message instead of a
        # traceback from deep inside machine construction.
        n = cfg.n_threads
        for i, lvl in enumerate(out.levels):
            cap = lvl.capacity_bytes
            if cap is None:
                continue
            parts = 1 if lvl.shared else max(1, n)
            unit = cfg.line_bytes * lvl.assoc * parts
            sets = cap // unit
            if cap % unit or sets < 1 or (i == 0 and sets & (sets - 1)):
                raise ValueError(
                    f"{lvl.name}: capacity {cap} cannot be "
                    + (f"partitioned across {n} threads " if parts > 1
                       else "organized ")
                    + f"as whole sets (need a positive multiple of "
                    f"line_bytes x assoc{' x threads' if parts > 1 else ''}"
                    f" = {unit}"
                    + (", with a power-of-two set count" if i == 0 else "")
                    + "); adjust capacity_bytes"
                    + (" or use shared=true" if parts > 1 else "")
                )
        return out

    def validate_resolved(self) -> None:
        """Sanity checks that only make sense on concrete values."""
        for i, lvl in enumerate(self.levels):
            cap = lvl.capacity_bytes
            if cap is not None and cap <= 0:
                raise ValueError(f"{lvl.name}: capacity must be positive")
            if not isinstance(lvl.hit_latency, int) or lvl.hit_latency < 1:
                raise ValueError(f"{lvl.name}: hit latency must be >= 1")
            if lvl.mshrs is not None and (
                not isinstance(lvl.mshrs, int) or lvl.mshrs < 1
            ):
                raise ValueError(f"{lvl.name}: mshrs must be >= 1 or null")
            if i == 0 and (not isinstance(lvl.ports, int) or lvl.ports < 1):
                raise ValueError("level 0 needs >= 1 port")
        bpc = self.interconnect.bytes_per_cycle
        if not isinstance(bpc, int) or bpc <= 0:
            raise ValueError("bus width must be positive")
        if not isinstance(self.memory_latency, int) or self.memory_latency < 1:
            raise ValueError("memory_latency must be >= 1")

    def geometry(self) -> "MemSpec":
        """This hierarchy with every *timing* field normalized away.

        Two resolved specs that differ only in latencies, bus width,
        banking or MSHR counts share a geometry — which is what keys the
        analytic backend's characterization walk, so a whole latency
        sweep pays for one walk (the same invariant the workload walk
        already has). Names are normalized away too: ``override()``
        renames the spec per axis value, and a timing-only axis must not
        defeat walk sharing.
        """
        return MemSpec(
            name="geometry",
            levels=tuple(
                replace(lvl, name=f"level{i}", hit_latency=1, mshrs=None,
                        banks=0, ports=1)
                for i, lvl in enumerate(self.levels)
            ),
            interconnect=InterconnectSpec(bytes_per_cycle=1, policy="fifo"),
            prefetch=self.prefetch,
            memory_latency=1,
        )

    # -- identity --------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "levels": [lvl.to_dict() for lvl in self.levels],
            "interconnect": self.interconnect.to_dict(),
            "prefetch": self.prefetch.to_dict(),
            "memory_latency": self.memory_latency,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MemSpec":
        _check_known(d, cls, "memory spec")
        levels = d.get("levels")
        if not isinstance(levels, (list, tuple)) or not levels:
            raise ValueError("memory spec needs a non-empty 'levels' list")
        return cls(
            name=d.get("name", "custom"),
            levels=tuple(LevelSpec.from_dict(lvl) for lvl in levels),
            interconnect=InterconnectSpec.from_dict(
                d.get("interconnect") or {}
            ),
            prefetch=PrefetchSpec.from_dict(d.get("prefetch") or {}),
            memory_latency=d.get("memory_latency", AUTO),
        )

    def key(self) -> str:
        """Stable content hash, identical across processes."""
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]

    # -- derivation ------------------------------------------------------------

    #: flat override fields usable from ``--mem-axis`` (and their target)
    _FLAT_FIELDS = {
        "prefetch_kind": ("prefetch", "kind"),
        "prefetch_degree": ("prefetch", "degree"),
        "bus_bytes_per_cycle": ("interconnect", "bytes_per_cycle"),
        "bus_policy": ("interconnect", "policy"),
        "memory_latency": (None, "memory_latency"),
    }

    def override(self, field_name: str, value) -> "MemSpec":
        """One field replaced, addressed flat (``prefetch_degree``) or as
        ``LEVEL.field`` (``L2.capacity_bytes``); the spec name records the
        override so labels stay truthful. Unknown fields get a
        closest-match suggestion.
        """
        named = f"{self.name}({field_name}={value})"
        if "." in field_name:
            level_name, _, attr = field_name.partition(".")
            by_name = {lvl.name: lvl for lvl in self.levels}
            if level_name not in by_name:
                raise ValueError(
                    f"unknown memory level {level_name!r}"
                    f"{did_you_mean(level_name, by_name)}; "
                    f"levels: {', '.join(by_name)}"
                )
            _check_known({attr: value}, LevelSpec, "level")
            levels = tuple(
                replace(lvl, **{attr: value})
                if lvl.name == level_name
                else lvl
                for lvl in self.levels
            )
            return replace(self, name=named, levels=levels)
        target = self._FLAT_FIELDS.get(field_name)
        if target is None:
            known = sorted(self._FLAT_FIELDS) + [
                f"{lvl.name}.<field>" for lvl in self.levels
            ]
            raise ValueError(
                f"unknown memory field {field_name!r}"
                f"{did_you_mean(field_name, self._FLAT_FIELDS)}; "
                f"known: {', '.join(known)}"
            )
        part, attr = target
        if part is None:
            return replace(self, name=named, **{attr: value})
        return replace(
            self, name=named,
            **{part: replace(getattr(self, part), **{attr: value})},
        )


_MEM_CHECKS = scalar_checks(MemSpec, {"name"})
_MEM_AUTO = _auto_checks(MemSpec)


# -- presets -----------------------------------------------------------------

#: name -> (spec, provenance)
_MEM_PRESETS: dict[str, tuple[MemSpec, str]] = {}


def register_mem_preset(
    spec: MemSpec, provenance: str = "user"
) -> MemSpec:
    """Register a named memory-hierarchy preset (``--mem NAME``)."""
    if not spec.name:
        raise ValueError("memory preset needs a non-empty name")
    _MEM_PRESETS[spec.name] = (spec, provenance)
    return spec


def mem_preset(name: str) -> MemSpec:
    try:
        return _MEM_PRESETS[name][0]
    except KeyError:
        known = sorted(_MEM_PRESETS)
        raise KeyError(
            f"unknown memory preset {name!r}{did_you_mean(name, known)}; "
            f"known: {', '.join(known)}"
        ) from None


def mem_preset_names() -> list[str]:
    return sorted(_MEM_PRESETS)


def mem_preset_provenance(name: str) -> str:
    mem_preset(name)  # uniform unknown-name error
    return _MEM_PRESETS[name][1]


def _builtin_presets() -> None:
    reg = lambda s: register_mem_preset(s, provenance="built-in")  # noqa: E731
    l1 = LevelSpec(name="L1")
    # the paper's Figure-2 machine (identical to the default MemSpec)
    reg(MemSpec(name="classic"))
    # finite shared L2: threads couple through a 1 MB 8-way cache; a miss
    # past it pays the (AUTO: 4x) backing-store latency
    reg(MemSpec(
        name="l2_finite",
        levels=(l1, LevelSpec(name="L2", capacity_bytes=MB, assoc=8)),
    ))
    # small shared L2: pressure visible even at few threads
    reg(MemSpec(
        name="l2_small",
        levels=(l1, LevelSpec(name="L2", capacity_bytes=256 * KB, assoc=8)),
    ))
    # finite L2 statically partitioned per hardware context
    reg(MemSpec(
        name="l2_partitioned",
        levels=(
            l1,
            LevelSpec(name="L2", capacity_bytes=MB, assoc=8, shared=False),
        ),
    ))
    # classic machine + next-line prefetch on L1 demand misses
    reg(MemSpec(name="nextline", prefetch=PrefetchSpec(kind="nextline")))
    # classic machine + ascending-stream prefetch, two lines deep
    reg(MemSpec(
        name="stream", prefetch=PrefetchSpec(kind="stream", degree=2),
    ))
    # double-width bus (one cycle per 32-byte line)
    reg(MemSpec(
        name="wide_bus",
        interconnect=InterconnectSpec(bytes_per_cycle=32),
    ))


_builtin_presets()


# -- file loading ------------------------------------------------------------


def load_memspec(path) -> MemSpec:
    """Read one memory-hierarchy document from a JSON or TOML file
    (schema = :meth:`MemSpec.to_dict`; see DESIGN.md "Memory hierarchy").
    """
    from repro.workloads.profiles import load_document

    return MemSpec.from_dict(load_document(path))


def resolve_memspec(ref: str) -> MemSpec:
    """CLI-facing resolution: a preset name, or a JSON/TOML file path."""
    from pathlib import Path

    p = Path(ref)
    if p.suffix.lower() in (".json", ".toml") or p.is_file():
        return load_memspec(p)
    return mem_preset(ref)
