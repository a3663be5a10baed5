"""Declarative workload descriptions: the open workload API.

A :class:`WorkloadSpec` is a frozen, hashable, JSON-round-trippable
description of *what every hardware context executes*: one playlist of
:class:`WorkloadEntry` per thread, cycled indefinitely — exactly the shape
the cycle kernel and the analytic model's characterization walk both
consume. It replaces the closed ``kind``/``bench`` enum the run layer
used to special-case: the paper's section-3 rotation and section-2
single-benchmark runs are now just two presets
(:meth:`WorkloadSpec.rotation`, :meth:`WorkloadSpec.single`) of an API
that can express any scenario — heterogeneous per-thread mixes, inline
profile variants, user-defined profiles from files.

Entries are written compactly as ``"<profile>"`` or
``"<profile>?field=value&field=value"`` — a registered profile name plus
inline overrides, e.g. ``"swim?hot_frac=0.1&ws_bytes=16M"`` (sizes take
``K``/``M``/``G`` suffixes). Parsing resolves the reference against the
profile registry **immediately**: the entry stores the fully-resolved
:class:`~repro.workloads.profiles.BenchProfile`, so a spec is
self-contained — its identity covers the actual parameter values (two
registries that bind the same name to different parameters can never
collide in the result cache) and it crosses process boundaries without
the worker having to replay registrations.

Identity: ``WorkloadSpec`` is a frozen dataclass (structural ``==`` /
``hash``, which is what keys the characterization-walk cache) and
:meth:`~WorkloadSpec.canonical_json` is its canonical JSON form — the
part of :meth:`~repro.engine.spec.RunSpec.key` that addresses the result
cache, identical across processes and interpreter runs; :meth:`key`
hashes it. Both the hash and the JSON are computed once per object (see
:mod:`repro.memo`), the paper presets hand out one shared object
per argument tuple and :meth:`~WorkloadSpec.from_dict` one per parsed
document, so a grid or a batch of parsed specs computes them once.

Files: :func:`load_workload` reads a workload document from JSON or TOML
(see DESIGN.md "Workload API" for the schema); a document may embed a
``profiles`` table of custom profile definitions, registered before the
playlists are parsed, so a scenario can be defined *entirely* in one
file. Named presets (built-in scenarios plus :func:`register_preset`
additions) resolve via :func:`workload_preset`; ``repro-sim workloads``
lists both registries.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, Iterable

from repro.memo import InternTable, Memoized, exact_key
from repro.workloads.profiles import (
    BENCH_ORDER,
    BenchProfile,
    _check_known,
    check_scalars,
    did_you_mean,
    get_profile,
    load_document,
    register_profile,
    registry_generation,
    scalar_checks,
)
from repro.workloads.synth import profile_trace

#: default trace segment length per playlist entry (the paper used 100 M
#: instructions per benchmark; we scale down — see DESIGN.md)
SEG_INSTRS = 20_000
#: default measured/warm-up commits per hardware context, pre-scale
#: (rotation workloads; the paper's section-3 budgets)
COMMITS_PER_THREAD = 15_000
WARMUP_PER_THREAD = 8_000
#: section-2 single-benchmark budgets (one context, longer window)
SINGLE_COMMITS = 30_000
SINGLE_WARMUP = 15_000

_SIZE_SUFFIX = {"k": 1024, "m": 1024**2, "g": 1024**3}


def parse_value(text: str):
    """One override value: bool, sized int (``16M``), int, float or str."""
    t = text.strip()
    if t.lower() in ("true", "false"):
        return t.lower() == "true"
    m = re.fullmatch(r"([-+]?\d+(?:\.\d+)?)\s*([KkMmGg])[Bb]?", t)
    if m:
        return int(float(m.group(1)) * _SIZE_SUFFIX[m.group(2).lower()])
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        return t


def _fmt_value(value) -> str:
    """Canonical text form of an override value (bools lowercase)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _canonical_name(base: str, overrides: dict) -> str:
    if not overrides:
        return base
    query = "&".join(
        f"{k}={_fmt_value(v)}" for k, v in sorted(overrides.items())
    )
    return f"{base}?{query}"


@dataclass(frozen=True)
class WorkloadEntry:
    """One playlist segment: a resolved profile, optionally with its own
    trace segment length (``None`` defers to the spec-level default)."""

    profile: BenchProfile
    seg_instrs: int | None = None

    def __post_init__(self):
        check_scalars(self, _ENTRY_CHECKS)
        if self.seg_instrs is not None and self.seg_instrs < 1:
            raise ValueError(
                f"entry seg_instrs must be positive, got {self.seg_instrs}"
            )

    @property
    def label(self) -> str:
        return self.profile.name

    @classmethod
    def parse(cls, text: str) -> "WorkloadEntry":
        """Resolve ``"name"`` / ``"name?field=v&field=v"`` against the
        profile registry. The reserved key ``seg_instrs`` sets the
        entry's segment length instead of a profile field."""
        base, _, query = text.strip().partition("?")
        overrides: dict = {}
        seg = None
        if query:
            for pair in query.split("&"):
                key, sep, raw = pair.partition("=")
                key = key.strip()
                if not sep or not key:
                    raise ValueError(
                        f"malformed workload entry {text!r}: expected "
                        "'profile?field=value&...'"
                    )
                value = parse_value(raw)
                if key == "seg_instrs":
                    seg = value
                else:
                    overrides[key] = value
        profile = get_profile(base)
        if overrides:
            profile = profile.with_overrides(
                name=_canonical_name(base, overrides), **overrides
            )
        return cls(profile=profile, seg_instrs=seg)

    def with_overrides(self, **kwargs) -> "WorkloadEntry":
        """This entry with profile fields replaced; the profile name is
        re-canonicalized so labels stay truthful (``swim`` overridden
        with ``hot_frac=0.1`` becomes ``swim?hot_frac=0.1``)."""
        base, _, query = self.profile.name.partition("?")
        merged: dict = {}
        if query:
            for pair in query.split("&"):
                key, _, raw = pair.partition("=")
                merged[key] = parse_value(raw)
        merged.update(kwargs)
        profile = self.profile.with_overrides(
            name=_canonical_name(base, merged), **kwargs
        )
        return WorkloadEntry(profile=profile, seg_instrs=self.seg_instrs)

    def to_dict(self) -> dict:
        d: dict = {"profile": self.profile.to_dict()}
        if self.seg_instrs is not None:
            d["seg_instrs"] = self.seg_instrs
        return d

    @classmethod
    def from_dict(cls, d) -> "WorkloadEntry":
        """Accepts the compact string form or the explicit dict form
        (``{"profile": {...} | "name", "seg_instrs": n}``)."""
        if isinstance(d, str):
            return cls.parse(d)
        if not isinstance(d, dict):
            raise ValueError(f"workload entry must be str or dict, got {d!r}")
        _check_known(d, cls, "workload entry")
        prof = d.get("profile")
        if isinstance(prof, str):
            entry = cls.parse(prof)
            seg = d.get("seg_instrs", entry.seg_instrs)
            return cls(profile=entry.profile, seg_instrs=seg)
        if not isinstance(prof, dict):
            raise ValueError(f"entry 'profile' must be str or dict, got {d!r}")
        return cls(
            profile=BenchProfile.from_dict(prof),
            seg_instrs=d.get("seg_instrs"),
        )


_ENTRY_CHECKS = scalar_checks(WorkloadEntry, {"seg_instrs"})


@dataclass(frozen=True)
class WorkloadSpec(Memoized):
    """Per-thread playlists, frozen and content-addressable.

    ``threads[t]`` is the ordered tuple of entries context ``t`` executes
    cyclically. ``default_commits``/``default_warmup`` are the pre-scale
    per-thread budget *hints* a :class:`~repro.engine.spec.RunSpec` falls
    back to when its own budgets are unset (presets use them to carry the
    paper's section-2 vs section-3 budgets without a run-kind enum).
    """

    name: str
    threads: tuple[tuple[WorkloadEntry, ...], ...]
    seg_instrs: int = SEG_INSTRS
    default_commits: int | None = None
    default_warmup: int | None = None

    def __post_init__(self):
        if not self.threads or any(not pl for pl in self.threads):
            raise ValueError(
                "workload needs >= 1 thread, each with >= 1 entry"
            )
        check_scalars(self, _SPEC_CHECKS)
        if self.seg_instrs < 1:
            raise ValueError("seg_instrs must be positive")
        for name in ("default_commits", "default_warmup"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        # a trace name must identify one profile: bench_weight in the
        # characterization walk is keyed by name, so two entries sharing
        # a name but not field values would silently blend wrong
        seen: dict[str, BenchProfile] = {}
        for playlist in self.threads:
            for entry in playlist:
                prior = seen.setdefault(entry.profile.name, entry.profile)
                if prior is not entry.profile and prior != entry.profile:
                    raise ValueError(
                        f"two entries both named {entry.profile.name!r} "
                        "carry different field values; give them "
                        "distinct names"
                    )

    # -- shape -----------------------------------------------------------------

    @property
    def n_threads(self) -> int:
        return len(self.threads)

    def label(self) -> str:
        return self.name

    def entry_length(self, entry: WorkloadEntry) -> int:
        return entry.seg_instrs or self.seg_instrs

    def profiles(self) -> dict[str, BenchProfile]:
        """``trace name -> profile`` over every entry (what the analytic
        characterization walk uses to blend profile-derived structure)."""
        out: dict[str, BenchProfile] = {}
        for playlist in self.threads:
            for entry in playlist:
                out[entry.profile.name] = entry.profile
        return out

    def playlists(self, seed: int = 0) -> list:
        """One trace playlist per hardware context, of process-cached
        deferred traces (see :func:`~repro.workloads.synth.profile_trace`).
        Contexts share a trace object wherever their entries name the
        same profile and length: the pipeline salts data addresses per
        thread, so memory does not grow with the thread count.

        Builds each playlist's first entry, where the cycle kernel's
        contexts and the characterization walk both start. A later
        entry is built when fetch or the walk first wraps into it, so a
        run that never leaves its first traces synthesizes no other.
        """
        playlists = [
            [
                profile_trace(e.profile, self.entry_length(e), seed)
                for e in playlist
            ]
            for playlist in self.threads
        ]
        for playlist in playlists:
            playlist[0].insts  # reading the list builds it
        return playlists

    # -- derivation ------------------------------------------------------------

    def with_profile_overrides(self, **kwargs) -> "WorkloadSpec":
        """Every entry's profile with fields replaced — the hook sweep
        axes over workload fields use (``repro-sim sweep
        --workload-axis hot_frac=0.1,0.4``)."""
        suffix = ",".join(
            f"{k}={_fmt_value(v)}" for k, v in sorted(kwargs.items())
        )
        return WorkloadSpec(
            name=f"{self.name}({suffix})",
            threads=tuple(
                tuple(e.with_overrides(**kwargs) for e in playlist)
                for playlist in self.threads
            ),
            seg_instrs=self.seg_instrs,
            default_commits=self.default_commits,
            default_warmup=self.default_warmup,
        )

    # -- identity --------------------------------------------------------------

    def __hash__(self) -> int:
        """Structural, like the generated hash, but computed once per
        object: a 4-thread rotation walks 40 entries of 25 profile
        fields, and the engine's dicts, the charwalk cache and the
        router's groups hash each spec several times per cell."""
        return self._memo("_hash", lambda: hash(
            tuple(getattr(self, f.name) for f in fields(self))
        ))

    def to_dict(self) -> dict:
        """JSON-safe, registry-independent representation."""
        d: dict = {
            "name": self.name,
            "seg_instrs": self.seg_instrs,
            "threads": [
                [e.to_dict() for e in playlist] for playlist in self.threads
            ],
        }
        if self.default_commits is not None:
            d["default_commits"] = self.default_commits
        if self.default_warmup is not None:
            d["default_warmup"] = self.default_warmup
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "WorkloadSpec":
        """Inverse of :meth:`to_dict`; also accepts the hand-authored file
        shape where entries are compact strings (see module docstring).

        Equal documents of equal types share one object (see
        :func:`~repro.memo.exact_key`), so a batch of specs over one
        workload hashes and serializes it once.  Entries may name
        registered profiles, so the key carries the registry's
        generation.
        """
        key = exact_key(d)
        if key is None:
            return cls._parse(d)
        return _PARSED.get((registry_generation(), key), lambda: cls._parse(d))

    @classmethod
    def _parse(cls, d: dict) -> "WorkloadSpec":
        _check_known(d, cls, "workload")
        threads = d.get("threads")
        if not isinstance(threads, (list, tuple)):
            raise ValueError("workload document needs a 'threads' list")
        parsed = tuple(
            tuple(WorkloadEntry.from_dict(e) for e in playlist)
            for playlist in threads
        )
        return cls(
            name=d.get("name", "custom"),
            threads=parsed,
            seg_instrs=d.get("seg_instrs", SEG_INSTRS),
            default_commits=d.get("default_commits"),
            default_warmup=d.get("default_warmup"),
        )

    def canonical_json(self) -> str:
        """:meth:`to_dict` as canonical JSON (sorted keys, no spaces),
        built once per object: what :meth:`key` hashes, and what
        :meth:`RunSpec.key() <repro.engine.spec.RunSpec.key>` splices
        into its own payload, so a grid of specs sharing one workload
        object serializes it once. The memo is per object, never per
        equal content: a profile float field that holds ``1`` compares
        and hashes equal to one holding ``1.0`` but serializes
        differently, so a cache keyed by ``==`` would hand one of them
        the other's key. The parse table (:meth:`from_dict`) shares
        objects only between documents of equal values *and* types."""
        return self._memo("_json", lambda: json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        ))

    def key(self) -> str:
        """Stable content hash (sha256 prefix), identical across
        processes."""
        payload = self.canonical_json()
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]

    # -- presets ---------------------------------------------------------------
    #
    # ``rotation`` and ``single`` return one shared object per distinct
    # argument tuple (and profile-registry generation), so every cell of
    # a grid holds the same workload and its memos: the hash and the
    # canonical JSON are computed once per grid, not once per cell.
    # Sharing is safe because the object is frozen and its memos derive
    # from its fields. The cache is typed: ``seg_instrs=20000.0`` must
    # still be refused, not answered with the object built for 20000.

    @classmethod
    def rotation(
        cls,
        n_threads: int,
        names: Iterable[str] | None = None,
        seg_instrs: int = SEG_INSTRS,
        name: str | None = None,
    ) -> "WorkloadSpec":
        """The paper's section-3 workload: thread ``t`` runs the profile
        list rotated by ``t`` (entries may carry inline overrides)."""
        names = tuple(names) if names is not None else None
        return _rotation(
            cls, n_threads, names, seg_instrs, name, registry_generation()
        )

    @classmethod
    def single(
        cls, bench: str, seg_instrs: int = SEG_INSTRS, name: str | None = None
    ) -> "WorkloadSpec":
        """The paper's section-2 workload: one benchmark on one context."""
        return _single(cls, bench, seg_instrs, name, registry_generation())

    @classmethod
    def homogeneous(
        cls,
        bench: str,
        n_threads: int,
        seg_instrs: int = SEG_INSTRS,
        name: str | None = None,
    ) -> "WorkloadSpec":
        """Every context runs the same profile (shared-region scenarios)."""
        entry = WorkloadEntry.parse(bench)
        return cls(
            name=name or f"{entry.label}x{n_threads}",
            threads=((entry,),) * n_threads,
            seg_instrs=seg_instrs,
            default_commits=COMMITS_PER_THREAD,
            default_warmup=WARMUP_PER_THREAD,
        )

    @classmethod
    def mix(
        cls,
        per_thread: Iterable[Iterable[str] | str],
        seg_instrs: int = SEG_INSTRS,
        name: str = "mix",
    ) -> "WorkloadSpec":
        """Arbitrary heterogeneous mix: one entry list (or single entry
        string) per thread."""
        threads = []
        for pl in per_thread:
            if isinstance(pl, str):
                pl = [pl]
            threads.append(tuple(WorkloadEntry.parse(e) for e in pl))
        return cls(
            name=name,
            threads=tuple(threads),
            seg_instrs=seg_instrs,
            default_commits=COMMITS_PER_THREAD,
            default_warmup=WARMUP_PER_THREAD,
        )


#: ``seg_instrs: "500"`` or ``2.9`` used to run as 500 or 2 and
#: ``default_commits: "x"`` to fail inside the job; a bool is no count
_SPEC_CHECKS = scalar_checks(WorkloadSpec, {
    "name", "seg_instrs", "default_commits", "default_warmup",
})

#: distinct preset workloads kept alive; a process rarely builds more
#: than a few dozen (thread counts x segment lengths)
_SHARED_PRESETS = 256

#: parsed workload documents kept for reuse, as many as presets
_PARSED = InternTable(_SHARED_PRESETS)


@lru_cache(maxsize=_SHARED_PRESETS, typed=True)
def _rotation(cls, n_threads, names, seg_instrs, name, _generation):
    names = list(names) if names is not None else list(BENCH_ORDER)
    entries = [WorkloadEntry.parse(n) for n in names]
    if name is None:
        name = f"{n_threads}T"
        if [e.label for e in entries] != BENCH_ORDER:
            name += f"[{','.join(e.label for e in entries)}]"
    return cls(
        name=name,
        threads=tuple(
            tuple(entries[(t + i) % len(entries)] for i in range(len(entries)))
            for t in range(n_threads)
        ),
        seg_instrs=seg_instrs,
        default_commits=COMMITS_PER_THREAD,
        default_warmup=WARMUP_PER_THREAD,
    )


@lru_cache(maxsize=_SHARED_PRESETS, typed=True)
def _single(cls, bench, seg_instrs, name, _generation):
    entry = WorkloadEntry.parse(bench)
    return cls(
        name=name or entry.label,
        threads=((entry,),),
        seg_instrs=seg_instrs,
        default_commits=SINGLE_COMMITS,
        default_warmup=SINGLE_WARMUP,
    )


# -- preset registry ---------------------------------------------------------

#: name -> (zero-arg factory, provenance)
_PRESETS: dict[str, tuple[Callable[[], WorkloadSpec], str]] = {}


def register_preset(
    name: str, factory: Callable[[], WorkloadSpec], provenance: str = "user"
) -> None:
    """Register a named workload preset (``repro-sim --workload NAME``)."""
    if not name or not isinstance(name, str):
        raise ValueError("preset needs a non-empty string name")
    _PRESETS[name] = (factory, provenance)


def workload_preset(name: str) -> WorkloadSpec:
    """Build a registered preset's spec by name."""
    try:
        factory, _ = _PRESETS[name]
    except KeyError:
        known = sorted(_PRESETS)
        raise KeyError(
            f"unknown workload preset {name!r}{did_you_mean(name, known)}; "
            f"known: {', '.join(known)}"
        ) from None
    return factory()


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def preset_provenance(name: str) -> str:
    workload_preset(name)  # uniform unknown-name error
    return _PRESETS[name][1]


def _builtin_presets() -> None:
    reg = lambda n, f: register_preset(n, f, provenance="built-in")  # noqa: E731
    # the paper's own workloads, as presets like any other
    reg("paper-rot4", lambda: WorkloadSpec.rotation(4))
    for bench in BENCH_ORDER:
        reg(f"paper-{bench}", lambda b=bench: WorkloadSpec.single(b))
    # scenario presets demonstrating the opened API (non-paper)
    reg(
        "hetero4",
        lambda: WorkloadSpec.mix(
            [
                ["swim", "tomcatv"],          # bandwidth-hungry streamers
                ["fpppp"],                    # resident, LOD-limited
                ["ptrchase"],                 # gather-bound pointer chaser
                ["turb3d", "mgrid"],          # cache-friendly compute
            ],
            name="hetero4",
        ),
    )
    reg(
        "ptrchase2",
        lambda: WorkloadSpec.homogeneous("ptrchase", 2, name="ptrchase2"),
    )
    reg(
        "thrash4",
        lambda: WorkloadSpec.homogeneous("thrash", 4, name="thrash4"),
    )
    reg(
        "stream4",
        lambda: WorkloadSpec.homogeneous("stream", 4, name="stream4"),
    )


_builtin_presets()


# -- file loading ------------------------------------------------------------


def load_workload(path) -> WorkloadSpec:
    """Read one workload document from a JSON or TOML file.

    Schema (DESIGN.md "Workload API")::

        {
          "name": "hetero4",
          "seg_instrs": 20000,                  # optional
          "default_commits": 15000,             # optional, per thread
          "default_warmup": 8000,               # optional, per thread
          "profiles": {                         # optional, registered first
            "myprof": {"base": "swim", "hot_frac": 0.1}
          },
          "threads": [["swim"], ["myprof?ws_bytes=16M", "fpppp"]]
        }

    Embedded ``profiles`` are registered (provenance = the file path)
    before the playlists parse, so a workload can be defined entirely in
    one file with no code changes.
    """
    doc = load_document(path)
    for name, body in (doc.pop("profiles", None) or {}).items():
        register_profile(
            BenchProfile.from_dict({"name": name, **body}),
            provenance=str(path),
        )
    return WorkloadSpec.from_dict(doc)


def resolve_workload(ref: str) -> WorkloadSpec:
    """CLI-facing resolution: a preset name, or a JSON/TOML file path."""
    from pathlib import Path

    p = Path(ref)
    if p.suffix.lower() in (".json", ".toml") or p.is_file():
        return load_workload(p)
    return workload_preset(ref)
