"""SPEC FP95 benchmark profiles.

The paper drives its simulator with ATOM-instrumented DEC Alpha traces of the
ten SPEC FP95 programs (100 M instructions each). Those binaries, inputs and
the ATOM tool are unavailable, so this reproduction substitutes a *profile*
per benchmark: a parameter set for the synthetic kernel generator
(:mod:`repro.workloads.synth`) that recreates the characteristics the paper's
results actually depend on:

* the AP/EP instruction mix (how the stream splits between the units),
* the L1 miss behaviour of the address stream (working-set size, stride,
  hot-region reuse, gather randomness),
* the register dependence structure (FP chain depth/width → EP ILP;
  loss-of-decoupling FTOI events → slip ceiling),
* the static scheduling distance of integer loads (→ perceived int-load
  latency, Fig. 1-b),
* branch frequency and predictability.

Calibration targets are taken from the paper's own figures: Fig. 1-c miss
ratios, Fig. 1-a/1-b perceived latencies and the qualitative classification
in section 2 (good decouplers: tomcatv, swim, mgrid, applu, apsi; low miss
ratios: fpppp, turb3d; degraded: su2cor, wave5, hydro2d).

Beyond the paper's rotation the module keeps an **open profile registry**:
the ten SPEC FP95 profiles are registered as built-ins, scenario profiles
(pointer chasing, L1 thrashing, pure streaming) ship alongside them, and
users can register their own — programmatically via
:func:`register_profile` or from JSON/TOML files via :func:`load_profiles`
— and reference them from any :class:`~repro.workloads.spec.WorkloadSpec`.
Every registered profile records its *provenance* (``built-in``,
``built-in scenario``, or the file/py source that registered it), which
``repro-sim workloads`` displays.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import NamedTuple

from repro.memo import InternTable, Memoized, exact_key

KB = 1024
MB = 1024 * KB


def did_you_mean(name: str, candidates) -> str:
    """``" — did you mean 'x'?"`` for the closest candidate, or ``""``."""
    close = difflib.get_close_matches(str(name), list(candidates), n=1)
    return f" — did you mean {close[0]!r}?" if close else ""


@lru_cache(maxsize=None)
def _field_names(cls) -> frozenset:
    return frozenset(f.name for f in fields(cls))


def _check_known(d, cls, what: str) -> None:
    """Refuse a ``d`` that is no mapping, or whose first unknown key names
    no field of the dataclass ``cls`` (with a did-you-mean and the field
    list): a misspelled field must not run as its default."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a mapping, got {d!r}")
    known = _field_names(cls)
    for key in d:
        if key not in known:
            raise ValueError(
                f"unknown {what} field {key!r}{did_you_mean(key, known)}; "
                f"fields: {', '.join(sorted(known))}"
            )


#: the value types each annotated scalar type accepts, and its name in
#: errors: a bool is not a number, and a number is not a bool
_ACCEPTS = {
    "int": ((int,), "an int"),
    "float": ((int, float), "a finite number"),
    "bool": ((bool,), "a bool"),
    "str": ((str,), "a string"),
}


def scalar_checks(cls, names=None) -> tuple:
    """The type checks of a dataclass's fields (all of them, or those in
    ``names``), read from their annotations: ``int``, ``float``,
    ``bool`` or ``str``, optionally ``| None``."""
    return tuple(
        (f.name, *_ACCEPTS[kind], optional == "None")
        for f in fields(cls)
        if names is None or f.name in names
        for kind, _, optional in [f.type.partition(" | ")]
    )


def check_scalars(obj, checks: tuple) -> None:
    """Raise :class:`ValueError` for the first field of ``obj`` that
    fails its check from :func:`scalar_checks`."""
    for name, types, what, nullable in checks:
        value = getattr(obj, name)
        if type(value) in types:
            if type(value) is not float or math.isfinite(value):
                continue
        elif nullable and value is None:
            continue
        null = " or null" if nullable else ""
        raise ValueError(f"{name} must be {what}{null}, got {value!r}")


@dataclass(frozen=True)
class BenchProfile(Memoized):
    """Parameter set for the synthetic kernel generator.

    Attributes are grouped by the behaviour they control; see module
    docstring for the mapping to paper results.
    """

    name: str

    # -- loop / control structure ------------------------------------------
    #: loads issued per stream per iteration (loop unrolling degree)
    unroll: int = 2
    #: inner-loop trip count; the loop-exit branch mispredicts ~1/iters
    iters: int = 64
    #: fraction of extra data-dependent branches (taken with p=.5)
    rand_branch_frac: float = 0.0

    # -- memory behaviour ---------------------------------------------------
    #: number of distinct streaming FP arrays read per iteration
    n_streams: int = 3
    #: element stride in bytes within each stream (8 = dense, 32 = line-sized)
    elem_bytes: int = 8
    #: streaming working set per array; pointers wrap at this size
    ws_bytes: int = 4 * MB
    #: fraction of FP loads that hit a small per-thread hot region
    hot_frac: float = 0.4
    #: hot region size (fits L1 alone; thrashes when many threads share L1)
    hot_bytes: int = 4 * KB
    #: hot accesses are skewed: this fraction lands in the first quarter of
    #: the region (short reuse distance survives streaming-front evictions)
    hot_skew: float = 0.92
    #: store-target working set (resident for most codes; the streaming
    #: stencil codes write-stream through multi-MB arrays instead)
    store_ws_bytes: int = 4 * KB
    #: fraction of FP loads whose address depends on an integer index load
    gather_frac: float = 0.0
    #: scheduling distance (iterations) between an index load and its use
    index_dist: int = 2
    #: index loads happen every Nth iteration (sparse index streams reuse
    #: the previous index in between)
    index_every: int = 1
    #: working set of gather targets (randomly addressed)
    gather_ws_bytes: int = 4 * MB

    # -- computation structure ----------------------------------------------
    #: FP ALU operations per FP load
    fp_per_load: float = 1.4
    #: dependent FALU ops per chain (serial latency = chain_depth * ep_lat)
    chain_depth: int = 2
    #: independent interleaved chains (EP ILP available to in-order issue)
    n_chains: int = 4
    #: FP stores per FP load
    store_per_load: float = 0.30
    #: integer ALU ops per FP load beyond pointer/counter updates
    extra_ialu_per_load: float = 0.15

    # -- cross-unit coupling --------------------------------------------------
    #: FTOI loss-of-decoupling events per instruction (AP waits on EP)
    lod_rate: float = 0.0
    #: ITOF moves per instruction (AP feeds EP scalars; behaves like a load)
    itof_rate: float = 0.004

    def __post_init__(self):
        try:
            check_scalars(self, _CHECKS)
        except ValueError as exc:
            raise ValueError(f"profile {self.name!r}: {exc}") from None
        try:
            self.name.encode("utf-8")  # synthesis seeds its RNG from it
        except UnicodeEncodeError:
            raise ValueError(f"profile name {self.name!r} is not UTF-8") from None
        for key, low in _SYNTH_MINIMA.items():
            if getattr(self, key) < low:
                raise ValueError(
                    f"profile {self.name!r}: {key} must be >= {low}, "
                    f"got {getattr(self, key)}"
                )
        try:
            longest = self.body_counts().longest
        except OverflowError:  # a count past what a float holds
            longest = math.inf
        if longest > MAX_BODY_INSTRS:
            sizes = ", ".join(f"{k}={getattr(self, k)!r}" for k in _BODY_FIELDS)
            raise ValueError(
                f"profile {self.name!r}: a loop iteration of up to {longest} "
                f"instructions overruns the {MAX_BODY_INSTRS} the code layout "
                f"holds ({sizes})"
            )

    def body_counts(self) -> BodyCounts:
        """The instruction counts of one loop iteration, computed once
        per profile: the synthesizer plans its body from them and the
        analytic walk blends them."""
        return self._memo("_body", lambda: _count_body(self))

    def with_overrides(self, **kwargs) -> "BenchProfile":
        """Return a copy with selected fields replaced.

        Unknown field names raise a :class:`ValueError` with a
        closest-match suggestion instead of a bare ``TypeError``.
        """
        _check_known(kwargs, type(self), "profile")
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        """JSON-safe field mapping; round-trips via :meth:`from_dict`.

        Built once per profile: profiles are frozen, hold only scalars
        and are shared through the registry and the parse table (a
        4-thread rotation spec has 40 entries over 10 profiles).  Each
        call gets its own copy.
        """
        return dict(self._memo("_dict", lambda: {n: getattr(self, n) for n in _NAMES}))

    @classmethod
    def from_dict(cls, d: dict) -> "BenchProfile":
        """Build a profile from a field mapping.

        Accepts an optional ``base`` key naming a registered profile whose
        values seed the unspecified fields (how workload/profile files
        derive variants without repeating every knob).

        Equal mappings of equal types share one object (see
        :func:`~repro.memo.exact_key`), and with it the memos: a job
        server parses the same ten profiles in every rotation it is
        sent.  A mapping with a ``base`` resolves it against the
        registry, so its key carries the registry's generation.
        """
        d = dict(d)
        key = exact_key(d)
        if key is None:
            return cls._parse(d)
        if "base" in d:
            key = (registry_generation(), key)
        return _PARSED.get(key, lambda: cls._parse(d))

    @classmethod
    def _parse(cls, d: dict) -> "BenchProfile":
        base_name = d.pop("base", None)
        if base_name is None:
            _check_known(d, cls, "profile")
            return cls(**d)
        base = get_profile(base_name)
        if "name" not in d:
            raise ValueError(
                f"profile derived from base {base_name!r} needs its own 'name'"
            )
        return base.with_overrides(**d)


_CHECKS = scalar_checks(BenchProfile)
_NAMES = tuple(f.name for f in fields(BenchProfile))

#: parsed profiles kept for reuse: well past the built-ins and the
#: variants a sweep derives from them
PARSED_PROFILES = 1024
_PARSED = InternTable(PARSED_PROFILES)

#: the smallest value of each field that synthesis can build a loop body
#: from: at least one load, one iteration, one FP chain and one byte in
#: each address window (``index_dist`` sizes a ring of ``index_dist + 1``);
#: a negative hot or gather share would add stream loads past the count
_SYNTH_MINIMA = {
    "unroll": 1,
    "n_streams": 1,
    "iters": 1,
    "index_every": 1,
    "n_chains": 1,
    "index_dist": 0,
    "ws_bytes": 1,
    "hot_bytes": 1,
    "store_ws_bytes": 1,
    "gather_ws_bytes": 1,
    "hot_frac": 0,
    "gather_frac": 0,
}


#: integer registers the gather index rings share (``r10..r17`` in
#: :mod:`repro.workloads.synth`)
RING_REGS = 8
#: the longest loop iteration the code layout holds: synthesis places the
#: outer-loop block this many instruction slots past the body's first pc
MAX_BODY_INSTRS = 2048
#: the fields that size a loop iteration, named when one is too long
_BODY_FIELDS = (
    "n_streams",
    "unroll",
    "gather_frac",
    "hot_frac",
    "fp_per_load",
    "store_per_load",
    "extra_ialu_per_load",
    "rand_branch_frac",
)


class BodyCounts(NamedTuple):
    """How many instructions of each kind one loop iteration of a profile
    holds (see :mod:`repro.workloads.synth` for the body's order)."""

    n_loads: int
    n_gather: int
    n_hot: int
    n_falu: int
    n_stores: int
    n_extra_ialu: int
    #: 1 when loss-of-decoupling events can fire, else 0
    n_lod: int
    n_rand_branch: int
    #: the body length the per-instruction event rates scale by
    nominal: int

    @property
    def longest(self) -> int:
        """The most instructions one iteration can emit, every optional
        one included."""
        return (
            (3 if self.n_gather else 2)  # induction head
            + self.n_gather
            + max(self.n_loads, self.n_gather)  # index, FP loads
            + 2
            + self.n_falu
            + 2 * self.n_lod  # ITOF pair, chains, FTOI pair
            + max(0, self.n_extra_ialu)
            + max(0, self.n_stores)
            + 1  # spill
            + max(0, self.n_rand_branch)
            + 1  # data-dependent, loop-back
        )


def _count_body(p: BenchProfile) -> BodyCounts:
    n_loads = p.n_streams * p.unroll
    wanted = round(p.gather_frac * n_loads)
    if p.gather_frac > 0:
        wanted = max(1, wanted)
    n_gather = min(wanted, RING_REGS // (p.index_dist + 1))
    n_hot = min(round(p.hot_frac * n_loads), n_loads - n_gather)
    n_falu = max(1, round(n_loads * p.fp_per_load))
    n_stores = round(n_loads * p.store_per_load)
    nominal = 3 + n_gather + n_loads + n_falu + n_stores + 2
    return BodyCounts(
        n_loads,
        n_gather,
        n_hot,
        n_falu,
        n_stores,
        round(p.extra_ialu_per_load * n_loads),
        1 if p.lod_rate > 0 else 0,
        round(p.rand_branch_frac * nominal),
        nominal,
    )


def _p(name: str, **kwargs) -> BenchProfile:
    return BenchProfile(name=name, **kwargs)


#: The ten SPEC FP95 profiles, in the paper's figure order.
#:
#: Classification recap (paper section 2):
#:   - hide latency well:   tomcatv, swim, mgrid, applu, apsi
#:   - low miss ratio:      fpppp, turb3d
#:   - degraded:            su2cor, wave5, hydro2d
#:   - large int-load stalls: fpppp, su2cor, turb3d, wave5
SPECFP95: dict[str, BenchProfile] = {
    # Vectorised mesh generation: long dense streams, perfect decoupling,
    # significant miss ratio, write-streams its result meshes.
    "tomcatv": _p(
        "tomcatv",
        n_streams=4,
        unroll=2,
        elem_bytes=8,
        ws_bytes=8 * MB,
        hot_frac=0.75,
        hot_bytes=4 * KB,
        store_ws_bytes=4 * MB,
        fp_per_load=1.4,
        chain_depth=2,
        n_chains=4,
        store_per_load=0.30,
        iters=100,
    ),
    # Shallow-water stencil: highest miss ratio (wide stride defeats spatial
    # locality), still decouples perfectly; the bandwidth hog of the suite.
    "swim": _p(
        "swim",
        n_streams=4,
        unroll=2,
        elem_bytes=16,
        ws_bytes=8 * MB,
        hot_frac=0.70,
        hot_bytes=4 * KB,
        store_ws_bytes=8 * MB,
        fp_per_load=1.3,
        chain_depth=2,
        n_chains=4,
        store_per_load=0.30,
        iters=128,
    ),
    # Quantum chromodynamics: gather through index arrays -> integer loads on
    # the AP critical path (large perceived int-load latency).
    "su2cor": _p(
        "su2cor",
        n_streams=3,
        unroll=2,
        elem_bytes=8,
        ws_bytes=4 * MB,
        hot_frac=0.64,
        hot_bytes=4 * KB,
        gather_frac=0.06,
        index_dist=1,
        gather_ws_bytes=32 * KB,
        fp_per_load=1.5,
        chain_depth=2,
        n_chains=4,
        store_per_load=0.25,
        iters=80,
    ),
    # Navier-Stokes: dense streams, decent decoupling, high miss ratio,
    # write-streams as it sweeps.
    "hydro2d": _p(
        "hydro2d",
        n_streams=4,
        unroll=2,
        elem_bytes=8,
        ws_bytes=8 * MB,
        hot_frac=0.60,
        hot_bytes=4 * KB,
        gather_frac=0.03,
        index_dist=2,
        gather_ws_bytes=32 * KB,
        store_ws_bytes=4 * MB,
        fp_per_load=1.4,
        chain_depth=2,
        n_chains=4,
        store_per_load=0.35,
        iters=96,
    ),
    # Multigrid: mostly-resident fine grids, dense sweeps, excellent reuse.
    "mgrid": _p(
        "mgrid",
        n_streams=3,
        unroll=3,
        elem_bytes=8,
        ws_bytes=2 * MB,
        hot_frac=0.82,
        hot_bytes=4 * KB,
        fp_per_load=1.6,
        chain_depth=3,
        n_chains=4,
        store_per_load=0.20,
        iters=128,
    ),
    # Parabolic/elliptic PDE: blocked sweeps, good locality, good decoupling.
    "applu": _p(
        "applu",
        n_streams=3,
        unroll=2,
        elem_bytes=8,
        ws_bytes=4 * MB,
        hot_frac=0.78,
        hot_bytes=4 * KB,
        fp_per_load=1.5,
        chain_depth=2,
        n_chains=4,
        store_per_load=0.30,
        iters=100,
    ),
    # Turbulence FFT: tiny cache footprint but index-driven butterflies ->
    # int loads used almost immediately (poor static scheduling).
    "turb3d": _p(
        "turb3d",
        n_streams=2,
        unroll=2,
        elem_bytes=8,
        ws_bytes=256 * KB,
        hot_frac=0.85,
        hot_bytes=4 * KB,
        gather_frac=0.12,
        index_dist=0,
        index_every=12,
        gather_ws_bytes=12 * KB,
        fp_per_load=1.6,
        chain_depth=2,
        n_chains=4,
        store_per_load=0.25,
        iters=64,
    ),
    # Mesoscale weather: moderate working set, decent decoupling.
    "apsi": _p(
        "apsi",
        n_streams=3,
        unroll=2,
        elem_bytes=8,
        ws_bytes=2 * MB,
        hot_frac=0.72,
        hot_bytes=4 * KB,
        fp_per_load=1.5,
        chain_depth=2,
        n_chains=4,
        store_per_load=0.25,
        iters=80,
    ),
    # Gaussian quadrature: enormous basic blocks, working set fits L1, very
    # frequent FP->int moves (the canonical loss-of-decoupling program) and
    # integer loads scheduled right before their uses.
    "fpppp": _p(
        "fpppp",
        n_streams=2,
        unroll=4,
        elem_bytes=8,
        ws_bytes=10 * KB,
        hot_frac=0.90,
        hot_bytes=6 * KB,
        gather_frac=0.10,
        index_dist=0,
        gather_ws_bytes=10 * KB,
        store_ws_bytes=4 * KB,
        fp_per_load=2.4,
        chain_depth=4,
        n_chains=3,
        store_per_load=0.20,
        lod_rate=0.006,
        iters=256,
    ),
    # Plasma particle-in-cell: particle gather/scatter through index loads,
    # significant miss ratio, short index scheduling distance.
    "wave5": _p(
        "wave5",
        n_streams=3,
        unroll=2,
        elem_bytes=8,
        ws_bytes=4 * MB,
        hot_frac=0.62,
        hot_bytes=4 * KB,
        gather_frac=0.07,
        index_dist=1,
        gather_ws_bytes=48 * KB,
        fp_per_load=1.3,
        chain_depth=2,
        n_chains=4,
        store_per_load=0.35,
        iters=72,
    ),
}

#: Benchmark order used in the paper's figures.
BENCH_ORDER = [
    "tomcatv",
    "swim",
    "su2cor",
    "hydro2d",
    "mgrid",
    "applu",
    "turb3d",
    "apsi",
    "fpppp",
    "wave5",
]

#: Scenario profiles beyond the paper's rotation — the workload-API
#: demonstrators (see DESIGN.md "Workload API"):
#:
#: - ``ptrchase``: pointer chasing — half the FP loads gather through
#:   integer indices loaded *in the same iteration* (zero static
#:   scheduling distance), the regime where decoupling cannot help and
#:   only compiler restructuring can (paper section 2's int-load result,
#:   pushed to the extreme).
#: - ``thrash``: a large, barely-skewed hot region that overflows its
#:   L1 set zone; with several threads the per-thread tiles collide and
#:   the shared L1 thrashes (the cross-thread conflict regime of Fig. 2).
#: - ``stream``: compiler-restructured pure streaming — no hot region,
#:   wide unrolled dense streams, write-streaming stores; the best case
#:   for access/execute decoupling (à la DAE code restructuring).
SCENARIOS: dict[str, BenchProfile] = {
    "ptrchase": _p(
        "ptrchase",
        n_streams=2,
        unroll=2,
        elem_bytes=8,
        ws_bytes=8 * MB,
        hot_frac=0.10,
        hot_bytes=4 * KB,
        gather_frac=0.50,
        index_dist=0,
        index_every=1,
        gather_ws_bytes=16 * KB,
        fp_per_load=0.9,
        chain_depth=1,
        n_chains=3,
        store_per_load=0.10,
        extra_ialu_per_load=0.40,
        iters=64,
    ),
    "thrash": _p(
        "thrash",
        n_streams=2,
        unroll=2,
        elem_bytes=8,
        ws_bytes=1 * MB,
        hot_frac=0.85,
        hot_bytes=12 * KB,
        hot_skew=0.15,
        store_ws_bytes=8 * KB,
        fp_per_load=1.2,
        chain_depth=2,
        n_chains=4,
        store_per_load=0.30,
        iters=96,
    ),
    "stream": _p(
        "stream",
        n_streams=4,
        unroll=1,
        elem_bytes=8,
        ws_bytes=16 * MB,
        hot_frac=0.0,
        store_ws_bytes=16 * MB,
        fp_per_load=1.5,
        chain_depth=2,
        n_chains=4,
        store_per_load=0.50,
        iters=160,
    ),
}


# -- registry ----------------------------------------------------------------

#: name -> (profile, provenance); seeded with the built-ins below
_REGISTRY: dict[str, tuple[BenchProfile, str]] = {}
#: bumped by every registration: a cache of objects built from registry
#: lookups (the shared workload presets) keys on it, so a profile
#: registered over an old name is never served from an older object
_generation = 0


def register_profile(
    profile: BenchProfile, provenance: str = "user", replace: bool = True
) -> BenchProfile:
    """Register ``profile`` under ``profile.name``.

    ``provenance`` is a short origin string shown by ``repro-sim
    workloads`` (built-ins use ``"built-in"``/``"built-in scenario"``;
    :func:`load_profiles` records the source file). With
    ``replace=False`` a name collision raises instead of shadowing.
    """
    global _generation
    if not profile.name or not isinstance(profile.name, str):
        raise ValueError("profile needs a non-empty string name")
    if not replace and profile.name in _REGISTRY:
        raise ValueError(f"profile {profile.name!r} is already registered")
    _REGISTRY[profile.name] = (profile, provenance)
    _generation += 1
    return profile


def registry_generation() -> int:
    """How many registrations the profile registry has seen."""
    return _generation


def get_profile(name: str) -> BenchProfile:
    """Look up a registered profile by name (built-in or user)."""
    try:
        return _REGISTRY[name][0]
    except KeyError:
        known = sorted(_REGISTRY)
        raise KeyError(
            f"unknown profile {name!r}{did_you_mean(name, known)}; "
            f"known: {', '.join(known)}"
        ) from None


def profile_provenance(name: str) -> str:
    """Where a registered profile came from (see :func:`register_profile`)."""
    get_profile(name)  # uniform unknown-name error
    return _REGISTRY[name][1]


def profile_names() -> list[str]:
    """Every registered profile name, sorted."""
    return sorted(_REGISTRY)


def load_document(path) -> dict:
    """Read one JSON (default) or TOML (by suffix) mapping from a file.

    Shared by profile files and workload files
    (:func:`~repro.workloads.spec.load_workload`), so format handling
    can never drift between the two.
    """
    import json
    from pathlib import Path

    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".toml":
        import tomllib

        doc = tomllib.loads(text)
    else:
        doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: document must be a mapping")
    return doc


def load_profiles(path) -> list[str]:
    """Register every profile defined in a JSON or TOML file.

    The document is either a top-level ``name -> fields`` mapping or a
    ``{"profiles": {name -> fields}}`` wrapper (the same shape workload
    files embed). Field sets may use ``"base": "<registered name>"`` to
    derive from an existing profile. Returns the registered names.
    """
    doc = load_document(path)
    table = doc.get("profiles", doc)
    if not isinstance(table, dict):
        raise ValueError(f"{path}: 'profiles' must map names to fields")
    names = []
    for name, body in table.items():
        if not isinstance(body, dict):
            raise ValueError(f"{path}: profile {name!r} must be a mapping")
        body = {"name": name, **body}
        register_profile(BenchProfile.from_dict(body), provenance=str(path))
        names.append(name)
    return names


for _name in BENCH_ORDER:
    register_profile(SPECFP95[_name], provenance="built-in")
for _name, _profile in SCENARIOS.items():
    register_profile(_profile, provenance="built-in scenario")
del _name, _profile
