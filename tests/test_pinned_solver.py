"""The analytic solver, pinned bit for bit over a 343-spec grid.

Most analytic stats are rounded to ints before they reach a cache entry
or a golden, so a change in the last bits of ``l_miss`` or of a
perceived latency would slip past both.  This digest does not: it is a
sha256 over the ``repr()`` of every :class:`AnalyticSolution` slot and
over the synthesized stats' ``to_dict()``, spec by spec.  The solver
uses only ``+ - * /``, ``min`` and ``max``, and the characterization
walk is integer arithmetic, so the digest does not depend on the
platform.

The walk has a digest of its own: a sha256 over the ``repr()`` of the
:class:`~repro.model.charwalk.WorkloadCharacter` of every grid spec
and of five more shapes at scale 1.0 (:func:`walk_shapes`), so a
rewritten walk must reproduce every count and every reuse bucket, not
only what the solver makes of them.

A restructured solver must keep every floating-point operation in its
order and every iteration's exit test, so it reproduces the digest.
A change that moves results on purpose records a new digest together
with a ``SPEC_VERSION`` bump.
"""

from __future__ import annotations

import hashlib
import json

from repro.engine import RunSpec
from repro.memory.spec import mem_preset, mem_preset_names
from repro.model import analytic
from repro.model.analytic import AnalyticSolution, _synthesize_stats
from repro.model.charwalk import characterize
from repro.workloads.spec import workload_preset

SCALE = 0.05
LATENCIES = (1, 16, 96, 256, 1000)
#: config overrides that bind each slip-window or throughput cap
OVERRIDES = (
    {"mshrs": 1},
    {"iq_size": 4, "ap_width": 1},
    {"max_unresolved_branches": 1},
    {"rob_size": 8},
    {"fetch_threads": 1},
)
SINGLES = ("swim", "su2cor", "fpppp")

DIGEST = "011d6a05bd139c7fa518c17fc59fb990479fa4d388625c28707fbd9541011bd8"
WALK_DIGEST = "a7bbf2e520796e1c2ce47c31fd60b27b840517a0d284e1b7641735ecf9be8a15"


def grid() -> list[RunSpec]:
    """Every memory preset (and the default hierarchy) x {1, 2, 4, 8}
    threads x {dec, non-dec} x five L2 latencies; the override shapes
    at 1 and 4 threads; three single-benchmark runs: 343 specs."""
    specs = [
        RunSpec.multiprogrammed(
            threads, l2_latency=lat, decoupled=dec, scale=SCALE,
            backend="analytic", mem=mem,
        )
        for mem in [None, *map(mem_preset, mem_preset_names())]
        for threads in (1, 2, 4, 8)
        for dec in (True, False)
        for lat in LATENCIES
    ]
    specs += [
        RunSpec.multiprogrammed(
            threads, l2_latency=lat, scale=SCALE, backend="analytic", **kw,
        )
        for kw in OVERRIDES
        for threads in (1, 4)
        for lat in (16, 256)
    ]
    specs += [
        RunSpec.single(bench, scale=SCALE, backend="analytic")
        for bench in SINGLES
    ]
    return specs


def walk_shapes() -> list[RunSpec]:
    """Five walks at scale 1.0 beyond the grid: two single-benchmark
    runs, a 4-thread rotation with per-thread budgets, the ``thrash4``
    preset and a single run built with ``warmup=0`` (which resolves to
    the workload's default warm-up)."""
    return [
        RunSpec.single("su2cor", l2_latency=256, commits=4_000,
                       warmup=2_000, scale=1.0),
        RunSpec.single("tomcatv", l2_latency=16, commits=4_000,
                       warmup=2_000, scale=1.0),
        RunSpec.multiprogrammed(4, l2_latency=16, commits_per_thread=2_000,
                                warmup_per_thread=1_000, scale=1.0),
        RunSpec.from_workload(workload_preset("thrash4"), l2_latency=64,
                              commits=3_000, warmup=1_000, scale=1.0),
        RunSpec.single("su2cor", l2_latency=16, commits=3_000, warmup=0,
                       scale=1.0),
    ]


def walk_digest(specs) -> str:
    h = hashlib.sha256()
    for spec in specs:
        h.update(repr(characterize(spec, spec.machine_config())).encode())
    return h.hexdigest()


def solver_digest(specs) -> str:
    h = hashlib.sha256()
    for spec in specs:
        cfg = spec.machine_config()
        char = characterize(spec, cfg)
        sol = analytic.solve(spec, cfg, char)
        for slot in AnalyticSolution.__slots__:
            h.update(repr(getattr(sol, slot)).encode())
        stats = _synthesize_stats(spec, cfg, char, sol)
        h.update(json.dumps(stats.to_dict(), sort_keys=True).encode())
    return h.hexdigest()


def test_grid_shape():
    specs = grid()
    assert len(specs) == len(set(specs)) == 343


def test_solver_is_pinned():
    assert solver_digest(grid()) == DIGEST


def test_walks_are_pinned():
    assert walk_digest(grid() + walk_shapes()) == WALK_DIGEST
