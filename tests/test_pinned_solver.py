"""The analytic solver, pinned bit for bit over a 343-spec grid.

Most analytic stats are rounded to ints before they reach a cache entry
or a golden, so a change in the last bits of ``l_miss`` or of a
perceived latency would slip past both.  This digest does not: it is a
sha256 over the ``repr()`` of every :class:`AnalyticSolution` slot and
over the synthesized stats' ``to_dict()``, spec by spec.  The solver
uses only ``+ - * /``, ``min`` and ``max``, and the characterization
walk is integer arithmetic (its numpy path is equality-tested against
the interpreter), so the digest does not depend on the platform or on
whether numpy is installed.

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
