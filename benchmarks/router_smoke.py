"""Router acceptance smoke: hybrid vs pure cycle on a 216-cell grid.

Gates the two hybrid-backend invariants from DESIGN.md ("Multi-fidelity
router") plus the headline economics:

1. every promoted cell's stats snapshot is byte-identical to the
   pure-cycle run of the same spec;
2. the number of cycle executions respects ``--promote-budget``;
3. the cycle fraction stays at or under the budget cap (<= 20% of the
   grid) and hybrid beats pure cycle by ``ROUTER_SMOKE_MIN_SPEEDUP``
   (default 3x; a 2-vCPU x86 host measured 7.6-8.0x at
   ``REPRO_SCALE=0.2``).

Both phases run from cold caches in the same process so the comparison
is apples-to-apples. Cells use the paper's full commit budgets, so
``REPRO_SCALE`` sets the per-cell cost (too small and per-task overhead
drowns the cycle/analytic cost gap). Run as a script::

    REPRO_SCALE=0.1 PYTHONPATH=src python benchmarks/router_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile
import time

from repro.engine import Engine, ResultCache, RouterSpec, RunSpec, Sweep

THREADS = (1, 2, 3, 4)
LATENCIES = tuple(range(4, 436, 16))  # 27 points: a dense latency sweep
PROMOTE_BUDGET = 0.15


def build_grid(backend: str, router: RouterSpec | None) -> Sweep:
    return Sweep.grid(
        lambda n_threads, l2_latency, decoupled: RunSpec.multiprogrammed(
            n_threads,
            l2_latency=l2_latency,
            decoupled=decoupled,
            backend=backend,
            router=router,
        ),
        n_threads=THREADS,
        l2_latency=LATENCIES,
        decoupled=(True, False),
    )


def prewarm() -> None:
    """Materialize the workload traces both phases share.

    Trace synthesis is memoized process-wide and is identical for every
    backend; paying it inside one phase's timing would bill shared
    infrastructure to whichever phase runs first.
    """
    from repro.engine.backends import get_backend

    backend = get_backend("analytic")
    for n_threads in THREADS:
        backend.run(
            RunSpec.multiprogrammed(n_threads, l2_latency=4, backend="analytic")
        )


def run_phase(grid: Sweep, root: str):
    engine = Engine(cache=ResultCache(root))
    t0 = time.perf_counter()
    results = engine.map(grid)
    return results, time.perf_counter() - t0


def main() -> int:
    router = RouterSpec(promote_budget=PROMOTE_BUDGET)
    hybrid_grid = build_grid("hybrid", router)
    cycle_grid = build_grid("cycle", None)
    n = len(hybrid_grid)
    assert n >= 200, f"smoke grid too small: {n}"

    prewarm()
    with tempfile.TemporaryDirectory() as tmp:
        hybrid, t_hybrid = run_phase(hybrid_grid, os.path.join(tmp, "hybrid"))
        cycle, t_cycle = run_phase(cycle_grid, os.path.join(tmp, "cycle"))

    cap = router.promote_cap(n)
    frac = hybrid.n_promoted / n
    print(f"grid: {n} cells, promote budget {PROMOTE_BUDGET} (cap {cap})")
    print(
        f"hybrid: {hybrid.n_screened} screened / {hybrid.n_promoted} promoted "
        f"({frac:.1%} on cycle), {t_hybrid:.1f}s"
    )
    print(f"cycle : {len(cycle)} executed, {t_cycle:.1f}s")
    speedup = t_cycle / t_hybrid if t_hybrid else float("inf")
    print(f"speedup: {speedup:.1f}x")

    failures = []
    if hybrid.n_promoted > cap:
        failures.append(f"promote budget violated: {hybrid.n_promoted} > cap {cap}")
    if frac > 0.20:
        failures.append(f"cycle fraction {frac:.1%} exceeds 20% acceptance bound")
    if hybrid.n_screened + hybrid.n_promoted != n:
        failures.append(
            f"screened+promoted = {hybrid.n_screened + hybrid.n_promoted} != {n}"
        )

    # Promoted cells must be byte-identical to the pure-cycle answer for
    # the same physical spec (the hybrid spec minus its routing fields).
    cycle_by_spec = {spec: stats for spec, stats in cycle.items()}
    n_checked = 0
    for spec, stats in hybrid.items():
        prov = hybrid.router.get(spec, {})
        if prov.get("fidelity") != "cycle":
            continue
        twin = dataclasses.replace(spec, backend="cycle", router=None)
        want = json.dumps(cycle_by_spec[twin].snapshot(), sort_keys=True)
        got = json.dumps(stats.snapshot(), sort_keys=True)
        if want != got:
            failures.append(f"promoted cell diverges from pure cycle: {spec.label()}")
        n_checked += 1
    if n_checked != hybrid.n_promoted:
        failures.append(
            f"provenance lists {n_checked} cycle cells, counter says "
            f"{hybrid.n_promoted}"
        )
    print(f"byte-identity: {n_checked} promoted cells checked against pure cycle")

    min_speedup = float(os.environ.get("ROUTER_SMOKE_MIN_SPEEDUP", "3"))
    if speedup < min_speedup:
        failures.append(f"speedup {speedup:.1f}x below gate {min_speedup}x")

    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    print("router smoke: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
