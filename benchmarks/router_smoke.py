"""Router acceptance smoke: the hybrid backend on a 216-cell grid.

Checks the two hybrid-backend invariants from DESIGN.md ("Multi-fidelity
router") plus the routing economics:

1. every promoted cell's stats snapshot is byte-identical to the
   pure-cycle run of the same spec;
2. the number of cycle executions respects ``--promote-budget``;
3. the cycle fraction stays at or under the budget cap (<= 20% of the
   grid), and every cell is either screened or promoted.

It times nothing: the grid's speed is perfbench's ``hybrid`` workload.
Cells use the paper's full commit budgets, so ``REPRO_SCALE`` sets the
per-cell cost. Run as a script::

    REPRO_SCALE=0.2 PYTHONPATH=src python benchmarks/router_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import sys

from repro.engine import Engine, RouterSpec, RunSpec, Sweep

THREADS = (1, 2, 3, 4)
LATENCIES = tuple(range(4, 436, 16))  # 27 points: a dense latency sweep
PROMOTE_BUDGET = 0.15


def main() -> int:
    router = RouterSpec(promote_budget=PROMOTE_BUDGET)
    grid = Sweep.grid(
        lambda n_threads, l2_latency, decoupled: RunSpec.multiprogrammed(
            n_threads,
            l2_latency=l2_latency,
            decoupled=decoupled,
            backend="hybrid",
            router=router,
        ),
        n_threads=THREADS,
        l2_latency=LATENCIES,
        decoupled=(True, False),
    )
    n = len(grid)
    assert n >= 200, f"smoke grid too small: {n}"

    hybrid = Engine().map(grid)

    cap = router.promote_cap(n)
    frac = hybrid.n_promoted / n
    print(f"grid: {n} cells, promote budget {PROMOTE_BUDGET} (cap {cap})")
    print(
        f"hybrid: {hybrid.n_screened} screened / {hybrid.n_promoted} promoted "
        f"({frac:.1%} on cycle)"
    )

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
    n_checked = 0
    for spec, stats in hybrid.items():
        if hybrid.router.get(spec, {}).get("fidelity") != "cycle":
            continue
        twin = dataclasses.replace(spec, backend="cycle", router=None)
        want = json.dumps(twin.execute().snapshot(), sort_keys=True)
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

    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    print("router smoke: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
