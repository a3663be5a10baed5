"""The pinned kernel workload set that the repo benchmark reads.

``perfbench``'s ``kernel`` workload runs ``perf_specs(quick=True)``
serially, with no engine or cache, and keys its per-spec layer metrics
and its recorded result digests by these names (see
``perfbench/README.md``).  The set covers the cycle kernel's distinct
regimes: idle-heavy, busy, issue-bound, non-decoupled, memory-bound and
MSHR-refused.
"""

from __future__ import annotations

from repro.engine.spec import RunSpec
from repro.workloads.spec import workload_preset

#: the Figure-1 headline workload: one thread at L2 = 256, machine idle
#: most cycles (decoupling degraded)
HEADLINE = "fig1_su2cor_1T_L2=256"


def perf_specs(quick: bool = False) -> dict[str, RunSpec]:
    """The pinned workload set, name -> spec.

    ``quick`` halves budgets for CI smoke runs — small enough to keep the
    job fast, large enough that the headline speedup is not dominated by
    timing noise on a short measured region. Both modes pin ``scale=1.0``
    explicitly so ``REPRO_SCALE`` cannot skew a comparison against a
    committed baseline.
    """
    f = 0.5 if quick else 1.0
    s = lambda n: max(500, int(n * f))  # noqa: E731 - tiny local helper
    return {
        # headline: fig1 single-benchmark point, resources scaled with
        # latency, machine idle most cycles (decoupling degraded)
        HEADLINE: RunSpec.single(
            "su2cor", l2_latency=256, scale=1.0,
            commits=s(30_000), warmup=s(15_000),
        ),
        # a good decoupler at the same latency: busy pipeline, little idle
        "fig1_tomcatv_1T_L2=256": RunSpec.single(
            "tomcatv", l2_latency=256, scale=1.0,
            commits=s(30_000), warmup=s(15_000),
        ),
        # the Figure-3 regime: multithreaded, short latency, issue-bound
        "fig3_4T_L2=16": RunSpec.multiprogrammed(
            4, l2_latency=16, scale=1.0,
            commits_per_thread=s(15_000), warmup_per_thread=s(8_000),
        ),
        # non-decoupled long-latency machine: unified queues, idle-heavy
        "fig4_2T_L2=128_nondec": RunSpec.multiprogrammed(
            2, l2_latency=128, decoupled=False, scale=1.0,
            commits_per_thread=s(15_000), warmup_per_thread=s(8_000),
        ),
        # memory-bound regime (PR 5): four thrashing threads hammer the
        # composed hierarchy — the miss path, MSHR churn and bus
        # scheduling dominate, so facade-layer regressions show up here
        # first
        "mem_thrash4_L2=64": RunSpec.from_workload(
            workload_preset("thrash4"), l2_latency=64, scale=1.0,
            commits=s(10_000), warmup=s(4_000),
        ),
        # latency-dominated 4T machine (PR 10): four threads share four
        # MSHRs against 256-cycle misses, so ready loads spend most
        # cycles structurally *refused* — exactly the partial-idle
        # windows the binary all-idle fast-forward could never skip
        # (a ready head made the cycle ineligible) and the event-horizon
        # scheduler jumps wholesale
        "hilat_4T_L2=256": RunSpec.multiprogrammed(
            4, l2_latency=256, scale=1.0, mshrs=4,
            commits_per_thread=s(10_000), warmup_per_thread=s(5_000),
        ),
    }
