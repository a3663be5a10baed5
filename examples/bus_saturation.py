#!/usr/bin/env python3
"""Bus-saturation study: why decoupling needs fewer hardware contexts.

Reproduces the paper's Figure-5 argument at L2 = 64: the non-decoupled
machine keeps adding threads to hide latency until the off-chip bus
saturates (the paper quotes 89 % utilization at 12 threads and 98 % at 16),
while the decoupled machine peaks with 4-5 threads and modest bus load.

Built on the experiment engine like ``latency_sweep.py``: the grid is one
:class:`repro.Sweep`, its budgets follow ``REPRO_SCALE``, and results are
cached on disk, so a rerun simulates nothing.

Run:  python examples/bus_saturation.py
"""

from repro import Engine, ResultCache, RunSpec, Sweep, format_table

LATENCY = 64
THREADS = (1, 2, 3, 4, 6, 8, 12, 16)


def main() -> None:
    sweep = Sweep.grid(
        RunSpec.multiprogrammed,
        n_threads=THREADS,
        decoupled=(True, False),
        l2_latency=LATENCY,
        commits_per_thread=8_000,
        warmup_per_thread=5_000,
    )
    results = Engine(cache=ResultCache()).map(sweep)

    rows = {nt: [nt] for nt in THREADS}
    for spec in sweep:
        stats = results[spec]
        rows[spec.workload.n_threads] += [
            stats.ipc, stats.bus_utilization * 100
        ]
    print(
        format_table(
            ["threads", "dec IPC", "dec bus %", "non-dec IPC", "non-dec bus %"],
            list(rows.values()),
            f"Thread scaling at L2={LATENCY} (paper Figure 5, dotted lines)",
        )
    )


if __name__ == "__main__":
    main()
