#!/usr/bin/env python3
"""Bus-saturation study: why decoupling needs fewer hardware contexts.

Reproduces the paper's Figure-5 argument at L2 = 64: the non-decoupled
machine keeps adding threads to hide latency until the off-chip bus
saturates (the paper quotes 89 % utilization at 12 threads and 98 % at 16),
while the decoupled machine peaks with 4-5 threads and modest bus load.

Run:  python examples/bus_saturation.py
"""

from repro import Processor, WorkloadSpec, format_table, paper_config

LATENCY = 64


def measure(decoupled: bool, n_threads: int):
    cfg = paper_config(
        n_threads=n_threads, l2_latency=LATENCY, decoupled=decoupled
    )
    workload = WorkloadSpec.rotation(n_threads, seg_instrs=20_000)
    proc = Processor(cfg, workload.playlists())
    stats = proc.run(
        max_commits=8_000 * n_threads, warmup_commits=5_000 * n_threads
    )
    return stats.ipc, stats.bus_utilization


def main() -> None:
    rows = []
    for nt in (1, 2, 3, 4, 6, 8, 12, 16):
        dec_ipc, dec_bus = measure(True, nt)
        non_ipc, non_bus = measure(False, nt)
        rows.append(
            [nt, dec_ipc, dec_bus * 100, non_ipc, non_bus * 100]
        )
    print(
        format_table(
            ["threads", "dec IPC", "dec bus %", "non-dec IPC", "non-dec bus %"],
            rows,
            f"Thread scaling at L2={LATENCY} (paper Figure 5, dotted lines)",
        )
    )


if __name__ == "__main__":
    main()
