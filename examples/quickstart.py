#!/usr/bin/env python3
"""Quickstart: simulate the paper's machine and print its headline result.

Builds the Figure-2 multithreaded decoupled processor with 3 hardware
contexts, feeds it the rotated SPEC FP95-like workload, runs 45k committed
instructions and prints the full report — the configuration behind the
paper's "2.68 -> 6.19 IPC with three threads" observation.

Run:  python examples/quickstart.py
"""

from repro import Processor, WorkloadSpec, format_run, paper_config


def main() -> None:
    for n_threads in (1, 3):
        cfg = paper_config(n_threads=n_threads, l2_latency=16)
        workload = WorkloadSpec.rotation(n_threads, seg_instrs=20_000)
        proc = Processor(cfg, workload.playlists())
        stats = proc.run(
            max_commits=15_000 * n_threads,
            warmup_commits=8_000 * n_threads,
        )
        print(format_run(stats, f"{n_threads} thread(s), decoupled, L2=16"))
        print()


if __name__ == "__main__":
    main()
