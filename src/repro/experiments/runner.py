"""Experiment execution helpers.

Since the engine refactor these are thin wrappers: each call builds a
frozen :class:`~repro.engine.spec.RunSpec` and executes it in-process.
Figure/ablation drivers no longer call these directly — they build a
:class:`~repro.engine.spec.Sweep` and submit the whole batch to an
:class:`~repro.engine.scheduler.Engine` — but the one-run entry points
remain for tests, examples and the ``run``/``bench`` CLI commands.

Instruction budgets scale with ``REPRO_SCALE`` (a float environment
variable, default 1.0, captured into the spec at build time), so tests
and the figure benchmarks run quick reduced-budget sweeps while the
default runs the paper's full budgets.
"""

from __future__ import annotations

from repro.engine.spec import (
    COMMITS_PER_THREAD,
    SEG_INSTRS,
    SINGLE_COMMITS,
    SINGLE_WARMUP,
    WARMUP_PER_THREAD,
    RunSpec,
    scale_factor,
)
from repro.stats.counters import SimStats

__all__ = [
    "COMMITS_PER_THREAD",
    "SEG_INSTRS",
    "SINGLE_COMMITS",
    "SINGLE_WARMUP",
    "WARMUP_PER_THREAD",
    "run_multiprogrammed",
    "run_single_benchmark",
    "scale_factor",
]


def run_multiprogrammed(
    n_threads: int,
    l2_latency: int = 16,
    decoupled: bool = True,
    seed: int = 0,
    commits_per_thread: int | None = None,
    warmup_per_thread: int | None = None,
    seg_instrs: int = SEG_INSTRS,
    **config_overrides,
) -> SimStats:
    """One paper-section-3 run: rotated SPEC FP95 mix on all contexts."""
    return RunSpec.multiprogrammed(
        n_threads,
        l2_latency=l2_latency,
        decoupled=decoupled,
        seed=seed,
        commits_per_thread=commits_per_thread,
        warmup_per_thread=warmup_per_thread,
        seg_instrs=seg_instrs,
        **config_overrides,
    ).execute()


def run_single_benchmark(
    bench: str,
    l2_latency: int = 16,
    scale_with_latency: bool = True,
    decoupled: bool = True,
    seed: int = 0,
    commits: int | None = None,
    warmup: int | None = None,
    **config_overrides,
) -> SimStats:
    """One paper-section-2 run: a single benchmark on one context."""
    return RunSpec.single(
        bench,
        l2_latency=l2_latency,
        scale_with_latency=scale_with_latency,
        decoupled=decoupled,
        seed=seed,
        commits=commits,
        warmup=warmup,
        **config_overrides,
    ).execute()
