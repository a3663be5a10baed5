"""Multiprogrammed workload construction (paper section 3).

The paper feeds the multithreaded simulator with independent threads, each
consisting of "a sequence of traces from all SpecFP95 programs, in a
different order for each thread". We reproduce that exactly: thread *t* runs
the ten benchmark traces rotated by *t*, concatenated, and wrapped
indefinitely. Traces are shared between threads (the pipeline salts data
addresses per thread so working sets do not alias), which keeps memory usage
independent of the thread count.
"""

from __future__ import annotations

from functools import lru_cache

from repro.isa.trace import Trace
from repro.workloads.profiles import BENCH_ORDER, BenchProfile, get_profile
from repro.workloads.synth import synthesize


@lru_cache(maxsize=128)
def profile_trace(profile: BenchProfile, n_instrs: int, seed: int = 0) -> Trace:
    """A (cached) synthetic trace for one resolved profile.

    Keyed by the frozen profile *value* (not its name), so two inline
    variants of the same benchmark never share a trace — the invariant
    :meth:`~repro.workloads.spec.WorkloadSpec.playlists` relies on.

    The trace is deferred (:meth:`Trace.deferred`): this call
    synthesizes nothing, and the first reader of its instructions in
    this process runs ``synthesize(profile, n_instrs, seed)``. Since
    that returns at least ``n_instrs`` instructions, ``n_instrs`` must
    be positive, which keeps every deferred trace non-empty.
    """
    if n_instrs < 1:
        raise ValueError(f"n_instrs must be positive, got {n_instrs}")
    return Trace.deferred(
        lambda: synthesize(profile, n_instrs, seed=seed).insts, profile.name
    )


def benchmark_trace(name: str, n_instrs: int, seed: int = 0) -> Trace:
    """A (cached) synthetic trace for one registered profile, by name."""
    return profile_trace(get_profile(name), n_instrs, seed)


def rotation(names: list[str], start: int) -> list[str]:
    """The benchmark order for one thread: ``names`` rotated by ``start``."""
    k = start % len(names)
    return names[k:] + names[:k]


def multiprogram(
    n_threads: int,
    seg_instrs: int = 20_000,
    seed: int = 0,
    names: list[str] | None = None,
) -> list[list[Trace]]:
    """Build one trace playlist per hardware context.

    Args:
        n_threads: number of hardware contexts.
        seg_instrs: trace segment length per benchmark (the paper used 100 M
            instructions per benchmark; we scale down — see DESIGN.md).
        seed: RNG seed forwarded to the synthesiser.
        names: benchmark subset (defaults to all ten, paper order).

    Returns:
        ``playlists[t]`` is the ordered list of traces thread ``t`` executes
        cyclically.
    """
    if names is None:
        names = BENCH_ORDER
    segments = {n: benchmark_trace(n, seg_instrs, seed) for n in names}
    return [
        [segments[n] for n in rotation(list(names), t)]
        for t in range(n_threads)
    ]


def single_program(
    name: str, n_instrs: int = 50_000, seed: int = 0
) -> list[list[Trace]]:
    """A single-threaded playlist running one benchmark (paper section 2)."""
    return [[benchmark_trace(name, n_instrs, seed)]]
