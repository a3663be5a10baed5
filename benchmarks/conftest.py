"""Benchmark-harness configuration.

Each benchmark regenerates one paper figure's data series and prints the
same rows the paper reports. Simulation budgets honour ``REPRO_SCALE``
(default here: 0.25 for a quick sweep; set ``REPRO_SCALE=1`` for the
paper's full budgets).

Figures run through the same :class:`repro.engine.Engine` code path the
CLI uses — parallel across ``REPRO_WORKERS`` (default: all cores) but
with the persistent result cache disabled, so every timing measures real
simulation work rather than a cache read.
"""

import os

import pytest

os.environ.setdefault("REPRO_SCALE", "0.25")

from repro.engine import Engine  # noqa: E402  (after the scale default)


@pytest.fixture
def engine():
    """Parallel, cache-less engine: the CLI execution path, honest timings."""
    return Engine(workers=None, cache=None)


@pytest.fixture
def once(benchmark):
    """Run the measured function exactly once (simulations are long-running
    and deterministic; statistical repetition adds nothing)."""

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return run
