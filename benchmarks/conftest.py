"""Paper-anchor suite configuration.

Each test regenerates one paper figure's (or ablation's) data series,
prints the same rows the paper reports and asserts the paper's
qualitative claims. Simulation budgets honour ``REPRO_SCALE`` (default
here: 0.25 for a quick sweep; set ``REPRO_SCALE=1`` for the paper's full
budgets). The suite times nothing: speed is measured by ``perfbench/``.

Figures run through the same :class:`repro.engine.Engine` code path the
CLI uses, parallel across ``REPRO_WORKERS`` (default: all cores) but
with the persistent result cache disabled, so every run simulates.
Run it with ``REPRO_WORKERS=2 PYTHONPATH=src python -m pytest benchmarks
-q``; it needs only pytest.
"""

import os

import pytest

os.environ.setdefault("REPRO_SCALE", "0.25")

from repro.engine import Engine  # noqa: E402  (after the scale default)


@pytest.fixture
def engine():
    """Parallel, cache-less engine: the CLI execution path."""
    return Engine(workers=None, cache=None)
