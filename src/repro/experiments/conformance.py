"""Differential conformance: the analytic backend vs the cycle backend.

Runs both backends over the paper's Figure-4 grid — {1..4 threads} x
{decoupled, non-decoupled} x L2 latencies — and reports per-cell and
aggregate error on the three headline metrics:

* **IPC** — relative error; the gating aggregate is the *mean absolute
  relative error*, which must stay within :data:`TOLERANCE_IPC`.
* **Perceived load-miss latency** — relative error with a
  :data:`PERCEIVED_FLOOR`-cycle floor in the denominator (relative error
  against a near-zero latency is noise, not signal).
* **Bus utilization** — absolute error (the metric is already a
  fraction).

The document also carries the engine's counters for the cycle grid
(how many cells were cached or simulated). The CLI (``repro-sim
conformance``) exits non-zero when the IPC tolerance is exceeded, which
is what the CI conformance smoke step gates on.
"""

from __future__ import annotations

from repro.engine import RunSpec, Sweep, submit
from repro.memory.spec import mem_preset
from repro.router.errmodel import features_of

#: gating tolerance: mean absolute relative IPC error over the grid
TOLERANCE_IPC = 0.15
#: perceived-latency denominators are floored here (cycles)
PERCEIVED_FLOOR = 5.0

#: the Figure-4 grid (full) and the CI smoke subset (quick)
FULL_THREADS = (1, 2, 3, 4)
FULL_LATENCIES = (1, 16, 32, 64, 128, 256)
QUICK_THREADS = (1, 4)
QUICK_LATENCIES = (16, 64, 256)

#: the finite-L2 extension: threads coupled through a shared finite
#: cache (the non-classic hierarchy the model must track, not ignore)
FINITE_THREADS = (1, 4)
FINITE_LATENCIES = (16, 64, 256)
QUICK_FINITE_LATENCIES = (64,)


def conformance_grid(quick: bool = False, seed: int = 0) -> Sweep:
    """The cycle-backend specs of the conformance grid: the paper's
    Figure-4 cells plus finite-L2 cells exercising the composable
    hierarchy on both backends."""
    classic = Sweep.grid(
        RunSpec.multiprogrammed,
        decoupled=(True, False),
        n_threads=QUICK_THREADS if quick else FULL_THREADS,
        l2_latency=QUICK_LATENCIES if quick else FULL_LATENCIES,
        seed=seed,
    )
    finite = Sweep.grid(
        RunSpec.multiprogrammed,
        decoupled=(True,) if quick else (True, False),
        n_threads=FINITE_THREADS,
        l2_latency=QUICK_FINITE_LATENCIES if quick else FINITE_LATENCIES,
        mem=mem_preset("l2_finite"),
        seed=seed,
    )
    return classic + finite


def run_conformance(
    quick: bool = False,
    seed: int = 0,
    engine=None,
    tolerance: float = TOLERANCE_IPC,
    progress=None,
) -> dict:
    """Run the differential suite; returns a JSON-safe document."""
    say = progress or (lambda msg: None)
    grid = conformance_grid(quick=quick, seed=seed)

    say(f"cycle backend: {len(grid)} runs")
    cycle_results = submit(grid, engine)

    say("analytic backend: same grid")
    analytic = {
        spec: spec.with_backend("analytic").execute() for spec in grid
    }

    cells = []
    ipc_errs, perc_errs, bus_errs = [], [], []
    for spec in grid:
        c = cycle_results[spec]
        a = analytic[spec]
        if c.ipc:
            ipc_err = abs(a.ipc - c.ipc) / c.ipc
        else:
            # a dead reference cell is maximal disagreement, never a
            # free pass (unless the model also predicts zero)
            ipc_err = 0.0 if a.ipc == 0 else 1.0
        perc_err = abs(
            a.perceived_load_latency - c.perceived_load_latency
        ) / max(c.perceived_load_latency, PERCEIVED_FLOOR)
        bus_err = abs(a.bus_utilization - c.bus_utilization)
        ipc_errs.append(ipc_err)
        perc_errs.append(perc_err)
        bus_errs.append(bus_err)
        cells.append(
            {
                "label": spec.label(),
                # the error-model features (repro.router.errmodel) ride
                # along so a corpus distilled from this document trains
                # without re-deriving them from labels
                "features": features_of(spec),
                "cycle": {
                    "ipc": c.ipc,
                    "perceived": c.perceived_load_latency,
                    "bus": c.bus_utilization,
                    "load_miss_ratio": c.load_miss_ratio,
                },
                "analytic": {
                    "ipc": a.ipc,
                    "perceived": a.perceived_load_latency,
                    "bus": a.bus_utilization,
                    "load_miss_ratio": a.load_miss_ratio,
                },
                "ipc_err": ipc_err,
                "perceived_err": perc_err,
                "bus_abs_err": bus_err,
            }
        )

    n = len(cells)
    mean_ipc_err = sum(ipc_errs) / n
    doc: dict = {
        "schema": "repro-conformance/1",
        "quick": quick,
        "seed": seed,
        "n_cells": n,
        "tolerance_ipc": tolerance,
        "mean_abs_ipc_err": mean_ipc_err,
        "max_abs_ipc_err": max(ipc_errs),
        "mean_perceived_err": sum(perc_errs) / n,
        "mean_bus_abs_err": sum(bus_errs) / n,
        "passed": mean_ipc_err <= tolerance,
        "cells": cells,
        "counters": cycle_results.counters.to_dict(),
    }
    return doc


def render_conformance(doc: dict) -> str:
    """Text report for one conformance document."""
    from repro.stats.report import format_table

    rows = [
        [
            cell["label"],
            cell["cycle"]["ipc"],
            cell["analytic"]["ipc"],
            cell["ipc_err"] * 100,
            cell["cycle"]["perceived"],
            cell["analytic"]["perceived"],
            cell["cycle"]["bus"],
            cell["analytic"]["bus"],
        ]
        for cell in doc["cells"]
    ]
    out = [
        format_table(
            ["config", "IPC cyc", "IPC ana", "err%",
             "perc cyc", "perc ana", "bus cyc", "bus ana"],
            rows,
            "Conformance: analytic vs cycle backend (Figure-4 grid)",
        )
    ]
    verdict = "PASS" if doc["passed"] else "FAIL"
    out.append(
        f"mean |IPC err| {doc['mean_abs_ipc_err'] * 100:.2f}% "
        f"(tolerance {doc['tolerance_ipc'] * 100:.0f}%; "
        f"max {doc['max_abs_ipc_err'] * 100:.1f}%)  "
        f"perceived {doc['mean_perceived_err'] * 100:.1f}%  "
        f"bus +-{doc['mean_bus_abs_err']:.3f}  -> {verdict}"
    )
    return "\n\n".join(out)
