"""Experiment harness: per-figure drivers and ablations."""

from repro.experiments.ablations import ABLATIONS
from repro.experiments.figures import FIGURES, LATENCIES, fig1, fig3, fig4, fig5

__all__ = [
    "FIGURES",
    "ABLATIONS",
    "LATENCIES",
    "fig1",
    "fig3",
    "fig4",
    "fig5",
]
