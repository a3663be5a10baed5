"""Multi-fidelity sweep router: analytic screens, cycle verifies.

``Engine.map`` hands a batch's ``"hybrid"`` specs to
:func:`repro.router.hybrid.route_grid`, which runs the whole grid
through the analytic fast model, attaches calibrated per-cell error bars
(:mod:`repro.router.errmodel`, fitted from the committed conformance
corpus), and promotes only the cells that matter — figure extrema,
decision boundaries whose ranking flips within the error bar, cells over
an explicit error budget — to the cycle backend
(:mod:`repro.router.policies`).  Both fidelities run through the
engine's own lookup step, ``Engine.resolve`` (memo, result cache,
process pool, ``--fork-warmup``).

This module deliberately imports neither the engine nor the pipeline:
:class:`RouterSpec` rides inside :class:`~repro.engine.spec.RunSpec`, so
the spec layer must be able to import it without dragging the router's
execution half (``repro.router.hybrid``) in.
"""

from repro.router.errmodel import (
    CORPUS_SCHEMA,
    ErrorModel,
    corpus_from_conformance,
    default_corpus_path,
    features_of,
    load_corpus,
    load_model,
    split_cells,
)
from repro.router.policies import ScreenedCell, select_promotions
from repro.router.spec import POLICIES, RouterSpec

__all__ = [
    "CORPUS_SCHEMA",
    "POLICIES",
    "ErrorModel",
    "RouterSpec",
    "ScreenedCell",
    "corpus_from_conformance",
    "default_corpus_path",
    "features_of",
    "load_corpus",
    "load_model",
    "select_promotions",
    "split_cells",
]
