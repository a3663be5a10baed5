"""Router configuration: the declarative half of the hybrid backend.

A :class:`RouterSpec` rides inside :class:`~repro.engine.spec.RunSpec`
(the ``router`` field), so a hybrid run is cache-addressable like any
other spec: two sweeps with different promotion budgets or corpora are
different specs with different content hashes.  Like
:class:`~repro.memory.spec.MemSpec` it is frozen, hashable and
JSON-round-trippable; unlike results, routing *decisions* are never
persisted — they are recomputed from the (cached) analytic results and
the error model on every sweep, which is what makes warm and cold runs
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.workloads.profiles import check_scalars, scalar_checks

#: promotion policies the router knows; ``RouterSpec.policies`` is an
#: ordered subset ("budget" is not in here: the promote budget is a hard
#: cap applied after every policy has nominated its candidates)
POLICIES = ("extrema", "boundary")


@dataclass(frozen=True)
class RouterSpec:
    """How the hybrid backend screens and promotes one grid.

    ``policies`` — which nominators run (see :mod:`repro.router.policies`).
    ``promote_budget`` — hard cap on cycle-backend promotions: a float in
    ``(0, 1]`` is a fraction of the grid (floored, but at least one cell),
    an int ``>= 1`` an absolute cell count.
    ``error_budget`` — optional relative half-width tolerance: any cell
    whose error bar is wider than this fraction of its analytic IPC
    becomes a promotion candidate regardless of the other policies.
    ``quantile`` — coverage target of the fitted error bars (the model
    stores this quantile of the conformance corpus' |IPC error|).
    ``corpus`` — the error model's training data: ``"default"`` is the
    committed ``benchmarks/conformance/corpus.json``, anything else a
    path to a corpus written by ``repro-sim conformance --out``.
    """

    policies: tuple[str, ...] = POLICIES
    promote_budget: float = 0.15
    error_budget: float | None = None
    quantile: float = 0.95
    corpus: str = "default"

    def __post_init__(self):
        object.__setattr__(self, "policies", tuple(self.policies))
        unknown = [p for p in self.policies if p not in POLICIES]
        if unknown:
            raise ValueError(
                f"unknown router policies {unknown}; known: {POLICIES}"
            )
        check_scalars(self, _CHECKS)
        budget = self.promote_budget
        if isinstance(budget, float) and not 0.0 < budget <= 1.0:
            raise ValueError(
                "a fractional promote_budget must be in (0, 1] "
                f"(got {budget}); use an int for an absolute cell count"
            )
        if isinstance(budget, int) and budget < 1:
            raise ValueError(f"promote_budget must be >= 1 (got {budget})")
        if self.error_budget is not None and self.error_budget <= 0:
            raise ValueError("error_budget must be positive")
        if not 0.5 < self.quantile < 1.0:
            raise ValueError("quantile must be in (0.5, 1.0)")
        if not self.corpus:
            raise ValueError("corpus must be a non-empty string")

    def promote_cap(self, n_cells: int) -> int:
        """The hard promotion cap for an ``n_cells`` grid (at least 1:
        a router that may promote nothing could never verify anything)."""
        if isinstance(self.promote_budget, int):
            return max(1, min(self.promote_budget, n_cells))
        return max(1, min(int(self.promote_budget * n_cells), n_cells))

    def to_dict(self) -> dict:
        return {
            "policies": list(self.policies),
            "promote_budget": self.promote_budget,
            "error_budget": self.error_budget,
            "quantile": self.quantile,
            "corpus": self.corpus,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RouterSpec":
        known = {f.name for f in fields(cls)}
        kw = {k: v for k, v in d.items() if k in known}
        if "policies" in kw:
            kw["policies"] = tuple(kw["policies"])
        return cls(**kw)


#: a bool is not a number and a float must be finite, as for every other
#: wire type: ``error_budget: NaN`` would nominate no cell, and ``true``
#: would act as a budget of 1.0
_CHECKS = scalar_checks(RouterSpec, {
    "promote_budget", "error_budget", "quantile", "corpus",
})
