"""Ablation benchmarks: design-space points the paper mentions but did not
evaluate (see DESIGN.md per-experiment index, abl-* rows)."""

from repro.experiments import ablations


def test_unit_width(engine):
    """Paper section 3.1: AP/EP load imbalance costs ~15 % of peak; an
    asymmetric split was left as future work."""
    data = ablations.unit_width(engine=engine)
    print()
    print(ablations.render_unit_width(data))
    # the symmetric paper split must not be grossly inferior to the best
    best = max(r["ipc"] for r in data.values())
    assert data[(4, 4)]["ipc"] > 0.85 * best


def test_fetch_policy(engine):
    data = ablations.fetch_policy(engine=engine)
    print()
    print(ablations.render_fetch_policy(data))
    assert data["icount"]["ipc"] > 0.9 * data["rr"]["ipc"]


def test_mshr_sweep(engine):
    """Quantifies the DESIGN.md substitution: 16 MSHRs cannot sustain the
    MLP the paper's latency sweep implies."""
    data = ablations.mshr(engine=engine)
    print()
    print(ablations.render_mshr(data))
    assert data[64]["ipc"] > data[8]["ipc"]


def test_iq_depth(engine):
    """Slip (and therefore latency hiding) is bounded by the IQ depth."""
    data = ablations.iq_depth(engine=engine)
    print()
    print(ablations.render_iq_depth(data))
    assert data[192]["slip"] > data[8]["slip"]
    assert data[192]["ipc"] > data[8]["ipc"]


def test_rob_size(engine):
    """Sensitivity to the ROB size Figure 2 leaves unspecified."""
    data = ablations.rob(engine=engine)
    print()
    print(ablations.render_rob(data))
    assert data[256]["ipc"] > 0.8 * data[512]["ipc"]
