"""Figure 5 benchmark: hardware-context reduction and bus saturation.

Regenerates the four IPC-vs-thread-count series (L2 = 16 solid, L2 = 64
dotted; decoupled vs non-decoupled) plus the bus-utilization column behind
the paper's "89 % at 12 threads / 98 % at 16 threads" observation.
"""

from repro.experiments.figures import fig5, render_fig5


def test_fig5(engine):
    data = fig5(engine=engine)
    print()
    print(render_fig5(data))

    s16_dec = data["series"]["L2=16 dec"]
    s16_non = data["series"]["L2=16 non-dec"]
    s64_dec = data["series"]["L2=64 dec"]
    s64_non = data["series"]["L2=64 non-dec"]

    # decoupled saturates with 3-4 threads at L2=16 (paper: 3 or 4)
    peak_dec = max(p["ipc"] for p in s16_dec.values())
    assert s16_dec[3]["ipc"] > 0.9 * peak_dec

    # the non-decoupled machine needs many more contexts
    assert s16_non[3]["ipc"] < 0.8 * s16_dec[3]["ipc"]
    assert max(p["ipc"] for p in s16_non.values()) > 1.3 * s16_non[2]["ipc"]

    # at L2=64 the non-decoupled machine never reaches the decoupled peak
    peak_dec64 = max(p["ipc"] for p in s64_dec.values())
    peak_non64 = max(p["ipc"] for p in s64_non.values())
    assert peak_non64 < 0.95 * peak_dec64

    # ... because the external bus saturates (paper: 89% @ 12T, 98% @ 16T)
    assert s64_non[12]["bus"] > 0.75
    assert s64_non[16]["bus"] > 0.85

    # decoupling reaches roughly non-dec-12T-level performance with ~3
    # threads (paper: parity; the reduced-budget band here is wider)
    assert s64_dec[3]["ipc"] > 0.75 * s64_non[12]["ipc"]
    assert s64_dec[4]["ipc"] > 0.9 * s64_non[12]["ipc"]
