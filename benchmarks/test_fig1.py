"""Figure 1 benchmark: section-2 latency-hiding sweep.

Regenerates, for every SPEC FP95 profile and L2 latency in {1..256}:
1-a perceived FP-load miss latency, 1-b perceived integer-load miss
latency, 1-c miss ratios at L2=256, 1-d relative IPC loss.
"""

from repro.experiments.figures import fig1, render_fig1


def test_fig1(engine):
    data = fig1(engine=engine)
    print()
    print(render_fig1(data))

    runs = data["runs"]
    lats = data["latencies"]
    big = max(lats)

    # S1: good decouplers hide >90% of the FP-load miss latency everywhere.
    for bench in ("tomcatv", "swim", "mgrid", "applu"):
        for lat in lats:
            perceived = runs[bench][lat]["perceived_fp"]
            assert perceived < 0.1 * max(lat, 10), (bench, lat, perceived)

    # S1: fpppp is the exception (paper: the one bad decoupler).
    assert runs["fpppp"][big]["perceived_fp"] > 10 * max(
        runs[b][big]["perceived_fp"] for b in ("tomcatv", "swim", "applu")
    ) or runs["fpppp"][big]["perceived_fp"] > 20

    # S2: int-load stalls are largest for fpppp/su2cor/turb3d/wave5.
    stall_heavy = min(
        runs[b][big]["perceived_int"]
        for b in ("fpppp", "su2cor", "turb3d", "wave5")
    )
    stall_light = max(
        runs[b][big]["perceived_int"]
        for b in ("tomcatv", "swim", "mgrid", "applu")
    )
    assert stall_heavy > stall_light

    # S3: fpppp/turb3d have the lowest miss ratios.
    low = max(runs[b][big]["load_miss_ratio"] for b in ("fpppp", "turb3d"))
    high = min(
        runs[b][big]["load_miss_ratio"] for b in ("swim", "hydro2d", "tomcatv")
    )
    assert low < high
