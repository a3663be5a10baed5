"""Figure 4 benchmark: latency tolerance of the eight configurations.

Regenerates 4-a (perceived load-miss latency), 4-b (relative IPC loss) and
4-c (absolute IPC) for {1..4 threads} x {decoupled, non-decoupled} over the
L2 latency sweep. Shape anchors from the paper: at L2 = 32 every decoupled
configuration loses only a few percent while every non-decoupled one loses
>23 %; decoupling flattens the IPC curves while multithreading raises them.
"""

from repro.experiments.figures import fig4, render_fig4


def test_fig4(engine):
    data = fig4(engine=engine)
    print()
    print(render_fig4(data))

    runs = data["runs"]
    lats = data["latencies"]
    base = lats[0]

    def loss(decoupled, nt, lat):
        r = runs[(decoupled, nt)]
        return 1.0 - r[lat]["ipc"] / r[base]["ipc"]

    # 4-b: the latency-tolerance gap at L2 = 32. (The paper reports <4 %
    # vs >23 %; at reduced REPRO_SCALE budgets cold-start effects widen the
    # decoupled band, so the assertion checks the *gap*.)
    worst_dec = max(loss(True, nt, 32) for nt in data["threads"])
    best_non = min(loss(False, nt, 32) for nt in data["threads"])
    assert worst_dec < 0.30
    assert best_non > 0.18
    assert best_non > worst_dec + 0.05

    # 4-b at 256: decoupled still clearly ahead
    assert max(loss(True, nt, 256) for nt in data["threads"]) < \
        min(loss(False, nt, 256) for nt in data["threads"])

    # 4-a: perceived latency of decoupled configs stays far below
    # non-decoupled ones at every latency beyond L1
    for lat in lats[1:]:
        dec = max(runs[(True, nt)][lat]["perceived"] for nt in data["threads"])
        non = min(runs[(False, nt)][lat]["perceived"] for nt in data["threads"])
        assert dec < non, (lat, dec, non)

    # 4-c: multithreading raises the curves
    for decoupled in (True, False):
        assert runs[(decoupled, 4)][16]["ipc"] > runs[(decoupled, 1)][16]["ipc"]
