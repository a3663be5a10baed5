"""Figure 3 benchmark: issue-slot breakdown vs thread count (L2 = 16).

Paper anchors: 1 thread ~2.68 IPC dominated by EP wait-on-FU; 3 threads
~6.19 IPC (2.31x) with the AP ~90 % saturated; 4 threads ~6.65 IPC;
EP wait-on-memory grows with the thread count.
"""

from repro.experiments.figures import fig3, render_fig3


def test_fig3(engine):
    data = fig3(engine=engine)
    print()
    print(render_fig3(data))

    runs = data["runs"]

    # one thread: FU-latency bound, IPC in the paper's band
    assert 2.0 < runs[1]["ipc"] < 3.6
    assert runs[1]["ep"]["wait_fu"] > 0.4

    # three threads: large speedup (paper 2.31x), AP nearly saturated
    speedup = runs[3]["ipc"] / runs[1]["ipc"]
    assert 1.9 < speedup < 2.9
    assert runs[3]["ap"]["useful"] > 0.8

    # adding contexts beyond 3-4 buys little (paper: negligible)
    assert runs[6]["ipc"] < runs[3]["ipc"] * 1.15

    # EP memory stalls grow with thread count (paper section 3.1)
    assert runs[4]["ep"]["wait_mem"] > runs[1]["ep"]["wait_mem"]
