"""Experiment harness: one-run presets, figure drivers, renderers (tiny
budgets)."""

import pytest

from repro.engine.spec import RunSpec, scale_factor
from repro.experiments import ablations, figures


@pytest.fixture(autouse=True)
def fast_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.08")


class TestRunners:
    def test_multiprogrammed_run(self):
        stats = RunSpec.multiprogrammed(
            2, l2_latency=16, seg_instrs=4000).execute()
        assert stats.ipc > 0
        assert stats.committed > 0

    def test_single_benchmark_run(self):
        stats = RunSpec.single("applu", l2_latency=16).execute()
        assert stats.ipc > 0

    def test_config_overrides_forwarded(self):
        stats = RunSpec.multiprogrammed(
            1, seg_instrs=4000, fetch_policy="rr").execute()
        assert stats.ipc > 0

    def test_scale_factor_reads_env(self):
        assert scale_factor() == pytest.approx(0.08)


class TestFigureDrivers:
    def test_fig1_structure(self):
        data = figures.fig1(latencies=(1, 16), benches=("applu", "fpppp"))
        assert data["latencies"] == [1, 16]
        assert set(data["runs"]) == {"applu", "fpppp"}
        run = data["runs"]["applu"][16]
        for key in ("ipc", "perceived_fp", "perceived_int", "load_miss_ratio"):
            assert key in run
        text = figures.render_fig1(data)
        assert "Figure 1-a" in text and "Figure 1-d" in text

    def test_fig3_structure(self):
        data = figures.fig3(thread_counts=(1, 2))
        assert set(data["runs"]) == {1, 2}
        text = figures.render_fig3(data)
        assert "Figure 3" in text

    def test_fig4_structure(self):
        data = figures.fig4(latencies=(1, 16), thread_counts=(1,))
        assert (True, 1) in data["runs"]
        assert (False, 1) in data["runs"]
        text = figures.render_fig4(data)
        assert "Figure 4-a" in text and "Figure 4-c" in text

    def test_fig5_structure(self):
        data = figures.fig5(threads_16=(1, 2), threads_64=(1,))
        assert "L2=16 dec" in data["series"]
        assert "L2=64 non-dec" in data["series"]
        text = figures.render_fig5(data)
        assert "bus util" in text

    def test_figures_registry(self):
        assert set(figures.FIGURES) == {"fig1", "fig3", "fig4", "fig5"}


class TestAblations:
    def test_unit_width(self):
        data = ablations.unit_width(total=6, n_threads=1)
        assert (3, 3) in data
        assert "IPC" in ablations.render_unit_width(data)

    def test_fetch_policy(self):
        data = ablations.fetch_policy(n_threads=2)
        assert set(data) == {"icount", "rr"}

    def test_iq_depth_monotone_slip(self):
        data = ablations.iq_depth(l2_latency=16)
        slips = [data[s]["slip"] for s in sorted(data)]
        assert slips[-1] > slips[0]

    def test_registry(self):
        assert set(ablations.ABLATIONS) == {
            "unit_width", "fetch_policy", "mshr", "iq_depth", "rob",
            "l2_finite", "prefetch", "bus_width",
        }
