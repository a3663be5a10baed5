"""Integration tests asserting the paper's qualitative result shapes.

Small instruction budgets keep these fast; the assertions are deliberately
loose bands around the paper's claims (S1-S8 in DESIGN.md), not exact
numbers. ``repro-sim figure all`` regenerates the figures at the paper's
full budgets.
"""

import pytest

from repro.experiments.runner import run_multiprogrammed, run_single_benchmark


@pytest.fixture(autouse=True)
def fast_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.4")


class TestSection2Shapes:
    def test_s1_decoupling_hides_fp_miss_latency(self):
        """Good decouplers perceive almost none of a 64-cycle L2 latency."""
        for bench in ("tomcatv", "swim", "applu"):
            stats = run_single_benchmark(bench, l2_latency=64)
            assert stats.perceived_fp_latency < 5, bench

    def test_s1_fpppp_is_the_exception(self):
        good = run_single_benchmark("tomcatv", l2_latency=64)
        bad = run_single_benchmark("fpppp", l2_latency=64)
        assert bad.perceived_fp_latency > 10 * max(0.3, good.perceived_fp_latency)

    def test_s2_int_load_stall_programs(self):
        """fpppp/turb3d perceive large integer-load latency; tomcatv none."""
        stats_t = run_single_benchmark("turb3d", l2_latency=64)
        stats_c = run_single_benchmark("tomcatv", l2_latency=64)
        assert stats_t.perceived_int_latency > 20
        assert stats_c.perceived_int_latency < 2

    def test_s3_degradation_needs_miss_ratio_and_perceived_latency(self):
        """fpppp perceives latency but hardly misses -> small IPC loss.

        Its resident working set needs a long warm-up before the steady
        state (~1 % miss ratio) is visible.
        """
        lo = run_single_benchmark("fpppp", l2_latency=1,
                                  commits=25_000, warmup=40_000)
        hi = run_single_benchmark("fpppp", l2_latency=128,
                                  commits=25_000, warmup=40_000)
        assert hi.ipc > 0.7 * lo.ipc

    def test_s3_good_decoupler_insensitive(self):
        lo = run_single_benchmark("applu", l2_latency=1)
        hi = run_single_benchmark("applu", l2_latency=128)
        assert hi.ipc > 0.8 * lo.ipc


class TestSection3Shapes:
    def test_s4_multithreading_fills_the_machine(self):
        """1 -> 3 threads roughly doubles-and-a-half throughput (paper 2.31x)."""
        s1 = run_multiprogrammed(1, l2_latency=16)
        s3 = run_multiprogrammed(3, l2_latency=16)
        assert 1.8 < s3.ipc / s1.ipc < 3.0

    def test_s4_one_thread_is_fu_latency_bound(self):
        stats = run_multiprogrammed(1, l2_latency=16)
        ep = stats.slot_fractions(1)
        assert ep["wait_fu"] > 0.4  # EP mostly waits on FU results

    def test_s6_latency_tolerance_gap(self):
        """At L2=32 decoupled loses a few percent, non-decoupled tens."""
        dec_1 = run_multiprogrammed(4, l2_latency=1)
        dec_32 = run_multiprogrammed(4, l2_latency=32)
        non_1 = run_multiprogrammed(4, l2_latency=1, decoupled=False)
        non_32 = run_multiprogrammed(4, l2_latency=32, decoupled=False)
        dec_loss = 1 - dec_32.ipc / dec_1.ipc
        non_loss = 1 - non_32.ipc / non_1.ipc
        assert dec_loss < 0.15
        assert non_loss > 0.2
        assert non_loss > dec_loss + 0.1

    def test_s7_multithreading_raises_decoupling_flattens(self):
        """MT raises the curves; decoupling is what makes them flat."""
        dec_1t = run_multiprogrammed(1, l2_latency=64)
        dec_4t = run_multiprogrammed(4, l2_latency=64)
        non_4t = run_multiprogrammed(4, l2_latency=64, decoupled=False)
        assert dec_4t.ipc > 1.5 * dec_1t.ipc   # MT raises
        assert dec_4t.ipc > 1.3 * non_4t.ipc   # decoupling tolerates latency

    def test_s8_decoupled_saturates_with_fewer_threads(self):
        dec_3 = run_multiprogrammed(3, l2_latency=16)
        non_3 = run_multiprogrammed(3, l2_latency=16, decoupled=False)
        non_6 = run_multiprogrammed(6, l2_latency=16, decoupled=False)
        # 3 decoupled threads beat 3 non-decoupled ones decisively, and the
        # non-decoupled machine keeps scaling to 6 threads
        assert dec_3.ipc > 1.3 * non_3.ipc
        assert non_6.ipc > 1.25 * non_3.ipc

    def test_s8_bus_saturation_at_high_latency(self):
        """At L2=64 the non-decoupled machine drives the bus towards
        saturation as threads are added (paper: 89 % at 12 threads)."""
        non_12 = run_multiprogrammed(
            12, l2_latency=64, decoupled=False,
            commits_per_thread=6000, warmup_per_thread=3000,
        )
        assert non_12.bus_utilization > 0.75

    def test_s8_decoupled_few_threads_match_non_decoupled_many(self):
        dec_3 = run_multiprogrammed(3, l2_latency=64)
        non_10 = run_multiprogrammed(
            10, l2_latency=64, decoupled=False,
            commits_per_thread=6000, warmup_per_thread=3000,
        )
        assert dec_3.ipc > 0.85 * non_10.ipc
