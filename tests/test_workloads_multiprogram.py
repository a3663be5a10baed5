"""Multiprogrammed workload construction: the rotated playlists that
``WorkloadSpec.rotation(n).playlists(seed)`` hands every hardware
context, the single-benchmark shape, and the per-process trace cache
behind both."""

import pytest

from repro.workloads import BENCH_ORDER, WorkloadSpec, get_profile, profile_trace

ABC = ["swim", "fpppp", "mgrid"]


def names(playlist):
    return [tr.name for tr in playlist]


class TestRotation:
    def test_identity(self):
        pls = WorkloadSpec.rotation(1, names=ABC, seg_instrs=1000).playlists()
        assert names(pls[0]) == ABC

    def test_shift(self):
        pls = WorkloadSpec.rotation(2, names=ABC, seg_instrs=1000).playlists()
        assert names(pls[1]) == ["fpppp", "mgrid", "swim"]

    def test_wraps(self):
        pls = WorkloadSpec.rotation(5, names=ABC, seg_instrs=1000).playlists()
        assert names(pls[4]) == names(pls[1])


class TestMultiprogram:
    def test_one_playlist_per_thread(self):
        pls = WorkloadSpec.rotation(3, seg_instrs=1000).playlists()
        assert len(pls) == 3

    def test_each_playlist_covers_all_benchmarks(self):
        pls = WorkloadSpec.rotation(2, seg_instrs=1000).playlists()
        for pl in pls:
            assert sorted(names(pl)) == sorted(BENCH_ORDER)

    def test_threads_start_on_different_benchmarks(self):
        pls = WorkloadSpec.rotation(4, seg_instrs=1000).playlists()
        firsts = [pl[0].name for pl in pls]
        assert len(set(firsts)) == 4

    def test_traces_shared_between_threads(self):
        # memory must not scale with the thread count
        pls = WorkloadSpec.rotation(3, seg_instrs=1000).playlists()
        assert pls[0][1] is pls[1][0]  # same object, rotated position

    def test_segment_length(self):
        pls = WorkloadSpec.rotation(1, seg_instrs=1234).playlists()
        for tr in pls[0]:
            assert len(tr) >= 1234

    def test_subset_selection(self):
        wl = WorkloadSpec.rotation(2, names=["swim", "fpppp"], seg_instrs=800)
        assert sorted(names(wl.playlists()[0])) == ["fpppp", "swim"]


class TestCaching:
    def test_trace_cache_returns_same_object(self):
        a = profile_trace(get_profile("mgrid"), 1500, 0)
        b = profile_trace(get_profile("mgrid"), 1500, 0)
        assert a is b
        wl = WorkloadSpec.single("mgrid", seg_instrs=1500)
        assert wl.playlists(0)[0][0] is a

    def test_cache_distinguishes_seed(self):
        a = profile_trace(get_profile("mgrid"), 1500, 0)
        b = profile_trace(get_profile("mgrid"), 1500, 1)
        assert a is not b

    def test_one_call_shape_per_trace(self):
        # the cache keys on the call's shape, so a defaulted or keyword
        # seed would key a second copy of the same trace
        p = get_profile("mgrid")
        with pytest.raises(TypeError):
            profile_trace(p, 1500)
        with pytest.raises(TypeError):
            profile_trace(p, 1500, seed=0)
        before = profile_trace.cache_info().misses
        a = profile_trace(p, 1501, 0)
        assert profile_trace(p, 1501, 0) is a
        assert profile_trace.cache_info().misses == before + 1

    def test_refuses_a_length_that_would_build_an_empty_trace(self):
        # a deferred trace must be non-empty before it is built
        with pytest.raises(ValueError):
            profile_trace(get_profile("mgrid"), 0, 0)


class TestSingleProgram:
    def test_shape(self):
        pls = WorkloadSpec.single("applu", seg_instrs=2000).playlists()
        assert len(pls) == 1
        assert len(pls[0]) == 1
        assert pls[0][0].name == "applu"
