"""Multiprogrammed workload construction (rotated benchmark playlists)."""

import pytest

from repro.workloads.multiprogram import (
    benchmark_trace,
    multiprogram,
    rotation,
    single_program,
)
from repro.workloads.profiles import BENCH_ORDER


class TestRotation:
    def test_identity(self):
        assert rotation(["a", "b", "c"], 0) == ["a", "b", "c"]

    def test_shift(self):
        assert rotation(["a", "b", "c"], 1) == ["b", "c", "a"]

    def test_wraps(self):
        assert rotation(["a", "b", "c"], 4) == rotation(["a", "b", "c"], 1)


class TestMultiprogram:
    def test_one_playlist_per_thread(self):
        pls = multiprogram(3, seg_instrs=1000)
        assert len(pls) == 3

    def test_each_playlist_covers_all_benchmarks(self):
        pls = multiprogram(2, seg_instrs=1000)
        for pl in pls:
            assert sorted(tr.name for tr in pl) == sorted(BENCH_ORDER)

    def test_threads_start_on_different_benchmarks(self):
        pls = multiprogram(4, seg_instrs=1000)
        firsts = [pl[0].name for pl in pls]
        assert len(set(firsts)) == 4

    def test_traces_shared_between_threads(self):
        # memory must not scale with the thread count
        pls = multiprogram(3, seg_instrs=1000)
        assert pls[0][1] is pls[1][0]  # same object, rotated position

    def test_segment_length(self):
        pls = multiprogram(1, seg_instrs=1234)
        for tr in pls[0]:
            assert len(tr) >= 1234

    def test_subset_selection(self):
        pls = multiprogram(2, seg_instrs=800, names=["swim", "fpppp"])
        assert sorted(tr.name for tr in pls[0]) == ["fpppp", "swim"]


class TestCaching:
    def test_trace_cache_returns_same_object(self):
        a = benchmark_trace("mgrid", 1500, seed=0)
        b = benchmark_trace("mgrid", 1500, seed=0)
        assert a is b

    def test_cache_distinguishes_seed(self):
        a = benchmark_trace("mgrid", 1500, seed=0)
        b = benchmark_trace("mgrid", 1500, seed=1)
        assert a is not b

    def test_refuses_a_length_that_would_build_an_empty_trace(self):
        # a deferred trace must be non-empty before it is built
        with pytest.raises(ValueError):
            benchmark_trace("mgrid", 0)


class TestSingleProgram:
    def test_shape(self):
        pls = single_program("applu", n_instrs=2000)
        assert len(pls) == 1
        assert len(pls[0]) == 1
        assert pls[0][0].name == "applu"
