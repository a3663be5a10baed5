"""Per-thread hardware context: trace walking, salts, resume points."""

import pytest

from conftest import ProgramBuilder
from repro.core.config import MachineConfig
from repro.core.context import ThreadContext
from repro.isa.trace import Trace


def _ctx(n_traces=2, trace_len=5, tid=0, wrap=True):
    traces = []
    for k in range(n_traces):
        b = ProgramBuilder(pc=0x1000 * (k + 1))
        b.nops(trace_len)
        traces.append(b.trace(name=f"t{k}"))
    return ThreadContext(tid, MachineConfig(), traces, wrap=wrap)


class TestTraceWalking:
    def test_walks_in_order(self):
        ctx = _ctx()
        pcs = []
        for _ in range(5):
            pcs.append(ctx.trace[ctx.pos].pc)
            ctx.advance()
        assert pcs == sorted(pcs)

    def test_wraps_to_next_trace(self):
        ctx = _ctx(n_traces=2, trace_len=3)
        for _ in range(3):
            ctx.advance()
        assert ctx.play_idx == 1
        assert ctx.pos == 0

    def test_playlist_cycles(self):
        ctx = _ctx(n_traces=2, trace_len=3)
        for _ in range(6):
            ctx.advance()
        assert ctx.play_idx == 0

    def test_finite_context_exhausts(self):
        ctx = _ctx(n_traces=1, trace_len=3, wrap=False)
        assert not ctx.exhausted
        for _ in range(3):
            ctx.advance()
        assert ctx.exhausted

    def test_wrapping_context_never_exhausts(self):
        ctx = _ctx(n_traces=1, trace_len=3, wrap=True)
        for _ in range(30):
            ctx.advance()
        assert not ctx.exhausted


class TestResumePoints:
    def test_mark_and_resume(self):
        ctx = _ctx(n_traces=2, trace_len=4)
        ctx.advance()
        ctx.mark_resume(seq=10)
        ctx.advance()
        ctx.advance()
        ctx.wrong_path = True
        ctx.resume_from(10)
        assert (ctx.play_idx, ctx.pos) == (0, 1)
        assert not ctx.wrong_path

    def test_resume_clears_wp_queue(self):
        ctx = _ctx()
        ctx.mark_resume(5)
        ctx.wp_queue.extend(ctx.wp_gen.next_block(8))
        ctx.resume_from(5)
        assert not ctx.wp_queue


class TestSalts:
    def test_thread_zero_unsalted(self):
        ctx = _ctx(tid=0)
        assert ctx.salted(0x2000) == 0x2000

    def test_regions_get_distinct_strides(self):
        from repro.workloads.synth import HOT_BASE, STORE_BASE
        c1 = _ctx(tid=1)
        hot_shift = c1.salted(HOT_BASE) - HOT_BASE
        store_shift = c1.salted(STORE_BASE) - STORE_BASE
        stream_shift = c1.salted(0x10000000) - 0x10000000
        assert len({hot_shift, store_shift, stream_shift}) == 3

    def test_salt_strictly_increasing_with_tid(self):
        shifts = [
            _ctx(tid=t).salted(0x10000000) for t in range(4)
        ]
        assert shifts == sorted(shifts)
        assert len(set(shifts)) == 4


class TestValidation:
    def test_rejects_empty_playlist(self):
        with pytest.raises(ValueError):
            ThreadContext(0, MachineConfig(), [])

    def test_rejects_empty_trace(self):
        with pytest.raises(ValueError):
            ThreadContext(0, MachineConfig(), [Trace([], name="empty")])

    def test_rejects_empty_trace_past_the_first_without_building(self):
        def unbuildable():
            pytest.fail("validating the playlist built a deferred trace")

        deferred = Trace.deferred(unbuildable, name="deferred")
        ThreadContext(0, MachineConfig(), [deferred, deferred])
        with pytest.raises(ValueError):
            ThreadContext(
                0, MachineConfig(), [deferred, Trace([], name="empty")]
            )
        assert not deferred.built

    def test_wp_generator_refills(self):
        ctx = _ctx()
        first = [ctx.next_wp_inst() for _ in range(40)]
        assert len(first) == 40
