"""Trace container and instruction-mix statistics."""

from repro.isa.instruction import StaticInst
from repro.isa.opclass import OpClass
from repro.isa.trace import Trace


def _trace():
    insts = [
        StaticInst(0, OpClass.IALU, dest=4, srcs=(4,)),
        StaticInst(4, OpClass.FALU, dest=36, srcs=(36,)),
        StaticInst(8, OpClass.LOAD_F, dest=40, srcs=(2,), addr=64),
        StaticInst(12, OpClass.STORE_F, srcs=(2, 36), addr=128),
        StaticInst(16, OpClass.BRANCH, srcs=(4,), taken=True, target=0),
    ]
    return Trace(insts, name="mix")


class TestTrace:
    def test_len_and_indexing(self):
        tr = _trace()
        assert len(tr) == 5
        assert tr[0].op == OpClass.IALU
        assert tr[4].is_branch

    def test_iteration(self):
        assert [i.op for i in _trace()] == [
            OpClass.IALU, OpClass.FALU, OpClass.LOAD_F,
            OpClass.STORE_F, OpClass.BRANCH,
        ]


class TestTraceStats:
    def test_counts(self):
        st = _trace().stats()
        assert st.total == 5
        assert st.by_op[OpClass.IALU] == 1
        assert st.by_op[OpClass.BRANCH] == 1

    def test_fraction(self):
        st = _trace().stats()
        assert st.fraction(OpClass.LOAD_F) == 0.2
        assert st.fraction(OpClass.LOAD_F, OpClass.STORE_F) == 0.4

    def test_ap_fraction(self):
        # AP-side: IALU, LOAD_F, STORE_F, BRANCH = 4 of 5
        assert abs(_trace().stats().ap_fraction - 0.8) < 1e-9

    def test_empty_trace_stats(self):
        st = Trace([], name="empty").stats()
        assert st.total == 0
        assert st.ap_fraction == 0.0
        assert st.fraction(OpClass.IALU) == 0.0
