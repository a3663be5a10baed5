"""Register renaming: mapping, free lists, undo, invariants."""

from repro.core.rename import RenameFile
from repro.isa.instruction import DynInst, StaticInst
from repro.isa.opclass import OpClass
from repro.isa.registers import FP_BASE, FP_ZERO, INT_ZERO


def make_rename():
    return RenameFile(ap_regs=64, ep_regs=96)


def inst(op=OpClass.IALU, dest=None, srcs=()):
    return DynInst(StaticInst(0x100, op, dest, tuple(srcs)), 0, 0, False)


def rename_dest(r, arch):
    """Rename an instruction that writes ``arch``; ``(pdest, old_pdest)``."""
    d = inst(OpClass.FALU if arch >= FP_BASE else OpClass.IALU, dest=arch)
    assert r.rename_inst(d)
    return d.pdest, d.old_pdest


class TestInitialState:
    def test_identity_mapping(self):
        r = make_rename()
        assert r.lookup(0) == 0
        assert r.lookup(31) == 31
        assert r.lookup(32) == 64      # f0 -> first EP physical
        assert r.lookup(63) == 64 + 31

    def test_free_list_sizes(self):
        r = make_rename()
        assert len(r.free_ap) == 64 - 32
        assert len(r.free_ep) == 96 - 32

    def test_all_initially_ready(self):
        r = make_rename()
        assert all(r.ready)


class TestRename:
    def test_dest_allocates_new_physical(self):
        r = make_rename()
        d = inst(dest=5)
        assert r.rename_inst(d)
        p = d.pdest
        assert d.old_pdest == 5
        assert p != 5
        assert r.lookup(5) == p
        assert not r.ready[p]
        assert r.producer[p] is d

    def test_fp_dest_uses_ep_file(self):
        r = make_rename()
        p, _old = rename_dest(r, FP_BASE + 3)
        assert p >= 64

    def test_zero_register_dest_discarded(self):
        r = make_rename()
        before = (list(r.map), list(r.free_ap), list(r.free_ep))
        for zero in (INT_ZERO, FP_ZERO):
            d = inst(dest=zero)
            assert r.rename_inst(d)
            assert (d.pdest, d.old_pdest) == (-1, -1)
        assert (list(r.map), list(r.free_ap), list(r.free_ep)) == before

    def test_srcs_renamed_through_map(self):
        r = make_rename()
        p, _ = rename_dest(r, 4)
        d = inst(srcs=(4,))
        r.rename_inst(d)
        assert d.psrcs == (p,)

    def test_srcs_drop_zero_registers(self):
        r = make_rename()
        for srcs in ((INT_ZERO, 4, FP_ZERO), (INT_ZERO, 4), (4, FP_ZERO)):
            d = inst(srcs=srcs)
            r.rename_inst(d)
            assert d.psrcs == (r.lookup(4),), srcs
        d = inst(srcs=(INT_ZERO, FP_ZERO))
        r.rename_inst(d)
        assert d.psrcs == ()

    def test_sources_read_before_the_dest_is_mapped(self):
        r = make_rename()
        d = inst(dest=6, srcs=(6, 7))
        assert r.rename_inst(d)
        assert d.psrcs == (6, 7)
        assert d.old_pdest == 6
        assert r.lookup(6) == d.pdest != 6

    def test_store_splits_address_and_data(self):
        r = make_rename()
        base, _ = rename_dest(r, 3)
        data, _ = rename_dest(r, FP_BASE + 2)
        d = inst(OpClass.STORE_F, srcs=(3, FP_BASE + 2))
        assert r.rename_inst(d)
        assert d.psrcs == (base,)
        assert d.pdata == data
        assert d.pdest == -1
        # a hardwired-zero base or data register is never waited for
        d = inst(OpClass.STORE_I, srcs=(INT_ZERO, INT_ZERO))
        assert r.rename_inst(d)
        assert (d.psrcs, d.pdata) == ((), -1)

    def test_exhaustion(self):
        r = make_rename()
        for _ in range(32):
            assert r.can_rename_dest(7)
            rename_dest(r, 7)
        assert not r.can_rename_dest(7)
        # a refused rename changes nothing, not even the sources
        before = (list(r.map), list(r.free_ap), list(r.free_ep))
        d = inst(dest=7, srcs=(4,))
        assert not r.rename_inst(d)
        assert (d.psrcs, d.pdest, d.old_pdest) == ((), -1, -1)
        assert (list(r.map), list(r.free_ap), list(r.free_ep)) == before
        # other file unaffected
        assert r.can_rename_dest(FP_BASE + 1)
        assert r.rename_inst(inst(OpClass.FALU, dest=FP_BASE + 1))

    def test_zero_dest_always_renameable(self):
        r = make_rename()
        for _ in range(40):
            r.rename_inst(inst(dest=7))
        assert r.can_rename_dest(INT_ZERO)
        assert r.rename_inst(inst(dest=INT_ZERO))


class TestUndoAndFree:
    def test_undo_restores_mapping(self):
        r = make_rename()
        p, old = rename_dest(r, 9)
        r.undo_rename(9, p, old)
        assert r.lookup(9) == old

    def test_walkback_order_restores_multiple_writers(self):
        r = make_rename()
        p1, o1 = rename_dest(r, 9)
        p2, o2 = rename_dest(r, 9)
        # undo youngest-first, as the ROB walk does
        r.undo_rename(9, p2, o2)
        assert r.lookup(9) == p1
        r.undo_rename(9, p1, o1)
        assert r.lookup(9) == o1 == 9

    def test_free_returns_to_correct_file(self):
        r = make_rename()
        pa, _ = rename_dest(r, 3)
        pe, _ = rename_dest(r, FP_BASE + 3)
        n_ap, n_ep = len(r.free_ap), len(r.free_ep)
        r.free(pa)
        r.free(pe)
        assert len(r.free_ap) == n_ap + 1
        assert len(r.free_ep) == n_ep + 1

    def test_free_negative_is_noop(self):
        r = make_rename()
        n = len(r.free_ap)
        r.free(-1)
        assert len(r.free_ap) == n

    def test_invariants_after_churn(self):
        r = make_rename()
        history = []
        for i in range(200):
            arch = (i * 7) % 31
            if not r.can_rename_dest(arch):
                # free the oldest old mapping, as commit would
                arch_c, p_c, old_c = history.pop(0)
                r.free(old_c)
            p, old = rename_dest(r, arch)
            history.append((arch, p, old))
            if len(history) > 20:
                _a, _p, old_c = history.pop(0)
                r.free(old_c)
            r.check_invariants()
