"""Bimodal 2-bit branch history table."""

import pytest

from repro.core.predictor import BimodalBHT


def train(bht, pc, taken, times=1):
    for _ in range(times):
        bht.predict_and_update(pc, taken)


class TestCounterDynamics:
    # predict_and_update returns the prediction made before training, so
    # the call after a training sequence reads the trained counter

    def test_initially_weakly_taken(self):
        bht = BimodalBHT(64)
        assert bht.predict_and_update(0x1000, True) is True

    def test_trains_not_taken(self):
        bht = BimodalBHT(64)
        train(bht, 0x1000, False, 2)
        assert bht.predict_and_update(0x1000, False) is False

    def test_saturates_high(self):
        bht = BimodalBHT(64)
        train(bht, 0x1000, True, 10)
        assert bht.table[(0x1000 >> 2) & 63] == 3
        train(bht, 0x1000, False)   # one NT does not flip a saturated T
        assert bht.predict_and_update(0x1000, True) is True

    def test_saturates_low(self):
        bht = BimodalBHT(64)
        train(bht, 0x1000, False, 10)
        assert bht.table[(0x1000 >> 2) & 63] == 0
        train(bht, 0x1000, True)
        assert bht.predict_and_update(0x1000, False) is False

    def test_hysteresis(self):
        bht = BimodalBHT(64)
        # 2 -> 1: predicted T, now predicts NT
        assert bht.predict_and_update(0x1000, False) is True
        # 1 -> 2: predicted NT, back to T
        assert bht.predict_and_update(0x1000, True) is False
        assert bht.predict_and_update(0x1000, True) is True


class TestIndexing:
    def test_distinct_branches_distinct_counters(self):
        bht = BimodalBHT(64)
        train(bht, 0x1000, False, 3)
        assert bht.predict_and_update(0x1000, False) is False
        # 0x1040 >> 2 differs modulo 64: an untouched entry
        assert bht.predict_and_update(0x1040, True) is True

    def test_aliasing_wraps_table(self):
        bht = BimodalBHT(64)
        train(bht, 0x0, False, 3)
        # pc 64*4 indexes the same entry in a 64-entry table
        assert bht.predict_and_update(64 * 4, False) is False

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            BimodalBHT(100)


class TestLoopBehaviour:
    def test_loop_branch_mispredicts_once_per_exit(self):
        """T^(n-1) NT pattern: one mispredict per loop exit."""
        bht = BimodalBHT(2048)
        mispredicts = 0
        for _trip in range(10):
            for i in range(20):
                taken = i != 19
                if bht.predict_and_update(0x4000, taken) != taken:
                    mispredicts += 1
        assert mispredicts <= 11  # ~1 per exit (+ possible cold start)

    def test_hit_counter(self):
        bht = BimodalBHT(64)
        bht.predict_and_update(0x10, True)
        bht.predict_and_update(0x10, True)
        assert bht.hits == 2
        assert bht.lookups == 2
