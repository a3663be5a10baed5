"""L1-L2 bus model: FIFO scheduling, bandwidth, utilization."""

import pytest

from repro.memory.interconnect import Bus, IdealInterconnect


class TestScheduling:
    def test_line_occupies_two_cycles_at_paper_width(self):
        bus = Bus(bytes_per_cycle=16, line_bytes=32)
        assert bus.cycles_per_line == 2
        assert bus.schedule_line(earliest=10) == 12

    def test_back_to_back_transfers_queue(self):
        bus = Bus(16, 32)
        assert bus.schedule_line(0) == 2
        assert bus.schedule_line(0) == 4
        assert bus.schedule_line(0) == 6

    def test_idle_gap_is_not_reused(self):
        bus = Bus(16, 32)
        bus.schedule_line(0)            # busy 0-2
        assert bus.schedule_line(100) == 102  # starts when ready, not at 2

    def test_earliest_respected_under_contention(self):
        bus = Bus(16, 32)
        bus.schedule_line(0)           # busy until 2
        assert bus.schedule_line(1) == 4  # waits for the bus, not earliest

    def test_wider_bus_single_cycle(self):
        bus = Bus(32, 32)
        assert bus.cycles_per_line == 1

    def test_narrow_bus(self):
        bus = Bus(4, 32)
        assert bus.cycles_per_line == 8

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            Bus(0, 32)


class TestUtilization:
    def test_utilization_counts_busy_cycles(self):
        bus = Bus(16, 32)
        bus.schedule_line(0)
        bus.schedule_line(0)
        assert bus.utilization(8) == pytest.approx(0.5)

    def test_utilization_caps_at_one(self):
        bus = Bus(16, 32)
        for _ in range(100):
            bus.schedule_line(0)
        assert bus.utilization(10) == 1.0

    def test_reset_stats_keeps_schedule(self):
        bus = Bus(16, 32)
        bus.schedule_line(0)
        bus.reset_stats()
        assert bus.busy_since_reset() == 0
        # the bus is still busy until cycle 2 though:
        assert bus.schedule_line(0) == 4

    def test_zero_elapsed(self):
        assert Bus(16, 32).utilization(0) == 0.0


class _EventSteppedBus:
    """Cycle-stepped reference: transfers start strictly in request order,
    each waiting until its ready cycle and the bus being free."""

    def __init__(self, bytes_per_cycle, line_bytes):
        self.cycles_per_line = max(1, -(-line_bytes // bytes_per_cycle))
        self.queue = []

    def run(self, ready_cycles):
        done = []
        clock = 0
        for ready in ready_cycles:
            clock = max(clock, ready)       # cannot start before ready
            clock += self.cycles_per_line   # occupy the bus
            done.append(clock)
        return done


class TestEagerEqualsEventStepped:
    """Property (satellite): on any request stream with monotonically
    nondecreasing ready cycles — which is what a constant outer-level
    latency produces — the eager model's completion times equal an
    event-stepped FIFO reference."""

    def test_random_streams(self):
        import random

        rng = random.Random(0x5EED)
        for width in (4, 16, 32):
            for _ in range(20):
                n = rng.randrange(1, 40)
                readies = []
                t = 0
                for _ in range(n):
                    t += rng.randrange(0, 6)
                    readies.append(t)
                bus = Bus(width, 32)
                eager = [bus.schedule_line(r) for r in readies]
                ref = _EventSteppedBus(width, 32).run(readies)
                assert eager == ref, (width, readies)


class TestIdealInterconnect:
    def test_transfers_never_queue(self):
        bus = IdealInterconnect(16, 32)
        assert bus.schedule_line(0) == 2
        assert bus.schedule_line(0) == 2   # no FIFO backlog
        assert bus.schedule_line(5) == 7

    def test_utilization_still_accounted(self):
        bus = IdealInterconnect(16, 32)
        bus.schedule_line(0)
        bus.schedule_line(0)
        assert bus.busy_since_reset() == 4
