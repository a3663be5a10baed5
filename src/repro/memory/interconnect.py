"""The L1-side line interconnect (fills + dirty write-backs).

The paper's interface is a 128-bit bus moving 16 bytes/cycle, so a 32-byte
line occupies the bus for 2 cycles. Line fills and dirty write-backs compete
for the same bus; it is the resource whose saturation caps the non-decoupled
configurations in Figure 5 (89 % utilization at 12 threads, 98 % at 16).

Since the :class:`~repro.memory.spec.MemSpec` refactor the width and the
arbitration policy are spec fields:

* ``fifo`` (:class:`Bus`) — the paper's single shared bus. The model is
  *eager*: a transfer's start cycle is computed when the request is made
  (``max(earliest, bus_free)``), which is exact for a FIFO bus because
  requests become transfer-ready in request order (monotone ``earliest``
  for a constant outer-level latency; enforced differentially against an
  event-stepped reference in ``tests/test_memspec.py``).
* ``ideal`` (:class:`IdealInterconnect`) — a contention-free crossbar:
  transfers never queue behind each other (utilization accounting is
  kept, so saturation experiments can report demand > 1.0 as 1.0). Used
  to isolate how much of a result is bus queueing.
"""

from __future__ import annotations


class Bus:
    """Single shared bus with FIFO scheduling and utilization accounting."""

    policy = "fifo"

    def __init__(self, bytes_per_cycle: int, line_bytes: int):
        if bytes_per_cycle <= 0:
            raise ValueError("bus width must be positive")
        self.bytes_per_cycle = bytes_per_cycle
        self.line_bytes = line_bytes
        self.cycles_per_line = max(1, -(-line_bytes // bytes_per_cycle))
        self.free_at = 0
        self.busy_cycles = 0
        self._stats_floor = 0  # busy cycles at the last stats reset

    def schedule_line(self, earliest: int) -> int:
        """Reserve the bus for one line transfer that may start at
        ``earliest``; return the cycle the transfer completes."""
        start = self.free_at if self.free_at > earliest else earliest
        self.free_at = start + self.cycles_per_line
        self.busy_cycles += self.cycles_per_line
        return self.free_at

    def reset_stats(self) -> None:
        """Zero the utilization accounting (keeps the schedule state)."""
        self._stats_floor = self.busy_cycles

    def busy_since_reset(self) -> int:
        return self.busy_cycles - self._stats_floor

    def utilization(self, elapsed_cycles: int) -> float:
        """Fraction of cycles the bus was busy since the last stats reset."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_since_reset() / elapsed_cycles)


class IdealInterconnect(Bus):
    """Contention-free variant: transfers never wait for each other."""

    policy = "ideal"

    def schedule_line(self, earliest: int) -> int:
        done = earliest + self.cycles_per_line
        if done > self.free_at:
            self.free_at = done
        self.busy_cycles += self.cycles_per_line
        return done


_POLICIES = {"fifo": Bus, "ideal": IdealInterconnect}


def build_interconnect(spec, line_bytes: int) -> Bus:
    """Instantiate the interconnect a resolved
    :class:`~repro.memory.spec.InterconnectSpec` describes."""
    try:
        cls = _POLICIES[spec.policy]
    except KeyError:  # pragma: no cover - spec validation rejects earlier
        raise ValueError(f"unknown bus policy {spec.policy!r}") from None
    return cls(spec.bytes_per_cycle, line_bytes)
