"""Branch prediction: a per-thread bimodal BHT (paper: 2K entries x 2 bit)."""

from __future__ import annotations


class BimodalBHT:
    """Classic 2-bit saturating-counter branch history table.

    One table per hardware context (the paper replicates branch prediction
    state per thread). Counters start weakly taken (2), which trains onto
    loop branches in one execution.
    """

    def __init__(self, entries: int = 2048):
        if entries & (entries - 1) or entries <= 0:
            raise ValueError("BHT entries must be a power of two")
        self._mask = entries - 1
        self.table = bytearray([2]) * entries
        self.lookups = 0
        self.hits = 0

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict the branch at ``pc`` from its counter, then train the
        counter on the trace outcome ``taken``; returns the prediction.

        Fetch calls this once per branch and the characterization walk
        once per walked branch, so the lookup, the hit count and the
        saturating update share one body.
        """
        table = self.table
        i = (pc >> 2) & self._mask
        c = table[i]
        pred = c >= 2
        self.lookups += 1
        if pred == taken:
            self.hits += 1
        if taken:
            if c < 3:
                table[i] = c + 1
        elif c:
            table[i] = c - 1
        return pred

    def fingerprint(self) -> tuple:
        """Complete predictor state (training counters included) for
        snapshot bit-identity checks."""
        return (self._mask, bytes(self.table), self.lookups, self.hits)
