"""Branch history table: 2-bit saturating bimodal predictor.

POWER5's branch prediction hardware (BHT) is shared between the two
SMT threads of a core.  The simulator indexes the table with a
synthetic PC (the instruction's position in its repetition trace,
offset per thread), so per-branch histories behave like statically
placed branches in a loop: ``br_hit``'s always-taken branch trains to
strongly-taken, ``br_miss``'s data-random branch mispredicts about half
the time -- exactly the contrast Table 2 of the paper constructs.
"""

from __future__ import annotations

from repro.config import BranchConfig

# 2-bit saturating counter states.
_STRONG_NT, _WEAK_NT, _WEAK_T, _STRONG_T = 0, 1, 2, 3


class BimodalBHT:
    """Shared 2-bit-counter branch history table."""

    def __init__(self, config: BranchConfig):
        self.config = config
        if config.bht_entries < 1:
            raise ValueError("BHT needs at least one entry")
        self._mask = None
        entries = config.bht_entries
        if entries & (entries - 1) == 0:
            self._mask = entries - 1
        self._table = bytearray([_WEAK_T] * entries)
        self.predictions = 0
        self.mispredictions = 0
        self.thread_predictions = [0, 0]
        self.thread_mispredictions = [0, 0]

    def reset(self) -> None:
        """Reset all counters to weakly-taken and zero statistics."""
        for i in range(len(self._table)):
            self._table[i] = _WEAK_T
        self.predictions = 0
        self.mispredictions = 0
        self.thread_predictions = [0, 0]
        self.thread_mispredictions = [0, 0]

    def state(self) -> tuple:
        """Counter table and statistics."""
        return (bytes(self._table), self.predictions, self.mispredictions,
                tuple(self.thread_predictions),
                tuple(self.thread_mispredictions))

    def _index(self, pc: int) -> int:
        if self._mask is not None:
            return pc & self._mask
        return pc % len(self._table)

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at synthetic PC ``pc``."""
        return self._table[self._index(pc)] >= _WEAK_T

    def update(self, pc: int, taken: bool) -> None:
        """Train the 2-bit counter with the actual outcome."""
        idx = self._index(pc)
        state = self._table[idx]
        if taken:
            if state < _STRONG_T:
                self._table[idx] = state + 1
        else:
            if state > _STRONG_NT:
                self._table[idx] = state - 1

    def predict_and_update(self, pc: int, taken: bool,
                           thread_id: int = 0) -> bool:
        """Predict, train, and record statistics; True when correct."""
        predicted = self.predict(pc)
        self.update(pc, taken)
        correct = predicted == taken
        self.predictions += 1
        self.thread_predictions[thread_id] += 1
        if not correct:
            self.mispredictions += 1
            self.thread_mispredictions[thread_id] += 1
        return correct

    @property
    def misprediction_rate(self) -> float:
        """Fraction of mispredicted branches (0.0 with no branches)."""
        if not self.predictions:
            return 0.0
        return self.mispredictions / self.predictions
