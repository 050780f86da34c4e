"""Decode-slot arbitration, including the special priority modes.

The arbiter answers one question per cycle: *which thread owns this
decode slot?*  In the normal region it enforces Eq. (1): out of
``R = 2**(|dP-dS|+1)`` consecutive cycles the higher-priority thread
owns ``R-1``.  The special modes of paper section 3.2:

- a thread at priority 0 is shut off; the sibling runs in single-thread
  (ST) mode and owns every slot;
- a thread at priority 7 runs in ST mode (the hypervisor shuts the
  sibling off);
- priorities (1,1) put the core in low-power mode: one decode slot is
  granted every ``low_power_interval`` cycles (32 on POWER5),
  alternating between the threads; all other cycles decode nothing.
- a lone running thread at priority 1 also decodes at the low-power
  duty cycle (power saving does not require a sibling).

Slots are *owned*, not granted on demand: a slot whose owner cannot
decode that cycle is wasted, never reassigned.  That strictness is what
makes large negative priority differences catastrophic for the starved
thread (the paper's 20-42x slowdowns).
"""

from __future__ import annotations

import enum


class ArbiterMode(enum.Enum):
    """Operating region selected by the priority pair."""

    NORMAL = "normal"          # Eq. (1) rotation
    SINGLE_THREAD = "st"       # one thread owns every slot
    LOW_POWER = "low_power"    # 1 slot per interval, threads alternate
    LOW_POWER_ST = "low_power_st"  # lone thread at priority 1
    ALL_OFF = "all_off"        # both threads shut off


class PrioritySlotArbiter:
    """Deterministic decode-slot owner for a fixed priority pair."""

    def __init__(self, prio_p: int, prio_s: int,
                 low_power_interval: int = 32):
        for value in (prio_p, prio_s):
            if not 0 <= value <= 7:
                raise ValueError(f"priority out of range 0..7: {value}")
        if low_power_interval < 1:
            raise ValueError("low_power_interval must be >= 1")
        self.prio_p = prio_p
        self.prio_s = prio_s
        self.low_power_interval = low_power_interval
        self.mode, self._st_owner, self._ratio, self._high = (
            self._classify())

    def _classify(self) -> tuple[ArbiterMode, int | None, int, int]:
        p, s = self.prio_p, self.prio_s
        if p == 0 and s == 0:
            return ArbiterMode.ALL_OFF, None, 0, 0
        if p == 0:
            if s == 1:
                return ArbiterMode.LOW_POWER_ST, 1, 0, 1
            return ArbiterMode.SINGLE_THREAD, 1, 0, 1
        if s == 0:
            if p == 1:
                return ArbiterMode.LOW_POWER_ST, 0, 0, 0
            return ArbiterMode.SINGLE_THREAD, 0, 0, 0
        if p == 1 and s == 1:
            return ArbiterMode.LOW_POWER, None, 0, 0
        if p == 7 and s != 7:
            return ArbiterMode.SINGLE_THREAD, 0, 0, 0
        if s == 7 and p != 7:
            return ArbiterMode.SINGLE_THREAD, 1, 0, 1
        ratio = 2 ** (abs(p - s) + 1)
        high = 0 if p >= s else 1
        return ArbiterMode.NORMAL, None, ratio, high

    def owner(self, cycle: int) -> int | None:
        """Thread id (0/1) owning the decode slot at ``cycle``, or None.

        None means no thread decodes this cycle (low-power gaps, or
        everything shut off).
        """
        mode = self.mode
        if mode is ArbiterMode.NORMAL:
            if cycle % self._ratio == 0:
                return 1 - self._high
            return self._high
        if mode is ArbiterMode.SINGLE_THREAD:
            return self._st_owner
        if mode is ArbiterMode.LOW_POWER:
            if cycle % self.low_power_interval:
                return None
            return (cycle // self.low_power_interval) % 2
        if mode is ArbiterMode.LOW_POWER_ST:
            if cycle % self.low_power_interval:
                return None
            return self._st_owner
        return None  # ALL_OFF

    # ------------------------------------------------------------------
    # Closed-form slot arithmetic
    # ------------------------------------------------------------------

    def _owned_set(self, tid: int):
        """Describe thread ``tid``'s owned cycle set.

        Returns one of ``("empty",)``, ``("all",)``,
        ``("arith", period, phase)`` (cycles ``c == phase (mod
        period)``) or ``("nonmult", ratio)`` (cycles ``c % ratio !=
        0``).
        """
        mode = self.mode
        if mode is ArbiterMode.NORMAL:
            if tid == self._high:
                return ("nonmult", self._ratio)
            return ("arith", self._ratio, 0)
        if mode is ArbiterMode.SINGLE_THREAD:
            return ("all",) if tid == self._st_owner else ("empty",)
        if mode is ArbiterMode.LOW_POWER:
            interval = self.low_power_interval
            return ("arith", 2 * interval, tid * interval)
        if mode is ArbiterMode.LOW_POWER_ST and tid == self._st_owner:
            return ("arith", self.low_power_interval, 0)
        return ("empty",)  # ALL_OFF, or the shut-off LOW_POWER_ST thread

    @staticmethod
    def _count_before(pattern, x: int) -> int:
        """Number of cycles of ``pattern`` in ``[0, x)``."""
        kind = pattern[0]
        if kind == "empty":
            return 0
        if kind == "all":
            return x
        if kind == "arith":
            period, phase = pattern[1], pattern[2]
            if x <= phase:
                return 0
            return (x - phase - 1) // period + 1
        ratio = pattern[1]  # nonmult
        return x - (x + ratio - 1) // ratio

    def owned_in(self, tid: int, a: int, b: int) -> int:
        """Slots owned by ``tid`` in cycles ``[a, b)``.

        The closed form of counting :meth:`owner` over the span; the
        priority-change tests use it as their oracle.
        """
        if b <= a:
            return 0
        pattern = self._owned_set(tid)
        return (self._count_before(pattern, b)
                - self._count_before(pattern, a))

    def active_threads(self) -> tuple[int, ...]:
        """Thread ids that can ever decode under this priority pair."""
        if self.mode is ArbiterMode.ALL_OFF:
            return ()
        if self.mode in (ArbiterMode.SINGLE_THREAD, ArbiterMode.LOW_POWER_ST):
            return (self._st_owner,)
        return (0, 1)

    def share(self, thread_id: int) -> float:
        """Long-run fraction of all cycles owned by ``thread_id``."""
        mode = self.mode
        if mode is ArbiterMode.NORMAL:
            if thread_id == self._high:
                return (self._ratio - 1) / self._ratio
            return 1 / self._ratio
        if mode is ArbiterMode.SINGLE_THREAD:
            return 1.0 if thread_id == self._st_owner else 0.0
        if mode is ArbiterMode.LOW_POWER:
            return 0.5 / self.low_power_interval
        if mode is ArbiterMode.LOW_POWER_ST:
            if thread_id == self._st_owner:
                return 1.0 / self.low_power_interval
            return 0.0
        return 0.0

    def __repr__(self) -> str:
        return (f"PrioritySlotArbiter(prio=({self.prio_p},{self.prio_s}), "
                f"mode={self.mode.value})")
