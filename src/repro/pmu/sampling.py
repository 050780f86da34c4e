"""Interval sampling: exact per-period time series from the PMU.

An :class:`IntervalSampler` registers a periodic hook on the core
(:meth:`repro.core.SMTCore.add_periodic_hook`) and, every ``period``
cycles, records the delta of a small set of counters per thread --
IPC, decode-slot share, and L2-miss behaviour over the interval.

The hook machinery is exact on both engines (hooks fire at their
exact cycle), and the hook body only *reads* counters, so
sampling is non-intrusive: a sampled run retires the same
instructions in the same cycles as an unsampled one, and the sample
series is bit-identical between the object and array engines.  Both
properties are asserted by the test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Sample:
    """One thread's counter deltas over one sampling interval.

    ``cycle`` is the interval's end; the interval covers
    ``[cycle - period, cycle)``.  Counts are deltas over the interval;
    ``ipc`` and ``slot_share`` divide them by the period.
    """

    cycle: int
    thread_id: int
    retired: int
    decoded: int
    owned_slots: int
    loads: int
    l2_misses: int
    ipc: float
    slot_share: float

    @property
    def l2_miss_rate(self) -> float:
        """L2 misses per load in the interval (0.0 with no loads)."""
        return self.l2_misses / self.loads if self.loads else 0.0


class IntervalSampler:
    """Periodic counter sampling on one core."""

    def __init__(self, period: int):
        if period < 1:
            raise ValueError("sampling period must be >= 1")
        self.period = period
        self.samples: list[Sample] = []
        self._last: dict[int, tuple[int, int, int, int, int]] = {}

    def attach(self, core) -> None:
        """Start sampling ``core`` every ``period`` cycles.

        Must be called *after* :meth:`SMTCore.load` (loading a core
        clears its hooks).
        """
        self._last = {tid: self._read(core, tid) for tid in (0, 1)
                      if core._threads[tid] is not None}
        core.add_periodic_hook(self.period, self._on_tick)

    @staticmethod
    def _read(core, tid: int) -> tuple[int, int, int, int, int]:
        th = core._threads[tid]
        hier = core.hierarchy
        loads = sum(counts[tid] for counts in hier.level_counts.values())
        return (th.retired, th.decoded, th.owned_slots, loads,
                hier.l2_miss_count(tid))

    def _on_tick(self, core, now: int) -> None:
        period = self.period
        for tid, prev in self._last.items():
            cur = self._read(core, tid)
            retired = cur[0] - prev[0]
            self.samples.append(Sample(
                cycle=now,
                thread_id=tid,
                retired=retired,
                decoded=cur[1] - prev[1],
                owned_slots=cur[2] - prev[2],
                loads=cur[3] - prev[3],
                l2_misses=cur[4] - prev[4],
                ipc=retired / period,
                slot_share=(cur[2] - prev[2]) / period,
            ))
            self._last[tid] = cur

    def series(self, thread_id: int) -> list[Sample]:
        """This thread's samples in time order."""
        return [s for s in self.samples if s.thread_id == thread_id]

    def __len__(self) -> int:
        return len(self.samples)
