"""DRAM timing model with a serialized data bus.

Bandwidth, not just latency, is what makes two ``ldint_mem`` threads
interfere: each DRAM access occupies the bus for ``dram_bus_gap``
cycles, so concurrent miss streams queue behind one another.  This is
the mechanism behind the paper's observation that memory-bound threads
*are* priority-sensitive when co-scheduled with other memory-bound
threads (sections 5.1-5.2).

Like the functional-unit pools and the LMQ, the bus is scheduled by
*occupancy*: an access that wants the bus at cycle ``t`` takes the
earliest slot >= ``t`` that keeps all scheduled transfers at least
``dram_bus_gap`` apart.  A chain access scheduled far in the future
never delays an access that is ready now.
"""

from __future__ import annotations

from repro.config import MemoryConfig


class DRAM:
    """Fixed-latency DRAM behind a gap-serialized bus."""

    def __init__(self, config: MemoryConfig):
        self.config = config
        # Start cycles of scheduled bus transfers (pruned against the
        # core clock on each access; bounded by in-flight misses).
        self._starts: list[int] = []
        self.accesses = 0
        self.thread_accesses = [0, 0]
        self.total_queue_cycles = 0
        self.thread_queue_cycles = [0, 0]

    def reset(self) -> None:
        """Clear bus state and statistics."""
        self._starts.clear()
        self.accesses = 0
        self.thread_accesses = [0, 0]
        self.total_queue_cycles = 0
        self.thread_queue_cycles = [0, 0]

    def state(self, now: int) -> tuple:
        """Statistics and the transfers a bus request at or after
        ``now`` can still collide with (those within one gap)."""
        horizon = now - self.config.dram_bus_gap
        return (self.accesses, self.total_queue_cycles,
                tuple(self.thread_accesses),
                tuple(self.thread_queue_cycles),
                tuple(s for s in self._starts if s > horizon))

    def access(self, start: int, now: int, thread_id: int = 0) -> int:
        """Schedule a DRAM access wanting the bus at ``start``.

        Returns the data-ready time.  ``now`` is the core clock, used
        to prune transfers that are no longer relevant.
        """
        gap = self.config.dram_bus_gap
        starts = self._starts
        if len(starts) > 64:
            horizon = now - gap
            starts[:] = [s for s in starts if s > horizon]
        t = start
        moved = True
        while moved:
            moved = False
            for s in starts:
                if s - gap < t < s + gap:
                    t = s + gap
                    moved = True
        starts.append(t)
        self.total_queue_cycles += t - start
        self.thread_queue_cycles[thread_id] += t - start
        self.accesses += 1
        self.thread_accesses[thread_id] += 1
        return t + self.config.dram_latency

    def scheduled_transfers(self) -> int:
        """Number of transfers currently tracked (for tests)."""
        return len(self._starts)
