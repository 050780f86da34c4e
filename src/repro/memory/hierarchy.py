"""Memory-hierarchy facade: TLB -> L1D -> L2 -> L3 -> DRAM.

The hierarchy is fully shared between the two SMT threads, as on
POWER5: capacity/conflict interference in every cache level, a shared
load-miss queue, and a serialized DRAM bus.  ``load_complete`` returns
the data-ready time of an access issued at a given cycle (``load``
also reports the servicing level); ``store`` models a
store-queue-absorbed write (write-allocate into L1D, fixed latency).
"""

from __future__ import annotations

import enum

from repro.config import CoreConfig
from repro.memory.cache import SetAssociativeCache
from repro.memory.dram import DRAM
from repro.memory.lmq import LoadMissQueue
from repro.memory.tlb import TLB
from repro.prefetch import StreamPrefetcher


class MemLevel(enum.IntEnum):
    """Hierarchy level that serviced an access."""

    L1 = 1
    L2 = 2
    L3 = 3
    MEM = 4


class LoadResult:
    """Outcome of a load: data-ready time and servicing level."""

    __slots__ = ("complete", "level")

    def __init__(self, complete: int, level: MemLevel):
        self.complete = complete
        self.level = level

    def __repr__(self) -> str:
        return f"LoadResult(complete={self.complete}, level={self.level.name})"


class MemoryHierarchy:
    """Shared TLB, three cache levels, LMQ and DRAM."""

    def __init__(self, config: CoreConfig):
        self.config = config
        self.tlb = TLB(config.tlb)
        self.l1d = SetAssociativeCache(config.l1d, "L1D")
        self.l2 = SetAssociativeCache(config.l2, "L2")
        self.l3 = SetAssociativeCache(config.l3, "L3")
        self.lmq = LoadMissQueue(config.memory.lmq_entries)
        self.dram = DRAM(config.memory)
        # Chip-level arbitration hook (repro.chip.CorePort): when this
        # hierarchy belongs to a core of a multi-core Chip, below-L1
        # accesses additionally cross the chip's shared L2 fabric port
        # and DRAM-bound misses its shared memory channel.  None (the
        # default, and always for a single-core chip) leaves the
        # single-core timing untouched; the port survives reset() --
        # the bus is a chip resource, not per-run core state.
        self.chip_port = None
        # Per-thread count of loads serviced by each level (for the
        # balancer's L2-miss monitoring and for reports), and of
        # completed stores (for the PMU).
        self.level_counts = {level: [0, 0] for level in MemLevel}
        self.store_counts = [0, 0]
        # Hot-path aliases: latency constants hoisted out of the config
        # attribute chains, and the per-level counter lists (the same
        # list objects as in ``level_counts``, so ``reset`` keeps them
        # in sync by clearing in place).
        self._tlb_penalty = config.tlb.miss_penalty
        self._l1_latency = config.l1d.latency
        self._l2_latency = config.l2.latency
        self._l3_latency = config.l3.latency
        self._mem_duration = (config.memory.dram_latency
                              + config.memory.dram_bus_gap)
        self._store_latency = config.store_latency
        self._l1_counts = self.level_counts[MemLevel.L1]
        self._l2_counts = self.level_counts[MemLevel.L2]
        self._l3_counts = self.level_counts[MemLevel.L3]
        self._mem_counts = self.level_counts[MemLevel.MEM]
        # The software-controlled prefetcher (repro.prefetch).  Always
        # constructed -- the config only sets the *initial* knobs and
        # sysfs may enable it later -- but consulted on the L1-miss
        # path only when the missing thread's enable bit is set, so a
        # never-enabled prefetcher costs two attribute checks per miss
        # and influences nothing.  ``_pf`` is the hot alias (tests and
        # benchmarks may null it to measure a prefetcher-free machine).
        self.prefetcher = StreamPrefetcher(
            config.prefetch, config.l2.line_bytes, self._mem_duration)
        self._pf = self.prefetcher

    def reset(self) -> None:
        """Invalidate all state and statistics."""
        self.tlb.reset()
        self.l1d.reset()
        self.l2.reset()
        self.l3.reset()
        self.lmq.reset()
        self.dram.reset()
        self.prefetcher.reset()
        for counts in self.level_counts.values():
            counts[0] = counts[1] = 0
        self.store_counts[0] = self.store_counts[1] = 0

    def state(self, now: int) -> tuple:
        """Every level's ``state``, the prefetcher's and the counts."""
        return (self.tlb.state(), self.l1d.state(), self.l2.state(),
                self.l3.state(), self.lmq.state(now), self.dram.state(now),
                self.prefetcher.state(),
                tuple(tuple(c) for c in self.level_counts.values()),
                tuple(self.store_counts))

    def load(self, addr: int, issue: int, thread_id: int = 0,
             now: int | None = None) -> LoadResult:
        """Schedule a load issuing at cycle ``issue``.

        Returns the data-ready time and the servicing level: the
        :meth:`load_complete` result, with the level read from the
        ``level_counts`` entry the access moved.
        """
        counts = self.level_counts
        before = {level: c[thread_id] for level, c in counts.items()}
        complete = self.load_complete(addr, issue, thread_id, now)
        return LoadResult(complete, next(
            level for level, c in counts.items()
            if c[thread_id] != before[level]))

    def load_complete(self, addr: int, issue: int, thread_id: int = 0,
                      now: int | None = None) -> int:
        """Data-ready time of a load issuing at cycle ``issue``.

        ``now`` is the core's current cycle (decode time), used by the
        LMQ and DRAM bus to prune expired occupancy records; it
        defaults to ``issue`` for standalone use.  The compiled kernels
        inline the TLB + L1D hit branch (:mod:`repro.isa.kernelgen`).
        """
        if now is None:
            now = issue
        lat = 0
        if not self.tlb.access(addr, issue, thread_id):
            lat = self._tlb_penalty
        if self.l1d.access(addr, issue, thread_id):
            self._l1_counts[thread_id] += 1
            return issue + lat + self._l1_latency
        want = issue + lat
        port = self.chip_port
        pf = self._pf
        pf_on = pf is not None and pf.on[thread_id]
        if pf_on:
            ready = pf.consume(addr, thread_id)
            if ready >= 0:
                # In flight from a prefetch fill: install into the L2 and
                # serve as an L2 access, done no earlier than the fill.
                self.l2.access(addr, want, thread_id)
                duration = self._l2_latency
                start = self.lmq.acquire(want, now, thread_id, duration)
                if port is not None:
                    start = port.l2_grant(start, thread_id)
                complete = start + duration
                if ready > complete:
                    complete = ready
                    pf.account(thread_id, True)
                else:
                    pf.account(thread_id, False)
                self.lmq.fill(complete)
                self._l2_counts[thread_id] += 1
                pf.observe(self, addr, want, now, thread_id)
                return complete
        if self.l2.access(addr, want, thread_id):
            duration = self._l2_latency
            start = self.lmq.acquire(want, now, thread_id, duration)
            if port is not None:
                start = port.l2_grant(start, thread_id)
            complete = start + duration
            self._l2_counts[thread_id] += 1
        elif self.l3.access(addr, want, thread_id):
            duration = self._l3_latency
            start = self.lmq.acquire(want, now, thread_id, duration)
            if port is not None:
                start = port.l2_grant(start, thread_id)
            complete = start + duration
            self._l3_counts[thread_id] += 1
        else:
            start = self.lmq.acquire(want, now, thread_id,
                                     self._mem_duration)
            if port is not None:
                start = port.l2_grant(start, thread_id)
                start = port.mem_grant(start, thread_id)
            complete = self.dram.access(start, now, thread_id)
            self._mem_counts[thread_id] += 1
        self.lmq.fill(complete)
        if pf_on:
            pf.observe(self, addr, want, now, thread_id)
        return complete

    def store(self, addr: int, now: int, thread_id: int = 0) -> int:
        """Issue a store at cycle ``now``; returns completion time.

        Stores retire through the store queue: they allocate into L1D
        (keeping cache contents consistent with the load stream) but do
        not stall on lower levels -- POWER5's store queue hides the
        miss latency from the committing thread.
        """
        self.store_counts[thread_id] += 1
        self.tlb.access(addr, now, thread_id)
        if not self.l1d.access(addr, now, thread_id):
            # Fill the line into L2/L3 as well so later loads of this
            # line see it cached, without charging the store latency.
            if not self.l2.access(addr, now, thread_id):
                self.l3.access(addr, now, thread_id)
        return now + self._store_latency

    def l2_miss_count(self, thread_id: int) -> int:
        """Loads by ``thread_id`` serviced below L2 (i.e. L2 misses)."""
        return (self.level_counts[MemLevel.L3][thread_id]
                + self.level_counts[MemLevel.MEM][thread_id])
