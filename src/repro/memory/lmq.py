"""Load-miss queue (LMQ) model.

POWER5 tracks outstanding L1D misses in a small queue shared by the two
SMT threads.  When all entries are busy, further misses wait: a thread
with many in-flight misses starves its sibling's memory parallelism.

A slot is busy during the *interval* an actual miss is outstanding
(issue to fill).  The trace-driven core schedules loads at their
operand-ready times, which may lie in the future, so the queue is an
interval scheduler: a miss that wants to issue at cycle ``t`` occupies
a slot at the earliest cycle >= ``t`` when fewer than ``entries``
intervals overlap -- a far-future chain load never blocks a miss that
is ready now.

The occupancy records are kept as ``(end, start)`` pairs sorted by end
time: expired records sit at the front (trimmed with one bisect), the
conflict scan can skip everything already released at the probe point,
and the first active record it meets is also the earliest-releasing
one -- which is exactly the retry time a saturated probe must return.
"""

from __future__ import annotations

from bisect import bisect_right, insort


class LoadMissQueue:
    """Fixed number of outstanding-miss slots, shared by both threads."""

    def __init__(self, entries: int):
        if entries < 1:
            raise ValueError("LMQ needs at least one entry")
        self.entries = entries
        # Occupancy records (end, start) of outstanding misses, sorted
        # ascending (by end time first).  Bounded by the in-flight
        # window (GCT) plus expired leftovers, which acquire trims.
        self._intervals: list[tuple[int, int]] = []
        self._pending_start = 0
        self.acquisitions = 0
        self.total_wait_cycles = 0
        self.thread_acquisitions = [0, 0]
        self.thread_wait_cycles = [0, 0]

    def reset(self) -> None:
        """Free all slots and zero statistics."""
        self._intervals.clear()
        self._pending_start = 0
        self.acquisitions = 0
        self.total_wait_cycles = 0
        self.thread_acquisitions = [0, 0]
        self.thread_wait_cycles = [0, 0]

    def state(self, now: int) -> tuple:
        """Statistics, records busy after ``now`` (``acquire`` trims the
        rest unobservably) and the start ``fill`` will record."""
        return (self.acquisitions, self.total_wait_cycles,
                tuple(self.thread_acquisitions),
                tuple(self.thread_wait_cycles),
                tuple(r for r in self._intervals if r[0] > now),
                self._pending_start)

    def occupancy(self, at: int) -> int:
        """Number of slots busy at cycle ``at``."""
        return sum(1 for e, s in self._intervals if s <= at < e)

    def is_full(self, at: int) -> bool:
        """True when no slot is free at cycle ``at``."""
        return self.occupancy(at) >= self.entries

    def acquire(self, start: int, now: int, thread_id: int = 0,
                duration: int = 1) -> int:
        """Reserve a slot over ``[t, t+duration)`` for the first
        feasible ``t >= start``.

        Feasible means the whole reserved interval keeps the number of
        concurrently outstanding misses at or under ``entries``.
        ``now`` is the core's current cycle, used only to prune expired
        intervals (every future query issues at or after ``now``).
        The caller must follow up with :meth:`fill` to record the
        actual release time.
        """
        self.acquisitions += 1
        self.thread_acquisitions[thread_id] += 1
        intervals = self._intervals
        entries = self.entries
        if len(intervals) >= entries:
            # Trim expired records: every probe point lies at or after
            # ``now`` (loads issue no earlier than the decode cycle),
            # so records ending by then can never be active at one and
            # dropping them is behaviour-invisible.  They are a sorted
            # prefix, so one bisect finds the cut.
            i = bisect_right(intervals, (now, 1 << 62))
            if i:
                del intervals[:i]
        if len(intervals) < entries:
            # Fewer outstanding records than slots: no probe point can
            # be saturated, the requested start is feasible as-is.
            self._pending_start = start
            return start
        t = start
        while True:
            retry = self._conflict(t, t + max(1, duration))
            if retry is None:
                break
            t = retry
        self.total_wait_cycles += t - start
        self.thread_wait_cycles[thread_id] += t - start
        self._pending_start = t
        return t

    def _conflict(self, begin: int, end: int) -> int | None:
        """First retry time if ``[begin, end)`` overflows capacity."""
        intervals = self._intervals
        entries = self.entries
        n = len(intervals)
        p = begin
        while True:
            # Records with end <= p are released; the sorted order puts
            # them in a prefix the bisect skips.  Scanning upward from
            # there, the first record covering ``p`` has the smallest
            # end among all active ones -- the retry time on overflow.
            count = 0
            retry = 0
            j = bisect_right(intervals, (p, 1 << 62))
            first = j
            while j < n:
                rec = intervals[j]
                if rec[1] <= p:
                    if not count:
                        retry = rec[0]
                    count += 1
                    if count >= entries:
                        return retry
                j += 1
            # Advance to the next interval start inside (p, end): the
            # active set only grows at interval starts, so those are
            # the only probe points that can newly saturate.  Starts
            # before ``p`` belong to records already counted or
            # released, so the scan resumes at the bisect point.
            nxt = end
            for j in range(first, n):
                s = intervals[j][1]
                if p < s < nxt:
                    nxt = s
            if nxt == end:
                return None
            p = nxt

    def fill(self, completion: int) -> None:
        """Record the interval of the miss most recently acquired."""
        insort(self._intervals, (completion, self._pending_start))

    def __repr__(self) -> str:
        return f"LoadMissQueue(entries={self.entries})"
