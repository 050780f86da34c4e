"""Set-associative cache model with true-LRU replacement.

The timing model only needs hit/miss decisions, so the cache tracks
tags and recency, not data.  Both SMT threads of the core share every
cache level, exactly as on POWER5 -- inter-thread conflict and capacity
interference are emergent.
"""

from __future__ import annotations

from repro.config import CacheConfig


def recency_state(sets: list[dict[int, int]]) -> tuple:
    """Canonical (tags, recency order) form of a cache's or TLB's sets.

    Lookups compare stamps only within a set, so two states behave
    identically iff each set holds the same tags in the same dict
    order with the same stamp ranking -- eviction picks the minimum
    stamp with dict-order tie-break, which this form pins exactly
    while staying invariant to the absolute stamp values.
    """
    out = []
    for s in sets:
        if s:
            vals = list(s.values())
            out.append((tuple(s), tuple(sorted(range(len(vals)),
                                               key=vals.__getitem__))))
        else:
            out.append(())
    return tuple(out)


class CacheStats:
    """Hit/miss counters, kept per thread; the totals are their sums."""

    __slots__ = ("thread_hits", "thread_misses")

    def __init__(self, num_threads: int = 2):
        self.thread_hits = [0] * num_threads
        self.thread_misses = [0] * num_threads

    def reset(self) -> None:
        """Zero all counters (in place: compiled kernels hold the lists)."""
        for i in range(len(self.thread_hits)):
            self.thread_hits[i] = 0
            self.thread_misses[i] = 0

    @property
    def hits(self) -> int:
        """Total hits over all threads."""
        return sum(self.thread_hits)

    @property
    def misses(self) -> int:
        """Total misses over all threads."""
        return sum(self.thread_misses)

    @property
    def accesses(self) -> int:
        """Total number of lookups."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Miss fraction, 0.0 when no accesses were made."""
        total = self.accesses
        return self.misses / total if total else 0.0


class SetAssociativeCache:
    """One cache level: tags + LRU recency, shared by both threads."""

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.config = config
        self.name = name
        self._num_sets = config.num_sets
        self._line_bytes = config.line_bytes
        self._assoc = config.associativity
        # Per set: dict mapping tag -> last-access stamp.  Dicts keep
        # sets small (<= associativity entries) and O(1) on lookup.
        self._sets: list[dict[int, int]] = [dict()
                                            for _ in range(self._num_sets)]
        self.stats = CacheStats()

    def reset(self) -> None:
        """Invalidate all lines and zero statistics."""
        for s in self._sets:
            s.clear()
        self.stats.reset()

    def state(self) -> tuple:
        """Statistics and the :func:`recency_state` of the sets."""
        stats = self.stats
        return (tuple(stats.thread_hits), tuple(stats.thread_misses),
                recency_state(self._sets))

    def access(self, addr: int, now: int, thread_id: int = 0) -> bool:
        """Look up byte address ``addr`` at time ``now``.

        Returns True on a hit.  On a miss the line is allocated
        (write-allocate for stores as well), evicting the LRU way when
        the set is full.
        """
        line = addr // self._line_bytes
        idx = line % self._num_sets
        tag = line // self._num_sets
        cache_set = self._sets[idx]
        if tag in cache_set:
            cache_set[tag] = now
            self.stats.thread_hits[thread_id] += 1
            return True
        self.stats.thread_misses[thread_id] += 1
        if len(cache_set) >= self._assoc:
            victim = min(cache_set, key=cache_set.__getitem__)
            del cache_set[victim]
        cache_set[tag] = now
        return False

    def probe(self, addr: int) -> bool:
        """Non-destructive lookup: True when the line is resident."""
        line = addr // self._line_bytes
        idx = line % self._num_sets
        tag = line // self._num_sets
        return tag in self._sets[idx]

    def resident_lines(self) -> int:
        """Number of lines currently allocated (for tests/inspection)."""
        return sum(len(s) for s in self._sets)

    def __repr__(self) -> str:
        cfg = self.config
        return (f"SetAssociativeCache({self.name}: {cfg.size_bytes}B, "
                f"{cfg.associativity}-way, {cfg.line_bytes}B lines)")
