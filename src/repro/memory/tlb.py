"""Translation lookaside buffer model.

POWER5's TLB is shared between the two SMT threads of a core; a thread
streaming through a huge footprint can evict the sibling's translations.
The balancer also monitors TLB misses (paper section 3.1).
"""

from __future__ import annotations

from repro.config import TLBConfig
from repro.memory.cache import CacheStats


class TLB:
    """Set-associative TLB over page numbers, LRU replacement."""

    def __init__(self, config: TLBConfig):
        self.config = config
        if config.entries % config.associativity:
            raise ValueError("TLB entries must divide by associativity")
        self._num_sets = config.entries // config.associativity
        self._assoc = config.associativity
        self._page_bytes = config.page_bytes
        self._sets: list[dict[int, int]] = [dict()
                                            for _ in range(self._num_sets)]
        self.stats = CacheStats()

    def reset(self) -> None:
        """Drop all translations and zero statistics."""
        for s in self._sets:
            s.clear()
        self.stats.reset()

    def access(self, addr: int, now: int, thread_id: int = 0) -> bool:
        """Translate byte address ``addr``; True on a TLB hit."""
        page = addr // self._page_bytes
        idx = page % self._num_sets
        tag = page // self._num_sets
        tlb_set = self._sets[idx]
        if tag in tlb_set:
            tlb_set[tag] = now
            self.stats.thread_hits[thread_id] += 1
            return True
        self.stats.thread_misses[thread_id] += 1
        if len(tlb_set) >= self._assoc:
            victim = min(tlb_set, key=tlb_set.__getitem__)
            del tlb_set[victim]
        tlb_set[tag] = now
        return False
