"""Unit tests for the full memory hierarchy."""

import pytest

from repro.config import POWER5
from repro.memory import MemLevel, MemoryHierarchy


@pytest.fixture
def hier(config):
    h = MemoryHierarchy(config)
    h.reset()
    return h


def warm(hier, addr, times=2):
    for i in range(times):
        hier.load(addr, i * 1000, 0)


class TestLoadPath:
    def test_cold_load_goes_to_dram(self, hier, config):
        res = hier.load(0x1000, 0, 0)
        assert res.level is MemLevel.MEM
        # TLB miss + DRAM latency.
        assert res.complete >= config.memory.dram_latency

    def test_warm_load_hits_l1(self, hier, config):
        warm(hier, 0x1000)
        res = hier.load(0x1000, 5000, 0)
        assert res.level is MemLevel.L1
        assert res.complete == 5000 + config.l1d.latency

    def test_l2_hit_after_l1_eviction(self, hier, config):
        # Fill one L1 set beyond associativity; the victim stays in L2.
        span = config.l1d.num_sets * config.l1d.line_bytes
        addrs = [i * span for i in range(config.l1d.associativity + 1)]
        now = 0
        for a in addrs:
            hier.load(a, now, 0)
            now += 1000
        res = hier.load(addrs[0], now, 0)
        assert res.level is MemLevel.L2

    def test_level_counts_recorded(self, hier):
        hier.load(0, 0, 0)
        warm(hier, 0)
        assert hier.level_counts[MemLevel.MEM][0] == 1
        assert hier.level_counts[MemLevel.L1][0] >= 1

    def test_l2_miss_count_per_thread(self, hier):
        hier.load(0, 0, thread_id=1)
        assert hier.l2_miss_count(1) == 1
        assert hier.l2_miss_count(0) == 0

    def test_tlb_penalty_applied_once_warm(self, hier, config):
        hier.load(0x2000, 0, 0)
        # Second access: TLB hit, L1 hit.
        res = hier.load(0x2000, 1000, 0)
        assert res.complete == 1000 + config.l1d.latency


class TestStorePath:
    def test_store_fixed_latency(self, hier, config):
        assert hier.store(0x3000, 10, 0) == 10 + config.store_latency

    def test_store_allocates_into_l1(self, hier):
        hier.store(0x3000, 0, 0)
        res = hier.load(0x3000, 100, 0)
        assert res.level is MemLevel.L1

    def test_store_does_not_use_lmq(self, hier):
        hier.store(0x4000, 0, 0)
        assert hier.lmq.acquisitions == 0


class TestSharing:
    def test_threads_share_cache_contents(self, hier):
        hier.load(0x5000, 0, thread_id=0)
        res = hier.load(0x5000, 1000, thread_id=1)
        assert res.level is MemLevel.L1  # thread 1 hits thread 0's line

    def test_lmq_shared_between_threads(self, hier, config):
        # Saturate the LMQ with thread 0 misses; thread 1's miss waits.
        entries = config.memory.lmq_entries
        for i in range(entries):
            hier.load((i + 1) * (1 << 22), 0, thread_id=0)
        before = hier.lmq.total_wait_cycles
        hier.load(101 * (1 << 22), 0, thread_id=1)
        assert hier.lmq.total_wait_cycles > before

    def test_reset_clears_everything(self, hier):
        hier.load(0x6000, 0, 0)
        hier.reset()
        assert hier.l1d.resident_lines() == 0
        assert hier.dram.accesses == 0
        assert hier.level_counts[MemLevel.MEM] == [0, 0]


# ----------------------------------------------------------------------
# load() vs load_complete() equivalence
# ----------------------------------------------------------------------


def _access_pattern():
    """A mix of L1 hits, repeats, strides and far (page-missing) lines."""
    seq = [(i * 128) % 8192 for i in range(400)]          # L1/L2 reuse
    seq += [(i * 4096) + (i % 7) * 64 for i in range(400)]  # TLB misses
    seq += [(i % 13) * 64 for i in range(200)]            # hot lines
    return seq


@pytest.mark.parametrize("thread_id", [0, 1])
def test_load_complete_matches_load(thread_id):
    """Timing and statistics of the two load entry points agree."""
    config = POWER5.small()
    via_load = MemoryHierarchy(config)
    via_fast = MemoryHierarchy(config)
    issue = 0
    for addr in _access_pattern():
        issue += 2
        expect = via_load.load(addr, issue, thread_id, issue).complete
        got = via_fast.load_complete(addr, issue, thread_id, issue)
        assert got == expect, f"divergence at addr={addr:#x}"
    assert via_load.level_counts == via_fast.level_counts
