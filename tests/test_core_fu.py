"""Unit tests for the functional-unit pools."""

import pytest

from repro.config import CoreConfig
from repro.core import FunctionalUnits, UnitPool


class TestUnitPool:
    def test_immediate_issue_when_free(self):
        pool = UnitPool("FXU", 2)
        assert pool.issue(10) == 10

    def test_throughput_cap_per_cycle(self):
        pool = UnitPool("FXU", 2)
        starts = [pool.issue(0) for _ in range(6)]
        assert starts == [0, 0, 1, 1, 2, 2]

    def test_single_unit_serializes(self):
        pool = UnitPool("BXU", 1)
        assert [pool.issue(0) for _ in range(3)] == [0, 1, 2]

    def test_out_of_order_friendly(self):
        # An op reserved for a future cycle must not delay one that is
        # ready earlier (the slot-occupancy property).
        pool = UnitPool("FXU", 1)
        assert pool.issue(100) == 100
        assert pool.issue(5) == 5

    def test_conflict_at_same_future_cycle(self):
        pool = UnitPool("FXU", 1)
        pool.issue(100)
        assert pool.issue(100) == 101

    def test_wait_statistics(self):
        pool = UnitPool("FXU", 1)
        pool.issue(0)
        pool.issue(0)
        assert pool.total_wait == 1

    def test_thread_accounting(self):
        pool = UnitPool("FXU", 2)
        pool.issue(0, thread_id=1)
        assert pool.thread_issues == [0, 1]

    def test_reset_clears_thread_issues_in_place(self):
        """Compiled kernels bind the list itself, so a reset must not
        replace it."""
        pool = UnitPool("FXU", 2)
        issues = pool.thread_issues
        pool.issue(0, thread_id=1)
        pool.reset()
        assert pool.thread_issues is issues
        assert issues == [0, 0]

    def test_collect_prunes_stale_entries(self):
        pool = UnitPool("FXU", 1)
        for t in range(100):
            pool.issue(t)
        pool.collect(1000)
        assert len(pool._occupied) <= 4

    def test_collect_keeps_future_entries(self):
        pool = UnitPool("FXU", 1)
        for t in range(20):
            pool.issue(2000 + t)
        pool.collect(1000)
        assert pool.issue(2000) == 2020  # reservations intact

    def test_zero_units_rejected(self):
        with pytest.raises(ValueError):
            UnitPool("X", 0)

    def test_reset(self):
        pool = UnitPool("FXU", 1)
        pool.issue(0)
        pool.reset()
        assert pool.issue(0) == 0
        assert pool.issues == 1


class TestFunctionalUnits:
    def test_pools_match_config(self):
        cfg = CoreConfig(num_fxu=2, num_lsu=2, num_fpu=2, num_bxu=1)
        fus = FunctionalUnits(cfg)
        assert fus.fxu.count == 2
        assert fus.lsu.count == 2
        assert fus.fpu.count == 2
        assert fus.bxu.count == 1

    def test_pools_are_independent(self):
        fus = FunctionalUnits(CoreConfig())
        fus.fxu.issue(0)
        fus.fxu.issue(0)
        assert fus.fpu.issue(0) == 0

    def test_collect_and_reset_cover_all_pools(self):
        fus = FunctionalUnits(CoreConfig())
        for pool in fus.pools():
            pool.issue(0)
        fus.collect(100)
        fus.reset()
        assert all(p.issues == 0 for p in fus.pools())
