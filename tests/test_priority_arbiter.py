"""Unit tests for the decode-slot arbiter and its special modes."""

from collections import Counter

import pytest

from repro.priority import ArbiterMode, PrioritySlotArbiter


def owner_counts(arb, cycles=4096):
    return Counter(arb.owner(c) for c in range(cycles))


class TestNormalMode:
    def test_equal_priorities_alternate(self):
        arb = PrioritySlotArbiter(4, 4)
        assert arb.mode is ArbiterMode.NORMAL
        counts = owner_counts(arb, 1000)
        assert counts[0] == counts[1] == 500

    def test_ratio_enforced_positive(self):
        arb = PrioritySlotArbiter(6, 2)  # R = 32
        counts = owner_counts(arb, 3200)
        assert counts[0] == 3100
        assert counts[1] == 100

    def test_ratio_enforced_negative(self):
        arb = PrioritySlotArbiter(2, 6)
        counts = owner_counts(arb, 3200)
        assert counts[1] == 3100

    def test_low_priority_slot_is_periodic(self):
        arb = PrioritySlotArbiter(5, 4)  # R = 4
        slots = [c for c in range(64) if arb.owner(c) == 1]
        assert slots == list(range(0, 64, 4))

    def test_share_matches_counts(self):
        arb = PrioritySlotArbiter(6, 3)
        counts = owner_counts(arb, 1600)
        assert counts[0] / 1600 == pytest.approx(arb.share(0))
        assert counts[1] / 1600 == pytest.approx(arb.share(1))

    def test_every_normal_cycle_has_an_owner(self):
        arb = PrioritySlotArbiter(6, 2)
        assert None not in owner_counts(arb, 256)


class TestSingleThreadModes:
    def test_priority_zero_shuts_thread_off(self):
        arb = PrioritySlotArbiter(0, 4)
        assert arb.mode is ArbiterMode.SINGLE_THREAD
        assert owner_counts(arb, 100) == {1: 100}
        assert arb.active_threads() == (1,)

    def test_priority_seven_is_st_mode(self):
        arb = PrioritySlotArbiter(7, 4)
        assert arb.mode is ArbiterMode.SINGLE_THREAD
        assert owner_counts(arb, 100) == {0: 100}

    def test_both_off(self):
        arb = PrioritySlotArbiter(0, 0)
        assert arb.mode is ArbiterMode.ALL_OFF
        assert owner_counts(arb, 10) == {None: 10}
        assert arb.active_threads() == ()

    def test_both_seven_alternate(self):
        arb = PrioritySlotArbiter(7, 7)
        counts = owner_counts(arb, 100)
        assert counts[0] == counts[1] == 50

    def test_share_in_st_mode(self):
        arb = PrioritySlotArbiter(0, 4)
        assert arb.share(1) == 1.0
        assert arb.share(0) == 0.0


class TestLowPowerModes:
    def test_1_1_decodes_once_per_interval(self):
        arb = PrioritySlotArbiter(1, 1, low_power_interval=32)
        assert arb.mode is ArbiterMode.LOW_POWER
        counts = owner_counts(arb, 3200)
        # One decode slot per 32 cycles, alternating threads.
        assert counts[None] == 3200 - 100
        assert counts[0] == counts[1] == 50

    def test_lone_thread_at_priority_one(self):
        arb = PrioritySlotArbiter(1, 0, low_power_interval=32)
        assert arb.mode is ArbiterMode.LOW_POWER_ST
        counts = owner_counts(arb, 320)
        assert counts[0] == 10
        assert 1 not in counts

    def test_low_power_share(self):
        arb = PrioritySlotArbiter(1, 1, low_power_interval=32)
        assert arb.share(0) == pytest.approx(0.5 / 32)

    def test_custom_interval(self):
        arb = PrioritySlotArbiter(1, 1, low_power_interval=8)
        counts = owner_counts(arb, 80)
        assert counts[0] + counts[1] == 10


class TestValidation:
    def test_priority_range_checked(self):
        with pytest.raises(ValueError):
            PrioritySlotArbiter(8, 4)
        with pytest.raises(ValueError):
            PrioritySlotArbiter(4, -1)

    def test_interval_checked(self):
        with pytest.raises(ValueError):
            PrioritySlotArbiter(4, 4, low_power_interval=0)

    def test_repr_mentions_mode(self):
        assert "low_power" in repr(PrioritySlotArbiter(1, 1))


# ----------------------------------------------------------------------
# Closed-form slot arithmetic
# ----------------------------------------------------------------------

PRIORITY_GRID = [(6, 1), (6, 4), (4, 4), (1, 6), (5, 2), (2, 5),
                 (4, 0), (0, 4), (1, 1), (7, 3), (0, 0)]


@pytest.mark.parametrize("prio_p,prio_s", PRIORITY_GRID)
def test_owned_in_matches_enumeration(prio_p, prio_s):
    """owned_in(tid, a, b) equals brute-force counting of owner()."""
    arb = PrioritySlotArbiter(prio_p, prio_s)
    for a, b in [(0, 0), (0, 1), (0, 64), (7, 91), (100, 100),
                 (13, 260)]:
        for tid in (0, 1):
            expected = sum(1 for c in range(a, b)
                           if arb.owner(c) == tid)
            assert arb.owned_in(tid, a, b) == expected, (
                f"owned_in({tid},{a},{b}) at ({prio_p},{prio_s})")
