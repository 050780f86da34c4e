"""Unit tests for priority levels, privilege rules and the interface."""

import pytest

from repro.isa import decode_priority_nop, encode_priority_nop
from repro.priority import (
    ALLOWED_PRIORITIES,
    DEFAULT_PRIORITY,
    PriorityInterface,
    PriorityLevel,
    PrivilegeLevel,
    can_set_priority,
    minimum_privilege,
)


class TestLevels:
    def test_eight_levels(self):
        assert [int(p) for p in PriorityLevel] == list(range(8))

    def test_default_is_medium(self):
        assert DEFAULT_PRIORITY is PriorityLevel.MEDIUM
        assert int(DEFAULT_PRIORITY) == 4

    def test_descriptions_match_table1(self):
        assert PriorityLevel.THREAD_OFF.describe() == "Thread shut off"
        assert PriorityLevel.VERY_LOW.describe() == "Very low"
        assert PriorityLevel.VERY_HIGH.describe() == "Very high"


class TestPrivilegeRules:
    def test_user_gets_2_3_4_only(self):
        allowed = ALLOWED_PRIORITIES[PrivilegeLevel.USER]
        assert {int(p) for p in allowed} == {2, 3, 4}

    def test_supervisor_gets_1_through_6(self):
        allowed = ALLOWED_PRIORITIES[PrivilegeLevel.SUPERVISOR]
        assert {int(p) for p in allowed} == {1, 2, 3, 4, 5, 6}

    def test_hypervisor_gets_everything(self):
        allowed = ALLOWED_PRIORITIES[PrivilegeLevel.HYPERVISOR]
        assert allowed == frozenset(PriorityLevel)

    def test_privileges_nest(self):
        assert (ALLOWED_PRIORITIES[PrivilegeLevel.USER]
                <= ALLOWED_PRIORITIES[PrivilegeLevel.SUPERVISOR]
                <= ALLOWED_PRIORITIES[PrivilegeLevel.HYPERVISOR])

    @pytest.mark.parametrize("priority,privilege", [
        (0, PrivilegeLevel.HYPERVISOR),
        (1, PrivilegeLevel.SUPERVISOR),
        (2, PrivilegeLevel.USER),
        (3, PrivilegeLevel.USER),
        (4, PrivilegeLevel.USER),
        (5, PrivilegeLevel.SUPERVISOR),
        (6, PrivilegeLevel.SUPERVISOR),
        (7, PrivilegeLevel.HYPERVISOR),
    ])
    def test_minimum_privilege_matches_table1(self, priority, privilege):
        assert minimum_privilege(priority) is privilege

    def test_can_set_priority(self):
        assert can_set_priority(PrivilegeLevel.USER, 3)
        assert not can_set_priority(PrivilegeLevel.USER, 6)
        assert can_set_priority(PrivilegeLevel.SUPERVISOR, 6)
        assert not can_set_priority(PrivilegeLevel.SUPERVISOR, 7)


class TestPriorityInterface:
    def test_defaults_to_medium_medium(self):
        iface = PriorityInterface()
        assert iface.priorities == (PriorityLevel.MEDIUM,
                                    PriorityLevel.MEDIUM)

    def test_permitted_request_applies(self):
        iface = PriorityInterface()
        assert iface.request(0, 2, PrivilegeLevel.USER)
        assert iface.priority(0) is PriorityLevel.LOW

    def test_forbidden_request_is_silent_nop(self):
        iface = PriorityInterface()
        assert not iface.request(0, 6, PrivilegeLevel.USER)
        assert iface.priority(0) is PriorityLevel.MEDIUM

    def test_execute_nop_with_privilege(self):
        # The core decodes an ``or X,X,X`` nop to its level and requests
        # it at the issuing thread's privilege.
        iface = PriorityInterface()
        level = decode_priority_nop(encode_priority_nop(6))
        assert iface.request(0, level, PrivilegeLevel.SUPERVISOR)
        assert int(iface.priority(0)) == 6

    def test_execute_nop_without_privilege_is_silent(self):
        iface = PriorityInterface()
        level = decode_priority_nop(encode_priority_nop(6))
        assert not iface.request(0, level, PrivilegeLevel.USER)
        assert int(iface.priority(0)) == 4

    def test_reset_to_default(self):
        iface = PriorityInterface((6, 2))
        iface.reset_to_default(0)
        iface.reset_to_default(1)
        assert iface.priorities == (DEFAULT_PRIORITY, DEFAULT_PRIORITY)

    def test_initial_priorities_respected(self):
        iface = PriorityInterface((6, 1))
        assert int(iface.priority(0)) == 6
        assert int(iface.priority(1)) == 1
