"""Software-controlled priorities (paper section 3.2)."""

from repro.priority.arbiter import ArbiterMode, PrioritySlotArbiter
from repro.priority.formula import (
    decode_slot_ratio,
    resource_factor,
    slot_share,
)
from repro.priority.interface import PriorityInterface
from repro.priority.levels import (
    ALLOWED_PRIORITIES,
    DEFAULT_PRIORITY,
    PriorityLevel,
    PrivilegeLevel,
    can_set_priority,
    minimum_privilege,
)

__all__ = [
    "PriorityLevel",
    "PrivilegeLevel",
    "DEFAULT_PRIORITY",
    "ALLOWED_PRIORITIES",
    "can_set_priority",
    "minimum_privilege",
    "decode_slot_ratio",
    "slot_share",
    "resource_factor",
    "PrioritySlotArbiter",
    "ArbiterMode",
    "PriorityInterface",
]
