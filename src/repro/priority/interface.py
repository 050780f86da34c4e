"""The software-facing priority interface.

Models how priority requests reach the hardware: a context at some
privilege level issues an ``or X,X,X`` form (or a hypervisor call for
priority 0/7), and the request either takes effect or is silently
ignored, per Table 1.  Counting applied requests is the core's job
(:meth:`repro.core.SMTCore.request_priority`).
"""

from __future__ import annotations

from repro.priority.levels import (
    DEFAULT_PRIORITY,
    PriorityLevel,
    PrivilegeLevel,
    can_set_priority,
)


class PriorityInterface:
    """Current priorities of the two hardware threads + change protocol."""

    def __init__(self,
                 initial: tuple[int, int] = (DEFAULT_PRIORITY,
                                             DEFAULT_PRIORITY)):
        self._priorities = [PriorityLevel(initial[0]),
                            PriorityLevel(initial[1])]

    def priority(self, thread_id: int) -> PriorityLevel:
        """Current priority of ``thread_id``."""
        return self._priorities[thread_id]

    @property
    def priorities(self) -> tuple[PriorityLevel, PriorityLevel]:
        """Current (thread0, thread1) priorities."""
        return tuple(self._priorities)  # type: ignore[return-value]

    def request(self, thread_id: int, priority: PriorityLevel | int,
                privilege: PrivilegeLevel = PrivilegeLevel.USER) -> bool:
        """Request a priority change; returns True when it took effect.

        An impermissible request is a silent nop (no exception), exactly
        like the hardware treats an under-privileged ``or X,X,X``.
        """
        level = PriorityLevel(priority)
        allowed = can_set_priority(privilege, level)
        if allowed:
            self._priorities[thread_id] = level
        return allowed

    def reset_to_default(self, thread_id: int) -> None:
        """Restore MEDIUM, as the stock kernel does at kernel entry."""
        self._priorities[thread_id] = DEFAULT_PRIORITY
