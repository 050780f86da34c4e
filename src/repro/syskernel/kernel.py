"""Model of the stock Linux 2.6.23 priority behaviour (paper 4.3).

The stock kernel uses software-controlled priorities in exactly three
places -- a spinning lock, waiting for a cross-CPU operation
(``smp_call_function``), and the idle loop -- and, because it does not
track priorities, it *resets both hardware threads to MEDIUM on every
kernel entry* (interrupt, exception, system call).  The reset is what
makes user-level prioritization ineffective on an unpatched kernel:
any priority a thread sets survives only until the next timer tick.

``StockLinuxKernel.install`` wires a periodic timer interrupt into the
core; every tick passes through :meth:`kernel_entry`, which performs
the reset.  The spin/idle/smp entry points model the three legitimate
uses (each lowers the priority of the affected context and restores
MEDIUM when work resumes).
"""

from __future__ import annotations

from repro.core import SMTCore
from repro.priority.levels import (
    DEFAULT_PRIORITY,
    PriorityLevel,
    PrivilegeLevel,
)


class StockLinuxKernel:
    """Priority-relevant behaviour of an unpatched Linux kernel."""

    #: Timer interrupt period in cycles.  1 ms at the nominal POWER5
    #: clock would be ~1.65M cycles; the default is shortened so tests
    #: and experiments observe multiple ticks in reasonable sim time.
    DEFAULT_TIMER_PERIOD = 100_000

    def __init__(self, timer_period: int | None = None):
        self.timer_period = timer_period or self.DEFAULT_TIMER_PERIOD
        self.kernel_entries = 0
        self.priority_resets = 0
        self._core: SMTCore | None = None

    def install(self, core: SMTCore) -> None:
        """Attach the timer-tick hook to a loaded core."""
        self._core = core
        core.add_periodic_hook(self.timer_period, self._timer_tick)

    def _timer_tick(self, core: SMTCore, now: int) -> None:
        self.kernel_entry(core)

    def kernel_entry(self, core: SMTCore) -> None:
        """Any interrupt/exception/syscall: reset both threads to MEDIUM.

        The kernel does not know what priority the threads had, so it
        conservatively restores the default (paper section 4.3).
        """
        self.kernel_entries += 1
        changed = False
        for tid in (0, 1):
            if core.interface.priority(tid) is not DEFAULT_PRIORITY:
                changed = True
            core.interface.reset_to_default(tid)
        if changed:
            self.priority_resets += 1
            # Rebuild only on an actual reset: an unchanged-priority
            # entry leaves the arbiter identical, and keeping the
            # object saves the array engine a dispatch-table rebuild
            # on every tick that did nothing.
            core._rebuild_arbiter()

    # -- the three legitimate uses -------------------------------------

    def spin_lock_wait(self, core: SMTCore, thread_id: int) -> None:
        """Spinning on a kernel lock: drop the spinner's priority."""
        core.interface.request(thread_id, PriorityLevel.VERY_LOW,
                               PrivilegeLevel.SUPERVISOR)
        core._rebuild_arbiter()

    def smp_call_function_wait(self, core: SMTCore, thread_id: int) -> None:
        """Waiting for another CPU's operation: drop priority."""
        core.interface.request(thread_id, PriorityLevel.VERY_LOW,
                               PrivilegeLevel.SUPERVISOR)
        core._rebuild_arbiter()

    def idle(self, core: SMTCore, thread_id: int) -> None:
        """The idle loop: drop to very low priority."""
        core.interface.request(thread_id, PriorityLevel.VERY_LOW,
                               PrivilegeLevel.SUPERVISOR)
        core._rebuild_arbiter()

    def resume_work(self, core: SMTCore, thread_id: int) -> None:
        """Work arrived: restore MEDIUM."""
        core.interface.request(thread_id, DEFAULT_PRIORITY,
                               PrivilegeLevel.SUPERVISOR)
        core._rebuild_arbiter()
