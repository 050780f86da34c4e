"""The paper's non-intrusive kernel patch (section 4.3).

Three changes relative to :class:`StockLinuxKernel`:

1. priorities 0-7 become available to user space: the kernel performs
   the change on the user's behalf, at supervisor privilege for 1-6
   and at hypervisor privilege (the hcall of Table 1) for 0 and 7;
2. the kernel's *internal* uses of software-controlled priorities are
   removed, so experiments are not perturbed by unpredictable changes;
3. kernel entries no longer reset thread priorities to MEDIUM -- the
   experiment's settings persist across timer ticks;

and a ``/sys`` interface through which user applications change their
priority: ``/sys/kernel/smt_priority/thread<N>``.

The same patch also exports the core's DSCR-style prefetch controls
(:mod:`repro.prefetch`) as sysfs files, one directory per hardware
thread: ``/sys/kernel/smt_prefetch/thread<N>/{enable,depth,degree}``.
Writes validate like the priority file (malformed or out-of-range
values raise :class:`SysFSError` and change nothing) and take effect
at the next L1 miss -- prefetch hardware is only consulted on misses.

Every file reaches its core through a weak reference (the core's timer
hook already holds the kernel, so a strong one would make a cycle);
a file whose core is gone raises :class:`SysFSError`.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable

from repro.core import SMTCore
from repro.priority.levels import PriorityLevel, PrivilegeLevel
from repro.syskernel.kernel import StockLinuxKernel
from repro.syskernel.sysfs import SysFS, SysFSError

#: A pseudo-file's (read, write) callables.
FileOps = tuple[Callable[[], str], Callable[[str], None]]


def _deref(ref: weakref.ref) -> SMTCore:
    core = ref()
    if core is None:
        raise SysFSError("the core behind this file is gone")
    return core


def _parse_int(value: str, what: str) -> int:
    try:
        return int(value.strip())
    except ValueError:
        raise SysFSError(f"invalid {what}: {value!r}") from None


def priority_file(core: SMTCore, tid: int) -> FileOps:
    """The ``smt_priority`` file of hardware thread ``tid``."""
    ref = weakref.ref(core)

    def read() -> str:
        return str(int(_deref(ref).interface.priority(tid)))

    def write(value: str) -> None:
        level = _parse_int(value, "priority")
        if not 0 <= level <= 7:
            raise SysFSError(f"priority out of range: {level}")
        PatchedKernel.set_priority(_deref(ref), tid, level)
    return read, write


def prefetch_file(core: SMTCore, tid: int, knob: str) -> FileOps:
    """The ``smt_prefetch`` file of one knob of hardware thread ``tid``."""
    ref = weakref.ref(core)

    def read() -> str:
        pf = _deref(ref).hierarchy.prefetcher
        if knob == "enable":
            return str(int(pf.on[tid]))
        return str(pf.depth[tid] if knob == "depth" else pf.degree[tid])

    def write(value: str) -> None:
        v = _parse_int(value, f"prefetch {knob}")
        pf = _deref(ref).hierarchy.prefetcher
        try:
            if knob == "enable":
                if v not in (0, 1):
                    raise ValueError(f"enable must be 0 or 1, got {v}")
                pf.set_enable(tid, bool(v))
            elif knob == "depth":
                pf.set_depth(tid, v)
            else:
                pf.set_degree(tid, v)
        except ValueError as exc:
            raise SysFSError(str(exc)) from None
    return read, write


class PatchedKernel(StockLinuxKernel):
    """Kernel with the paper's priority patch applied."""

    SYSFS_DIR = "/sys/kernel/smt_priority"
    PREFETCH_SYSFS_DIR = "/sys/kernel/smt_prefetch"

    def __init__(self, timer_period: int | None = None):
        super().__init__(timer_period)
        self.sysfs = SysFS()

    def install(self, core: SMTCore) -> None:
        """Attach the timer hook and register the sysfs files."""
        super().install(core)
        for tid in (0, 1):
            self.sysfs.register(f"{self.SYSFS_DIR}/thread{tid}",
                                *priority_file(core, tid))
            for knob in ("enable", "depth", "degree"):
                self.sysfs.register(
                    f"{self.PREFETCH_SYSFS_DIR}/thread{tid}/{knob}",
                    *prefetch_file(core, tid, knob))

    def kernel_entry(self, core: SMTCore) -> None:
        """Patched: kernel entries do NOT touch thread priorities."""
        self.kernel_entries += 1

    def spin_lock_wait(self, core: SMTCore, thread_id: int) -> None:
        """Patched: internal priority uses are removed (no-op)."""

    def smp_call_function_wait(self, core: SMTCore, thread_id: int) -> None:
        """Patched: internal priority uses are removed (no-op)."""

    def idle(self, core: SMTCore, thread_id: int) -> None:
        """Patched: internal priority uses are removed (no-op)."""

    @staticmethod
    def set_priority(core: SMTCore, thread_id: int, priority: int) -> None:
        """The patch's privileged path: any level 0..7.

        1-6 are applied at supervisor privilege; 0 and 7 need the
        hypervisor, as the paper describes.  The write goes through
        :meth:`SMTCore.request_priority`, so it counts as a
        ``PM_PRIO_CHANGE`` and takes effect at the next decode
        boundary, like an in-trace priority nop.  An unknown thread or
        level raises :class:`ValueError`.
        """
        if thread_id not in (0, 1):
            raise ValueError(f"no such thread: {thread_id}")
        level = PriorityLevel(priority)
        privilege = (PrivilegeLevel.HYPERVISOR
                     if level in (PriorityLevel.THREAD_OFF,
                                  PriorityLevel.VERY_HIGH)
                     else PrivilegeLevel.SUPERVISOR)
        core.request_priority(thread_id, level, privilege)
