"""Chip-wide kernel view: per-core patched kernels + CPU topology.

On a dual-core POWER5 running the patched kernel, user space sees one
sysfs tree for the whole machine: the CPU topology under
``/sys/devices/system/cpu`` (each core's two hardware threads are two
logical CPUs that are thread siblings) and one priority file per
logical CPU under ``/sys/kernel/smt_priority/core<C>/thread<T>``.

:class:`ChipKernel` models that: it owns one :class:`PatchedKernel`
per core plus a chip-wide :class:`SysFS` whose priority files take the
same validated path as the per-core files.  A chip keeps its core
objects across dispatches, so the chip-wide files are registered once;
because :meth:`repro.core.SMTCore.load` clears all hooks, the scheduler
must call :meth:`attach` after every dispatch to re-install the core's
timer hook.
"""

from __future__ import annotations

from repro.syskernel.patched import PatchedKernel, priority_file
from repro.syskernel.sysfs import SysFS


class ChipKernel:
    """One patched kernel per core behind a single chip-wide sysfs."""

    SYSFS_DIR = PatchedKernel.SYSFS_DIR
    CPU_DIR = "/sys/devices/system/cpu"

    def __init__(self, chip, timer_period: int | None = None):
        self.chip = chip
        self.sysfs = SysFS()
        self._kernels = [PatchedKernel(timer_period)
                         for _ in range(chip.n_cores)]
        for core_id, core in enumerate(chip.cores):
            for tid in (0, 1):
                self.sysfs.register(
                    f"{self.SYSFS_DIR}/core{core_id}/thread{tid}",
                    *priority_file(core, tid))
        self._register_topology()

    def attach(self, core_id: int) -> PatchedKernel:
        """(Re-)install the per-core kernel on its freshly loaded core.

        Must be called after every ``Chip.load_core`` -- loading clears
        the core's hooks, including the kernel timer.  Returns the
        per-core kernel so callers (e.g. a governor) can share it.
        """
        kernel = self._kernels[core_id]
        kernel.install(self.chip.cores[core_id])
        return kernel

    def set_priority(self, core_id: int, thread_id: int,
                     priority: int) -> None:
        """Chip-wide privileged priority change on one hardware thread."""
        PatchedKernel.set_priority(self.chip.cores[core_id], thread_id,
                                   priority)

    def _register_topology(self) -> None:
        """Expose the chip topology the way Linux sysfs does.

        Logical CPU ``k`` is hardware thread ``k % 2`` of core
        ``k // 2``; the two threads of a core are thread siblings.
        """
        n_logical = 2 * self.chip.n_cores
        self.sysfs.register(
            f"{self.CPU_DIR}/online",
            read=lambda n=n_logical: f"0-{n - 1}")
        for cpu in range(n_logical):
            core_id = cpu // 2
            lo, hi = 2 * core_id, 2 * core_id + 1
            self.sysfs.register(
                f"{self.CPU_DIR}/cpu{cpu}/topology/core_id",
                read=lambda c=core_id: str(c))
            self.sysfs.register(
                f"{self.CPU_DIR}/cpu{cpu}/topology/thread_siblings_list",
                read=lambda a=lo, b=hi: f"{a}-{b}")
