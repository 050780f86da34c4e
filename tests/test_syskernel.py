"""Tests for the OS layer: stock kernel, patch, sysfs."""

import pytest

from repro.core import SMTCore
from repro.isa import FixedTraceSource, TraceBuilder
from repro.priority.levels import PriorityLevel
from repro.syskernel import (
    PatchedKernel,
    StockLinuxKernel,
    SysFS,
    SysFSError,
)


def fx_source(name="fx"):
    b = TraceBuilder()
    for i in range(64):
        b.fx(2 + i % 8)
    return FixedTraceSource(b.build(name))


def loaded_core(config, priorities=(4, 4)):
    core = SMTCore(config)
    core.load([fx_source("a"), fx_source("b")], priorities=priorities)
    return core


class TestStockKernel:
    def test_timer_tick_resets_priorities(self, config):
        core = loaded_core(config)
        kernel = StockLinuxKernel(timer_period=1000)
        kernel.install(core)
        core.set_priorities(6, 2)
        core.step(2500)
        assert core.priorities == (4, 4)
        assert kernel.kernel_entries == 2
        assert kernel.priority_resets >= 1

    def test_user_priority_does_not_survive_a_tick(self, config):
        # The paper's motivation for the patch: on a stock kernel any
        # user prioritization is wiped at the next kernel entry.
        core = loaded_core(config)
        StockLinuxKernel(timer_period=500).install(core)
        core.set_priorities(6, 1)
        core.step(400)
        assert core.priorities == (6, 1)   # before the tick
        core.step(200)
        assert core.priorities == (4, 4)   # after it

    def test_spin_lock_lowers_priority(self, config):
        core = loaded_core(config)
        kernel = StockLinuxKernel()
        kernel.spin_lock_wait(core, 1)
        assert core.priorities == (4, 1)
        kernel.resume_work(core, 1)
        assert core.priorities == (4, 4)

    def test_internal_use_counts_prio_change(self, config):
        core = loaded_core(config)
        StockLinuxKernel().spin_lock_wait(core, 1)
        assert core.thread(1).priority_changes == 1
        assert core.thread(0).priority_changes == 0

    def test_idle_lowers_priority(self, config):
        core = loaded_core(config)
        StockLinuxKernel().idle(core, 0)
        assert core.priorities[0] == int(PriorityLevel.VERY_LOW)

    def test_smp_call_function_wait(self, config):
        core = loaded_core(config)
        StockLinuxKernel().smp_call_function_wait(core, 0)
        assert core.priorities[0] == 1


class TestPatchedKernel:
    def test_priorities_survive_ticks(self, config):
        core = loaded_core(config)
        kernel = PatchedKernel(timer_period=500)
        kernel.install(core)
        core.set_priorities(6, 2)
        core.step(3000)
        assert core.priorities == (6, 2)
        assert kernel.kernel_entries >= 5

    def test_internal_uses_removed(self, config):
        core = loaded_core(config)
        kernel = PatchedKernel()
        kernel.install(core)
        kernel.spin_lock_wait(core, 0)
        kernel.idle(core, 1)
        assert core.priorities == (4, 4)

    def test_supervisor_range_via_set_priority(self, config):
        core = loaded_core(config)
        kernel = PatchedKernel()
        kernel.install(core)
        for level in (1, 2, 3, 4, 5, 6):
            kernel.set_priority(core, 0, level)
            assert core.priorities[0] == level

    def test_extreme_levels_via_hypervisor(self, config):
        core = loaded_core(config)
        kernel = PatchedKernel()
        kernel.install(core)
        kernel.set_priority(core, 1, 0)
        assert core.priorities[1] == 0
        kernel.set_priority(core, 0, 7)
        assert core.priorities[0] == 7

    def test_sysfs_read_write(self, config):
        core = loaded_core(config)
        kernel = PatchedKernel()
        kernel.install(core)
        path = f"{PatchedKernel.SYSFS_DIR}/thread0"
        assert kernel.sysfs.read(path) == "4"
        kernel.sysfs.write(path, "6")
        assert core.priorities[0] == 6
        assert kernel.sysfs.read(path) == "6"

    def test_sysfs_rejects_garbage(self, config):
        core = loaded_core(config)
        kernel = PatchedKernel()
        kernel.install(core)
        path = f"{PatchedKernel.SYSFS_DIR}/thread1"
        with pytest.raises(SysFSError):
            kernel.sysfs.write(path, "high")
        with pytest.raises(SysFSError):
            kernel.sysfs.write(path, "9")

    def test_file_of_dropped_core_raises(self, config):
        core = loaded_core(config)
        kernel = PatchedKernel()
        kernel.install(core)
        del core
        for path in (f"{PatchedKernel.SYSFS_DIR}/thread0",
                     f"{PatchedKernel.PREFETCH_SYSFS_DIR}/thread1/depth"):
            with pytest.raises(SysFSError):
                kernel.sysfs.read(path)
            with pytest.raises(SysFSError):
                kernel.sysfs.write(path, "2")

    def test_sysfs_lists_both_threads(self, config):
        core = loaded_core(config)
        kernel = PatchedKernel()
        kernel.install(core)
        assert len(kernel.sysfs.listdir(PatchedKernel.SYSFS_DIR)) == 2


class TestSysFS:
    def test_unknown_path(self):
        fs = SysFS()
        with pytest.raises(SysFSError):
            fs.read("/sys/nope")
        with pytest.raises(SysFSError):
            fs.write("/sys/nope", "1")

    def test_read_only_file(self):
        fs = SysFS()
        fs.register("/sys/ro", read=lambda: "x")
        assert fs.read("/sys/ro") == "x"
        with pytest.raises(SysFSError):
            fs.write("/sys/ro", "y")

    def test_path_prefix_enforced(self):
        with pytest.raises(ValueError):
            SysFS().register("/proc/x", read=lambda: "")


class TestHypervisor:
    """Levels 0 and 7 need hypervisor privilege; the patched kernel's
    ``set_priority`` grants it, and counts every applied write."""

    def test_h_set_priority_full_range(self, config):
        core = loaded_core(config)
        PatchedKernel.set_priority(core, 0, 7)
        assert core.priorities[0] == 7
        PatchedKernel.set_priority(core, 0, 0)
        assert core.priorities[0] == 0
        assert core.thread(0).priority_changes == 2
        assert core.thread(1).priority_changes == 0

    def test_h_thread_off(self, config):
        core = loaded_core(config)
        PatchedKernel.set_priority(core, 1, 0)
        assert core.priorities[1] == 0

    def test_h_single_thread_mode(self, config):
        core = loaded_core(config)
        PatchedKernel.set_priority(core, 1, 0)
        PatchedKernel.set_priority(core, 0, 7)
        assert core.priorities == (7, 0)

    def test_validation(self, config):
        core = loaded_core(config)
        with pytest.raises(ValueError):
            PatchedKernel.set_priority(core, 2, 4)
        with pytest.raises(ValueError):
            PatchedKernel.set_priority(core, 0, 8)
        assert core.priorities == (4, 4)


class TestKernelEffectOnMeasurement:
    def test_stock_kernel_neutralizes_prioritization(self, config):
        """End to end: on the stock kernel, setting (6,1) barely helps
        thread 0 because every tick resets to (4,4); on the patched
        kernel the full effect persists."""
        def retired_with(kernel_cls):
            core = loaded_core(config)
            kernel_cls(timer_period=200).install(core)
            core.set_priorities(6, 1)
            core.step(20_000)
            return core.thread(0).retired

        stock = retired_with(StockLinuxKernel)
        patched = retired_with(PatchedKernel)
        assert patched > 1.3 * stock
