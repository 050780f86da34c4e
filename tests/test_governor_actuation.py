"""Regression: sysfs priority writes from a periodic hook.

The governor actuates through ``/sys/kernel/smt_priority/thread<N>``
writes issued inside a periodic core hook.  The contract under test:

- the write takes effect at the next decode boundary -- the first
  decode after the hook's fire cycle uses the new arbiter, every slot
  before it the old one, exactly like an in-trace priority nop;
- the effect is bit-identical across the object reference loop and
  the array engine;
- every applied write is counted as a ``PM_PRIO_CHANGE`` event.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import POWER5
from repro.core import SMTCore, make_core
from repro.microbench import make_microbenchmark
from repro.priority import PrioritySlotArbiter
from repro.syskernel import PatchedKernel

SECONDARY_BASE = (1 << 27) + 8192

#: Hook period (the actuation cycle) and total run length.
PERIOD = 101
TOTAL = 5_000

BEFORE = (4, 4)
AFTER = (6, 1)


@pytest.fixture(scope="module")
def configs():
    """(array, object) config pair -- identical but for the engine."""
    array = POWER5.small()
    obj = dataclasses.replace(array, engine="object")
    return array, obj


def _run(config, actuate, chunk=TOTAL):
    """Run a compute pair with a one-shot actuating hook at PERIOD."""
    core = make_core(config)
    core.load([make_microbenchmark("cpu_int", config),
               make_microbenchmark("cpu_fp", config,
                                   base_address=SECONDARY_BASE)],
              priorities=BEFORE)
    kernel = PatchedKernel()
    kernel.install(core)
    fired: list[int] = []

    def hook(c, now):
        if not fired:
            actuate(c, kernel)
        fired.append(now)

    core.add_periodic_hook(PERIOD, hook)
    while core.cycle < TOTAL:
        core.step(min(chunk, TOTAL - core.cycle))
    return core, fired


def _sysfs(core, kernel):
    for tid, prio in enumerate(AFTER):
        kernel.sysfs.write(f"{kernel.SYSFS_DIR}/thread{tid}",
                           str(prio))


def _expected_owned(tid, fire_cycle, total):
    """Closed-form slot split: old arbiter before the actuation's
    decode boundary, new arbiter (same absolute phase) from it on."""
    old = PrioritySlotArbiter(*BEFORE)
    new = PrioritySlotArbiter(*AFTER)
    return (old.owned_in(tid, 0, fire_cycle)
            + new.owned_in(tid, fire_cycle, total))


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_effective_at_next_decode_boundary(configs, engine):
    """The slot split matches the closed form exactly, per engine.

    ``fast`` is the array engine, ``reference`` the object engine.
    """
    config = configs[0] if engine == "fast" else configs[1]
    core, fired = _run(config, _sysfs)
    assert fired[0] == PERIOD
    assert core.priorities == AFTER
    for tid in (0, 1):
        assert core.thread(tid).owned_slots == _expected_owned(
            tid, PERIOD, TOTAL), (
            f"thread {tid} slot split wrong: the sysfs write must "
            "take effect exactly at the decode boundary after the "
            "hook fires")


def test_bit_identical_across_engines(configs):
    """The array engine may not skip or displace the hook's actuation."""
    array_cfg, obj_cfg = configs
    array_core, array_fired = _run(array_cfg, _sysfs)
    ref_core, ref_fired = _run(obj_cfg, _sysfs, chunk=1)
    assert array_fired == ref_fired
    assert array_core.result() == ref_core.result()


def test_counts_prio_change_events(configs):
    """Each effective per-thread write is one PM_PRIO_CHANGE."""
    core, _ = _run(configs[0], _sysfs)
    assert core.thread(0).priority_changes == 1
    assert core.thread(1).priority_changes == 1
    # And the PMU counter view agrees.
    from repro.pmu.counters import CounterBank
    bank = CounterBank.capture(core)
    assert bank["PM_PRIO_CHANGE"] == (1, 1)


def test_redundant_write_counted_like_nop(configs):
    """Writing the current priority still counts as a PRIO_CHANGE.

    The hardware event counts *applied requests*, not value changes:
    an in-trace ``or X,X,X`` re-asserting the current level is counted
    (the request took effect), so the sysfs path mirrors that.
    """
    def actuate(core, kernel):
        kernel.sysfs.write(f"{kernel.SYSFS_DIR}/thread0",
                           str(BEFORE[0]))
    core, _ = _run(configs[0], actuate)
    assert core.priorities == BEFORE
    assert core.thread(0).priority_changes == 1
    assert core.thread(1).priority_changes == 0


def test_hypervisor_call_counts_too(configs):
    """Levels 0 and 7 (hypervisor privilege) share the PM_PRIO_CHANGE
    semantics of the sysfs levels."""
    config = configs[0]
    core = SMTCore(config)
    core.load([make_microbenchmark("cpu_int", config),
               make_microbenchmark("cpu_fp", config,
                                   base_address=SECONDARY_BASE)],
              priorities=BEFORE)
    PatchedKernel.set_priority(core, 0, 7)
    assert core.thread(0).priority_changes == 1
    assert core.thread(1).priority_changes == 0


def test_sysfs_equivalent_to_direct_set(configs):
    """Kernel-actuated changes behave like core.set_priorities.

    The only permitted divergence is the PM_PRIO_CHANGE accounting:
    direct hypervisor set_priorities is the raw mechanism, the sysfs
    file is the counted software interface.
    """
    def direct(core, kernel):
        core.set_priorities(*AFTER)

    core_sysfs, _ = _run(configs[0], _sysfs)
    core_direct, _ = _run(configs[0], direct)
    res_s, res_d = core_sysfs.result(), core_direct.result()
    strip = {"priority_changes": 0}
    assert dataclasses.replace(res_s, threads=tuple(
        dataclasses.replace(t, **strip) for t in res_s.threads)) == \
        dataclasses.replace(res_d, threads=tuple(
            dataclasses.replace(t, **strip) for t in res_d.threads))
