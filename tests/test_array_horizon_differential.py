"""Horizon-bounded array stepping: the bit-identity matrix.

The steady-replay telescoper may now jump through runs that carry
periodic hooks (interval samplers, governor epochs, kernel timers) and
runs attached to a chip port.  Every observable of such a run --
retired counts, repetition logs, PMU sample series, governor decision
logs, chip schedule results -- must be bit-identical across:

- the array engine with telescoping (jumps clamp at hook horizons),
- the array engine with telescoping disabled (the dense fallback
  hooked runs used before horizon-bounded stepping), and
- the object engine (the per-cycle reference).

The experiment-level test at the bottom closes the loop at the
orchestration layer: the ``governor`` experiment must render the same
report serially, with worker processes, and through the HTTP service
backend (worker processes run the array engine too).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.chip import Chip, ChipConfig
from repro.config import POWER5
from repro.core import make_core
from repro.governor import (
    Governor,
    GovernorConfig,
    IpcBalancePolicy,
    PrefetchAdaptPolicy,
)
from repro.microbench import make_microbenchmark
from repro.pmu.sampling import IntervalSampler
from repro.sched import Job, OsScheduler, make_allocation_policy

SECONDARY_BASE = (1 << 27) + 8192

#: Below the cpu_int+cpu_int machine-state period (28k+ cycles), so a
#: telescoped governed run really jumps between epochs.
EPOCH = 32_768

#: (engine, telescope) arms of the matrix.  ``telescope`` only means
#: anything on the array engine; the object engine has no telescoper.
ARMS = (("array", True), ("array", False), ("object", False))


def _cfg(engine):
    return dataclasses.replace(POWER5.small(), engine=engine)


def _loaded_core(engine, names, priorities=(4, 4), telescope=True):
    config = _cfg(engine)
    core = make_core(config)
    sources = [make_microbenchmark(names[0], config)]
    if len(names) > 1:
        sources.append(make_microbenchmark(names[1], config,
                                           base_address=SECONDARY_BASE))
    core.load(sources, priorities=priorities)
    if engine == "array":
        core.steady_replay = telescope
    return core


def _core_sig(core):
    """Every per-thread observable a jump could corrupt."""
    sig = [core.cycle]
    for th in core._threads:
        if th is None:
            sig.append(None)
            continue
        sig.append((th.retired, th.decoded, th.owned_slots,
                    th.wasted_slots, th.slots_lost_gct,
                    th.slots_lost_stall, th.stall_until, th.pos,
                    tuple(th.rep_end_times), tuple(th.rep_end_retired),
                    tuple(th.rep_start_times)))
    stats = core.balancer.stats
    sig.append(tuple(tuple(getattr(stats, n)) for n in (
        "stall_events", "stall_cycles", "flush_events", "flushed_groups",
        "throttle_windows")))
    return tuple(sig)


# -- governed runs ------------------------------------------------------


def _governed_sig(engine, telescope, policy_cls, names):
    core = _loaded_core(engine, names, telescope=telescope)
    gcfg = GovernorConfig(epoch=EPOCH)
    gov = Governor(gcfg, policy_cls(gcfg))
    gov.attach(core)
    core.step(400_000)
    return _core_sig(core), repr(gov.decision_log())


@pytest.mark.parametrize("policy_cls,names", [
    (IpcBalancePolicy, ("cpu_int", "cpu_int")),
    (PrefetchAdaptPolicy, ("cpu_int", "ldint_l2")),
], ids=["ipc_balance", "prefetch_adapt"])
def test_governed_run_bit_identical_across_engines(policy_cls, names):
    """Same decisions, same machine state, hooks or not.

    The governor's epoch hook is an observer whose actuations void
    regimes through the arbiter/knob generations, so a telescoped run
    must reproduce the dense decision log exactly -- including the
    epoch-boundary IPC readings each decision was based on.
    """
    sigs = [_governed_sig(engine, tele, policy_cls, names)
            for engine, tele in ARMS]
    assert sigs[0] == sigs[1] == sigs[2]


# -- sampled runs -------------------------------------------------------


@pytest.mark.parametrize("names", [("cpu_int",), ("cpu_int", "ldint_l2")],
                         ids=["st", "smt"])
def test_sampled_run_bit_identical_across_engines(names):
    """The interval-sample series survives telescoping untouched."""
    sigs = []
    for engine, tele in ARMS:
        core = _loaded_core(engine, names, telescope=tele)
        sampler = IntervalSampler(8192)
        sampler.attach(core)
        core.step(300_000)
        sigs.append((_core_sig(core), repr(sampler.samples)))
    assert sigs[0] == sigs[1] == sigs[2]


# -- scheduled chip runs ------------------------------------------------


def test_scheduled_chip_run_bit_identical_across_engines():
    """A 2-core scheduled run: every decision, account and counter.

    Scheduled cores carry the patched kernel's timer hook and a chip
    port, the two attachments that used to force the array engine
    dense; the large quantum gives the chip's adaptive bus-quiet
    slicing room to engage on the array arm.
    """
    reprs = []
    for engine in ("array", "object"):
        chip = Chip(ChipConfig(n_cores=2, core=_cfg(engine)))
        sched = OsScheduler(chip, make_allocation_policy("round_robin"),
                            quantum=32_768)
        result = sched.run([Job("cpu_int", repetitions=60)
                            for _ in range(4)])
        reprs.append(repr(result))
    assert reprs[0] == reprs[1]


# -- experiment-level transparency --------------------------------------


def test_governor_experiment_serial_jobs_backend_identical(tmp_path):
    """The governor experiment renders one report on every path.

    Serial, ``--jobs 2`` (worker processes) and the HTTP service
    backend must agree byte for byte under the array engine -- the
    workers and the service workers all step governed cells through
    horizon-bounded array runs.
    """
    from repro.experiments import run_many
    from repro.experiments.base import ExperimentContext
    from repro.service import ServiceBackend
    from repro.service.server import ServerConfig, ServiceHandle

    def ctx(**kwargs):
        return ExperimentContext(config=POWER5.small(),
                                 min_repetitions=2,
                                 max_cycles=200_000, **kwargs)

    (serial,) = run_many(["governor"], ctx())
    (jobs2,) = run_many(["governor"], ctx(jobs=2))
    assert repr(jobs2) == repr(serial)

    handle = ServiceHandle(ServerConfig(
        port=0, workers=2, cache_dir=str(tmp_path / "svc-cache"),
        retry_backoff=0.05)).start()
    try:
        (remote,) = run_many(
            ["governor"], ctx(backend=ServiceBackend(handle.url)))
    finally:
        handle.stop()
    assert repr(remote) == repr(serial)
