"""Differential exactness of the array engine.

The compiled-kernel engine (``CoreConfig.engine="array"``) carries the
repo's performance budget, so its guarantee is absolute: over the full
microbenchmark x priority matrix it must be **bit-identical** to the
object engine on every observable -- each ThreadResult counter, the
repetition time/retired series (hence the CPI stack and every figure),
the PMU counter bank and interval samples, and the byte representation
of whole sweeps whether computed serially or by worker processes.

Long runs stepped directly on the core compare the complete machine
state: an uninstrumented run, runs carrying periodic hooks (governor
epochs, interval samplers, mutating timers) and scheduled chip runs
must land on the object engine's state exactly, and a single large
``step`` call must match the same run chopped into runner-sized
chunks.  Static runs of the rep-gated FFT/LU software pipeline must
match too, with the FFT producer on compiled kernels.  At the
orchestration layer the ``governor`` experiment must render the same
report serially, with worker processes and through the HTTP service
backend.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.chip import Chip, ChipConfig
from repro.config import POWER5, CoreConfig
from repro.core import make_core
from repro.experiments.base import (
    ExperimentContext,
    pair_cell,
    priority_pair,
    single_cell,
)
from repro.experiments.parallel import PoolBackend
from repro.fame import FameRunner
from repro.governor import (
    Governor,
    GovernorConfig,
    IpcBalancePolicy,
    PrefetchAdaptPolicy,
)
from repro.microbench import MICROBENCHMARKS, make_microbenchmark
from repro.pmu import Pmu
from repro.pmu.sampling import IntervalSampler
from repro.sched import Job, OsScheduler, make_allocation_policy

SECONDARY_BASE = (1 << 27) + 8192

#: Every registered Table 2 micro-benchmark (15 of them).
BENCHES = tuple(sorted(MICROBENCHMARKS))

#: Priority assignments per ISSUE: single-thread plus three SMT pairs
#: covering equal, strongly-favoured and inverted priorities.
PRIORITIES = (None, (4, 4), (6, 1), (2, 5))


def _partner(bench: str) -> str:
    """A deterministic, varied sibling workload for pair cells."""
    i = BENCHES.index(bench)
    return BENCHES[(i + 4) % len(BENCHES)]


@pytest.fixture(scope="module")
def configs():
    """(array, object) config pair -- identical but for the engine."""
    array = POWER5.small()
    obj = dataclasses.replace(array, engine="object")
    assert array.engine == "array" and obj.engine == "object"
    return array, obj


def _run(config, bench, priorities, pmu=None):
    runner = FameRunner(config, min_repetitions=2, max_cycles=200_000)
    if priorities is None:
        return runner.run_single(make_microbenchmark(bench, config),
                                 pmu=pmu)
    return runner.run_pair(
        make_microbenchmark(bench, config),
        make_microbenchmark(_partner(bench), config,
                            base_address=SECONDARY_BASE),
        priorities=priorities, pmu=pmu)


@pytest.mark.parametrize("priorities", PRIORITIES,
                         ids=lambda p: "st" if p is None else f"{p[0]}_{p[1]}")
@pytest.mark.parametrize("bench", BENCHES)
def test_fame_results_identical_across_engines(configs, bench, priorities):
    """Every counter and repetition record matches the object engine.

    ``FameResult`` is a frozen value type wrapping ThreadResult (all 16
    counters, repetition end/retired series) and the convergence flags,
    so one equality assertion covers the complete measurement.
    """
    array_cfg, obj_cfg = configs
    array_fame = _run(array_cfg, bench, priorities)
    obj_fame = _run(obj_cfg, bench, priorities)
    assert array_fame == obj_fame
    assert array_fame.result.threads[0].retired > 0


#: Instrumented subset: the paper's six evaluated benchmarks, favoured
#: and inverted priorities, pinning the kernel path sample-by-sample.
PMU_MATRIX = [(b, p) for b in ("cpu_int", "cpu_fp", "ldint_l1",
                               "ldint_l2", "ldint_mem", "lng_chain_cpuint")
              for p in ((4, 4), (6, 1))]


@pytest.mark.parametrize("bench,priorities", PMU_MATRIX,
                         ids=[f"{b}-{p[0]}{p[1]}" for b, p in PMU_MATRIX])
def test_pmu_reports_identical_across_engines(configs, bench, priorities):
    """Counter bank, interval samples and telemetry are bit-equal."""
    array_cfg, obj_cfg = configs
    array_fame = _run(array_cfg, bench, priorities,
                      pmu=(array_pmu := Pmu(sample_period=1009)))
    obj_fame = _run(obj_cfg, bench, priorities,
                    pmu=(obj_pmu := Pmu(sample_period=1009)))
    assert array_fame == obj_fame
    array_report, obj_report = array_pmu.report(), obj_pmu.report()
    assert array_report == obj_report
    assert array_report.counter("PM_INST_CMPL", 0) > 0


#: Sweep cells for the serial-vs-workers identity: two singles plus
#: pairs over three priority differences.
SWEEP_CELLS = ([single_cell(b) for b in ("ldint_l1", "cpu_int")]
               + [pair_cell("cpu_int", "ldint_l1", priority_pair(d))
                  for d in (0, 2, -2)]
               + [pair_cell("ldint_l1", "cpu_int", priority_pair(d))
                  for d in (0, 2, -2)])


def test_array_sweep_serial_vs_jobs2_identical():
    """A two-worker array-engine sweep is byte-identical to serial."""
    serial = ExperimentContext(min_repetitions=2, max_cycles=300_000)
    workers = ExperimentContext(min_repetitions=2, max_cycles=300_000,
                                backend=PoolBackend(2))
    assert serial.config.engine == "array"
    assert serial.prefetch(SWEEP_CELLS) == len(SWEEP_CELLS)
    assert workers.prefetch(SWEEP_CELLS) == len(SWEEP_CELLS)
    assert list(serial._cache) == list(workers._cache)
    assert (repr(serial._cache).encode()
            == repr(workers._cache).encode())


# ----------------------------------------------------------------------
# Machine state of long direct runs
# ----------------------------------------------------------------------

def _loaded(config, secondary):
    core = make_core(config)
    sources = [make_microbenchmark("cpu_int", config)]
    if secondary:
        sources.append(make_microbenchmark(
            secondary, config, base_address=SECONDARY_BASE))
    core.load(sources, priorities=(4, 4))
    return core


def _direct_pair(config, priorities, hook_period=None, cap=120_000):
    """``ldint_mem`` + ``cpu_int`` stepped directly on the core.

    Returns the drained core and the hook's fire cycles.  The
    optional hook is a mutating (non-observer) timer that drops to the
    default pair and restores it on every third firing, so each firing
    voids any verified steady regime.
    """
    core = make_core(config)
    core.load([make_microbenchmark("ldint_mem", config),
               make_microbenchmark("cpu_int", config,
                                   base_address=SECONDARY_BASE)],
              priorities=priorities)
    fired: list[int] = []
    if hook_period:
        def hook(c, now):
            fired.append(now)
            if len(fired) % 3 == 0:
                p = c.priorities
                c.set_priorities(4, 4)
                c.set_priorities(*p)
        core.add_periodic_hook(hook_period, hook)
    while not core.all_finished() and core.cycle < cap:
        core.step(4096)
    core.drain()
    return core, tuple(fired)


@pytest.mark.parametrize("priorities", [(4, 4), (6, 1), (1, 6)])
def test_balancer_stats_identical_across_engines(configs, priorities):
    """Balancer stalls, flushes and throttles match the object engine.

    ``ldint_mem`` holds GCT entries across long DRAM misses, which is
    exactly what trips the resource balancer; the machine state
    compared here carries the balancer's stall/flush/throttle
    statistics and every slot-loss counter.
    """
    array_cfg, obj_cfg = configs
    array_core, _ = _direct_pair(array_cfg, priorities)
    obj_core, _ = _direct_pair(obj_cfg, priorities)
    assert array_core.state() == obj_core.state()
    # Where ldint_mem is not the favoured thread the balancer/GCT
    # pressure path must actually fire, otherwise this differential
    # proves nothing.  (At (6,1) the memory thread owns nearly every
    # slot and is never an offender.)
    if priorities[0] <= priorities[1]:
        stats = obj_core.balancer.stats
        assert sum(stats.stall_cycles) > 0 or sum(stats.flush_events) > 0


@pytest.mark.parametrize("period", [509, 1024])
def test_hooked_run_identical_across_engines(configs, period):
    """Mutating hooks fire on the same cycles with the same effects."""
    array_cfg, obj_cfg = configs
    array_core, array_fired = _direct_pair(array_cfg, (6, 1),
                                           hook_period=period)
    obj_core, obj_fired = _direct_pair(obj_cfg, (6, 1),
                                       hook_period=period)
    assert array_fired == obj_fired
    assert len(obj_fired) > 10
    assert array_core.state() == obj_core.state()


@pytest.mark.parametrize("secondary,horizon",
                         [(None, 300_000), ("ldint_l2", 400_000)],
                         ids=["st", "smt"])
def test_long_run_state_matches_object_engine(secondary, horizon):
    """A long array run's final state is the object engine's, exactly.

    Counters and repetition series must match bit-for-bit; time-stamped
    records (scoreboard, reservations, queue intervals) may differ only
    below ``now`` where staleness is unobservable -- ``SMTCore.state``
    includes them all, so any live divergence fails loudly.
    """
    config = CoreConfig()
    array = _loaded(config, secondary)
    array.step(horizon)
    obj = _loaded(dataclasses.replace(config, engine="object"), secondary)
    obj.step(horizon)
    assert array.state() == obj.state()


def test_state_invariant_to_step_chunking():
    """One big step call equals the same run in runner-sized chunks."""
    config = CoreConfig()
    one = _loaded(config, None)
    one.step(300_000)
    chunked = _loaded(config, None)
    for start in range(0, 300_000, 8192):
        chunked.step(min(8192, 300_000 - start))
    assert one.state() == chunked.state()


# ----------------------------------------------------------------------
# Governed, sampled and scheduled-chip runs
# ----------------------------------------------------------------------

#: Governor epoch of the governed direct runs (a dozen epochs).
EPOCH = 32_768


@pytest.mark.parametrize("policy_cls,secondary", [
    (IpcBalancePolicy, "cpu_int"),
    (PrefetchAdaptPolicy, "ldint_l2"),
], ids=["ipc_balance", "prefetch_adapt"])
def test_governed_run_bit_identical_across_engines(configs, policy_cls,
                                                   secondary):
    """Same decisions and same machine state on both engines.

    The decision log carries the epoch-boundary IPC readings each
    decision was based on, so a hook firing on a different cycle or
    seeing different counters fails here.
    """
    sigs = []
    for config in configs:
        core = _loaded(config, secondary)
        gcfg = GovernorConfig(epoch=EPOCH)
        gov = Governor(gcfg, policy_cls(gcfg))
        gov.attach(core)
        core.step(400_000)
        sigs.append((core.state(), repr(gov.decision_log())))
    assert sigs[0] == sigs[1]


@pytest.mark.parametrize("secondary", [None, "ldint_l2"], ids=["st", "smt"])
def test_sampled_run_bit_identical_across_engines(configs, secondary):
    """The interval-sample series and machine state match."""
    sigs = []
    for config in configs:
        core = _loaded(config, secondary)
        sampler = IntervalSampler(8192)
        sampler.attach(core)
        core.step(300_000)
        sigs.append((core.state(), repr(sampler.samples)))
    assert sigs[0] == sigs[1]


def test_scheduled_chip_run_bit_identical_across_engines(configs):
    """A 2-core scheduled run: every decision, account and counter.

    Scheduled cores carry the patched kernel's timer hook and a chip
    port, so this covers hooks and the shared bus together.
    """
    reprs = []
    for config in configs:
        chip = Chip(ChipConfig(n_cores=2, core=config))
        sched = OsScheduler(chip, make_allocation_policy("round_robin"),
                            quantum=32_768)
        result = sched.run([Job("cpu_int", repetitions=60)
                            for _ in range(4)])
        reprs.append(repr(result))
    assert reprs[0] == reprs[1]


#: Static pipeline runs: priority pairs at the default buffer depth,
#: plus the shallowest and a deeper buffer at equal priorities.
PIPELINE_RUNS = [((4, 4), 2), ((1, 6), 2), ((6, 1), 2), ((2, 5), 2),
                 ((5, 2), 2), ((4, 4), 1), ((4, 4), 3)]


@pytest.mark.parametrize("priorities,depth", PIPELINE_RUNS,
                         ids=[f"{p[0]}_{p[1]}-depth{d}"
                              for p, d in PIPELINE_RUNS])
def test_pipeline_bit_identical_across_engines(configs, monkeypatch,
                                               priorities, depth):
    """The rep-gated FFT/LU pipeline runs on the compiled kernels and
    lands on the object engine's result and machine state exactly."""
    from repro.workloads import pipeline

    cores = []

    def capture(config):
        cores.append(make_core(config))
        return cores[-1]

    monkeypatch.setattr(pipeline, "make_core", capture)
    sigs = []
    for config in configs:
        pipe = pipeline.SoftwarePipeline(config=config, buffer_depth=depth)
        result = pipe.run(priorities=priorities)
        sigs.append((result, cores[-1].state()))
    assert sigs[0] == sigs[1]
    # The array run must not fall back to reference decode: both
    # threads' traces (the FFT is ~9.4k instructions) bind kernels.
    array_core = cores[0]
    assert isinstance(array_core.thread(0).kernels, list)
    assert isinstance(array_core.thread(1).kernels, list)


def test_governor_experiment_serial_jobs_backend_identical(tmp_path):
    """The governor experiment renders one report on every path.

    Serial, ``--jobs 2`` (worker processes) and the HTTP service
    backend must agree byte for byte under the array engine.
    """
    from repro.experiments import run_many
    from repro.service import ServiceBackend
    from repro.service.server import ServerConfig, ServiceHandle

    def ctx(**kwargs):
        return ExperimentContext(config=POWER5.small(),
                                 min_repetitions=2,
                                 max_cycles=200_000, **kwargs)

    (serial,) = run_many(["governor"], ctx())
    (jobs2,) = run_many(["governor"], ctx(backend=PoolBackend(2)))
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
