"""Differential exactness of the prefetch subsystem.

The stream/stride prefetcher lives entirely on the L1-miss path of
``MemoryHierarchy.load_complete``.  L1D hits resolve inside the
compiled kernels; every L1 miss still enters ``load_complete``, so the
miss-triggered prefetcher is unchanged and its behaviour must be
**bit-identical** across both simulation engines -- the per-cycle
object reference loop and the compiled array engine -- on every
observable: each FameResult counter and repetition series, the PMU counter bank
(including all five ``PM_PREF_*`` events) and interval samples, and
the byte representation of whole sweeps whether computed serially, by
worker processes, or through the HTTP service backend.

A second battery compares long prefetch-enabled runs directly on the
core: stream tables, in-flight fills and all prefetch statistics must
match the object engine after 400k cycles, and a single large ``step``
call must equal the same run chopped into runner-sized chunks.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import POWER5, CoreConfig
from repro.core import make_core
from repro.experiments.base import (
    ExperimentContext,
    pair_cell,
    single_cell,
)
from repro.experiments.parallel import PoolBackend
from repro.fame import FameRunner
from repro.microbench import make_microbenchmark
from repro.pmu import Pmu
from repro.prefetch import PrefetchConfig
from repro.service import ServiceBackend
from repro.service.server import ServerConfig, ServiceHandle

SECONDARY_BASE = (1 << 27) + 8192

#: The experiment's two characterization pairs plus a cache-resident
#: pair that exercises the useless-fill filter.
PAIRS = (("cpu_int", "ldint_mem"), ("ldint_mem", "ldint_mem"),
         ("ldint_l2", "cpu_int"))

PRIORITIES = ((4, 4), (6, 1))

#: Default experiment knobs: deep enough to keep fills in flight.
PREFETCH = PrefetchConfig(enabled=(True, True), depth=4, degree=2)


def _pf(config: CoreConfig) -> CoreConfig:
    return config.replace(prefetch=PREFETCH)


@pytest.fixture(scope="module")
def configs():
    """(array, object) configs, prefetch on everywhere."""
    array = _pf(POWER5.small())
    obj = dataclasses.replace(array, engine="object")
    assert array.engine == "array"
    return array, obj


def _run(config, pair, priorities, pmu=None):
    runner = FameRunner(config, min_repetitions=2, max_cycles=200_000)
    primary, secondary = pair
    if secondary is None:
        return runner.run_single(make_microbenchmark(primary, config),
                                 pmu=pmu)
    return runner.run_pair(
        make_microbenchmark(primary, config),
        make_microbenchmark(secondary, config,
                            base_address=SECONDARY_BASE),
        priorities=priorities, pmu=pmu)


# ----------------------------------------------------------------------
# Engine bit-identity with the prefetcher live
# ----------------------------------------------------------------------

MATRIX = ([(p, prio) for p in PAIRS for prio in PRIORITIES]
          + [((b, None), None) for b in ("ldint_l2", "ldint_mem")])


@pytest.mark.parametrize(
    "pair,priorities", MATRIX,
    ids=[f"{p[0]}+{p[1] or 'st'}-{prio[0]}{prio[1] if prio else ''}"
         if prio else f"{p[0]}-st" for p, prio in MATRIX])
def test_prefetch_results_identical_across_engines(configs, pair,
                                                   priorities):
    """Both engines agree on every counter and repetition record."""
    array_cfg, obj_cfg = configs
    array_fame = _run(array_cfg, pair, priorities)
    obj_fame = _run(obj_cfg, pair, priorities)
    assert array_fame == obj_fame
    assert array_fame.result.threads[0].retired > 0


@pytest.mark.parametrize("pair,priorities",
                         [(("cpu_int", "ldint_mem"), (6, 1)),
                          (("ldint_mem", "ldint_mem"), (4, 4))],
                         ids=["cpu_int+ldint_mem-61",
                              "ldint_mem+ldint_mem-44"])
def test_prefetch_pmu_reports_identical_across_engines(configs, pair,
                                                       priorities):
    """PM_PREF_* banks and interval samples are bit-equal and live."""
    reports = []
    for config in configs:
        pmu = Pmu(sample_period=1009)
        fames = _run(config, pair, priorities, pmu=pmu)
        reports.append((fames, pmu.report()))
    (array_fame, array_report), (_, obj_report) = reports
    assert array_report == obj_report
    assert array_fame.result.threads[0].retired > 0

    def total(event):
        return (array_report.counter(event, 0)
                + array_report.counter(event, 1))

    # The run must actually exercise the engine end to end: fills
    # issued, some consumed fully-hidden, and the filter/drop path hit.
    assert total("PM_PREF_ALLOC") > 0
    assert total("PM_PREF_ISSUE") > 0
    assert total("PM_LD_PREF_HIT") + total("PM_PREF_LATE") > 0
    assert len(array_report.samples) > 0


# ----------------------------------------------------------------------
# Serial vs worker processes vs service backend
# ----------------------------------------------------------------------

SWEEP_CELLS = ([single_cell(b) for b in ("ldint_mem", "cpu_int")]
               + [pair_cell("cpu_int", "ldint_mem", p)
                  for p in ((4, 4), (6, 1), (1, 6))]
               + [pair_cell("ldint_mem", "ldint_mem", p)
                  for p in ((4, 4), (6, 1))])


def _ctx(**kwargs) -> ExperimentContext:
    return ExperimentContext(config=_pf(POWER5.small()),
                             min_repetitions=2, max_cycles=200_000,
                             **kwargs)


def test_prefetch_sweep_serial_vs_jobs2_identical():
    """A 2-worker sweep of prefetch-enabled cells is byte-identical."""
    serial = _ctx()
    workers = _ctx(backend=PoolBackend(2))
    assert serial.prefetch(SWEEP_CELLS) == len(SWEEP_CELLS)
    assert workers.prefetch(SWEEP_CELLS) == len(SWEEP_CELLS)
    assert list(serial._cache) == list(workers._cache)
    assert (repr(serial._cache).encode()
            == repr(workers._cache).encode())


def test_prefetch_backend_identical_to_serial(tmp_path):
    """Prefetch knobs survive the wire: a service-backed run returns
    byte-identical values, so ``ExperimentContext.spec`` carries the
    nested PrefetchConfig faithfully."""
    handle = ServiceHandle(ServerConfig(
        port=0, workers=2, cache_dir=str(tmp_path / "svc-cache"),
        retry_backoff=0.05)).start()
    try:
        serial = _ctx()
        remote = _ctx(backend=ServiceBackend(handle.url))
        for key in (pair_cell("cpu_int", "ldint_mem", (6, 1)),
                    single_cell("ldint_mem")):
            assert repr(remote.cell(key)) == repr(serial.cell(key))
    finally:
        handle.stop()


# ----------------------------------------------------------------------
# Long runs with the prefetcher live
# ----------------------------------------------------------------------


def _loaded(config, bench):
    core = make_core(config)
    core.load([make_microbenchmark(bench, config)], priorities=(4, 4))
    return core


#: Memory-resident walks exercising fills against every level below
#: L1: the L2-resident walk takes the useless-filter path, the others
#: the LMQ/DRAM fill path.
LONG_RUN_BENCHES = ("ldint_l2", "ldint_l3", "ldint_mem")


@pytest.mark.parametrize("bench", LONG_RUN_BENCHES)
def test_prefetch_long_run_state_matches_object_engine(bench):
    """A long prefetch-enabled array run lands on the object state."""
    config = _pf(CoreConfig())
    array = _loaded(config, bench)
    array.step(400_000)
    obj = _loaded(dataclasses.replace(config, engine="object"), bench)
    obj.step(400_000)
    assert array.state() == obj.state()
    # The engine must have been live, not idle.
    assert sum(array.hierarchy.prefetcher.stats.issues) > 0


@pytest.mark.parametrize("bench", LONG_RUN_BENCHES)
def test_prefetch_state_invariant_to_step_chunking(bench):
    """One big step equals the same run in runner-sized chunks."""
    config = _pf(CoreConfig())
    one = _loaded(config, bench)
    one.step(400_000)
    chunked = _loaded(config, bench)
    for start in range(0, 400_000, 8192):
        chunked.step(min(8192, 400_000 - start))
    assert one.state() == chunked.state()
