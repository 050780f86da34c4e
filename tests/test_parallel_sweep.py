"""Sweep prefetching and the cross-run trace cache.

The Layer-2 speedups -- worker-process sweeps and memoised trace
construction -- must be invisible in the results: a two-worker
``PoolBackend`` sweep has to be byte-identical to the serial one, and a
cached trace must behave exactly like a freshly built one (and never be
mutated by a run).  Every executor kind on a smaller mixed cell set is
compared in ``tests/test_executors.py``.
"""

from __future__ import annotations

import dataclasses

from repro.config import POWER5
from repro.experiments.base import (
    ExperimentContext,
    pair_cell,
    priority_pair,
    single_cell,
)
from repro.experiments.parallel import PoolBackend
from repro.fame import FameRunner
from repro.workloads import cached_workload
from repro.workloads.tracecache import cache_info, clear_cache

#: A small but representative cell set: two singles plus pairs over
#: three priority differences (12 pair cells).
BENCHES = ("ldint_l1", "cpu_int")
CELLS = ([single_cell(b) for b in BENCHES]
         + [pair_cell(p, s, priority_pair(d))
            for p in BENCHES for s in BENCHES for d in (0, 2, -2)])


def test_parallel_sweep_identical_to_serial():
    """A two-worker prefetch fills the cache byte-identically to serial."""
    serial = ExperimentContext(min_repetitions=2, max_cycles=300_000)
    parallel = ExperimentContext(min_repetitions=2, max_cycles=300_000,
                                 backend=PoolBackend(2))
    assert serial.prefetch(CELLS) == len(CELLS)
    assert parallel.prefetch(CELLS) == len(CELLS)
    assert list(serial._cache) == list(parallel._cache)  # same order
    assert serial._cache == parallel._cache              # same values
    # Byte-identical representation: the dataclasses are all frozen
    # value types, so equal reprs means every field (including floats)
    # is exactly the same bit pattern.
    assert (repr(serial._cache).encode()
            == repr(parallel._cache).encode())


def test_prefetch_is_idempotent_and_feeds_accessors():
    """A second prefetch computes nothing; accessors hit the cache."""
    ctx = ExperimentContext(min_repetitions=2, max_cycles=300_000)
    assert ctx.prefetch(CELLS) == len(CELLS)
    assert ctx.prefetch(CELLS) == 0
    before = ctx.cached_runs()
    pm = ctx.pair("ldint_l1", "cpu_int", priority_pair(2))
    st = ctx.single("cpu_int")
    assert ctx.cached_runs() == before  # no new simulations
    assert pm.priorities == priority_pair(2)
    assert st.workload == "cpu_int"


# ----------------------------------------------------------------------
# Trace cache
# ----------------------------------------------------------------------


def test_trace_cache_hits_on_same_fingerprint():
    clear_cache()
    config = POWER5.small()
    first = cached_workload("cpu_int", config)
    again = cached_workload("cpu_int", config)
    assert again is first
    # A *distinct but equal* config object hits too: the key is the
    # semantic fingerprint, not object identity.
    clone = dataclasses.replace(config)
    assert cached_workload("cpu_int", clone) is first
    info = cache_info()
    assert info["misses"] == 1 and info["hits"] == 2


def test_trace_cache_misses_on_config_and_address():
    clear_cache()
    small = POWER5.small()
    full = POWER5.default()
    a = cached_workload("ldint_l2", small)
    b = cached_workload("ldint_l2", full)
    c = cached_workload("ldint_l2", small, base_address=1 << 20)
    assert a is not b and a is not c and b is not c
    assert cache_info()["misses"] == 3


def test_trace_cache_ignores_engine_switch():
    """engine is an engine switch, not a workload parameter."""
    clear_cache()
    array = POWER5.small()
    obj = dataclasses.replace(array, engine="object")
    assert cached_workload("cpu_fp", array) is cached_workload("cpu_fp",
                                                               obj)


def test_cached_trace_not_mutated_by_a_run():
    """Runs consume copies; the cached source stays pristine."""
    clear_cache()
    config = POWER5.small()
    workload = cached_workload("ldint_l1", config)
    snapshot = tuple(workload.repetition(0))
    runner = FameRunner(config, min_repetitions=2, max_cycles=200_000)
    first = runner.run_single(workload)
    assert cached_workload("ldint_l1", config) is workload
    assert tuple(workload.repetition(0)) == snapshot
    # And a rerun from the same cached source reproduces the result.
    assert runner.run_single(workload) == first
