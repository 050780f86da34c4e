"""Executor equivalence: where a missed cell is computed never shows.

Every executor behind ``ExperimentContext.backend`` -- serial (``None``),
a ``--jobs`` pool (2 workers, all cores) and a job server over HTTP --
must fill the context cache in the same order with byte-identical
values.  The service client has no local simcache, so its values
arrive over ``/entry`` and are key-verified.
"""

from __future__ import annotations

import functools

import pytest

from repro.experiments import (
    ExperimentContext,
    chip_cell,
    governed_cell,
    pair_cell,
    single_cell,
)
from repro.experiments.parallel import PoolBackend
from repro.service import ServiceBackend
from repro.service.server import ServerConfig, ServiceHandle

#: One cell of every kind: the governed key embeds a float, and the
#: chip cell runs under the context's per-core ipc_balance governor.
CELLS = [
    single_cell("cpu_int"),
    pair_cell("cpu_int", "ldint_l2", (6, 2)),
    governed_cell("cpu_int", "ldint_l2", (4, 4), "transparent",
                  {"st_ipc": 0.123456789012}),
    chip_cell("spec", "round_robin", 2, 1),
]

#: A plain context and a PMU-instrumented, interval-sampled one.
SPECS = {"plain": {}, "pmu": {"pmu": True, "pmu_sample": 1009}}


def _ctx(**kwargs) -> ExperimentContext:
    return ExperimentContext(min_repetitions=2, max_cycles=200_000,
                             chip_quota=1, chip_governor="ipc_balance",
                             governor_epoch=400, **kwargs)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    handle = ServiceHandle(ServerConfig(
        port=0, workers=2, retry_backoff=0.05,
        cache_dir=str(tmp_path_factory.mktemp("svc")))).start()
    yield handle
    handle.stop()


@functools.cache
def _serial_cache(spec: str) -> dict:
    ctx = _ctx(**SPECS[spec])
    ctx.prefetch(CELLS)
    return ctx._cache


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("executor", ["serial", "pool2", "pool_all",
                                      "service"])
def test_executors_fill_cache_identically(executor, spec, service):
    backend = {"serial": None, "pool2": PoolBackend(2),
               "pool_all": PoolBackend(0),
               "service": ServiceBackend(service.url)}[executor]
    ctx = _ctx(backend=backend, **SPECS[spec])
    assert ctx.prefetch(CELLS) == len(CELLS)
    reference = _serial_cache(spec)
    assert list(ctx._cache) == list(reference)
    assert repr(ctx._cache).encode() == repr(reference).encode()
    if spec == "pmu":  # the comparison covers real counter banks
        assert all(ctx._cache[key].pmu is not None for key in CELLS[:3])
