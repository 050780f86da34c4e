"""The worker-pool executor: missed cells on local processes.

Every sweep cell is an independent, deterministic simulation.  All
executors behind ``ExperimentContext.backend`` share one contract --
``compute_cells(ctx, keys)`` yields ``(key, value)`` in input order --
and the context keeps the simcache lookup and store above them:
``None`` computes serially in-process, :class:`PoolBackend` on
``--jobs N`` worker processes and :class:`repro.service.ServiceBackend`
on a job server (``--backend``).

Each pool worker rebuilds the context from ``ctx.spec()``, so it
simulates a cell exactly as a serial run would, and ``executor.map``
yields in submission order, so the cache fills identically to a
serial run (asserted by the test-suite).  Workers are forked per
:meth:`PoolBackend.compute_cells` call; each keeps one private
context, so trace construction amortises across the cells it serves.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor

from repro.experiments.base import ExperimentContext, serial_cells
from repro.simcache import check_versions, versions

#: The per-process context, created by the pool initializer.
_WORKER_CTX = None


def _init_worker(spec: dict, coordinator_versions: dict) -> None:
    mismatch = check_versions(coordinator_versions)
    if mismatch is not None:
        raise RuntimeError(mismatch)
    global _WORKER_CTX
    _WORKER_CTX = ExperimentContext.from_spec(spec)


def _run_cell(key: tuple):
    return _WORKER_CTX.compute_cell(key)


class PoolBackend:
    """Compute missed cells on ``jobs`` worker processes (0 = all cores).

    A batch that would occupy one worker is computed in-process:
    forking buys nothing for it.
    """

    def __init__(self, jobs: int = 0) -> None:
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0 (0 = all cores), got {jobs}")
        self.jobs = jobs

    def compute_cells(self, ctx: ExperimentContext,
                      keys: Iterable[tuple]) -> Iterator[tuple[tuple, object]]:
        """Yield ``(key, value)`` for every key, in input order."""
        keys = list(keys)
        workers = min(self.jobs or os.cpu_count() or 1, len(keys))
        if workers <= 1:
            yield from serial_cells(ctx, keys)
            return
        with ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker,
                initargs=(ctx.spec(), versions())) as pool:
            yield from zip(keys, pool.map(_run_cell, keys))
