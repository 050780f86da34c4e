"""Warm persistent worker pool of the simulation service.

The local executor (:class:`repro.experiments.parallel.PoolBackend`)
forks a fresh pool per sweep batch and ships every measurement value
back through a pipe as a pickle.  The service pool inverts both
decisions:

- **warm and persistent** -- workers live as long as the server.  Each
  keeps one :class:`ExperimentContext` per submitted spec, so trace
  construction, compiled kernels and the in-memory cell cache stay
  warm across every cell the worker ever serves, for every client.
- **no pickle-over-pipe transport** -- a worker upserts each result
  straight into the shared persistent simcache (the same SQLite
  database a local run writes) and reports only ``(worker_id, digest,
  error)`` over the result queue.  Values never cross a pipe;
  clients resolve digests from the cache or over HTTP.

Workers are started via the ``forkserver`` context where available:
the server forks from an asyncio process that also runs threads (the
result pump), and forking a threaded parent risks inheriting held
locks.  Crash recovery is the server's job -- the pool only exposes
liveness and replacement primitives.
"""

from __future__ import annotations

import multiprocessing
import os
import time


def default_workers() -> int:
    """Worker count used for ``workers=0`` (all available cores)."""
    return os.cpu_count() or 1


def _mp_context():
    try:
        return multiprocessing.get_context("forkserver")
    except ValueError:  # platform without forkserver
        return multiprocessing.get_context()


def worker_main(worker_id: int, task_queue, result_queue,
                cache_dir) -> None:
    """Loop: take ``(digest, spec, wire_key)`` tasks until ``None``.

    The worker recomputes the cell's cache key itself and refuses a
    task whose dispatched digest does not match -- the digest is the
    contract under which the client will fetch the result, so a
    divergence (version skew, nondeterministic keying) must surface as
    an error, not a silently misplaced entry.
    """
    from repro.experiments.base import ExperimentContext
    from repro.service.protocol import decode_cell, spec_fingerprint
    from repro.simcache import SimCache
    cache = SimCache(cache_dir)
    contexts: dict = {}
    while True:
        task = task_queue.get()
        if task is None:
            break
        digest, spec, wire_key = task
        try:
            fingerprint = spec_fingerprint(spec)
            ctx = contexts.get(fingerprint)
            if ctx is None:
                ctx = ExperimentContext.from_spec(spec, simcache=cache)
                contexts[fingerprint] = ctx
            key = decode_cell(wire_key)
            cache_key = ctx._simcache_key(key)
            stored = SimCache.key_digest(cache_key)
            if stored != digest:
                raise RuntimeError(
                    f"cache-key digest mismatch: dispatched "
                    f"{digest[:12]}, computed {stored[:12]}")
            value = ctx.compute_cell(key)
            cache.store(cache_key, value)
            error = None
        except Exception as exc:  # report, never die
            error = f"{type(exc).__name__}: {exc}"
        result_queue.put((worker_id, digest, error))
    cache.flush_stats()
    cache.close()


class WorkerHandle:
    """One persistent worker process and its private task queue."""

    def __init__(self, worker_id: int, process, task_queue) -> None:
        self.id = worker_id
        self.process = process
        self.task_queue = task_queue
        self.busy: str | None = None  # digest in flight
        self.dispatched_at = 0.0
        self.started_at = time.monotonic()
        self.completed = 0

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def throughput(self) -> float:
        """Completed cells per second over this worker's lifetime."""
        elapsed = time.monotonic() - self.started_at
        return self.completed / elapsed if elapsed > 0 else 0.0


class WorkerPool:
    """Fixed-size pool of persistent workers with explicit dispatch.

    Dispatch is per-worker (each has a private task queue) so the
    server always knows which cell a crashed worker was computing --
    the information a shared work-stealing queue loses exactly when it
    is needed for requeueing.
    """

    def __init__(self, size: int, cache_dir) -> None:
        self._mp = _mp_context()
        self.size = size if size > 0 else default_workers()
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.result_queue = self._mp.Queue()
        self.workers: dict[int, WorkerHandle] = {}
        self._next_id = 0
        for _ in range(self.size):
            self.spawn()

    def spawn(self) -> WorkerHandle:
        """Start one worker and register its handle."""
        worker_id = self._next_id
        self._next_id += 1
        task_queue = self._mp.Queue()
        process = self._mp.Process(
            target=worker_main,
            args=(worker_id, task_queue, self.result_queue,
                  self.cache_dir),
            name=f"power5-svc-w{worker_id}",
            daemon=True)
        process.start()
        handle = WorkerHandle(worker_id, process, task_queue)
        self.workers[worker_id] = handle
        return handle

    def idle(self) -> list[WorkerHandle]:
        """Alive workers with nothing in flight."""
        return [h for h in self.workers.values()
                if h.busy is None and h.alive]

    def dispatch(self, handle: WorkerHandle, digest: str, spec: dict,
                 wire_key) -> None:
        handle.busy = digest
        handle.dispatched_at = time.monotonic()
        handle.task_queue.put((digest, spec, wire_key))

    def complete(self, worker_id: int) -> None:
        handle = self.workers.get(worker_id)
        if handle is not None:
            handle.busy = None
            handle.completed += 1

    def discard(self, handle: WorkerHandle) -> None:
        """Forget a dead worker (kill it first if somehow alive)."""
        self.workers.pop(handle.id, None)
        if handle.process.is_alive():
            handle.process.kill()
        handle.process.join(timeout=1.0)
        handle.task_queue.close()

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop every worker: sentinel, join, then force-kill leftovers."""
        for handle in self.workers.values():
            if handle.alive:
                try:
                    handle.task_queue.put(None)
                except (OSError, ValueError):
                    pass
        deadline = time.monotonic() + timeout
        for handle in self.workers.values():
            handle.process.join(
                timeout=max(0.1, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=1.0)
            handle.task_queue.close()
        self.workers.clear()
        self.result_queue.close()
