"""Asyncio job server: simulation-as-a-service over JSON/HTTP.

One event loop owns all scheduling state, so single-flight dedup needs
no locks: a submission is registered atomically between awaits.  Every
submitted cell resolves through a three-level waterfall --

1. **persistent simcache hit** -- the cell was computed in any earlier
   run (by anyone); it is ``done`` before the response is sent.
2. **in-flight hit (single-flight)** -- another client already queued
   or is computing the identical cell (same spec, same key, therefore
   same digest); the job attaches to the existing cell and N
   overlapping sweeps cost one computation.
3. **dispatch** -- the cell is queued for the warm persistent worker
   pool.  Workers persist results into the shared simcache and report
   digests only.

Robustness follows the measurement-discipline rule that a run is only
valid when it completes under its contract: per-cell timeouts, bounded
retries with exponential backoff, worker-crash detection with cell
requeue (re-checking the simcache first -- a worker killed after its
committed store but before its report costs nothing), and graceful drain
on SIGTERM (stop accepting, finish everything in flight, stop workers,
flush stats).  ``/metrics`` exposes queue depth, in-flight cells,
dedup hit-rate and per-worker throughput; ``/healthz`` is a liveness
probe; ``POST /inject-crash`` is a fault-injection hook (kills the
worker of the next dispatched cell) used by the crash-recovery tests
and CI.

The HTTP layer is a deliberately minimal, dependency-free HTTP/1.1
implementation on ``asyncio.start_server`` (no ``http.server``, which
is thread-per-request and synchronous).  Its request reader fails
safe on hostile input: a request not received within
:data:`READ_TIMEOUT_S` gets 408, headers beyond :data:`MAX_HEADER_BYTES`
or a body beyond :data:`MAX_BODY_BYTES` get 413, and a malformed
``Content-Length`` or ``/entry`` digest gets 400.  The service still
trusts its network: it moves pickles and executes simulation plans, so
run it inside the same trust domain you would share a cache directory
with.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import re
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.service import protocol
from repro.service.workers import WorkerPool
from repro.simcache import SimCache, check_versions

#: Cell lifecycle states (also the wire vocabulary of /status and
#: /results).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: Seconds a client has to deliver its request line, headers and body.
READ_TIMEOUT_S = 10.0
#: Bound on the request line plus headers, and on the request body.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 16 * 1024 * 1024

#: A simcache entry name: the hex SHA-256 of its key.
_DIGEST_RE = re.compile(r"[0-9a-f]{64}")


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one server instance."""

    host: str = "127.0.0.1"
    port: int = 8765
    #: Persistent simulation workers (0 = all available cores).
    workers: int = 2
    #: Wall-clock budget per dispatched cell; an overrun kills the
    #: worker and requeues the cell (counted as a timeout + retry).
    cell_timeout: float = 300.0
    #: Retries per cell before it is reported failed.
    max_retries: int = 3
    #: Base of the exponential requeue backoff (seconds).
    retry_backoff: float = 0.25
    #: Simcache directory (None = the default resolution).
    cache_dir: str | None = None


class _Cell:
    """One unique (spec, key) computation, shared by any many jobs."""

    __slots__ = ("digest", "spec", "wire_key", "cache_key", "state",
                 "retries", "error", "worker")

    def __init__(self, digest, spec, wire_key, cache_key, state):
        self.digest = digest
        self.spec = spec
        self.wire_key = wire_key
        self.cache_key = cache_key
        self.state = state
        self.retries = 0
        self.error = ""
        self.worker: int | None = None


class _Job:
    """One client submission: an ordered view over shared cells."""

    __slots__ = ("id", "digests", "created")

    def __init__(self, job_id: str, digests: list[str]) -> None:
        self.id = job_id
        self.digests = digests
        self.created = time.monotonic()


class ServiceServer:
    """The job server.  Create, ``await start()``, ``await drain()``."""

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        self.simcache = SimCache(self.config.cache_dir)
        self.port: int | None = None  # actual port once listening
        self._cells: dict[str, _Cell] = {}
        self._jobs: dict[str, _Job] = {}
        self._queue: deque[str] = deque()
        self._counters = {
            "submitted": 0, "cached": 0, "coalesced": 0, "queued": 0,
            "computed": 0, "crashes": 0, "retries": 0, "timeouts": 0,
            "failed": 0, "injected_crashes": 0,
        }
        self._keying: dict[str, object] = {}
        self._keying_lock = threading.Lock()
        self._draining = False
        self._drained = asyncio.Event()
        self._wake = asyncio.Event()
        self._crash_injections = 0
        self._started = time.monotonic()
        self._tasks: list[asyncio.Task] = []
        self._pump_stop = threading.Event()
        self._server: asyncio.AbstractServer | None = None
        self.pool: WorkerPool | None = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket, start workers and the scheduler tasks."""
        loop = asyncio.get_running_loop()
        self.pool = WorkerPool(self.config.workers,
                               self.config.cache_dir)
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=MAX_HEADER_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]
        pump = threading.Thread(target=self._result_pump, args=(loop,),
                                name="power5-svc-pump", daemon=True)
        pump.start()
        self._tasks = [loop.create_task(self._dispatcher()),
                       loop.create_task(self._monitor())]

    async def drain(self) -> None:
        """Graceful shutdown: finish in-flight work, then stop.

        New submissions are rejected with 503 the moment draining
        starts; status/results/metrics stay available throughout so
        clients of in-flight jobs can still collect.
        """
        self._draining = True
        self._wake.set()
        while any(cell.state in (QUEUED, RUNNING)
                  for cell in self._cells.values()):
            await asyncio.sleep(0.05)
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            with contextlib.suppress(asyncio.CancelledError):
                await task
        self._pump_stop.set()
        if self.pool is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self.pool.shutdown)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.simcache.flush_stats()
        self.simcache.close()
        self._drained.set()

    # -- scheduling -----------------------------------------------------

    async def _dispatcher(self) -> None:
        """Assign queued cells to idle workers; inject test crashes."""
        while True:
            await self._wake.wait()
            self._wake.clear()
            while self._queue:
                idle = self.pool.idle()
                if not idle:
                    break
                digest = self._queue.popleft()
                cell = self._cells.get(digest)
                if cell is None or cell.state != QUEUED:
                    continue
                handle = idle[0]
                cell.state = RUNNING
                cell.worker = handle.id
                self.pool.dispatch(handle, digest, cell.spec,
                                   cell.wire_key)
                if self._crash_injections > 0:
                    self._crash_injections -= 1
                    self._counters["injected_crashes"] += 1
                    handle.process.kill()

    async def _monitor(self) -> None:
        """Detect dead workers and per-cell timeouts; keep pool full."""
        while True:
            await asyncio.sleep(0.05)
            for handle in list(self.pool.workers.values()):
                if not handle.alive:
                    busy = handle.busy
                    handle.busy = None
                    self.pool.discard(handle)
                    if not self._draining:
                        self.pool.spawn()
                    if busy is not None:
                        self._counters["crashes"] += 1
                        cell = self._cells.get(busy)
                        if cell is not None and cell.state == RUNNING:
                            self._retry_or_fail(cell, "worker crashed")
                    self._wake.set()
                elif (handle.busy is not None
                      and self.config.cell_timeout > 0
                      and (time.monotonic() - handle.dispatched_at
                           > self.config.cell_timeout)):
                    self._counters["timeouts"] += 1
                    cell = self._cells.get(handle.busy)
                    handle.busy = None
                    handle.process.kill()  # next tick discards+respawns
                    if cell is not None and cell.state == RUNNING:
                        self._retry_or_fail(
                            cell, f"cell timeout after "
                                  f"{self.config.cell_timeout:.0f}s")

    def _result_pump(self, loop: asyncio.AbstractEventLoop) -> None:
        """Thread: move worker reports onto the event loop."""
        import queue as queue_mod
        while not self._pump_stop.is_set():
            try:
                item = self.pool.result_queue.get(timeout=0.2)
            except (queue_mod.Empty, OSError, ValueError):
                continue
            try:
                loop.call_soon_threadsafe(self._on_result, *item)
            except RuntimeError:  # loop already closed mid-drain
                break

    def _on_result(self, worker_id: int, digest: str,
                   error: str | None) -> None:
        cell = self._cells.get(digest)
        self.pool.complete(worker_id)
        if cell is None or cell.state != RUNNING or cell.worker != worker_id:
            return  # late report of a cell already timed out/requeued
        if error is None:
            cell.state = DONE
            self._counters["computed"] += 1
        else:
            self._retry_or_fail(cell, f"worker error: {error}")
        self._wake.set()

    def _retry_or_fail(self, cell: _Cell, reason: str) -> None:
        cell.worker = None
        if cell.retries >= self.config.max_retries:
            cell.state = FAILED
            cell.error = reason
            self._counters["failed"] += 1
            return
        cell.retries += 1
        self._counters["retries"] += 1
        cell.state = QUEUED
        delay = self.config.retry_backoff * (2 ** (cell.retries - 1))
        asyncio.get_running_loop().call_later(
            delay, self._requeue, cell.digest)

    def _requeue(self, digest: str) -> None:
        cell = self._cells.get(digest)
        if cell is None or cell.state != QUEUED:
            return
        # A worker killed *after* its committed store but before its
        # report already persisted the value; recheck before paying
        # for a recompute.
        value = self.simcache.lookup(cell.cache_key)
        if not SimCache.is_miss(value):
            cell.state = DONE
            self._counters["computed"] += 1
        else:
            self._queue.append(digest)
        self._wake.set()

    # -- request handlers -----------------------------------------------

    def _keying_context(self, spec: dict):
        from repro.experiments.base import ExperimentContext
        fingerprint = protocol.spec_fingerprint(spec)
        with self._keying_lock:
            ctx = self._keying.get(fingerprint)
            if ctx is None:
                ctx = ExperimentContext.from_spec(spec)
                self._keying[fingerprint] = ctx
        return ctx

    def _digest_cells(self, spec: dict, wire_cells: list) -> list:
        """(wire_key, digest, cache_key, cached) per submitted cell.

        Runs on an executor thread: keying computes workload content
        fingerprints (trace construction on first sight) and probes
        the simcache on disk, neither of which belongs on the event
        loop.  Registration stays on the loop, so the disk probe is
        only a hint -- a cell already registered in memory wins.
        """
        ctx = self._keying_context(spec)
        out = []
        for wire_key in wire_cells:
            key = protocol.decode_cell(wire_key)
            cache_key = ctx._simcache_key(key)
            digest = SimCache.key_digest(cache_key)
            cached = (digest not in self._cells
                      and not SimCache.is_miss(
                          self.simcache.lookup(cache_key)))
            out.append((wire_key, digest, cache_key, cached))
        return out

    async def _submit(self, payload: dict) -> tuple[int, dict]:
        if self._draining:
            return 503, {"error": "server is draining"}
        mismatch = check_versions(payload, protocol.handshake())
        if mismatch is not None:
            return 409, {"error": mismatch}
        spec = payload.get("spec")
        wire_cells = payload.get("cells")
        if not isinstance(spec, dict) or not isinstance(wire_cells, list) \
                or not wire_cells:
            return 400, {"error": "submission needs a spec and a "
                                  "non-empty cell list"}
        loop = asyncio.get_running_loop()
        try:
            rows = await loop.run_in_executor(
                None, self._digest_cells, spec, wire_cells)
        except Exception as exc:
            return 400, {"error": f"bad submission: "
                                  f"{type(exc).__name__}: {exc}"}
        if self._draining:  # drain started while keying
            return 503, {"error": "server is draining"}
        job_id = f"j{len(self._jobs) + 1}"
        digests = []
        cached = coalesced = queued = 0
        for wire_key, digest, cache_key, hit in rows:
            self._counters["submitted"] += 1
            cell = self._cells.get(digest)
            if cell is not None:
                if cell.state == FAILED:
                    # A resubmission is consent to try again.
                    cell.state = QUEUED
                    cell.retries = 0
                    cell.error = ""
                    self._queue.append(digest)
                    queued += 1
                else:
                    coalesced += 1
                    self._counters["coalesced"] += 1
            elif hit:
                self._cells[digest] = _Cell(digest, spec, wire_key,
                                            cache_key, DONE)
                cached += 1
                self._counters["cached"] += 1
            else:
                cell = _Cell(digest, spec, wire_key, cache_key, QUEUED)
                self._cells[digest] = cell
                self._queue.append(digest)
                queued += 1
                self._counters["queued"] += 1
            digests.append(digest)
        job = _Job(job_id, digests)
        self._jobs[job_id] = job
        self._wake.set()
        return 200, {"job": job_id, "total": len(digests),
                     "cached": cached, "coalesced": coalesced,
                     "queued": queued, "digests": digests}

    def _job_status(self, job: _Job) -> dict:
        counts = {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0}
        retries = 0
        for digest in job.digests:
            cell = self._cells[digest]
            counts[cell.state] += 1
            retries += cell.retries
        if counts[QUEUED] or counts[RUNNING]:
            state = "running"
        elif counts[FAILED]:
            state = "failed"
        else:
            state = "done"
        return {"job": job.id, "state": state,
                "total": len(job.digests), "done": counts[DONE],
                "failed": counts[FAILED], "running": counts[RUNNING],
                "queued": counts[QUEUED], "retries": retries}

    def _status(self, job_id: str) -> tuple[int, dict]:
        job = self._jobs.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        return 200, self._job_status(job)

    def _results(self, job_id: str) -> tuple[int, dict]:
        job = self._jobs.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        payload = self._job_status(job)
        payload["cells"] = [
            {"key": self._cells[d].wire_key, "digest": d,
             "state": self._cells[d].state,
             "error": self._cells[d].error}
            for d in job.digests]
        return 200, payload

    def _metrics(self) -> dict:
        submitted = self._counters["submitted"]
        deduped = self._counters["cached"] + self._counters["coalesced"]
        in_flight = sum(1 for c in self._cells.values()
                        if c.state == RUNNING)
        return {
            "uptime_s": round(time.monotonic() - self._started, 3),
            "draining": self._draining,
            "queue_depth": len(self._queue),
            "in_flight": in_flight,
            "cells": len(self._cells),
            "jobs": len(self._jobs),
            "dedup": dict(self._counters,
                          hit_rate=(deduped / submitted)
                          if submitted else 0.0),
            "workers": [
                {"id": h.id, "pid": h.process.pid, "alive": h.alive,
                 "busy": h.busy, "completed": h.completed,
                 "throughput_cps": round(h.throughput(), 4)}
                for h in self.pool.workers.values()],
        }

    # -- HTTP plumbing --------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            status, ctype, body = await self._respond(reader)
            head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"Connection: close\r\n\r\n")
            writer.write(head.encode("ascii") + body)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _respond(self, reader) -> tuple[int, str, bytes]:
        try:
            request = await asyncio.wait_for(_read_request(reader),
                                             READ_TIMEOUT_S)
        except asyncio.TimeoutError:
            return _json(408, {"error": "request not received within "
                                        f"{READ_TIMEOUT_S:g}s"})
        except _HttpError as exc:
            return _json(exc.status, {"error": str(exc)})
        return await self._route(*request)

    async def _route(self, method: str, path: str,
                     body: bytes) -> tuple[int, str, bytes]:
        if method == "GET" and path == "/healthz":
            alive = sum(1 for h in self.pool.workers.values() if h.alive)
            return _json(200, {"ok": True, "workers_alive": alive,
                               "draining": self._draining})
        if method == "GET" and path == "/metrics":
            return _json(200, self._metrics())
        if method == "GET" and path.startswith("/status/"):
            return _json(*self._status(path[len("/status/"):]))
        if method == "GET" and path.startswith("/results/"):
            return _json(*self._results(path[len("/results/"):]))
        if method == "GET" and path.startswith("/entry/"):
            digest = path[len("/entry/"):]
            if not _DIGEST_RE.fullmatch(digest):
                return _json(400, {"error": "entry digest must be 64 "
                                            "lowercase hex digits"})
            blob = self.simcache.raw_entry(digest)
            if blob is None:
                return _json(404, {"error": "unknown entry"})
            return 200, "application/octet-stream", blob
        if method == "POST" and path == "/submit":
            try:
                payload = json.loads(body)
            except ValueError:
                return _json(400, {"error": "submit body is not JSON"})
            return _json(*await self._submit(payload))
        if method == "POST" and path == "/inject-crash":
            self._crash_injections += 1
            return _json(200, {"pending_injections":
                               self._crash_injections})
        if method == "POST" and path == "/drain":
            if not self._draining:
                asyncio.get_running_loop().create_task(self.drain())
            return _json(200, {"draining": True})
        return _json(404, {"error": f"no route {method} {path}"})


_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            408: "Request Timeout", 409: "Conflict",
            413: "Content Too Large", 503: "Service Unavailable"}


class _HttpError(Exception):
    """A request the reader refuses, with the status to answer."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_request(reader) -> tuple[str, str, bytes]:
    """``(method, path, body)`` of one request, within the size limits.

    The stream's own limit (``MAX_HEADER_BYTES``, set at
    ``start_server``) bounds each line; the running total bounds the
    header section as a whole.
    """
    size = 0
    lines = []
    while True:
        try:
            line = await reader.readline()
        except ValueError:  # one line beyond the stream limit
            raise _HttpError(413, "request header too large") from None
        size += len(line)
        if size > MAX_HEADER_BYTES:
            raise _HttpError(413, "request header too large")
        if line in (b"\r\n", b"\n", b""):
            break
        lines.append(line.decode("latin-1"))
    parts = lines[0].split() if lines else []
    if len(parts) < 2:
        raise _HttpError(400, "malformed request line")
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            try:
                length = int(value.strip())
            except ValueError:
                length = -1
            if length < 0:
                raise _HttpError(400, "bad content-length")
    if length > MAX_BODY_BYTES:
        raise _HttpError(413, f"body over {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    return parts[0], parts[1], body


def _json(status: int, payload: dict,
          _ctype: str = "application/json") -> tuple[int, str, bytes]:
    return status, _ctype, json.dumps(payload).encode()


def serve(config: ServerConfig | None = None) -> int:
    """Blocking CLI entry point: run until SIGTERM/SIGINT, then drain."""
    config = config or ServerConfig()

    async def _main() -> None:
        server = ServiceServer(config)
        await server.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        print(f"power5-repro service listening on "
              f"http://{config.host}:{server.port} "
              f"({server.pool.size} workers, cache {server.simcache.root})",
              flush=True)
        await stop.wait()
        print("draining: finishing in-flight cells ...", flush=True)
        await server.drain()
        print("drained cleanly", flush=True)

    asyncio.run(_main())
    return 0


class ServiceHandle:
    """A server on a background thread (tests, benches, embedding).

    ``start()`` blocks until the socket is bound and returns the
    handle; ``stop()`` drains gracefully and joins the thread.  The
    live :class:`ServiceServer` is exposed as ``.server`` for
    white-box assertions; ``.url`` is the client-facing address.
    """

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig(port=0)
        self.server: ServiceServer | None = None
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(target=self._run,
                                        name="power5-svc", daemon=True)
        self._error: BaseException | None = None

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.server.port}"

    def start(self) -> "ServiceHandle":
        self._thread.start()
        if not self._ready.wait(timeout=60.0) or self._error:
            raise RuntimeError(
                f"service failed to start: {self._error}")
        return self

    def stop(self, timeout: float = 60.0) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=timeout)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surface startup failures
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.server = ServiceServer(self.config)
        await self.server.start()
        self._ready.set()
        await self._stop.wait()
        if not self.server._draining:
            await self.server.drain()
        else:
            await self.server._drained.wait()
