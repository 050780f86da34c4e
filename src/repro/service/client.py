"""HTTP client and experiment backend of the simulation service.

:class:`ServiceClient` is the thin wire layer (stdlib ``urllib``, JSON
in/out, bounded connection retries).  :class:`ServiceBackend` adapts
it to the executor contract of ``ExperimentContext.backend`` (shared
with :class:`repro.experiments.parallel.PoolBackend`): given a context
and a list of missing cell keys, yield ``(key, value)`` pairs in input
order.  An :class:`~repro.experiments.base.ExperimentContext` with its
``backend`` field set to one routes every miss through here, so *any*
experiment gains distributed execution without knowing the service
exists -- and because values are resolved from the same simcache
entries a local run would write (or fetched and key-verified over
``/entry``), a backend sweep is byte-identical to a serial one.
"""

from __future__ import annotations

import json
import pickle
import sys
import time
import urllib.error
import urllib.request

from repro.service import protocol


class ServiceError(RuntimeError):
    """A request the service refused or could not complete."""


class ServiceClient:
    """JSON/HTTP client for one job server."""

    def __init__(self, base_url: str, timeout: float = 60.0,
                 retries: int = 3, backoff: float = 0.25) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff

    # -- wire layer -----------------------------------------------------

    def _request(self, method: str, path: str, payload: dict | None = None,
                 raw: bool = False):
        """One request with bounded retries on *connection* errors.

        HTTP-level errors are never retried: the server answered, and
        its JSON ``error`` message becomes the :class:`ServiceError` --
        a 409 handshake refusal or 503 drain rejection would only
        repeat.
        """
        url = self.base_url + path
        body = json.dumps(payload).encode() if payload is not None else None
        last: Exception | None = None
        for attempt in range(self.retries + 1):
            request = urllib.request.Request(
                url, data=body, method=method,
                headers={"Content-Type": "application/json"})
            try:
                with urllib.request.urlopen(
                        request, timeout=self.timeout) as response:
                    blob = response.read()
                return blob if raw else json.loads(blob)
            except urllib.error.HTTPError as exc:
                detail = f"HTTP {exc.code}"
                try:
                    message = json.loads(exc.read()).get("error")
                    if message:
                        detail = f"{detail}: {message}"
                except Exception:
                    pass
                raise ServiceError(
                    f"{method} {path} failed ({detail})") from None
            except (urllib.error.URLError, ConnectionError,
                    TimeoutError, OSError) as exc:
                last = exc
                if attempt < self.retries:
                    time.sleep(self.backoff * (2 ** attempt))
        raise ServiceError(
            f"cannot reach service at {self.base_url} "
            f"after {self.retries + 1} attempts: {last}") from None

    # -- endpoints ------------------------------------------------------

    def submit(self, spec: dict, cells: list) -> dict:
        """Submit a plan; returns the server's submission summary."""
        payload = protocol.handshake()
        payload["spec"] = spec
        payload["cells"] = cells
        return self._request("POST", "/submit", payload)

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/status/{job_id}")

    def results(self, job_id: str) -> dict:
        return self._request("GET", f"/results/{job_id}")

    def fetch_entry(self, digest: str) -> bytes:
        """The raw pickled ``(key, value)`` entry stored under digest."""
        return self._request("GET", f"/entry/{digest}", raw=True)

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def inject_crash(self) -> dict:
        """Fault injection: kill the worker of the next dispatch."""
        return self._request("POST", "/inject-crash", {})

    def drain(self) -> dict:
        """Ask the server to drain and shut down gracefully."""
        return self._request("POST", "/drain", {})

    def wait(self, job_id: str, poll: float = 0.1,
             progress=None) -> dict:
        """Poll until the job settles; stream per-cell progress.

        ``progress`` is a callable taking one status line (defaults to
        writing to stderr, keeping stdout byte-identical to a local
        run); it fires only when the done/failed counts change.
        """
        if progress is None:
            def progress(line: str) -> None:
                print(line, file=sys.stderr, flush=True)
        seen = (-1, -1)
        while True:
            status = self.status(job_id)
            now = (status["done"], status["failed"])
            if now != seen:
                seen = now
                progress(
                    f"[service] job {job_id}: {status['done']}/"
                    f"{status['total']} done, {status['failed']} failed, "
                    f"{status['running']} running, "
                    f"{status['queued']} queued")
            if status["state"] != "running":
                return status
            time.sleep(poll)


class ServiceBackend:
    """Routes a context's missing cells through a job server.

    Drop-in for the ``backend`` field of
    :class:`~repro.experiments.base.ExperimentContext`; the
    ``compute_cells`` contract matches
    :class:`repro.experiments.parallel.PoolBackend`.
    """

    def __init__(self, base_url: str, timeout: float = 60.0,
                 retries: int = 3, poll: float = 0.1) -> None:
        self.client = ServiceClient(base_url, timeout=timeout,
                                    retries=retries)
        self.poll = poll
        #: Submission summary of the most recent sweep (CLI reporting).
        self.last_submit: dict | None = None

    def compute_cells(self, ctx, keys: list):
        """Yield ``(key, value)`` for every key, in input order.

        Values come from the local simcache when the client shares the
        server's cache directory, otherwise from ``/entry`` -- either
        way each pickled entry's embedded key is verified against the
        locally computed cache key, so a mis-keyed server answer can
        never be attributed to the wrong cell.
        """
        keys = list(keys)
        if not keys:
            return
        wire = [protocol.encode_cell(key) for key in keys]
        submitted = self.client.submit(ctx.spec(), wire)
        self.last_submit = submitted
        job_id = submitted["job"]
        status = self.client.wait(job_id, poll=self.poll)
        rows = self.client.results(job_id)["cells"]
        if status["failed"]:
            errors = [f"  {tuple(row['key'])!r}: {row['error']}"
                      for row in rows if row["state"] == "failed"]
            raise ServiceError(
                "service job {} failed {} of {} cells:\n{}".format(
                    job_id, status["failed"], status["total"],
                    "\n".join(errors)))
        for key, row in zip(keys, rows):
            value = ctx._simcache_lookup(key)
            if value is None:
                value = self._fetch_value(ctx, key, row["digest"])
            yield key, value

    def _fetch_value(self, ctx, key: tuple, digest: str):
        blob = self.client.fetch_entry(digest)
        try:
            stored_key, value = pickle.loads(blob)
        except Exception as exc:
            raise ServiceError(
                f"service entry {digest[:12]} is not a valid cache "
                f"entry: {type(exc).__name__}: {exc}") from None
        if stored_key != ctx._simcache_key(key):
            raise ServiceError(
                f"service entry {digest[:12]} does not match the "
                f"locally computed cache key of {key!r} (version skew "
                f"or a mis-configured server)")
        return value
