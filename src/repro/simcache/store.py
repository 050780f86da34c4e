"""Persistent, on-disk memoisation of simulated measurement cells.

Every measurement cell -- one (workloads, priorities, policy)
combination driven to FAME convergence -- is a pure function of the
machine configuration, the runner parameters and the workload traces.
This store extends the in-process cell cache of
:class:`~repro.experiments.base.ExperimentContext` across processes
and invocations, so a re-run pays only for cells whose inputs changed.

Keying follows the trace cache's discipline
(:mod:`repro.workloads.tracecache`): the first key components are the
trace-cache ``SCHEMA_VERSION`` and this store's :data:`RESULT_VERSION`,
so entries written under any other code era can never be served.  The
rest -- config fingerprint, runner parameters, instrumentation flags,
the cell key and a content fingerprint per workload trace -- comes
from ``ExperimentContext._simcache_key``.  Workers never touch the
store: the coordinator filters hits before dispatching a sweep and
persists results after the merge.

The store is one SQLite database per cache directory (:data:`DB_NAME`):
``entries(digest, blob)`` maps the SHA-256 of each key to the pickled
``(key, value)`` pair, and the one-row ``stats(hits, misses, stores)``
holds the lifetime counters.  In WAL mode any number of processes --
CLI runs, the job server and its workers -- read and upsert at once:
readers never wait for the writer, writers queue on SQLite's lock
under a busy timeout, and each statement commits atomically.
``synchronous=NORMAL`` skips the per-commit fsync; a power cut may drop
the last commits but cannot corrupt the file.

The cache must never break a run.  A blob that does not unpickle, or
whose embedded key differs from the request, reads as a miss and is
overwritten by the next store; every database error (an unopenable or
corrupt file, a full disk, a lock held past the timeout) degrades to a
miss or a skipped store.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pathlib
import pickle
import sqlite3
import threading
import time

#: Version of the stored result format.  Bump whenever the shape of
#: cached values (ThreadMetrics/PairMetrics/ScheduleResult or anything
#: riding on them, e.g. PMU counter banks) changes incompatibly.
RESULT_VERSION = 1

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "POWER5_SIMCACHE_DIR"

#: The database file inside the cache directory.
DB_NAME = "simcache.sqlite"

#: Seconds a statement waits on another writer's lock before failing.
BUSY_TIMEOUT_S = 30.0

#: In-process memo of workload content fingerprints.
_FP_CACHE: dict[tuple, str] = {}

#: Sentinel distinguishing "miss" from a legitimately falsy value.
_MISS = object()

_SCHEMA = """
PRAGMA journal_mode=WAL;
PRAGMA synchronous=NORMAL;
CREATE TABLE IF NOT EXISTS entries (digest TEXT PRIMARY KEY, blob BLOB NOT NULL);
CREATE TABLE IF NOT EXISTS stats (id INTEGER PRIMARY KEY CHECK (id = 0),
    hits INTEGER NOT NULL, misses INTEGER NOT NULL, stores INTEGER NOT NULL);
INSERT OR IGNORE INTO stats VALUES (0, 0, 0, 0);
"""


def versions() -> dict:
    """The code versions a cached value depends on: the trace-cache
    schema and the result format (the first two simcache key parts)."""
    from repro.workloads.tracecache import SCHEMA_VERSION
    return {"schema": SCHEMA_VERSION, "result": RESULT_VERSION}


def check_versions(theirs: dict, ours: dict | None = None) -> str | None:
    """A message naming the first version a peer disagrees on, else None.

    Every process that hands cell values to another -- a worker-pool
    initializer, the service's ``/submit`` -- calls this before any
    cell runs: a peer producing another format would poison the sweep
    and the persistent cache.  ``ours`` defaults to :func:`versions`.
    """
    for name, version in (ours or versions()).items():
        if theirs.get(name) != version:
            return (f"{name} version mismatch: peer v{theirs.get(name)}, "
                    f"local v{version}")
    return None


def _apply_schema(conn: sqlite3.Connection) -> None:
    """Run :data:`_SCHEMA`, retrying while another process holds a lock.

    Switching a new database to WAL can fail with "database is locked"
    at once, without waiting on the busy timeout, when several
    processes open it together.  Every statement is idempotent, so the
    script is simply rerun until :data:`BUSY_TIMEOUT_S` runs out.
    """
    deadline = time.monotonic() + BUSY_TIMEOUT_S
    while True:
        try:
            conn.executescript(_SCHEMA)
            return
        except sqlite3.OperationalError as exc:
            if ("locked" not in str(exc)
                    or time.monotonic() >= deadline):
                raise
            time.sleep(0.01)


def default_cache_dir() -> pathlib.Path:
    """The result-cache directory (honours ``POWER5_SIMCACHE_DIR``)."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "power5-repro" / "simcache"


def workload_fingerprint(name: str, config, base_address: int = 0) -> str:
    """Content hash of a workload's trace under ``config``.

    Hashes the actual instruction sequences (repetitions 0 and 1 --
    cold and steady), not the generator's name: editing a workload
    definition changes the fingerprint and therefore misses the result
    cache, even though the name and config are unchanged.  Memoised
    per (schema, name, base, config) beside the trace cache.
    """
    from repro.workloads.tracecache import SCHEMA_VERSION, cached_workload
    key = (SCHEMA_VERSION, name, base_address, config.fingerprint())
    fp = _FP_CACHE.get(key)
    if fp is None:
        source = cached_workload(name, config, base_address)
        digest = hashlib.sha256(repr(key).encode())
        for rep in (0, 1):
            digest.update(repr(tuple(source.repetition(rep))).encode())
        fp = digest.hexdigest()[:16]
        _FP_CACHE[key] = fp
    return fp


class SimCache:
    """On-disk result store with in-process hit/miss accounting.

    Threads (the job server's event loop and its keying executor)
    share the process's one connection under a lock; a forked child
    opens its own and leaves the inherited one untouched.
    """

    def __init__(self, root: os.PathLike | str | None = None) -> None:
        self.root = pathlib.Path(root) if root else default_cache_dir()
        self.path = self.root / DB_NAME
        self.hits = self.misses = self.stores = 0
        self._conns: dict[int, sqlite3.Connection] = {}
        self._lock = threading.Lock()

    @staticmethod
    def key_digest(key: tuple) -> str:
        """The entry name of ``key`` (SHA-256 of its repr); the
        simulation service's wire protocol moves these digests."""
        return hashlib.sha256(repr(key).encode()).hexdigest()

    def _connection(self, create: bool) -> sqlite3.Connection | None:
        """This process's connection; None if there is none to read."""
        conn = self._conns.get(os.getpid())
        if conn is None:
            if not create and not self.path.exists():
                return None
            self.root.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(self.path, timeout=BUSY_TIMEOUT_S,
                                   isolation_level=None,
                                   check_same_thread=False)
            _apply_schema(conn)  # a failed open is discarded
            self._conns[os.getpid()] = conn
        return conn

    def close(self) -> None:
        """Close this process's connection; the next use reopens it."""
        with self._lock:
            conn = self._conns.pop(os.getpid(), None)
            if conn is not None:
                conn.close()

    def _execute(self, sql: str, params: tuple = (),
                 create: bool = False) -> list | None:
        """The rows of one statement; None when the database failed."""
        with self._lock:
            try:
                conn = self._connection(create)
                if conn is not None:
                    return conn.execute(sql, params).fetchall()
            except (sqlite3.Error, OSError):
                pass
            return None

    def raw_entry(self, digest: str) -> bytes | None:
        """The pickled ``(key, value)`` blob under ``digest``, or None.

        Served verbatim by the job server's ``/entry`` endpoint; the
        client verifies the pickled key against its own cache key.
        """
        rows = self._execute("SELECT blob FROM entries WHERE digest = ?",
                             (digest,))
        return rows[0][0] if rows else None

    def lookup(self, key: tuple):
        """The cached value for ``key``, or the module's miss sentinel.

        Compare the return value against :data:`_MISS` via
        :meth:`is_miss`; anything else is a cache hit.
        """
        try:
            stored_key, value = pickle.loads(
                self.raw_entry(self.key_digest(key)))
        except Exception:
            stored_key = _MISS
        if stored_key != key:
            # No row, a corrupt blob, a SHA-256 collision or a tampered
            # row: recompute and let store() overwrite it.
            self.misses += 1
            return _MISS
        self.hits += 1
        return value

    @staticmethod
    def is_miss(value) -> bool:
        """True when :meth:`lookup` found nothing usable."""
        return value is _MISS

    def store(self, key: tuple, value) -> None:
        """Upsert ``value`` under ``key`` (atomic, best-effort).

        The full key rides inside the pickle so :meth:`lookup` can
        verify it; a failed write only costs future recomputation.
        """
        blob = pickle.dumps((key, value), protocol=pickle.HIGHEST_PROTOCOL)
        if self._execute("INSERT OR REPLACE INTO entries VALUES (?, ?)",
                         (self.key_digest(key), blob),
                         create=True) is not None:
            self.stores += 1

    def stats(self) -> dict:
        """Session counters plus on-disk footprint."""
        rows = self._execute("SELECT COUNT(*),"
                             " COALESCE(SUM(LENGTH(blob)), 0) FROM entries")
        entries, size = rows[0] if rows else (0, 0)
        return {"dir": str(self.root), "hits": self.hits,
                "misses": self.misses, "stores": self.stores,
                "entries": entries, "bytes": size}

    def clear(self) -> int:
        """Delete every entry and the lifetime counters; returns the
        number of entries removed.  A file that is not a database is
        deleted instead, so a corrupt cache is one ``clear`` from healthy.
        """
        with self._lock:
            try:
                conn = self._connection(create=False)
                if conn is None:
                    return 0
                removed = conn.execute("DELETE FROM entries").rowcount
                conn.execute("UPDATE stats SET hits = 0, misses = 0,"
                             " stores = 0")
                return removed
            except sqlite3.OperationalError:
                return 0  # busy or read-only: leave the cache alone
            except sqlite3.DatabaseError:
                for suffix in ("", "-wal", "-shm"):
                    with contextlib.suppress(OSError):
                        os.unlink(f"{self.path}{suffix}")
            except OSError:
                pass
            return 0

    def flush_stats(self) -> None:
        """Add this session's counters to the lifetime totals.

        One atomic ``UPDATE``, so concurrent flushes from the server and
        its workers never lose a count.  The counters reset on success
        (flushing is safe to repeat) and survive a failed flush.
        """
        counts = (self.hits, self.misses, self.stores)
        if any(counts) and self._execute(
                "UPDATE stats SET hits = hits + ?, misses = misses + ?,"
                " stores = stores + ?", counts, create=True) is not None:
            self.hits = self.misses = self.stores = 0

    def persistent_stats(self) -> dict:
        """Cumulative counters over every flushed session."""
        rows = self._execute("SELECT hits, misses, stores FROM stats")
        hits, misses, stores = rows[0] if rows else (0, 0, 0)
        return {"hits": hits, "misses": misses, "stores": stores}
