"""The persistent result cache: bit-identity and invalidation.

Two properties carry the whole feature:

- **transparency** -- a warm cache, a cold cache and a disabled cache
  must produce byte-identical metrics, serial or parallel, plain or
  PMU-instrumented;
- **invalidation** -- any change to an input the cached value is a
  function of (result schema, trace schema, machine configuration,
  workload definition, simulation engine) must force a miss.  Serving
  a stale entry would silently corrupt reported numbers, so every
  invalidation axis gets its own test.
"""

from __future__ import annotations

import contextlib
import dataclasses
import pickle
import sqlite3

import pytest

from repro.config import POWER5
from repro.experiments.base import (
    ExperimentContext,
    governed_cell,
    pair_cell,
    priority_pair,
    single_cell,
)
from repro.experiments.chip import chip_cell
from repro.simcache import SimCache, workload_fingerprint
from repro.simcache import store as simstore
from repro.workloads import tracecache

#: A small cell set covering every cell kind the cache can hold.
CELLS = [
    single_cell("ldint_l1"),
    single_cell("cpu_int"),
    pair_cell("cpu_int", "ldint_l1", priority_pair(0)),
    pair_cell("cpu_int", "ldint_l1", priority_pair(2)),
    governed_cell("cpu_int", "ldint_l1", (4, 4), "ipc_balance"),
    chip_cell("spec", "round_robin", 2, 1),
]


def _ctx(cache_dir=None, jobs: int = 1, config=None,
         **kwargs) -> ExperimentContext:
    return ExperimentContext(
        config=config or POWER5.small(),
        min_repetitions=2, max_cycles=300_000, jobs=jobs,
        simcache=SimCache(cache_dir) if cache_dir else None,
        **kwargs)


@pytest.fixture(autouse=True)
def _fresh_fingerprints():
    """Workload fingerprints are memoised per process; tests that
    perturb workload construction need the memo dropped."""
    simstore._FP_CACHE.clear()
    yield
    simstore._FP_CACHE.clear()


def test_cold_warm_disabled_bit_identical(tmp_path):
    """Cold fill, warm read and no-cache runs agree byte for byte."""
    cold = _ctx(tmp_path)
    assert cold.prefetch(CELLS) == len(CELLS)
    assert cold.simcache.stores == len(CELLS)

    warm = _ctx(tmp_path)
    assert warm.prefetch(CELLS) == 0  # nothing simulated
    assert warm.simcache.hits == len(CELLS)

    disabled = _ctx()
    assert disabled.prefetch(CELLS) == len(CELLS)

    assert list(cold._cache) == list(warm._cache) == list(disabled._cache)
    assert (repr(cold._cache) == repr(warm._cache)
            == repr(disabled._cache))


def test_warm_parallel_identical_to_serial(tmp_path):
    """jobs=2 cold fill and a serial warm read return the same bytes."""
    parallel = _ctx(tmp_path, jobs=2)
    assert parallel.prefetch(CELLS) == len(CELLS)
    serial = _ctx(tmp_path, jobs=1)
    assert serial.prefetch(CELLS) == 0
    assert repr(parallel._cache) == repr(serial._cache)


def test_cell_accessor_uses_cache(tmp_path):
    """ctx.cell()/single()/pair() hit the persistent store too."""
    cold = _ctx(tmp_path)
    value = cold.single("ldint_l1")
    warm = _ctx(tmp_path)
    assert repr(warm.single("ldint_l1")) == repr(value)
    assert warm.simcache.hits == 1 and warm.simcache.misses == 0


def test_pmu_cells_roundtrip(tmp_path):
    """Counter banks survive the disk roundtrip exactly."""
    cell = pair_cell("cpu_int", "ldint_l1", priority_pair(0))
    cold = _ctx(tmp_path, pmu=True)
    cold.prefetch([cell])
    warm = _ctx(tmp_path, pmu=True)
    warm.prefetch([cell])
    assert warm.simcache.hits == 1
    assert repr(warm._cache[cell]) == repr(cold._cache[cell])
    assert (warm._cache[cell].pmu.counters
            == cold._cache[cell].pmu.counters)


def test_result_version_bump_misses(tmp_path, monkeypatch):
    """A result-format bump invalidates every stored entry."""
    cell = single_cell("ldint_l1")
    _ctx(tmp_path).prefetch([cell])
    monkeypatch.setattr("repro.simcache.RESULT_VERSION", 999)
    bumped = _ctx(tmp_path)
    assert bumped.prefetch([cell]) == 1
    assert bumped.simcache.misses == 1


def test_trace_schema_bump_misses(tmp_path, monkeypatch):
    """A trace-schema bump invalidates every stored entry."""
    cell = single_cell("ldint_l1")
    _ctx(tmp_path).prefetch([cell])
    monkeypatch.setattr("repro.workloads.tracecache.SCHEMA_VERSION",
                        tracecache.SCHEMA_VERSION + 1)
    simstore._FP_CACHE.clear()
    bumped = _ctx(tmp_path)
    assert bumped.prefetch([cell]) == 1
    assert bumped.simcache.misses == 1


def test_config_change_misses(tmp_path):
    """Any machine-parameter change misses (fingerprinted config)."""
    cell = single_cell("ldint_l1")
    _ctx(tmp_path).prefetch([cell])
    small = POWER5.small()
    tweaked = dataclasses.replace(small, gct_groups=small.gct_groups + 1)
    changed = _ctx(tmp_path, config=tweaked)
    assert changed.prefetch([cell]) == 1
    assert changed.simcache.misses == 1


def test_runner_parameter_change_misses(tmp_path):
    """FAME parameters are part of the key (maiv here)."""
    cell = single_cell("ldint_l1")
    _ctx(tmp_path).prefetch([cell])
    changed = ExperimentContext(
        config=POWER5.small(), min_repetitions=2, max_cycles=300_000,
        maiv=0.005, simcache=SimCache(tmp_path))
    assert changed.prefetch([cell]) == 1


def test_workload_edit_misses(tmp_path, monkeypatch):
    """Editing a workload's trace content misses despite same name.

    Simulated by rerouting the benchmark constructor so 'ldint_l1'
    builds a different kernel: the name, config and schema are all
    unchanged -- only the instruction stream (and therefore the
    content fingerprint) differs.
    """
    cell = single_cell("ldint_l1")
    _ctx(tmp_path).prefetch([cell])

    original = tracecache.make_microbenchmark

    def edited(name, config, base_address=0):
        return original("cpu_int" if name == "ldint_l1" else name,
                        config, base_address)

    monkeypatch.setattr("repro.workloads.tracecache.make_microbenchmark",
                        edited)
    tracecache.clear_cache()
    simstore._FP_CACHE.clear()
    changed = _ctx(tmp_path)
    assert changed.prefetch([cell]) == 1
    assert changed.simcache.misses == 1
    tracecache.clear_cache()  # drop the rerouted sources


def test_dense_era_cells_reused_across_engines(tmp_path):
    """Engine choice never enters a cell key: dense-era cells stay warm.

    ``engine`` ("array" vs "object") is normalized out of the config
    fingerprint and deliberately absent from the key -- the engines
    are bit-identical (differential suite), so a cache populated by
    the object engine must be served verbatim to the array engine.
    Pinned for every cell kind,
    then closed behaviourally: object-engine-computed cells are warm
    hits for an array-engine context.
    """
    array = _ctx(tmp_path)
    dense = _ctx(tmp_path, config=dataclasses.replace(
        POWER5.small(), engine="object"))
    for cell in CELLS:
        assert array._simcache_key(cell) == dense._simcache_key(cell), cell
    assert dense.prefetch(CELLS) == len(CELLS)   # cold: all simulated
    assert array.prefetch(CELLS) == 0            # warm across engines
    for cell in CELLS:
        assert repr(array._cache[cell]) == repr(dense._cache[cell])


def test_scope_isolation(tmp_path):
    """Irrelevant knobs don't invalidate: chip flags leave pair and
    single keys untouched; pair keys ignore the governed epoch when no
    context governor is set."""
    pair = pair_cell("cpu_int", "ldint_l1", priority_pair(0))
    base = _ctx(tmp_path)
    chip_tweaked = _ctx(tmp_path, chip_cores=4, chip_quota=8)
    for cell in (single_cell("ldint_l1"), pair):
        assert base._simcache_key(cell) == chip_tweaked._simcache_key(cell)
    # ...while a context-wide governor *is* part of the pair key.
    governed = _ctx(tmp_path, governor="ipc_balance")
    assert base._simcache_key(pair) != governed._simcache_key(pair)


def _rows(cache: SimCache) -> list:
    """(digest, blob) of every entry, read straight from the database."""
    with contextlib.closing(sqlite3.connect(cache.path)) as conn:
        return conn.execute("SELECT digest, blob FROM entries").fetchall()


def _put_row(cache: SimCache, digest: str, blob: bytes) -> None:
    with contextlib.closing(sqlite3.connect(cache.path,
                                            isolation_level=None)) as conn:
        conn.execute("INSERT OR REPLACE INTO entries VALUES (?, ?)",
                     (digest, blob))


def test_corrupt_entry_recomputed(tmp_path):
    """A truncated or garbage row degrades to a miss, then heals."""
    cell = single_cell("ldint_l1")
    cold = _ctx(tmp_path)
    cold.prefetch([cell])
    ((digest, _),) = _rows(cold.simcache)
    _put_row(cold.simcache, digest, b"\x80garbage")
    warm = _ctx(tmp_path)
    assert warm.prefetch([cell]) == 1  # recomputed
    assert warm.simcache.misses == 1 and warm.simcache.stores == 1
    healed = _ctx(tmp_path)
    assert healed.prefetch([cell]) == 0
    assert repr(healed._cache[cell]) == repr(cold._cache[cell])


def test_key_mismatch_treated_as_miss(tmp_path):
    """A row whose embedded key differs from the request misses."""
    cache = SimCache(tmp_path)
    cache.store(("fake", "key"), 123)
    ((_, blob),) = _rows(cache)
    other = ("other", "key")
    _put_row(cache, SimCache.key_digest(other), blob)  # a hash collision
    assert cache.is_miss(cache.lookup(other))
    assert cache.lookup(("fake", "key")) == 123


def test_store_failures_degrade(tmp_path):
    """Unwritable cache directories never break a run."""
    blocked = tmp_path / "nope"
    blocked.write_text("")  # a file where the directory should be
    cache = SimCache(blocked)
    cache.store(("k",), 1)  # swallowed
    assert cache.is_miss(cache.lookup(("k",)))
    ctx = ExperimentContext(config=POWER5.small(), min_repetitions=2,
                            max_cycles=300_000, simcache=cache)
    ctx.prefetch([single_cell("ldint_l1")])  # still computes fine
    assert ctx.single("ldint_l1").ipc > 0


def test_clear_and_stats(tmp_path):
    """clear() removes the rows and counters, and nothing else."""
    keep = tmp_path / "unrelated.txt"
    keep.write_text("keep me")
    cache = SimCache(tmp_path)
    cache.store(("a",), 1)
    cache.store(("b",), 2)
    cache.flush_stats()
    assert cache.stats()["entries"] == 2
    assert cache.clear() == 2
    assert cache.stats()["entries"] == 0
    assert cache.persistent_stats() == {"hits": 0, "misses": 0,
                                        "stores": 0}
    assert keep.read_text() == "keep me"


def test_fingerprint_tracks_content():
    """workload_fingerprint differs across names, bases and configs."""
    small = POWER5.small()
    fp = workload_fingerprint("ldint_l1", small)
    assert fp == workload_fingerprint("ldint_l1", small)  # memoised
    assert fp != workload_fingerprint("cpu_int", small)
    assert fp != workload_fingerprint("ldint_l1", small, 4096)
    tweaked = dataclasses.replace(small, gct_groups=small.gct_groups + 1)
    assert fp != workload_fingerprint("ldint_l1", tweaked)


def _flush_stats_worker(root):
    """Module-level for multiprocessing picklability."""
    cache = SimCache(root)
    cache.hits, cache.misses, cache.stores = 3, 2, 1
    cache.flush_stats()


def test_concurrent_stats_flushes_lose_nothing(tmp_path):
    """N processes flushing counters concurrently sum exactly -- the
    read-modify-write race a single UPDATE per flush rules out."""
    import multiprocessing
    ctx = multiprocessing.get_context("fork")
    procs = [ctx.Process(target=_flush_stats_worker, args=(tmp_path,))
             for _ in range(8)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=30)
        assert proc.exitcode == 0
    cache = SimCache(tmp_path)
    assert cache.persistent_stats() == {"hits": 24, "misses": 16,
                                        "stores": 8}


def test_flush_stats_resets_session_counters(tmp_path):
    """A flush adds the session counters to the lifetime totals and
    resets them, so repeat flushes are no-ops."""
    for _ in range(3):
        writer = SimCache(tmp_path)
        writer.hits, writer.misses, writer.stores = 5, 1, 2
        writer.flush_stats()
        assert (writer.hits, writer.misses, writer.stores) == (0, 0, 0)
        writer.flush_stats()
    cache = SimCache(tmp_path)
    assert cache.persistent_stats() == {"hits": 15, "misses": 3,
                                        "stores": 6}


def _store_worker(cache, index):
    for n in range(40):
        key = ("cell", (index + n) % 16)  # overlaps every other writer
        cache.store(key, key)
        assert cache.lookup(key) == key
    cache.flush_stats()


def test_concurrent_writers_store_overlapping_keys(tmp_path):
    """Forked writers sharing the parent's open cache upsert the same
    keys: every key reads back and the lifetime stats sum exactly."""
    import multiprocessing
    parent = SimCache(tmp_path)
    parent.store(("seed",), 0)
    parent.flush_stats()
    ctx = multiprocessing.get_context("fork")
    procs = [ctx.Process(target=_store_worker, args=(parent, i))
             for i in range(8)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    for n in range(16):
        assert parent.lookup(("cell", n)) == ("cell", n)
    assert parent.stats()["entries"] == 17
    assert SimCache(tmp_path).persistent_stats() == {
        "hits": 320, "misses": 0, "stores": 321}


def test_threads_share_one_cache(tmp_path):
    """Threads using one SimCache at once (the job server's event loop
    and keying executor) lose no row and no read."""
    import sys
    import threading
    cache = SimCache(tmp_path)
    reads = []

    def work(index):
        for n in range(100):
            key = ("cell", (index + n) % 32)
            cache.store(key, key)
            reads.append(cache.lookup(key) == key)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert reads == [True] * 800
    assert (cache.stores, cache.stats()["entries"]) == (800, 32)


def test_garbage_database_degrades_to_recompute(tmp_path):
    """A cache file that is not a database never breaks a run; clear()
    replaces it and caching resumes."""
    cache = SimCache(tmp_path)
    cache.path.write_bytes(b"\x80garbage" * 512)
    ctx = ExperimentContext(config=POWER5.small(), min_repetitions=2,
                            max_cycles=300_000, simcache=cache)
    assert ctx.prefetch([single_cell("ldint_l1")]) == 1
    assert ctx.single("ldint_l1").ipc > 0
    assert cache.stores == 0 and cache.stats()["entries"] == 0
    cache.flush_stats()  # swallowed
    assert SimCache(tmp_path).clear() == 0
    assert not cache.path.exists()
    fresh = SimCache(tmp_path)
    fresh.store(("k",), 1)
    assert SimCache(tmp_path).lookup(("k",)) == 1


def test_entry_digest_cannot_reach_outside_the_cache(tmp_path):
    """raw_entry reads rows by key, never a path built from the digest."""
    (tmp_path / "outside.pkl").write_bytes(b"secret")
    cache = SimCache(tmp_path / "cache")
    cache.store(("a",), 1)
    assert cache.raw_entry("../outside") is None


def test_values_pickle_stably(tmp_path):
    """Cached values roundtrip through pickle without drift."""
    ctx = _ctx(tmp_path)
    ctx.prefetch(CELLS)
    for cell in CELLS:
        value = ctx._cache[cell]
        assert repr(pickle.loads(pickle.dumps(value))) == repr(value)
