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

import dataclasses
import pickle

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
    are bit-identical (differential suite), so a cache populated while
    governed/sampled/chip cells still ran the object engine (or the
    array engine's dense fallback, before jumps learned to clamp at
    hook horizons) must be served verbatim to the telescoping engine.
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


def test_corrupt_entry_recomputed(tmp_path):
    """A truncated or garbage entry degrades to a miss, then heals."""
    cell = single_cell("ldint_l1")
    cold = _ctx(tmp_path)
    cold.prefetch([cell])
    (entry,) = cold.simcache.entries()
    entry.write_bytes(b"\x80garbage")
    warm = _ctx(tmp_path)
    assert warm.prefetch([cell]) == 1  # recomputed
    assert warm.simcache.misses == 1 and warm.simcache.stores == 1
    healed = _ctx(tmp_path)
    assert healed.prefetch([cell]) == 0
    assert repr(healed._cache[cell]) == repr(cold._cache[cell])


def test_key_mismatch_treated_as_miss(tmp_path):
    """An entry whose embedded key differs from the request misses."""
    cache = SimCache(tmp_path)
    key = ("fake", "key")
    cache.store(key, 123)
    (entry,) = cache.entries()
    other = ("other", "key")
    entry.rename(cache._path(other))  # simulate a hash collision
    assert cache.is_miss(cache.lookup(other))


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
    """clear() removes exactly the cache's own files."""
    keep = tmp_path / "unrelated.txt"
    keep.write_text("keep me")
    cache = SimCache(tmp_path)
    cache.store(("a",), 1)
    cache.store(("b",), 2)
    cache.flush_stats()
    assert cache.stats()["entries"] == 2
    swept = cache.clear()
    assert swept["entries"] + swept["packed"] == 2
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


def test_pack_roundtrip(tmp_path):
    """Packing folds every per-cell file into the shard, losslessly.

    A warm context reading purely from the shard must return the same
    bytes as the cold fill, with every lookup a hit.
    """
    cells = CELLS[:3]
    cold = _ctx(tmp_path)
    cold.prefetch(cells)
    assert cold.simcache.pack() == len(cells)
    assert cold.simcache.entries() == []  # per-cell files consumed
    assert (tmp_path / "entries.shard").exists()
    warm = _ctx(tmp_path)
    assert warm.prefetch(cells) == 0
    assert warm.simcache.hits == len(cells)
    assert repr(warm._cache) == repr(cold._cache)


def test_pack_keeps_per_cell_fallback(tmp_path):
    """Cells stored after a pack live beside the shard and win lookups;
    the next pack folds them in."""
    cache = SimCache(tmp_path)
    cache.store(("a",), 1)
    assert cache.pack() == 1
    cache.store(("b",), 2)  # post-pack: per-cell file
    assert len(cache.entries()) == 1
    fresh = SimCache(tmp_path)
    assert fresh.lookup(("a",)) == 1  # from the shard
    assert fresh.lookup(("b",)) == 2  # per-cell fallback
    assert fresh.pack() == 2  # consolidated, old shard content kept
    assert fresh.entries() == []
    again = SimCache(tmp_path)
    assert again.lookup(("a",)) == 1 and again.lookup(("b",)) == 2


def test_repacked_cell_overrides_shard_copy(tmp_path):
    """A cell re-stored after packing outranks its stale shard copy --
    in the storing process immediately, on disk after the next pack."""
    cache = SimCache(tmp_path)
    cache.store(("a",), "old")
    assert cache.pack() == 1
    assert cache.lookup(("a",)) == "old"  # shard index now loaded
    cache.store(("a",), "new")
    assert cache.lookup(("a",)) == "new"
    assert cache.pack() == 1  # per-cell copy wins the merge
    assert SimCache(tmp_path).lookup(("a",)) == "new"


def test_corrupt_shard_degrades_to_miss(tmp_path):
    """A truncated or garbage shard never breaks lookups."""
    cache = SimCache(tmp_path)
    cache.store(("a",), 1)
    cache.pack()
    shard = tmp_path / "entries.shard"
    shard.write_bytes(b"P5SHARD\x01garbage")
    fresh = SimCache(tmp_path)
    assert fresh.is_miss(fresh.lookup(("a",)))
    fresh.store(("a",), 1)  # heals as a per-cell entry
    assert fresh.lookup(("a",)) == 1


def test_pack_empty_cache_is_noop(tmp_path):
    cache = SimCache(tmp_path)
    assert cache.pack() == 0
    assert not (tmp_path / "entries.shard").exists()


def test_clear_removes_shard(tmp_path):
    cache = SimCache(tmp_path)
    cache.store(("a",), 1)
    cache.store(("b",), 2)
    cache.pack()
    cache.store(("c",), 3)
    assert cache.stats()["entries"] == 3
    assert cache.stats()["packed"] == 2
    swept = cache.clear()
    assert swept["entries"] + swept["packed"] == 3
    assert cache.stats()["entries"] == 0
    assert not (tmp_path / "entries.shard").exists()


def test_clear_sweeps_droppings_but_keeps_live_holds(tmp_path):
    """clear() sweeps spool/lock/hold droppings per category; hold
    markers of live processes survive (they protect a running
    service's cache view)."""
    import os
    cache = SimCache(tmp_path)
    cache.store(("a",), 1)
    cache.hits = 5
    cache.flush_stats()  # leaves stats spool files behind
    (tmp_path / "pack.lock").write_text("12345")
    holds = tmp_path / "holds"
    holds.mkdir()
    live = holds / f"{os.getpid()}.live.hold"
    live.write_text(str(os.getpid()))
    (holds / "99999999.dead.hold").write_text("99999999")  # no such pid
    swept = cache.clear()
    assert swept["entries"] == 1
    assert swept["locks"] == 1
    assert swept["spool"] >= 1
    assert swept["holds"] == 1  # dead-owner marker reaped
    assert swept["live_holds"] == 1  # ours kept: the live-pid guard
    assert live.exists()
    assert not (holds / "99999999.dead.hold").exists()
    assert not (tmp_path / "pack.lock").exists()
    assert list(tmp_path.glob("stats-delta.*.json")) == []


def test_pack_skipped_while_cache_is_held(tmp_path):
    """pack() refuses while a live process holds the cache open --
    deleting per-cell files under a running service would downgrade
    its fresh stores to stale shard copies."""
    cache = SimCache(tmp_path)
    cache.store(("a",), 1)
    cache.store(("b",), 2)
    with cache.hold():
        assert cache.pack() == 0
        assert len(cache.entries()) == 2  # untouched
        assert not (tmp_path / "entries.shard").exists()
    assert cache.pack() == 2  # hold released: packing proceeds
    assert cache.entries() == []


def test_pack_ignores_dead_and_stale_holds(tmp_path):
    """Holds of dead processes are reaped, not honoured forever."""
    cache = SimCache(tmp_path)
    cache.store(("a",), 1)
    holds = tmp_path / "holds"
    holds.mkdir()
    (holds / "99999999.dead.hold").write_text("99999999")  # no such pid
    stale = holds / "unreadable.hold"
    stale.write_text("not-a-pid")
    old = simstore._HOLD_STALE_S + 60
    import os
    import time as time_mod
    os.utime(stale, (time_mod.time() - old, time_mod.time() - old))
    assert cache.pack() == 1  # both holds dismissed
    assert list(holds.glob("*.hold")) == []  # and reaped


def test_pack_lock_prevents_concurrent_packs(tmp_path):
    """A fresh pack.lock makes pack() yield; a stale one is broken."""
    import os
    import time as time_mod
    cache = SimCache(tmp_path)
    cache.store(("a",), 1)
    lock = tmp_path / "pack.lock"
    lock.write_text("12345")
    assert cache.pack() == 0  # someone else is packing
    assert lock.exists()  # their lock untouched
    old = time_mod.time() - 3600
    os.utime(lock, (old, old))  # holder crashed an hour ago
    assert cache.pack() == 1
    assert not lock.exists()


def _flush_stats_worker(root):
    """Module-level for multiprocessing picklability."""
    cache = SimCache(root)
    cache.hits, cache.misses, cache.stores = 3, 2, 1
    cache.flush_stats()


def test_concurrent_stats_flushes_lose_nothing(tmp_path):
    """N processes flushing counters concurrently sum exactly -- the
    read-modify-write race the delta-spool design eliminates."""
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


def test_stats_compaction_folds_deltas(tmp_path):
    """Deltas fold into stats.json without changing the totals, and a
    flush with zeroed counters is a pure compaction."""
    for _ in range(3):
        writer = SimCache(tmp_path)
        writer.hits, writer.misses, writer.stores = 5, 1, 2
        writer.flush_stats()
        # flush resets the session counters: repeat flushes are no-ops.
        assert (writer.hits, writer.misses, writer.stores) == (0, 0, 0)
        writer.flush_stats()
    cache = SimCache(tmp_path)
    assert cache.persistent_stats() == {"hits": 15, "misses": 3,
                                        "stores": 6}
    assert list(tmp_path.glob("stats-delta.*.json")) == []  # folded
    assert (tmp_path / "stats.json").exists()


def test_values_pickle_stably(tmp_path):
    """Cached values roundtrip through pickle without drift."""
    ctx = _ctx(tmp_path)
    ctx.prefetch(CELLS)
    for cell in CELLS:
        value = ctx._cache[cell]
        assert repr(pickle.loads(pickle.dumps(value))) == repr(value)
