"""Trace-cache schema versioning: stale entries are never served.

The sweep/trace cache key starts with ``SCHEMA_VERSION``; an entry
written by any other version of the result schema (e.g. a pickle from
the single-core era, v1) can therefore never satisfy a lookup made by
the current code, no matter how the rest of the key matches.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.workloads import tracecache
from repro.workloads.tracecache import (
    SCHEMA_VERSION,
    cache_info,
    cached_workload,
    clear_cache,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


def test_schema_version_is_first_key_component(config):
    cached_workload("cpu_int", config)
    (key,) = tracecache._CACHE
    assert key[0] == SCHEMA_VERSION
    assert key[1:] == ("cpu_int", 0, config.fingerprint())


def test_old_version_entry_is_rejected(config):
    """An entry planted under the previous schema version is ignored:
    the lookup misses and rebuilds under the current version."""
    stale = object()  # stands in for an incompatibly-shaped result
    tracecache._CACHE[
        (SCHEMA_VERSION - 1, "cpu_int", 0, config.fingerprint())] = stale
    source = cached_workload("cpu_int", config)
    assert source is not stale
    info = cache_info()
    assert (info["hits"], info["misses"], info["entries"]) == (0, 1, 2)
    # The stale entry stays inert; the fresh one is the one served.
    assert cached_workload("cpu_int", config) is source
    assert cache_info()["hits"] == 1


def test_legacy_unversioned_key_is_never_served(config):
    """Pre-versioning 3-tuple keys cannot collide with current keys."""
    stale = object()
    tracecache._CACHE[("cpu_int", 0, config.fingerprint())] = stale
    assert cached_workload("cpu_int", config) is not stale


def test_hit_requires_same_config_fingerprint(config):
    a = cached_workload("cpu_int", config)
    changed = dataclasses.replace(
        config, fx_latency=config.fx_latency + 1)
    b = cached_workload("cpu_int", changed)
    assert a is not b
    assert cache_info()["misses"] == 2


def test_clear_cache_resets_everything(config):
    cached_workload("cpu_int", config)
    cached_workload("cpu_int", config)
    clear_cache()
    assert all(v == 0 for v in cache_info().values())


def test_compiled_cache_keyed_by_trace_content(config):
    """The compiled-trace cache key is the instruction tuple itself:
    identical content hits regardless of provenance, any content
    change (a different workload here) builds a distinct entry."""
    trace = tuple(cached_workload("cpu_int", config).repetition(0))
    compiled = tracecache.compiled_trace(trace)
    assert tracecache.compiled_trace(tuple(trace)) is compiled
    info = cache_info()
    assert (info["compiled_hits"], info["compiled_misses"]) == (1, 1)
    other = tuple(cached_workload("ldint_l1", config).repetition(0))
    assert tracecache.compiled_trace(other) is not compiled
    assert cache_info()["compiled_entries"] == 2


def test_compiled_cache_invalidated_by_clear(config):
    trace = tuple(cached_workload("cpu_int", config).repetition(0))
    compiled = tracecache.compiled_trace(trace)
    clear_cache()
    assert cache_info()["compiled_entries"] == 0
    rebuilt = tracecache.compiled_trace(trace)
    assert rebuilt is not compiled  # genuinely rebuilt, not served stale


def test_worker_handshake_rejects_version_mismatch(config):
    """A worker initialised by a coordinator speaking another schema
    version refuses to start instead of silently mixing results."""
    from repro.experiments.base import ExperimentContext
    from repro.experiments.parallel import _init_worker
    from repro.simcache import versions
    spec = ExperimentContext(config=config, min_repetitions=2).spec()
    with pytest.raises(RuntimeError, match="schema version mismatch"):
        _init_worker(spec, dict(versions(), schema=SCHEMA_VERSION + 1))
