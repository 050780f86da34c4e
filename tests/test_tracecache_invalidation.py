"""Trace-cache schema versioning: stale entries are never served.

The sweep/trace cache key starts with ``SCHEMA_VERSION``; an entry
written by any other version of the result schema (e.g. a pickle from
the single-core era, v1) can therefore never satisfy a lookup made by
the current code, no matter how the rest of the key matches.
"""

from __future__ import annotations

import cProfile
import dataclasses
import pstats

import pytest

from repro.core import make_core
from repro.isa import FixedTraceSource, Trace
from repro.isa.compiled import compile_trace
from repro.isa.kernelgen import generate_factory_source
from repro.workloads import tracecache
from repro.workloads.pipeline import SoftwarePipeline
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


def _consts(config):
    return make_core(config)._consts(config.decode_width)


def test_compiled_cache_keyed_by_trace_content(config):
    """The kernel-factory cache key is the instruction tuple itself
    (plus the baked constants): identical content hits regardless of
    provenance, any content change (a different workload here) builds
    a distinct entry."""
    consts = _consts(config)
    trace = tuple(cached_workload("cpu_int", config).repetition(0))
    factory = tracecache.kernel_factory(trace, consts)
    assert factory is not None
    assert tracecache.kernel_factory(tuple(trace), consts) is factory
    info = cache_info()
    assert (info["factory_hits"], info["factory_misses"]) == (1, 1)
    other = tuple(cached_workload("ldint_l1", config).repetition(0))
    assert tracecache.kernel_factory(other, consts) is not factory
    assert cache_info()["factory_entries"] == 2


def test_compiled_cache_invalidated_by_clear(config):
    consts = _consts(config)
    trace = tuple(cached_workload("cpu_int", config).repetition(0))
    factory = tracecache.kernel_factory(trace, consts)
    clear_cache()
    assert cache_info()["factory_entries"] == 0
    rebuilt = tracecache.kernel_factory(trace, consts)
    assert rebuilt is not factory  # genuinely rebuilt, not served stale


#: Geometry changes the kernels bake in: L1D line size (and with it the
#: set count), L1D set count alone, and TLB page size.
GEOMETRIES = {
    "l1d_line": lambda c: dataclasses.replace(
        c, l1d=dataclasses.replace(c.l1d, line_bytes=c.l1d.line_bytes // 2)),
    "l1d_sets": lambda c: dataclasses.replace(
        c, l1d=dataclasses.replace(c.l1d, size_bytes=c.l1d.size_bytes * 2)),
    "tlb_page": lambda c: dataclasses.replace(
        c, tlb=dataclasses.replace(c.tlb, page_bytes=c.tlb.page_bytes * 2)),
}


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_factory_keyed_by_cache_geometry(config, geometry):
    """Configs differing only in L1D or TLB geometry never share a
    kernel factory (its group table bakes set indices and tags in),
    and each runs
    the same trace bit-identically to the object engine."""
    trace = tuple(cached_workload("ldint_l1", config).repetition(0))
    factories = []
    for cfg in (config, GEOMETRIES[geometry](config)):
        factory = tracecache.kernel_factory(trace, _consts(cfg))
        factories.append(factory)
        states = []
        for engine in ("array", "object"):
            core = make_core(dataclasses.replace(cfg, engine=engine))
            core.load([FixedTraceSource(Trace("t", trace))])
            core.step(20_000)
            states.append(core.state())
            if engine == "array":
                assert factory in core._kernel_lists[0]
        assert states[0] == states[1]
    assert factories[0] is not factories[1]
    assert cache_info()["factory_entries"] == 2


def test_kernel_bodies_profile_apart(config):
    """Each compiled kernel body has its own code label, so a cProfile
    run of one pipeline keeps one entry per body of both factories."""
    pipe = SoftwarePipeline(config=config)
    prof = cProfile.Profile()
    prof.runcall(pipe.run, (4, 4), iterations=3, warmup=1)
    entries = {key for key in pstats.Stats(prof).stats
               if key[0].startswith("<trace-kernel ")
               and key[2] == "kernel"}
    consts = _consts(config)
    labels = set()
    for source in (pipe.producer, pipe.consumer):
        bodies, _groups, _n = generate_factory_source(
            compile_trace(tuple(source.repetition(0))), consts)
        labels |= {label for label, _body in bodies}
    assert {file for file, _line, _name in entries} == labels
    assert len(entries) == len(labels) > 2


def test_worker_handshake_rejects_version_mismatch(config):
    """A worker initialised by a coordinator speaking another schema
    version refuses to start instead of silently mixing results."""
    from repro.experiments.base import ExperimentContext
    from repro.experiments.parallel import _init_worker
    from repro.simcache import versions
    spec = ExperimentContext(config=config, min_repetitions=2).spec()
    with pytest.raises(RuntimeError, match="schema version mismatch"):
        _init_worker(spec, dict(versions(), schema=SCHEMA_VERSION + 1))
