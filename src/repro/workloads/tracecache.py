"""Memoised workload construction.

Building a workload trace is deterministic in (name, machine
configuration, base address): the micro-benchmarks size their working
sets from the cache geometry and the SPEC profiles expand fixed
instruction mixes.  Sweeps re-measure the same few workloads hundreds
of times, so the sources are built once and shared.

Sharing is safe because trace sources are immutable to the simulator:
:class:`~repro.core.thread.HardwareThread` copies the repetition into
its own list and never writes back (the test-suite pins this down).
The cache key uses :meth:`CoreConfig.fingerprint`, so two equal
configurations share entries while any parameter change (cache sizes,
latencies, balancer thresholds, ...) misses.
"""

from __future__ import annotations

from repro.config import CoreConfig
from repro.isa.compiled import CompiledTrace, compile_trace
from repro.isa.kernelgen import (KernelConsts, compile_factory,
                                 generate_factory_source)
from repro.isa.trace import TraceSource
from repro.microbench import make_microbenchmark
from repro.workloads.spec import SPEC_PROFILES, make_spec_workload

#: (name, base_address, config fingerprint) -> built TraceSource.
#: Version of the cached-result schema.  Bump whenever the shape of
#: what simulations produce from a cached source changes in a way that
#: makes previously cached entries unusable (v1: single-core era;
#: v2: chip era -- sources may be shared with multi-core runs whose
#: address layout conventions differ from the single-core sweep).  The
#: version is the *first* component of every cache key, so entries
#: written under any other version can never be served: a lookup under
#: the current version cannot collide with them.
SCHEMA_VERSION = 2

_CACHE: dict[tuple[int, str, int, str], TraceSource] = {}

#: Cache-effectiveness counters (inspectable; see :func:`cache_info`).
_HITS = 0
_MISSES = 0


def cached_workload(name: str, config: CoreConfig,
                    base_address: int = 0) -> TraceSource:
    """Build (or fetch) the trace source for ``name`` under ``config``.

    Dispatches to :func:`make_spec_workload` for SPEC profile names and
    :func:`make_microbenchmark` otherwise, exactly like the experiment
    layer's ad-hoc construction did before memoisation.
    """
    global _HITS, _MISSES
    key = (SCHEMA_VERSION, name, base_address, config.fingerprint())
    source = _CACHE.get(key)
    if source is not None:
        _HITS += 1
        return source
    _MISSES += 1
    if name in SPEC_PROFILES:
        source = make_spec_workload(name, config, base_address)
    else:
        source = make_microbenchmark(name, config, base_address)
    _CACHE[key] = source
    return source


def compiled_trace(instructions: tuple) -> CompiledTrace:
    """The flat struct-of-arrays form of an instruction tuple.

    Not memoised: its only consumer, :func:`kernel_factory`, already
    caches per ``(instructions, consts)``, so each trace is compiled
    once per set of baked constants and the arrays are then dropped.
    """
    return compile_trace(instructions)


# ----------------------------------------------------------------------
# Compiled kernel-factory cache (array engine codegen)
# ----------------------------------------------------------------------
#
# One step past the flat arrays: repro.isa.kernelgen compiles a trace
# to straightline Python, one function per decode-group start, with
# the relevant configuration constants baked in as literals.  Emitting
# and compiling the distinct group bodies, one small module each, is
# the expensive part, so factories are cached process-wide keyed by
# (instruction tuple, baked constants); a None entry records that the
# trace is not kernelizable under those constants.

_FACTORIES: dict[tuple, object] = {}

_FACTORY_HITS = 0
_FACTORY_MISSES = 0

_FACTORY_UNSET = object()


def kernel_factory(instructions: tuple, consts: KernelConsts):
    """Fetch (or compile) the kernel factory for a trace.

    Returns the kernel factory (:func:`compile_factory`), or None when the
    trace is not kernelizable under ``consts`` (the engine then uses
    its reference decode path).  The negative answer is cached too.
    """
    global _FACTORY_HITS, _FACTORY_MISSES
    key = (instructions, consts)
    factory = _FACTORIES.get(key, _FACTORY_UNSET)
    if factory is not _FACTORY_UNSET:
        _FACTORY_HITS += 1
        return factory
    _FACTORY_MISSES += 1
    generated = generate_factory_source(compiled_trace(instructions), consts)
    factory = None if generated is None else compile_factory(*generated)
    _FACTORIES[key] = factory
    return factory


def cache_info() -> dict[str, int]:
    """Hit/miss/size counters of the source and kernel-factory caches."""
    return {"hits": _HITS, "misses": _MISSES, "entries": len(_CACHE),
            "factory_hits": _FACTORY_HITS,
            "factory_misses": _FACTORY_MISSES,
            "factory_entries": len(_FACTORIES)}


def clear_cache() -> None:
    """Drop all cached sources/compilations and zero the counters."""
    global _HITS, _MISSES, _FACTORY_HITS, _FACTORY_MISSES
    _CACHE.clear()
    _HITS = 0
    _MISSES = 0
    _FACTORIES.clear()
    _FACTORY_HITS = 0
    _FACTORY_MISSES = 0
