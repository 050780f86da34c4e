"""Every mutable field of the machine is in some subsystem's ``state()``.

The differential suites compare ``SMTCore.state()``, built from each
subsystem's own ``state()``.  After a governed, prefetch-enabled SMT2
run on each engine, every object with a ``state()`` reachable from the
core must read each instance attribute there or declare it non-state.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.config import POWER5
from repro.core import make_core
from repro.governor import Governor, GovernorConfig, PrefetchAdaptPolicy
from repro.microbench import make_microbenchmark
from repro.prefetch import PrefetchConfig

#: Subsystem class name -> attributes that are not state (config,
#: wiring, hoisted constants, and caches or aliases of compared state);
#: a class inherits its bases' entries.  The arbiter is a function of
#: the interface's priorities, a thread's ``trace`` of its ``source``
#: and ``rep_index``.
NON_STATE = {
    "SMTCore": {"config", "_rep_gate", "_tracer", "_arbiter", "_dec_consts",
                "_fxu_pool", "_lsu_pool", "_fpu_pool", "_bxu_issue",
                "_hier_load", "_hier_store"},
    "ArraySMTCore": {"_dispatch_tab", "_dispatch_arb", "_kern_consts"},
    "HardwareThread": {"thread_id", "source", "privilege", "trace"},
    "ArrayThread": {"_rep_obj", "_bound_trace", "_trace_tuple", "kernels",
                    "_kern_width", "_kern_cache"},
    "FunctionalUnits": set(),
    "UnitPool": {"name", "count"},
    "MemoryHierarchy": {"config", "chip_port", "_tlb_penalty",
                        "_l1_latency", "_l2_latency", "_l3_latency",
                        "_mem_duration", "_store_latency", "_l1_counts",
                        "_l2_counts", "_l3_counts", "_mem_counts", "_pf"},
    "LoadMissQueue": {"entries"},
    "DRAM": {"config"},
    "SetAssociativeCache": {"config", "name", "_num_sets", "_line_bytes",
                            "_assoc"},
    "TLB": {"config", "_num_sets", "_assoc", "_page_bytes"},
    "BimodalBHT": {"config", "_mask"},
    "ResourceBalancer": {"config", "resume_threshold"},
    "StreamPrefetcher": {"config", "_matches", "_nstreams", "_line_bytes",
                         "_mem_duration"},
}


class _Reads:
    """Stands in for ``self`` in a ``state()`` call; records reads."""

    def __init__(self, target):
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "names", set())

    def __getattr__(self, name):
        self.names.add(name)
        return getattr(self._target, name)


def _attributes(obj) -> set[str]:
    names = set(getattr(obj, "__dict__", ()))
    for cls in type(obj).__mro__:
        names.update(n for n in getattr(cls, "__slots__", ())
                     if hasattr(obj, n))
    return names


def _stateful(obj, seen: dict) -> dict:
    """``obj`` and every object with a ``state()`` reachable from it."""
    seen[id(obj)] = obj
    for name in _attributes(obj):
        value = getattr(obj, name)
        for v in value if isinstance(value, list) else (value,):
            if id(v) not in seen and hasattr(type(v), "state"):
                _stateful(v, seen)
    return seen


@pytest.fixture(scope="module")
def cores():
    """A governed, prefetch-enabled SMT2 run on each engine."""
    array = POWER5.small().replace(prefetch=PrefetchConfig(
        enabled=(True, True), depth=4, degree=2))
    out = []
    for config in (array, dataclasses.replace(array, engine="object")):
        core = make_core(config)
        core.load([make_microbenchmark("ldint_mem", config),
                   make_microbenchmark("ldint_l2", config,
                                       base_address=(1 << 27) + 8192)])
        gcfg = GovernorConfig(epoch=16_384)
        gov = Governor(gcfg, PrefetchAdaptPolicy(gcfg))
        gov.attach(core)
        core.step(150_000)
        assert gov.decisions
        out.append(core)
    return out


def test_every_attribute_is_state_or_declared_non_state(cores):
    reached = set()
    for core in cores:
        for obj in _stateful(core, {}).values():
            mro = [cls.__name__ for cls in type(obj).__mro__]
            assert mro[0] in NON_STATE, f"undeclared subsystem {mro[0]}"
            reached.add(mro[0])
            state, rec = type(obj).state, _Reads(obj)
            if "now" in inspect.signature(state).parameters:
                state(rec, core.cycle)
            else:
                state(rec)
            skipped = set().union(*(NON_STATE.get(c, ()) for c in mro))
            attrs = _attributes(obj)
            missing = attrs - rec.names - skipped
            assert not missing, f"{mro[0]}: {sorted(missing)} not in state()"
            assert skipped <= attrs, f"{mro[0]}: no {sorted(skipped - attrs)}"
    assert reached == set(NON_STATE)


def test_governed_prefetch_state_identical_across_engines(cores):
    array, obj = cores
    assert sum(obj.hierarchy.prefetcher.stats.issues) > 0
    assert array.state() == obj.state()
