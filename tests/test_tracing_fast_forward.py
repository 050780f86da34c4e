"""PipelineTracer across engines: tracing is exact on both.

The decision (documented in :mod:`repro.core.tracing`): an attached
tracer routes the array engine to the per-cycle loop it inherits from
the object engine, because a compiled group kernel records no
per-instruction events.  Both engines therefore
visit the same decode cycles with the same state, and the recorded
(decode, issue, complete) triples must be bit-identical.  These
regression tests pin that contract so a future array-engine change
that stops routing traced runs fails loudly instead of silently
corrupting traces.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import POWER5
from repro.core import make_core
from repro.core.tracing import PipelineTracer
from repro.experiments.base import priority_pair
from repro.microbench import make_microbenchmark

SECONDARY_BASE = (1 << 27) + 8192

PAIRS = [("cpu_int", "ldint_mem"), ("ldint_l2", "cpu_fp"),
         ("lng_chain_cpuint", "ldint_l1")]
DIFFS = (-5, 0, 5)


@pytest.fixture(scope="module")
def configs():
    """(array, object) config pair -- identical but for the engine."""
    array = POWER5.small()
    obj = dataclasses.replace(array, engine="object")
    return array, obj


def _traced_run(config, primary, secondary, priorities, cap=120_000):
    core = make_core(config)
    core.load([make_microbenchmark(primary, config),
               make_microbenchmark(secondary, config,
                                   base_address=SECONDARY_BASE)],
              priorities=priorities)
    tracer = PipelineTracer(limit=200_000)
    core.attach_tracer(tracer)
    while not core.all_finished() and core.cycle < cap:
        core.step(4096)
    core.drain()
    return core.result(), tracer


@pytest.mark.parametrize("primary,secondary", PAIRS)
@pytest.mark.parametrize("diff", DIFFS)
def test_trace_identical_across_engines(configs, primary, secondary,
                                        diff):
    """Event streams match the reference engine event for event."""
    array_cfg, obj_cfg = configs
    priorities = priority_pair(diff)
    array_res, array_tr = _traced_run(array_cfg, primary, secondary,
                                      priorities)
    ref_res, ref_tr = _traced_run(obj_cfg, primary, secondary,
                                  priorities)
    assert array_res == ref_res
    assert len(ref_tr) > 0
    assert array_tr.dropped == ref_tr.dropped
    assert array_tr.events == ref_tr.events


def test_tracer_coexists_with_pmu_sampling(configs):
    """Tracing + PMU sampling together stay exact across engines."""
    from repro.pmu import IntervalSampler

    def run(config):
        core = make_core(config)
        core.load([make_microbenchmark("cpu_int", config),
                   make_microbenchmark("ldint_mem", config,
                                       base_address=SECONDARY_BASE)],
                  priorities=(6, 2))
        tracer = PipelineTracer(limit=200_000)
        core.attach_tracer(tracer)
        sampler = IntervalSampler(1009)
        sampler.attach(core)
        while not core.all_finished() and core.cycle < 120_000:
            core.step(4096)
        core.drain()
        return core.result(), tracer.events, tuple(sampler.samples)

    array_cfg, obj_cfg = configs
    assert run(array_cfg) == run(obj_cfg)
