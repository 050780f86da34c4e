"""Differential exactness of the emulated PMU.

The PMU's headline guarantee: every counter, interval sample and FAME
telemetry point is **bit-identical** between the array engine and
the per-cycle object reference loop, over the full
microbenchmark x priority-difference matrix (executor equivalence of
instrumented cells is asserted by ``tests/test_executors.py``).

:class:`repro.pmu.PmuReport` is a frozen value type, so a single
equality assertion covers the counter bank, the sample series, the
convergence telemetry and the repetition spans at once.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import POWER5
from repro.experiments.base import priority_pair
from repro.fame import FameRunner
from repro.microbench import EVALUATED_BENCHMARKS, make_microbenchmark
from repro.pmu import Pmu

SECONDARY_BASE = (1 << 27) + 8192

#: Priority differences exercised by the differential matrix.
DIFFS = (-5, -2, 0, 2, 5)

MATRIX = [(bench, EVALUATED_BENCHMARKS[(i + 1) % len(EVALUATED_BENCHMARKS)],
           diff)
          for i, bench in enumerate(EVALUATED_BENCHMARKS)
          for diff in DIFFS]

#: Deliberately awkward sampling period: prime, unaligned with decode
#: patterns, repetition lengths and the step chunk, so samples land
#: mid-span.
SAMPLE_PERIOD = 1009


@pytest.fixture(scope="module")
def configs():
    """(array, object) config pair -- identical but for the engine."""
    array = POWER5.small()
    obj = dataclasses.replace(array, engine="object")
    assert array.engine == "array"
    return array, obj


def _instrumented(config, primary, secondary, priorities):
    runner = FameRunner(config, min_repetitions=2, max_cycles=250_000)
    pmu = Pmu(sample_period=SAMPLE_PERIOD)
    fame = runner.run_pair(
        make_microbenchmark(primary, config),
        make_microbenchmark(secondary, config,
                            base_address=SECONDARY_BASE),
        priorities=priorities, pmu=pmu)
    return fame, pmu.report()


@pytest.mark.parametrize("primary,secondary,diff", MATRIX)
def test_counters_identical_across_engines(configs, primary, secondary,
                                           diff):
    """Counters, samples and telemetry match the reference engine."""
    array_cfg, obj_cfg = configs
    priorities = priority_pair(diff)
    array_fame, array_report = _instrumented(array_cfg, primary,
                                             secondary, priorities)
    obj_fame, obj_report = _instrumented(obj_cfg, primary, secondary,
                                         priorities)
    assert array_fame == obj_fame
    assert array_report == obj_report
    # The assertion above must be comparing real content.
    assert array_report.counter("PM_INST_CMPL", 0) > 0
    assert array_report.samples or array_report.cycles < SAMPLE_PERIOD
    assert array_report.fame_samples
    # And the stack partition survives both engines.
    for tid in (0, 1):
        assert array_report.cpi_stack(tid).total == array_report.cycles
