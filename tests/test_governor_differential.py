"""Differential validation of governed runs.

A governor is a periodic hook plus sysfs writes, so governed runs must
inherit both determinism guarantees of the simulator:

- **engine bit-identity**: the array engine produces results and
  decision logs byte-identical to the object reference loop;
- **process bit-identity**: governed sweep cells computed by worker
  processes (``PoolBackend``) equal the serial in-process computation.

Policies are pure state machines over their observations (no clocks,
no randomness), which is what makes these comparisons exact.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import POWER5
from repro.experiments import ExperimentContext, governed_cell
from repro.experiments.parallel import PoolBackend
from repro.fame import FameRunner
from repro.governor import Governor, GovernorConfig, make_policy
from repro.microbench import make_microbenchmark

SECONDARY_BASE = (1 << 27) + 8192

#: The epoch mandated for the differential matrix: short enough that
#: epoch boundaries land inside memory stalls and starvation waits.
EPOCH = 200

SCENARIOS = [
    ("cpu_int", "ldint_mem", "ipc_balance", {}),
    ("cpu_int", "cpu_fp", "throughput_max", {}),
    ("ldint_l2", "ldint_mem", "transparent", {"st_ipc": 0.5}),
]


@pytest.fixture(scope="module")
def configs():
    """(array, object) config pair -- identical but for the engine."""
    array = POWER5.small()
    obj = dataclasses.replace(array, engine="object")
    assert array.engine == "array"
    return array, obj


def _governed_fame(config, primary, secondary, policy, params):
    cfg = GovernorConfig(epoch=EPOCH)
    gov = Governor(cfg, make_policy(policy, cfg, **params))
    runner = FameRunner(config, min_repetitions=2, max_cycles=250_000)
    fame = runner.run_pair(
        make_microbenchmark(primary, config),
        make_microbenchmark(secondary, config,
                            base_address=SECONDARY_BASE),
        priorities=(4, 4), governor=gov)
    return fame, gov


@pytest.mark.parametrize("primary,secondary,policy,params", SCENARIOS)
def test_engine_bit_identity(configs, primary, secondary, policy,
                             params):
    """Governed FAME runs are bit-identical across engines."""
    array_cfg, obj_cfg = configs
    array, array_gov = _governed_fame(array_cfg, primary, secondary,
                                      policy, params)
    ref, ref_gov = _governed_fame(obj_cfg, primary, secondary,
                                  policy, params)
    assert array_gov.decision_log() == ref_gov.decision_log()
    assert array_gov.final_priorities == ref_gov.final_priorities
    assert array == ref
    # The differential proves nothing if the governor never acted.
    assert ref_gov.applied_changes > 0


def test_engine_bit_identity_pipeline(configs):
    """The governed FFT/LU pipeline agrees across engine configs.

    (The pipeline's rep gate already forces the reference loop; this
    pins that a governed gated run cannot diverge either.)
    """
    from repro.governor import PipelinePolicy
    from repro.workloads.pipeline import SoftwarePipeline

    results = []
    for config in configs:
        cfg = GovernorConfig(epoch=EPOCH)
        gov = Governor(cfg, PipelinePolicy(cfg))
        pipe = SoftwarePipeline(config=config)
        results.append(pipe.run(priorities=(4, 4), iterations=8,
                                max_cycles=2_000_000, governor=gov))
    assert results[0] == results[1]
    assert results[0].decisions


def test_serial_vs_parallel_governed_cells(config):
    """Governed sweep cells are identical serially and on 2 workers."""
    cells = [governed_cell(p, s, (4, 4), policy, params)
             for p, s, policy, params in SCENARIOS]
    kwargs = dict(config=config, min_repetitions=2,
                  max_cycles=250_000, governor_epoch=EPOCH)
    serial = ExperimentContext(**kwargs)
    parallel = ExperimentContext(backend=PoolBackend(2), **kwargs)
    serial.prefetch(cells)
    parallel.prefetch(cells)
    for cell in cells:
        a, b = serial.cell(cell), parallel.cell(cell)
        assert a == b, f"serial/parallel divergence for {cell}"
        assert a.decisions == b.decisions
    assert any(serial.cell(c).decisions for c in cells)


def test_ctx_governor_serial_vs_parallel(config):
    """--governor pair cells agree serially and on 2 workers too."""
    from repro.experiments.base import pair_cell
    cells = [pair_cell("cpu_int", "ldint_mem", (4, 4)),
             pair_cell("cpu_int", "cpu_fp", (4, 4))]
    kwargs = dict(config=config, min_repetitions=2,
                  max_cycles=200_000, governor="ipc_balance",
                  governor_epoch=EPOCH)
    serial = ExperimentContext(**kwargs)
    parallel = ExperimentContext(backend=PoolBackend(2), **kwargs)
    serial.prefetch(cells)
    parallel.prefetch(cells)
    for cell in cells:
        assert serial.cell(cell) == parallel.cell(cell)
        assert serial.cell(cell).policy == "ipc_balance"
