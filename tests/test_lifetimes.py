"""Run lifetimes: a finished cell leaves no core behind for the collector.

Cores are large (kernels, caches, traces), so a core that survives its
cell only as cyclic garbage inflates peak RSS until the cyclic
collector happens to run.  Each cell kind is computed with the
collector disabled; every core it built must be freed by reference
counting alone.  A software pipeline keeps one core for all its runs,
which must die with the pipeline; a governed run's governor must die
when the run returns.
"""

import gc
import weakref

import pytest

from repro.config import POWER5
from repro.core import SMTCore
from repro.experiments import ExperimentContext
from repro.experiments.base import governed_cell, pair_cell, single_cell
from repro.experiments.chip import chip_cell
from repro.governor import Governor, GovernorConfig, PipelinePolicy
from repro.workloads import SoftwarePipeline

CELLS = {
    "single": single_cell("cpu_int"),
    "pair": pair_cell("cpu_int", "ldint_mem", (5, 3)),
    "governed_ipc_balance": governed_cell(
        "cpu_int", "ldint_mem", (4, 4), "ipc_balance"),
    "governed_prefetch_adapt": governed_cell(
        "cpu_int", "ldint_mem", (4, 4), "prefetch_adapt",
        {"depth": 4, "degree": 2}),
    "chip_round_robin": chip_cell("spec", "round_robin", 2, 1),
    "chip_symbiosis": chip_cell("spec", "symbiosis", 2, 1),
}


@pytest.mark.parametrize("key", list(CELLS.values()), ids=list(CELLS))
def test_cell_frees_its_cores_without_gc(key, monkeypatch):
    built: list[weakref.ref] = []
    init = SMTCore.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(SMTCore, "__init__", recording_init)
    ctx = ExperimentContext(config=POWER5.small(), min_repetitions=2,
                            max_cycles=200_000)
    gc.collect()
    gc.disable()
    try:
        ctx.compute_cell(key)
        assert built
        alive = [ref for ref in built if ref() is not None]
        assert not alive, f"{len(alive)} of {len(built)} cores outlive it"
    finally:
        gc.enable()


def test_pipeline_frees_its_core_without_gc():
    pipe = SoftwarePipeline(config=POWER5.small())
    cfg = GovernorConfig(epoch=2048)
    gc.collect()
    gc.disable()
    try:
        pipe.run((5, 4), iterations=3, warmup=1)
        pipe.run((4, 4), iterations=4, warmup=1,
                 governor=Governor(cfg, PipelinePolicy(cfg)))
        core = weakref.ref(pipe._core)
        del pipe
        assert core() is None
    finally:
        gc.enable()


def test_pipeline_releases_its_governor_after_run():
    pipe = SoftwarePipeline(config=POWER5.small())
    cfg = GovernorConfig(epoch=2048)
    governor = Governor(cfg, PipelinePolicy(cfg))
    gone = weakref.ref(governor)
    gc.collect()
    gc.disable()
    try:
        pipe.run((4, 4), iterations=4, warmup=1, governor=governor)
        del governor
        assert gone() is None
        assert pipe._core is not None
    finally:
        gc.enable()
