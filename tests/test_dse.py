"""The ``dse`` experiment: design-space claims and planner gating.

The sweep itself is post-hoc arithmetic over a small PMU-instrumented
cell matrix, so a full run on the small config is fast enough to
assert the experiment's headline claims directly:

- (1,1) -- the paper's low-power mode -- wins lowest power at every
  single-core operating point;
- the ``energy_budget`` governed run holds its cap within tolerance
  while out-throughputting static (1,1);
- the Pareto frontier is strictly monotone in both axes.
"""

from __future__ import annotations

import pytest

from repro.config import POWER5
from repro.experiments.base import ExperimentContext
from repro.experiments.dse import (
    DSE_CORES,
    DSE_FREQS,
    DSE_NODES,
    DSE_PAIRS,
    DSE_PRIORITIES,
    cells,
    governed_cells,
    run_dse,
)


def _ctx(**kwargs) -> ExperimentContext:
    kwargs.setdefault("pmu", True)
    return ExperimentContext(config=POWER5.small(), min_repetitions=2,
                             max_cycles=200_000, **kwargs)


@pytest.fixture(scope="module")
def report():
    """One full dse run shared by the claim assertions."""
    return run_dse(_ctx())


def test_cells_cover_the_static_matrix():
    ctx = _ctx()
    matrix = cells(ctx)
    assert len(matrix) == len(DSE_PAIRS) * len(DSE_PRIORITIES)
    assert len(set(matrix)) == len(matrix)
    assert all(c[0] == "pair" for c in matrix)


def test_cells_gate_on_instrumentation_and_governor():
    """A context that cannot own static PMU cells plans none."""
    assert cells(_ctx(pmu=False)) == []
    assert governed_cells(_ctx(pmu=False)) == []
    governed = _ctx(governor="ipc_balance")
    assert cells(governed) == []
    assert governed_cells(governed) == []


def test_point_matrix_is_complete(report):
    expect = (len(DSE_PAIRS) * len(DSE_PRIORITIES) * len(DSE_NODES)
              * len(DSE_FREQS) * len(DSE_CORES))
    assert len(report.data["points"]) == expect
    assert report.data["pareto"]  # non-empty frontier


def test_claim_1v1_is_lowest_power(report):
    claims = report.data["claims"]
    assert claims["lowest_power_all_1v1"], \
        [e for e in claims["lowest_power_is_1v1"] if not e["is_1v1"]]


def test_claim_governor_holds_cap(report):
    gov = report.data["governed"]
    claims = report.data["claims"]
    assert claims["governed_holds_cap"], claims["governed_cap_ratio"]
    assert claims["governed_cap_ratio"] == pytest.approx(
        gov["avg_power_w"] / gov["cap_w"])
    # The cap bites: it sits below the unconstrained (4,4) draw, and
    # the governor actually acted to respect it.
    assert gov["cap_w"] < gov["static_4v4"]["watts"]
    assert gov["changes"] > 0


def test_claim_governed_beats_static_1v1(report):
    gov = report.data["governed"]
    assert report.data["claims"]["governed_beats_static_1v1"]
    assert gov["total_ipc"] > gov["static_1v1"]["total_ipc"]


def test_claim_pareto_monotone(report):
    assert report.data["claims"]["pareto_monotone"]
    pareto = report.data["pareto"]
    watts = [p["watts"] for p in pareto]
    assert watts == sorted(watts)


def test_report_renders_all_sections(report):
    text = str(report)
    assert "Pareto frontier" in text
    assert "power ranking" in text
    assert "energy_budget governor" in text
    assert "design-space claims" in text


def test_uninstrumented_context_measures_through_twin():
    """run_dse on a plain context builds one memoised PMU twin."""
    ctx = ExperimentContext(config=POWER5.small(), min_repetitions=2,
                            max_cycles=200_000)
    rep = run_dse(ctx, pairs=(("cpu_int", "ldint_mem"),),
                  priorities=((1, 1), (4, 4)), nodes=(45,),
                  freqs=(1.0,), cores=(1,))
    twin = ctx.twin()
    assert twin is not ctx and twin.pmu and twin.governor is None
    assert twin.cached_runs() > 0  # run_dse measured through this twin
    assert rep.data["points"]
    assert ctx.cached_runs() == 0  # owner context stayed untouched
