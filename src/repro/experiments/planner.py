"""Cross-experiment cell planning: simulate each unique cell once.

The experiments of this repro overlap heavily: Figures 2, 3 and 4 are
three views of the same 396-cell priority sweep, Table 3 is its (4,4)
slice, Figure 6 reuses the single-thread baselines, and the governor
and chip experiments share SPEC solo runs.  Run one at a time, each
experiment's :meth:`~repro.experiments.base.ExperimentContext.prefetch`
only deduplicates *within* its own batch (plus whatever an earlier
experiment happened to leave in the shared in-memory cache) -- and an
executor pays its start-up per batch (a ``--jobs`` sweep forks one
worker pool per batch), so late batches with few missing cells waste
it.

This module plans ahead instead: it collects the union of every cell
the selected experiments will consume, deduplicates it, and issues it
as one prefetch.  Each unique cell is simulated exactly once -- by
whichever executor the context's ``backend`` names -- and the results
fan out to every experiment through the context cache.  The
experiments' own ``prefetch`` calls then find everything already
measured and become no-ops, so running them after
:func:`prefetch_all` changes no reported number (the test-suite
asserts byte-identical reports).

Planning is two-phase because not every cell key is knowable up
front: the governor experiment's transparent-policy cells embed the
foreground's measured single-thread IPC in their key.  Phase 1 covers
all key-static cells (singles, pairs, chip runs); phase 2 asks the
deferred planners -- which may now read phase-1 results off the
context -- for the remainder.
"""

from __future__ import annotations

from repro.experiments import (
    chip,
    dse,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    governor,
    modelcheck,
    prefetch,
    table3,
)
from repro.experiments.base import ExperimentContext

#: Phase-1 planners: experiment id -> ctx -> key-static cell list.
#: Experiments absent here (table1, figure1, table4, noise) drive the
#: simulator directly rather than through measurement cells and have
#: nothing to plan.
CELL_PLANNERS = {
    "table3": lambda ctx: table3.cells(),
    "figure2": lambda ctx: figure2.cells(),
    "figure3": lambda ctx: figure3.cells(),
    "figure4": lambda ctx: figure4.cells(),
    "figure5": lambda ctx: figure5.cells(),
    "figure6": lambda ctx: figure6.cells(),
    "modelcheck": lambda ctx: modelcheck.cells(),
    "governor": lambda ctx: governor.static_cells(),
    "chip": lambda ctx: chip.cells(ctx),
    "dse": lambda ctx: dse.cells(ctx),
    # The prefetch experiment plans only its default-off baseline
    # matrix here: its prefetch-on cells belong to per-(depth, degree)
    # twin configs, which a single-context batch cannot carry.
    "prefetch": lambda ctx: prefetch.cells(ctx),
}

#: Phase-2 planners: cells whose keys are functions of phase-1
#: results (and therefore may call ``ctx.single``/``ctx.pair``).
DEFERRED_PLANNERS = {
    "governor": lambda ctx: governor.governed_cells(ctx),
    "dse": lambda ctx: dse.governed_cells(ctx),
    "prefetch": lambda ctx: prefetch.governed_cells(ctx),
}


def planned_cells(ctx: ExperimentContext,
                  experiment_ids) -> tuple[list, list]:
    """(phase-1 cells, deferred planner callables) for ``experiment_ids``.

    Phase-1 cells are deduplicated preserving first-seen order, so a
    sweep fills the context cache in a deterministic order regardless
    of how many experiments share a cell.
    """
    phase1: list = []
    deferred = []
    for eid in experiment_ids:
        planner = CELL_PLANNERS.get(eid)
        if planner is not None:
            phase1.extend(planner(ctx))
        late = DEFERRED_PLANNERS.get(eid)
        if late is not None:
            deferred.append(late)
    return list(dict.fromkeys(phase1)), deferred


def submission_cells(ctx: ExperimentContext, experiment_ids) -> dict:
    """The service-submittable plan of ``experiment_ids``.

    Returns ``{"cells": [...], "deferred": [...]}``: the deduplicated
    phase-1 cell list (what a client submits to the job server up
    front) and the ids whose deferred planners need phase-1 results
    before their remaining cells are knowable (the client submits
    those as a second round once the first resolves).
    """
    ids = list(experiment_ids)
    phase1, _ = planned_cells(ctx, ids)
    return {"cells": phase1,
            "deferred": [eid for eid in ids if eid in DEFERRED_PLANNERS]}


def prefetch_all(ctx: ExperimentContext, experiment_ids) -> dict:
    """Measure the union of all cells ``experiment_ids`` will consume.

    Returns planning statistics: ``cells`` (unique cells planned),
    ``simulated`` (cells actually computed -- the rest were in-memory
    or persistent-cache hits) and ``experiments`` (ids that
    contributed cells).
    """
    ids = list(experiment_ids)
    phase1, deferred = planned_cells(ctx, ids)
    simulated = ctx.prefetch(phase1)
    total = len(phase1)
    for late in deferred:
        batch = list(dict.fromkeys(late(ctx)))
        simulated += ctx.prefetch(batch)
        total += len(batch)
    return {
        "experiments": [eid for eid in ids
                        if eid in CELL_PLANNERS or eid in DEFERRED_PLANNERS],
        "cells": total,
        "simulated": simulated,
    }
