"""The ``prefetch`` experiment: prefetch x priority characterization.

The paper characterizes the software-controlled *priority* knobs; the
POWER5's other software-visible throughput lever is the DSCR-style
prefetch control this repro adds (:mod:`repro.prefetch`).  This
experiment characterizes the two levers jointly on the memory-bound
co-schedules where they interact:

- a **matrix** of (priority pair) x (prefetch off / (depth, degree)
  points) over memory-bound pairs, with the ``PM_PREF_*`` outcome
  counters (issued, demand-hit, late, useless) alongside the IPCs --
  showing where prefetching pays (a compute thread shielding a memory
  thread) and where it backfires (two threads saturating the DRAM
  bus, where useless overshoot fills steal demand bandwidth);
- the **best combined** (priority, depth, degree) point per pair
  against the **best priority-only** point -- the margin software
  gains by co-tuning both levers instead of priorities alone;
- a **governed run** under :class:`repro.governor.PrefetchAdaptPolicy`
  starting from the best priority-only assignment with prefetching
  off, which must rediscover the combined point online: it enables
  prefetching through the ``smt_prefetch`` sysfs files, backs
  depth/degree off the waste/late outcome fractions, and hill-climbs
  priorities between knob moves.

Cell-key discipline mirrors the DSE experiment: baseline (prefetch
off) cells keep their pre-prefetch keys -- the default-off config
fingerprint is unchanged, so the existing cached matrix is reused
verbatim -- while prefetch-on cells live under the enabled config's
fingerprint via per-(depth, degree) twin contexts, and the governed
cell embeds the policy's starting knobs in its key params.
"""

from __future__ import annotations

from repro.experiments.base import (
    ExperimentContext,
    governed_cell,
    pair_cell,
)
from repro.experiments.report import ExperimentReport, render_table
from repro.prefetch import PrefetchConfig

#: Co-schedule pairs characterized: a compute thread shielding a
#: memory-bound thread (prefetch helps the memory thread), and the
#: bus-saturated memory+memory worst case (prefetch overshoot hurts).
PREFETCH_PAIRS = (
    ("cpu_int", "ldint_mem"),
    ("ldint_mem", "ldint_mem"),
)

#: Priority assignments crossed with the prefetch points: the machine
#: default and both single-sided favours.
PREFETCH_PRIORITIES = ((4, 4), (6, 1), (1, 6))

#: (depth, degree) points swept with prefetching enabled on both
#: threads -- conservative, moderate, aggressive.
PREFETCH_POINTS = ((2, 1), (4, 2), (16, 4))

#: The pair the governed run executes on, and the policy's starting
#: prefetch knobs (the moderate static point).
GOVERNED_PAIR = ("cpu_int", "ldint_mem")
GOVERNED_DEPTH = 4
GOVERNED_DEGREE = 2

#: Relative tolerance on "the governed run reaches the best static
#: combined point" (measured on its post-exploration tail).
GOV_TOL = 0.02

#: Fraction of the governed run's trailing epochs averaged for the
#: steady-state throughput (the head is exploration: the policy
#: enables prefetching, tunes knobs, and trials priority moves).
_TAIL_FRAC = 0.25


def _ready(ctx: ExperimentContext) -> bool:
    """Whether ``ctx`` itself can own this experiment's cells.

    The matrix needs PMU counters (the ``PM_PREF_*`` outcome columns)
    and must not be silently governed by a context-wide policy -- the
    static cells are the point of comparison.  The main config must
    also have prefetching *off*: the baseline column and the governed
    run's starting state are the default-off machine.
    """
    return (ctx.pmu and ctx.governor is None
            and not ctx.config.prefetch.enabled_any)


def _base_ctx(ctx: ExperimentContext) -> ExperimentContext:
    """``ctx`` if it can own the cells, else its default-off twin."""
    if _ready(ctx):
        return ctx
    return ctx.twin(ctx.config.replace(prefetch=PrefetchConfig()))


def _point_ctx(ctx: ExperimentContext, depth: int,
               degree: int) -> ExperimentContext:
    """The twin context measuring one prefetch-on (depth, degree) point.

    A context owns exactly one machine configuration, and the prefetch
    knobs are part of it (they change simulated timelines, so they
    must be part of every cell fingerprint -- which they are, through
    the config fingerprint).
    """
    base = _base_ctx(ctx)
    return base.twin(base.config.replace(prefetch=PrefetchConfig(
        enabled=(True, True), depth=depth, degree=degree)))


def _matrix_cells(pairs: tuple = PREFETCH_PAIRS,
                  priorities: tuple = PREFETCH_PRIORITIES) -> list:
    return [pair_cell(primary, secondary, prio)
            for primary, secondary in pairs for prio in priorities]


def cells(ctx: ExperimentContext, pairs: tuple = PREFETCH_PAIRS,
          priorities: tuple = PREFETCH_PRIORITIES) -> list:
    """Phase-1 cells: the prefetch-*off* baseline priority matrix.

    These are ordinary pair cells of the default-off config -- the
    same keys every other experiment uses, so a warmed cache serves
    them unchanged.  The prefetch-on cells belong to the per-point
    twin configs and cannot ride the planner's single-context batch;
    :func:`run_prefetch` prefetches them through the twins instead.
    """
    if not _ready(ctx):
        return []
    return _matrix_cells(pairs, priorities)


def governed_cells(ctx: ExperimentContext) -> list:
    """Phase-2 cell: the prefetch_adapt governed run.

    Deferred because its initial assignment is the best
    priority-only point measured in phase 1.
    """
    if not _ready(ctx):
        return []
    return [_governed_key(ctx)]


def _governed_key(ctx: ExperimentContext) -> tuple:
    """The governed cell's key: initial priorities + starting knobs.

    The initial assignment is the measured best priority-only point,
    so the governed run answers "starting from the best the paper's
    lever alone can do, does online co-tuning find the combined
    point?".  The starting depth/degree seed the policy's knob state
    and change its decisions, so they belong in the key params.
    """
    prio = _best_priority_only(ctx, GOVERNED_PAIR)
    return governed_cell(*GOVERNED_PAIR, prio, "prefetch_adapt",
                         {"depth": GOVERNED_DEPTH,
                          "degree": GOVERNED_DEGREE,
                          "cfg_cooldown": 1})


def _best_priority_only(ctx: ExperimentContext, pair: tuple,
                        priorities: tuple = PREFETCH_PRIORITIES,
                        ) -> tuple:
    """The grid assignment maximizing total IPC with prefetching off."""
    return max(priorities,
               key=lambda prio: ctx.pair(*pair, prio).total_ipc)


#: Matrix columns: label -> the PMU event summed over both threads.
_PF_EVENTS = (("alloc", "PM_PREF_ALLOC"), ("issue", "PM_PREF_ISSUE"),
              ("hit", "PM_LD_PREF_HIT"), ("late", "PM_PREF_LATE"),
              ("useless", "PM_PREF_USELESS"))


def _pf_counts(pm) -> dict:
    """Both threads' prefetch outcome counters of one measurement."""
    return {label: pm.pmu.counter(name, 0) + pm.pmu.counter(name, 1)
            for label, name in _PF_EVENTS}


def _tail_ipc(decisions: tuple) -> tuple[float, int]:
    """(mean total IPC, epoch count) of the steady trailing epochs.

    An epoch's observed IPC covers the assignment in force while it
    ran, so epochs whose decision changed priorities (hill-climb
    trials and their adopt/revert resolutions) are probe measurements,
    not steady state; the tail averages the *held* epochs, where the
    governed machine ran its settled operating point.
    """
    if not decisions:
        return 0.0, 0
    n = max(1, int(len(decisions) * _TAIL_FRAC))
    tail = [d for d in decisions[-n:] if not d.applied]
    if not tail:
        tail = decisions[-n:]
    return sum(sum(d.ipc) for d in tail) / len(tail), len(tail)


def run_prefetch(ctx: ExperimentContext | None = None,
                 pairs: tuple = PREFETCH_PAIRS,
                 priorities: tuple = PREFETCH_PRIORITIES,
                 points: tuple = PREFETCH_POINTS) -> ExperimentReport:
    """Characterize prefetch x priority; emit matrix, margins, governed."""
    ctx = ctx or ExperimentContext(pmu=True)
    bctx = _base_ctx(ctx)

    bctx.prefetch(cells(bctx, pairs, priorities))
    for depth, degree in points:
        _point_ctx(bctx, depth, degree).prefetch(
            _matrix_cells(pairs, priorities))
    gcell = _governed_key(bctx)
    bctx.prefetch([gcell])

    # The full matrix: every (pair, priority, prefetch point) row.
    matrix = []
    for primary, secondary in pairs:
        label = f"{primary}+{secondary}"
        for prio in priorities:
            for point in (None, *points):
                tctx = (bctx if point is None
                        else _point_ctx(bctx, *point))
                pm = tctx.pair(primary, secondary, prio)
                matrix.append({
                    "pair": label,
                    "priorities": list(prio),
                    "prefetch": list(point) if point else None,
                    "ipc": [pm.primary.ipc, pm.secondary.ipc],
                    "total_ipc": pm.total_ipc,
                    "pf": _pf_counts(pm),
                })

    data: dict = {
        "pairs": [f"{p}+{s}" for p, s in pairs],
        "priorities": [list(p) for p in priorities],
        "points": [list(p) for p in points],
        "matrix": matrix,
    }

    sections = []
    for primary, secondary in pairs:
        label = f"{primary}+{secondary}"
        rows = []
        for row in matrix:
            if row["pair"] != label:
                continue
            point = row["prefetch"]
            pf = row["pf"]
            rows.append((
                tuple(row["priorities"]),
                "off" if point is None else f"d{point[0]}/g{point[1]}",
                f"{row['ipc'][0]:.4f}", f"{row['ipc'][1]:.4f}",
                f"{row['total_ipc']:.4f}",
                pf["issue"], pf["hit"], pf["late"], pf["useless"]))
        sections.append(render_table(
            ["prio", "prefetch", "IPC0", "IPC1", "total",
             "issued", "hit", "late", "useless"],
            rows,
            title=f"-- {label}: priority x prefetch matrix "
                  f"(PM_PREF_* counters summed over threads)"))

    # Best combined point vs best priority-only, per pair.
    margins = []
    for primary, secondary in pairs:
        label = f"{primary}+{secondary}"
        entries = [r for r in matrix if r["pair"] == label]
        best_off = max((r for r in entries if r["prefetch"] is None),
                       key=lambda r: r["total_ipc"])
        best_any = max(entries, key=lambda r: r["total_ipc"])
        margins.append({
            "pair": label,
            "best_priority_only": {
                "priorities": best_off["priorities"],
                "total_ipc": best_off["total_ipc"]},
            "best_combined": {
                "priorities": best_any["priorities"],
                "prefetch": best_any["prefetch"],
                "total_ipc": best_any["total_ipc"]},
            "margin_frac": (best_any["total_ipc"]
                            / best_off["total_ipc"] - 1.0
                            if best_off["total_ipc"] else 0.0),
        })
    data["margins"] = margins
    sections.append(render_table(
        ["pair", "best prio-only", "total", "best combined", "total",
         "margin"],
        [(m["pair"],
          tuple(m["best_priority_only"]["priorities"]),
          f"{m['best_priority_only']['total_ipc']:.4f}",
          (tuple(m["best_combined"]["priorities"]),
           "off" if m["best_combined"]["prefetch"] is None
           else "d{}/g{}".format(*m["best_combined"]["prefetch"])),
          f"{m['best_combined']['total_ipc']:.4f}",
          f"{m['margin_frac']:+.2%}") for m in margins],
        title="-- co-tuning margin: best (priority, depth, degree) "
              "vs best priority-only"))

    # The governed co-tuner vs the static anchors.
    gov = bctx.cell(gcell)
    gm = next(m for m in margins
              if m["pair"] == "+".join(GOVERNED_PAIR))
    tail_ipc, tail_epochs = _tail_ipc(gov.decisions)
    best_total = gm["best_combined"]["total_ipc"]
    data["governed"] = {
        "pair": gm["pair"],
        "initial_priorities": list(gov.priorities),
        "start_knobs": [GOVERNED_DEPTH, GOVERNED_DEGREE],
        "final_priorities": list(gov.final_priorities),
        "changes": sum(1 for d in gov.decisions if d.applied),
        "epochs": len(gov.decisions),
        "total_ipc": gov.total_ipc,
        "tail_ipc": tail_ipc,
        "tail_epochs": tail_epochs,
        "best_static_total_ipc": best_total,
        "tail_ratio": tail_ipc / best_total if best_total else 0.0,
    }
    g = data["governed"]
    sections.append(render_table(
        ["run", "total IPC", "note"],
        [(f"static best priority-only {tuple(g['initial_priorities'])}",
          f"{gm['best_priority_only']['total_ipc']:.4f}",
          "prefetch off (governed run's starting point)"),
         ("static best combined",
          f"{best_total:.4f}",
          "{} + {}".format(
              tuple(gm["best_combined"]["priorities"]),
              "off" if gm["best_combined"]["prefetch"] is None
              else "d{}/g{}".format(*gm["best_combined"]["prefetch"]))),
         ("governed prefetch_adapt (whole run)",
          f"{g['total_ipc']:.4f}",
          f"{g['changes']} priority changes over {g['epochs']} epochs, "
          f"ends at {tuple(g['final_priorities'])}"),
         ("governed prefetch_adapt (steady tail)",
          f"{tail_ipc:.4f}",
          f"last {tail_epochs} epochs; {g['tail_ratio']:.3f}x best "
          f"static")],
        title=f"-- prefetch_adapt governor on {g['pair']}"))

    data["claims"] = _claims(data)
    sections.append(_claims_text(data["claims"]))
    return ExperimentReport(
        experiment_id="prefetch",
        title="Software-controlled prefetching: depth/degree x "
              "priority characterization and online co-tuning",
        text="\n\n".join(sections),
        data=data,
        paper_reference="section 2 (the software-controlled knobs) "
                        "and section 6 (memory-bound pairs), extended "
                        "with the DSCR-style stream prefetcher "
                        "(ROADMAP item: prefetch subsystem)")


def _claims(data: dict) -> dict:
    """Testable assertions of the characterization."""
    g = data["governed"]
    # The default-off baseline rows must show zero prefetch activity:
    # the machine with the knobs down is the pre-prefetch machine.
    silent = all(not any(r["pf"].values()) for r in data["matrix"]
                 if r["prefetch"] is None)
    gains = [{"pair": m["pair"], "margin_frac": m["margin_frac"]}
             for m in data["margins"]]
    return {
        "baseline_prefetch_silent": silent,
        "cotuning_margins": gains,
        "cotuning_gains_some_pair": any(e["margin_frac"] > 0.0
                                        for e in gains),
        "governed_tail_ratio": g["tail_ratio"],
        "governed_reaches_best_static": (
            g["tail_ratio"] >= 1.0 - GOV_TOL),
    }


def _claims_text(claims: dict) -> str:
    lines = ["-- prefetch claims"]
    lines.append(
        "  prefetch-off baseline shows zero PM_PREF_* activity: "
        + ("yes" if claims["baseline_prefetch_silent"] else "NO"))
    for entry in claims["cotuning_margins"]:
        lines.append(
            f"  {entry['pair']}: co-tuning margin over best "
            f"priority-only = {entry['margin_frac']:+.2%}")
    lines.append(
        "  co-tuning beats priority-only on some pair: "
        + ("yes" if claims["cotuning_gains_some_pair"] else "no"))
    lines.append(
        f"  prefetch_adapt steady tail reaches best static combined: "
        f"{claims['governed_tail_ratio']:.3f}x "
        + ("(within tolerance)"
           if claims["governed_reaches_best_static"] else "(MISSED)"))
    return "\n".join(lines)
