"""The ``chip`` experiment: allocation policies on the dual-core chip.

The paper characterizes priorities on one core; the real POWER5 is a
dual-core chip, and on a chip *which threads share a core* interacts
with the intra-core priority mechanism (Navarro et al.).  This
experiment runs a queue of more jobs than hardware threads through the
OS scheduler under every thread-to-core allocation policy and
compares:

- **chip throughput** -- total instructions retired per chip cycle
  until the last job finishes (makespan);
- **per-job slowdown** -- each job's average repetition time on the
  loaded chip vs its single-thread solo run (the same baseline the
  paper's IPC-degradation tables use);
- **fairness** -- worst-job over best-job slowdown (1.0 = perfectly
  fair);
- **shared-bus pressure** -- cycles each core waited on the chip's L2
  fabric port and memory channel (contention the single-core model
  cannot see).

``round_robin`` is the static baseline (queue order, neutral
priorities).  The mixes are ordered so its static placement splits the
memory-bound jobs across cores -- both cores then stress the shared
memory channel concurrently -- while the adaptive policies discover
the placement (and, for ``priority_aware``, the priority assignment)
that minimises the predicted makespan.

The adaptive policies predict from probes: ordinary pair cells of the
computing context's :meth:`~ExperimentContext.probe_context`, each run
once however many chip cells ask for it.
"""

from __future__ import annotations

from repro.chip import Chip, ChipConfig
from repro.experiments.base import ExperimentContext, single_cell
from repro.experiments.report import ExperimentReport, render_table
from repro.sched import (
    Job,
    OsScheduler,
    ScheduleResult,
    make_allocation_policy,
)

#: Job mixes: (workload, base repetition quota, background flag).
#: Quotas are balanced so every job's solo runtime is comparable --
#: placement, not job length, should dominate the makespan.  The
#: queue order is the order a naive static scheduler sees.
CHIP_MIXES: dict[str, tuple[tuple[str, int, bool], ...]] = {
    # The four SPEC case-study models: two ILP-rich, two memory-bound,
    # interleaved so round_robin pairs compute+memory on *both* cores.
    "spec": (("h264ref", 10, False), ("mcf", 5, False),
             ("applu", 8, False), ("equake", 4, False)),
    # Foreground compute + background memory jobs for the transparent
    # consolidation policy (paper section 6.3 writ chip-wide).
    "background": (("h264ref", 10, False), ("applu", 8, False),
                   ("mcf", 5, True), ("equake", 4, True)),
}

#: Allocation policies compared on every mix.
CHIP_POLICIES = ("round_robin", "symbiosis", "priority_aware",
                 "background")


def chip_cell(mix: str, policy: str, n_cores: int,
              quota: int) -> tuple:
    """Cache key of one scheduled chip run."""
    return ("chip", mix, policy, n_cores, quota)


def mix_jobs(mix: str, quota: int = 4) -> list[Job]:
    """The job queue of a mix, quotas scaled by ``quota``/4."""
    try:
        spec = CHIP_MIXES[mix]
    except KeyError:
        raise ValueError(f"unknown chip mix {mix!r}; "
                         f"choose from {sorted(CHIP_MIXES)}") from None
    return [Job(name, max(1, round(reps * quota / 4)), background=bg)
            for name, reps, bg in spec]


def compute_chip_cell(ctx: ExperimentContext, key: tuple) -> ScheduleResult:
    """Simulate one scheduled chip run (no cache involvement)."""
    _, mix, policy_name, n_cores, quota = key
    chip = Chip(ChipConfig(core=ctx.config, n_cores=n_cores))
    scheduler = OsScheduler(
        chip, make_allocation_policy(policy_name),
        probes=ctx.probe_context(),
        max_cycles=ctx.max_cycles * 8,
        governor=ctx.chip_governor,
        governor_epoch=ctx.governor_epoch)
    return scheduler.run(mix_jobs(mix, quota))


def chip_schedule_results(ctx: ExperimentContext
                          ) -> list[tuple[str, ScheduleResult]]:
    """(label, :class:`ScheduleResult`) for every cached chip cell.

    The CLI's trace export uses this to turn an already-run chip
    experiment into a Chrome-trace document without recomputation.
    """
    out = []
    for key, value in ctx._cache.items():
        if key[0] == "chip":
            _, mix, policy, n_cores, _ = key
            out.append((f"{mix} {policy} ({n_cores}-core)", value))
    return out


def cells(ctx: ExperimentContext,
          mixes: tuple = tuple(CHIP_MIXES),
          policies: tuple = CHIP_POLICIES) -> list:
    """Every measurement cell this experiment consumes.

    ``ctx`` supplies the chip knobs (core count, quota) baked into the
    chip cell keys; the cells themselves do not depend on any measured
    result.
    """
    names = sorted({name for mix in mixes
                    for name, _, _ in CHIP_MIXES[mix]})
    return ([single_cell(name) for name in names]
            + [chip_cell(mix, pol, ctx.chip_cores, ctx.chip_quota)
               for mix in mixes for pol in policies])


def run_chip(ctx: ExperimentContext | None = None,
             mixes: tuple = tuple(CHIP_MIXES),
             policies: tuple = CHIP_POLICIES) -> ExperimentReport:
    """Run every allocation policy on every mix; compare vs static."""
    ctx = ctx or ExperimentContext()
    n_cores, quota = ctx.chip_cores, ctx.chip_quota
    energy_cfg = ctx.energy_config()

    # Solo baselines + chip runs in one prefetch, so chip cells
    # parallelize across workers like any other sweep.
    ctx.prefetch(cells(ctx, mixes, policies))

    sections = []
    data: dict = {"n_cores": n_cores, "quota": quota,
                  "governor": ctx.chip_governor, "mixes": {},
                  "claims": {}}
    for mix in mixes:
        rows = []
        mix_data: dict = {"jobs": {}, "policies": {}}
        for pol in policies:
            res = ctx.cell(chip_cell(mix, pol, n_cores, quota))
            slowdowns = {}
            for run in res.jobs:
                solo = ctx.single(run.name).avg_rep_cycles
                slowdowns[run.name] = (run.avg_rep_cycles / solo
                                       if solo else float("inf"))
            mean_slow = (sum(slowdowns.values()) / len(slowdowns)
                         if slowdowns else 0.0)
            worst_slow = max(slowdowns.values(), default=0.0)
            fairness = (worst_slow / min(slowdowns.values())
                        if slowdowns else 1.0)
            bus_wait = sum(l2w + memw for _, l2w, _, memw in res.bus)
            erep = res.energy(energy_cfg)
            mix_data["policies"][pol] = {
                "makespan": res.makespan,
                "throughput": res.throughput,
                "total_retired": res.total_retired,
                "avg_power_w": erep.avg_power_w,
                "edp_js": erep.edp_js,
                "mips_per_watt": erep.mips_per_watt,
                "mean_slowdown": mean_slow,
                "worst_slowdown": worst_slow,
                "fairness": fairness,
                "bus_wait_cycles": bus_wait,
                "capped": res.capped,
                "governor_changes": sum(r.governor_changes
                                        for r in res.jobs),
                "jobs": [{
                    "name": r.name, "core": r.core_id, "slot": r.slot,
                    "round": r.round, "priority": r.priority,
                    "final_priority": r.final_priority,
                    "repetitions": r.repetitions,
                    "span": r.span_cycles, "ipc": r.ipc,
                    "slowdown": slowdowns[r.name],
                    "background": r.background,
                } for r in res.jobs],
                "placements": [
                    {"core": d.core_id, "jobs": list(d.jobs),
                     "priorities": list(d.priorities),
                     "reason": d.reason}
                    for d in res.decisions if d.action == "dispatch"],
            }
            rows.append((pol, res.makespan, f"{res.throughput:.4f}",
                         f"{mean_slow:.2f}x", f"{worst_slow:.2f}x",
                         f"{fairness:.2f}", bus_wait,
                         f"{erep.avg_power_w:.2f}",
                         f"{erep.mips_per_watt:.0f}",
                         "yes" if res.capped else "no"))
        data["mixes"][mix] = mix_data
        sections.append(render_table(
            ["policy", "makespan", "chip IPC", "mean slow",
             "worst slow", "fairness", "bus wait", "chip W",
             "MIPS/W", "capped"],
            rows,
            title=f"-- mix {mix!r}: {n_cores}-core chip, "
                  f"{len(mix_jobs(mix, quota))} jobs "
                  f"({energy_cfg.node}nm)"))
        sections.append(_placement_text(mix, mix_data))

    data["claims"] = _claims(data, policies)
    sections.append(_claims_text(data["claims"]))
    return ExperimentReport(
        experiment_id="chip",
        title="Thread-to-core allocation policies on the dual-core chip",
        text="\n\n".join(sections),
        data=data,
        paper_reference="section 6 (uses of prioritization), extended "
                        "to the POWER5's dual-core chip level")


def _placement_text(mix: str, mix_data: dict) -> str:
    lines = [f"-- placements for mix {mix!r}"]
    for pol, pd in mix_data["policies"].items():
        placed = "; ".join(
            f"core{p['core']}: {'+'.join(p['jobs'])} "
            f"@{tuple(p['priorities'])}"
            for p in pd["placements"])
        lines.append(f"  {pol}: {placed}")
    return "\n".join(lines)


def _claims(data: dict, policies: tuple) -> dict:
    """Testable comparisons: adaptive placement vs the static baseline."""
    beats = []
    fg_shield = []
    for mix, mix_data in data["mixes"].items():
        pols = mix_data["policies"]
        if "round_robin" not in pols:
            continue
        base = pols["round_robin"]["throughput"]
        for pol in ("symbiosis", "priority_aware"):
            if pol in pols and pols[pol]["throughput"] > base:
                beats.append(
                    {"mix": mix, "policy": pol,
                     "throughput": pols[pol]["throughput"],
                     "round_robin": base,
                     "gain": pols[pol]["throughput"] / base - 1.0})
        if "background" in pols:
            fg = [j for j in pols["background"]["jobs"]
                  if not j["background"]]
            fg_rr = [j for j in pols["round_robin"]["jobs"]
                     if not j["background"]]
            if fg and fg_rr:
                mean = sum(j["slowdown"] for j in fg) / len(fg)
                mean_rr = (sum(j["slowdown"] for j in fg_rr)
                           / len(fg_rr))
                fg_shield.append({"mix": mix,
                                  "background_fg_slowdown": mean,
                                  "round_robin_fg_slowdown": mean_rr,
                                  "shields": mean < mean_rr})
    return {"adaptive_beats_round_robin": beats,
            "background_foreground_shield": fg_shield}


def _claims_text(claims: dict) -> str:
    lines = ["-- adaptive placement vs static round_robin"]
    beats = claims["adaptive_beats_round_robin"]
    if beats:
        for b in beats:
            lines.append(
                f"  {b['policy']} beats round_robin on {b['mix']!r}: "
                f"{b['throughput']:.4f} vs {b['round_robin']:.4f} "
                f"chip IPC ({100 * b['gain']:+.1f}%)")
    else:
        lines.append("  no adaptive policy beat round_robin")
    for s in claims["background_foreground_shield"]:
        lines.append(
            f"  background consolidation on {s['mix']!r}: foreground "
            f"slowdown {s['background_fg_slowdown']:.2f}x vs "
            f"{s['round_robin_fg_slowdown']:.2f}x under round_robin"
            + (" (shields)" if s["shields"] else ""))
    return "\n".join(lines)
