"""The ``dse`` experiment: throughput-per-watt design-space sweep.

The paper characterizes priorities purely in performance terms; its
low-power (1,1) mode and the thermal motivation behind SMT throttling
are energy questions.  This experiment answers them with the post-hoc
energy model: it measures a small matrix of PMU-instrumented priority
cells once, then prices every cell at every (tech node, DVFS point,
core count) of the design space *without re-simulating* -- energy is a
pure function of the already-cached counters, so the entire sweep
rides the planner/simcache/service fabric for free.

Three outputs:

- a **Pareto frontier** over (average watts, MIPS): the operating
  points where more throughput cannot be had for less power,
  annotated with priority pair, node, frequency and core count;
- a **priority power ranking** at the reference point, demonstrating
  the paper's claim that (1,1) -- one decode slot every 32 cycles --
  is the lowest-power software-reachable configuration;
- a **governed run** under :class:`repro.governor.EnergyBudgetPolicy`
  holding a 20% power cap (80% of the unconstrained (4,4) draw) by
  duty-cycling the (1,1) mode, compared against the static (1,1) run
  it must beat on throughput.

Cell-key discipline: the operating point is *not* part of performance
cell keys (re-pricing never invalidates cached results); only the
governed cell embeds energy parameters in its key, because there the
policy's decisions -- and hence the simulated timeline -- genuinely
depend on them.
"""

from __future__ import annotations

from repro.experiments.base import (
    ExperimentContext,
    governed_cell,
    pair_cell,
)
from repro.experiments.report import ExperimentReport, render_table

#: Co-schedule pairs swept: the paper's worst-case compute+memory
#: pairing and a compute+compute pairing with different ILP.
DSE_PAIRS = (
    ("cpu_int", "ldint_mem"),
    ("cpu_int", "cpu_fp"),
)

#: Priority assignments swept: the machine default, the primary-favour
#: ladder, and the (1,1) low-power mode (one decode slot per 32
#: cycles -- the paper's only software-reachable power state).
DSE_PRIORITIES = ((1, 1), (4, 4), (5, 4), (6, 4), (6, 3), (6, 2),
                  (6, 1))

#: Technology nodes priced (45nm is the weight-calibration reference).
DSE_NODES = (45, 32, 22, 14)

#: DVFS frequency fractions priced per node.
DSE_FREQS = (1.0, 0.8, 0.6)

#: Core counts priced (homogeneous replication of the measured core).
DSE_CORES = (1, 2, 4)

#: The pair the governed energy-budget run executes on, its initial
#: assignment, and the cap as a fraction of the unconstrained draw.
GOVERNED_PAIR = ("cpu_int", "ldint_mem")
INITIAL = (4, 4)
CAP_FRAC = 0.8

#: Relative tolerance on "the governed run holds the cap".
CAP_TOL = 0.02

#: Rows shown in the rendered Pareto table (the full frontier is in
#: the JSON data regardless).
_PARETO_ROWS = 24


def _ready(ctx: ExperimentContext) -> bool:
    """Whether ``ctx`` itself can own this experiment's cells.

    The cells need PMU counters on every pair (energy is a function of
    them) and must not be silently governed by a context-wide policy
    -- the static sweep is the point of comparison.
    """
    return ctx.pmu and ctx.governor is None


def _energy_ctx(ctx: ExperimentContext) -> ExperimentContext:
    """``ctx`` if it can own the cells, else its PMU-enabled twin."""
    return ctx if _ready(ctx) else ctx.twin()


def cells(ctx: ExperimentContext, pairs: tuple = DSE_PAIRS,
          priorities: tuple = DSE_PRIORITIES) -> list:
    """Phase-1 cells: the PMU-instrumented static priority matrix.

    Empty when ``ctx`` cannot own the cells (no PMU, or a context-wide
    governor would change what a "static" cell means) --
    :func:`run_dse` then measures through a PMU-enabled twin instead,
    so a planner driving a non-PMU context stays correct, it just
    cannot pre-plan these cells.
    """
    if not _ready(ctx):
        return []
    return [pair_cell(primary, secondary, prio)
            for primary, secondary in pairs for prio in priorities]


def governed_cells(ctx: ExperimentContext) -> list:
    """Phase-2 cell: the energy-budget governed run.

    Deferred because its key embeds the power cap, which is measured
    from the unconstrained (4,4) run of phase 1.
    """
    if not _ready(ctx):
        return []
    return [_governed_key(ctx)]


def _governed_key(ctx: ExperimentContext) -> tuple:
    """The governed cell's key: cap + operating point in the params.

    These params change the policy's decisions, so -- unlike the pure
    post-hoc pricing -- they belong in the cell fingerprint.  The cap
    is rounded so the key is platform-stable.
    """
    primary, secondary = GOVERNED_PAIR
    cap = CAP_FRAC * _pair_energy(ctx, primary, secondary,
                                  INITIAL).avg_power_w
    return governed_cell(primary, secondary, INITIAL, "energy_budget",
                         {"power_cap": round(cap, 12),
                          "node": ctx.energy_node,
                          "freq_frac": ctx.energy_freq,
                          "cfg_hysteresis": 0.01,
                          "cfg_cooldown": 1})


def _pair_energy(ctx: ExperimentContext, primary: str, secondary: str,
                 prio: tuple, node: int | None = None,
                 freq: float | None = None):
    pm = ctx.pair(primary, secondary, prio)
    return pm.energy(ctx.energy_config(node=node, freq_frac=freq))


def run_dse(ctx: ExperimentContext | None = None,
            pairs: tuple = DSE_PAIRS,
            priorities: tuple = DSE_PRIORITIES,
            nodes: tuple = DSE_NODES,
            freqs: tuple = DSE_FREQS,
            cores: tuple = DSE_CORES) -> ExperimentReport:
    """Sweep the design space; emit Pareto, ranking and governed cap."""
    from repro.energy import pareto_frontier
    ctx = ctx or ExperimentContext(pmu=True)
    ectx = _energy_ctx(ctx)

    ectx.prefetch(cells(ectx, pairs, priorities))
    gcell = _governed_key(ectx)
    ectx.prefetch([gcell])

    # Price every measured cell at every operating point (pure
    # arithmetic over cached counters -- no simulation here).
    points = []
    for primary, secondary in pairs:
        label = f"{primary}+{secondary}"
        for prio in priorities:
            pm = ectx.pair(primary, secondary, prio)
            for node in nodes:
                for freq in freqs:
                    base = pm.energy(
                        ectx.energy_config(node=node, freq_frac=freq))
                    for n in cores:
                        er = base.scaled(n)
                        points.append({
                            "pair": label,
                            "priorities": list(prio),
                            "node_nm": node,
                            "freq_ghz": round(er.freq_ghz, 6),
                            "freq_frac": freq,
                            "cores": n,
                            "watts": er.avg_power_w,
                            "mips": er.mips,
                            "mips_per_watt": er.mips_per_watt,
                            "edp_js": er.edp_js,
                            "total_ipc": pm.total_ipc * n,
                        })

    frontier = pareto_frontier((p["watts"], p["mips"]) for p in points)
    on_frontier = set(frontier)
    pareto_pts = sorted(
        (p for p in points if (p["watts"], p["mips"]) in on_frontier),
        key=lambda p: p["watts"])

    data: dict = {
        "pairs": [f"{p}+{s}" for p, s in pairs],
        "priorities": [list(p) for p in priorities],
        "nodes_nm": list(nodes),
        "freq_fracs": list(freqs),
        "cores": list(cores),
        "points": points,
        "pareto": pareto_pts,
    }

    sections = [render_table(
        ["pair", "prio", "node", "GHz", "cores", "watts", "MIPS",
         "MIPS/W"],
        [(p["pair"], tuple(p["priorities"]), f"{p['node_nm']}nm",
          f"{p['freq_ghz']:.2f}", p["cores"], f"{p['watts']:.3f}",
          f"{p['mips']:.0f}", f"{p['mips_per_watt']:.0f}")
         for p in pareto_pts[:_PARETO_ROWS]],
        title=f"-- Pareto frontier (throughput vs watts) over "
              f"{len(points)} design points"
              + (f", first {_PARETO_ROWS} shown"
                 if len(pareto_pts) > _PARETO_ROWS else ""))]

    # Priority power ranking at the reference operating point.
    ranking: dict = {}
    for primary, secondary in pairs:
        label = f"{primary}+{secondary}"
        rows = []
        for prio in priorities:
            er = _pair_energy(ectx, primary, secondary, prio)
            rows.append((tuple(prio), f"{er.avg_power_w:.3f}",
                         f"{er.dynamic_power_w:.3f}", f"{er.mips:.0f}",
                         f"{er.mips_per_watt:.0f}",
                         f"{er.edp_js * 1e9:.2f}"))
        rows.sort(key=lambda r: float(r[1]))
        ranking[label] = [
            {"priorities": list(r[0]), "watts": float(r[1])}
            for r in rows]
        sections.append(render_table(
            ["prio", "watts", "dyn W", "MIPS", "MIPS/W", "EDP (nJ s)"],
            rows,
            title=f"-- {label}: power ranking at "
                  f"{ectx.energy_node}nm, freq x{ectx.energy_freq:g}"))
    data["power_ranking"] = ranking

    # The governed energy-budget run vs its static anchors.
    gov = ectx.cell(gcell)
    cap = dict(gcell[5])["power_cap"]
    gov_er = gov.energy(ectx.energy_config())
    static11 = ectx.pair(*GOVERNED_PAIR, (1, 1))
    static11_er = _pair_energy(ectx, *GOVERNED_PAIR, (1, 1))
    static44_er = _pair_energy(ectx, *GOVERNED_PAIR, INITIAL)
    data["governed"] = {
        "pair": f"{GOVERNED_PAIR[0]}+{GOVERNED_PAIR[1]}",
        "cap_w": cap,
        "cap_frac": CAP_FRAC,
        "avg_power_w": gov_er.avg_power_w,
        "cap_ratio": gov_er.avg_power_w / cap if cap else 0.0,
        "total_ipc": gov.total_ipc,
        "mips": gov_er.mips,
        "mips_per_watt": gov_er.mips_per_watt,
        "final_priorities": gov.final_priorities,
        "changes": sum(1 for d in gov.decisions if d.applied),
        "epochs": len(gov.decisions),
        "static_1v1": {"watts": static11_er.avg_power_w,
                       "total_ipc": static11.total_ipc,
                       "mips": static11_er.mips},
        "static_4v4": {"watts": static44_er.avg_power_w,
                       "total_ipc": ectx.pair(*GOVERNED_PAIR,
                                              INITIAL).total_ipc},
    }
    g = data["governed"]
    sections.append(render_table(
        ["run", "watts", "total IPC", "MIPS", "MIPS/W"],
        [(f"static {INITIAL}", f"{static44_er.avg_power_w:.3f}",
          f"{g['static_4v4']['total_ipc']:.4f}",
          f"{static44_er.mips:.0f}", f"{static44_er.mips_per_watt:.0f}"),
         (f"governed energy_budget (cap {cap:.3f} W)",
          f"{g['avg_power_w']:.3f}", f"{g['total_ipc']:.4f}",
          f"{g['mips']:.0f}", f"{g['mips_per_watt']:.0f}"),
         ("static (1, 1)", f"{static11_er.avg_power_w:.3f}",
          f"{g['static_1v1']['total_ipc']:.4f}",
          f"{static11_er.mips:.0f}",
          f"{static11_er.mips_per_watt:.0f}")],
        title=f"-- energy_budget governor on "
              f"{g['pair']} ({g['changes']} priority changes over "
              f"{g['epochs']} epochs)"))

    data["claims"] = _claims(ectx, data, pairs, priorities, nodes,
                             freqs)
    sections.append(_claims_text(data["claims"]))
    return ExperimentReport(
        experiment_id="dse",
        title="Design-space exploration: throughput per watt across "
              "priorities, nodes, frequencies and core counts",
        text="\n\n".join(sections),
        data=data,
        paper_reference="section 2 (the (1,1) low-power mode) and "
                        "section 6, extended with an energy model "
                        "(ROADMAP item: Lumos-style DSE)")


def _claims(ctx: ExperimentContext, data: dict, pairs: tuple,
            priorities: tuple, nodes: tuple, freqs: tuple) -> dict:
    """Testable assertions of the sweep."""
    # (1,1) is the lowest-power assignment at every single-core
    # operating point of every pair.
    low_power = []
    for primary, secondary in pairs:
        label = f"{primary}+{secondary}"
        for node in nodes:
            for freq in freqs:
                by_prio = {
                    prio: _pair_energy(ctx, primary, secondary, prio,
                                       node, freq).avg_power_w
                    for prio in priorities}
                winner = min(by_prio, key=by_prio.get)
                low_power.append({
                    "pair": label, "node_nm": node, "freq_frac": freq,
                    "winner": list(winner),
                    "is_1v1": winner == (1, 1)})
    g = data["governed"]
    # Pareto sanity: the frontier is monotone in both axes.
    pareto = data["pareto"]
    monotone = all(
        pareto[i]["watts"] < pareto[i + 1]["watts"]
        and pareto[i]["mips"] < pareto[i + 1]["mips"]
        for i in range(len(pareto) - 1))
    return {
        "lowest_power_is_1v1": low_power,
        "lowest_power_all_1v1": all(e["is_1v1"] for e in low_power),
        "governed_holds_cap": g["cap_ratio"] <= 1.0 + CAP_TOL,
        "governed_cap_ratio": g["cap_ratio"],
        "governed_beats_static_1v1": (
            g["total_ipc"] > g["static_1v1"]["total_ipc"]),
        "pareto_monotone": monotone,
    }


def _claims_text(claims: dict) -> str:
    lines = ["-- design-space claims"]
    n = len(claims["lowest_power_is_1v1"])
    wins = sum(1 for e in claims["lowest_power_is_1v1"] if e["is_1v1"])
    lines.append(
        f"  (1,1) wins lowest power at {wins}/{n} single-core "
        f"operating points"
        + ("" if claims["lowest_power_all_1v1"] else " (NOT all)"))
    lines.append(
        f"  energy_budget governor holds the cap: avg/cap = "
        f"{claims['governed_cap_ratio']:.4f} "
        + ("(within tolerance)" if claims["governed_holds_cap"]
           else "(VIOLATED)"))
    lines.append(
        "  governed throughput beats static (1,1): "
        + ("yes" if claims["governed_beats_static_1v1"] else "no"))
    lines.append(
        "  Pareto frontier strictly monotone: "
        + ("yes" if claims["pareto_monotone"] else "no"))
    return "\n".join(lines)
