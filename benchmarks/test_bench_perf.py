"""Bench: simulation-engine throughput and subsystem overheads.

Everything is written to ``BENCH_simcore.json`` at the repository root
so speedups across commits and machines are comparable.  The
end-to-end suite wall time is measured by the repository benchmark
(``perfbench/``, workload ``suite_cold``), not here.

The bench also measures the emulated PMU's cost: a PMU-off vs PMU-on
(counters + interval sampling) comparison, recorded under ``"pmu"``.
When the committed baseline file was produced on a comparable host
(same config fingerprint, Python version and core count), the bench
asserts the PMU-off engine has not regressed by more than 10% against
it -- the PMU's raw counters ride in the hot loop unconditionally, so
this is the guard that keeps them cheap.

The closed-loop governor gets the same treatment under ``"governor"``:
an equal-work governed vs ungoverned comparison (ipc_balance at the
default epoch, both arms stepping the same fixed horizon) gated at
``GOVERNOR_OVERHEAD_CEIL``, plus a governor-off gate against the
committed baseline so that runs which never attach a governor stay
exactly as fast as before the subsystem existed.

``"array_hooks"`` and ``"chip_array"`` gate horizon-bounded array
stepping: hooked (sampled / governed) array runs against their own
dense fallback, and a scheduled 2-core chip cell against the object
engine.  Both are bit-identity-checked in place -- the speedups must
be free.

``"array_engine"`` records the compiled-kernel engine's sustained
direct-step throughput against the object engine on the two CPU-bound
scenarios the array engine was built for.  These run fixed horizons
through ``core.step`` directly (no FAME convergence) because the
steady-state replay telescoper needs room to detect and verify the
machine-state period; the speedups are gated at ``ARRAY_FLOOR`` and,
on a comparable host, the array engine's absolute throughput is held
to ``ENGINE_FLOOR`` of the committed baseline.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import platform
import time

from repro.config import POWER5
from repro.fame import FameRunner
from repro.microbench import make_microbenchmark

ROOT = pathlib.Path(__file__).resolve().parent.parent
SECONDARY_BASE = (1 << 27) + 8192

#: Best-of-N repeats per scenario measurement (``BENCH_REPEATS``
#: overrides).  The gates below compare wall clocks on what may be a
#: busy single-core host; the minimum of a few runs is the closest
#: observable to the noise-free cost.
REPEATS = int(os.environ.get("BENCH_REPEATS", "3"))

#: Floor on the array engine's absolute throughput against its own
#: committed baseline wall clock (comparable hosts only).
ENGINE_FLOOR = 0.95

#: Hard floor on the array-engine speedup over the object engine for
#: the CPU-bound scenarios below.  The compiled kernels alone are
#: worth ~2x; the steady-state replay telescoper carries the rest, so
#: dropping under 3x means either the kernels or the telescoper's
#: period detection regressed.
ARRAY_FLOOR = 3.0

#: Ceiling on the governor's equal-work per-cycle overhead (wall per
#: simulated cycle, governed vs ungoverned, same horizon).  The hook
#: fires every ``GovernorConfig.epoch`` cycles and each firing is a
#: counter snapshot plus a policy decision; anything past this bound
#: means the hook machinery (or the regime voids its actuations
#: force) got expensive.
GOVERNOR_OVERHEAD_CEIL = 1.5

#: Floors on the telescoped-vs-dense speedup of hooked array runs
#: (the ``array_hooks`` section).  Sampled single-thread runs jump
#: nearly the whole sample interval (measured ~25x; gated loosely);
#: governed SMT runs re-verify after every trajectory-changing
#: actuation, so their floor is lower.
ARRAY_HOOKS_SAMPLED_FLOOR = 3.0
ARRAY_HOOKS_GOVERNED_FLOOR = 2.0

#: Floor on the array-vs-object speedup of the scheduled chip cell
#: (the ``chip_array`` section).  Requires core telescoping through
#: kernel timer ticks *and* the chip's adaptive bus-quiet quantum;
#: losing either drops the cell under the floor.
CHIP_ARRAY_FLOOR = 5.0

#: (label, (primary, secondary-or-None), direct-step horizon).  The
#: horizons give the telescoper room to detect + verify the period:
#: the ST loop repeats every 896 cycles, but the SMT pair's combined
#: machine-state period spans many repetitions of both traces, so its
#: horizon must be several times that before any cycles can be jumped.
ARRAY_SCENARIOS = (
    ("st_cpu_int", ("cpu_int", None), 600_000),
    ("smt_4_4_cpu_int_ldint_l2", ("cpu_int", "ldint_l2"), 1_500_000),
)

def _measure_array_scenario(config, names, horizon, repeats=None):
    """Best-of-N sustained direct-step throughput of one engine.

    Fixed horizon through ``core.step`` rather than a FAME run: FAME
    convergence runs stop after a few repetitions, far short of the
    SMT machine-state period, so they exercise only the dense
    kernels.  Returns the measurement dict plus the per-thread retired
    counts, which the caller cross-checks between engines (the full
    bit-identity matrix lives in the differential test suite).
    """
    from repro.core import make_core

    walls = []
    retired = None
    for _ in range(repeats or REPEATS):
        core = make_core(config)
        sources = [make_microbenchmark(names[0], config)]
        if names[1] is not None:
            sources.append(make_microbenchmark(
                names[1], config, base_address=SECONDARY_BASE))
        core.load(sources, priorities=(4, 4))
        start = time.perf_counter()
        core.step(horizon)
        wall = time.perf_counter() - start
        walls.append(wall)
        got = tuple(th.retired for th in core._threads if th is not None)
        assert retired is None or retired == got  # deterministic
        retired = got
    wall = min(walls)
    return {
        "simulated_cycles": horizon,
        "wall_s": round(wall, 4),
        "cycles_per_sec": round(horizon / wall) if wall else None,
    }, retired


def _interleaved_best(runs, repeats=None):
    """Best-of-N wall clock per arm, arms interleaved round-robin.

    Interleaving makes every arm sample the same host-load epochs: on
    a busy single-core CI host, back-to-back blocks (N of arm A, then
    N of arm B) let one load spike land entirely on one arm and swing
    the ratio by +-20%, which is how overhead fractions used to come
    out negative.  The per-arm minimum of interleaved runs is the
    closest observable to the noise-free cost.  ``runs`` maps arm
    label -> zero-arg callable returning wall seconds.
    """
    best = {label: float("inf") for label in runs}
    for _ in range(repeats or REPEATS):
        for label, fn in runs.items():
            wall = fn()
            if wall < best[label]:
                best[label] = wall
    return best


def _measure_pmu_overhead(config, repeats=None):
    """PMU-off vs PMU-on wall clock for one SMT scenario (best-of-N).

    PMU-on includes interval sampling, the most expensive optional
    part; PMU-off is the exact configuration every uninstrumented run
    uses.  The PMU is a pure observer, so both arms simulate the same
    trajectory and the wall ratio is a true equal-work overhead.
    """
    from repro.pmu import Pmu

    def run(with_pmu: bool) -> float:
        runner = FameRunner(config, min_repetitions=3,
                            max_cycles=1_500_000)
        primary = make_microbenchmark("cpu_int", config)
        secondary = make_microbenchmark("ldint_l2", config,
                                        base_address=SECONDARY_BASE)
        pmu = Pmu(sample_period=4096) if with_pmu else None
        start = time.perf_counter()
        runner.run_pair(primary, secondary, priorities=(4, 4), pmu=pmu)
        return time.perf_counter() - start

    best = _interleaved_best({"off": lambda: run(False),
                              "on": lambda: run(True)}, repeats)
    off, on = best["off"], best["on"]
    return {
        "scenario": "smt_4_4_cpu_int_ldint_l2",
        "wall_off_s": round(off, 4),
        "wall_on_s": round(on, 4),
        "overhead_on_vs_off": round(on / off, 3) if off else None,
    }


def _measure_governor_overhead(config, repeats=None):
    """Equal-work governed vs ungoverned per-cycle cost (best-of-N).

    Both arms step the same loaded core over the same fixed horizon,
    so the wall ratio prices exactly what attaching the governor
    (ipc_balance at the default epoch) costs per simulated cycle: the
    epoch hook, the PMU snapshot, the policy decision, and any regime
    voids its priority actuations force.  The previous FAME-level
    on/off ratio was not an overhead: the governor changes priorities,
    which changes the convergence trajectory, and the recorded "3x
    overhead" was 2.7x more *simulated cycles*, not slower simulation.

    Both arms run the dense loop (``steady_replay`` off): the default
    epoch (500) is far below this pair's machine-state period, so a
    telescoped ungoverned arm against a jump-starved governed arm
    would price the workload's periodicity, not the machinery.  What
    governed *telescoping* is worth is gated separately under
    ``array_hooks`` at an epoch that leaves room to jump.
    """
    from repro.core import make_core
    from repro.governor import Governor, GovernorConfig, IpcBalancePolicy

    horizon = 1_500_000

    def run(with_governor: bool) -> float:
        core = make_core(config)
        primary = make_microbenchmark("cpu_int", config)
        secondary = make_microbenchmark("ldint_l2", config,
                                        base_address=SECONDARY_BASE)
        core.load([primary, secondary], priorities=(4, 4))
        core.steady_replay = False
        if with_governor:
            cfg = GovernorConfig()
            Governor(cfg, IpcBalancePolicy(cfg)).attach(core)
        start = time.perf_counter()
        core.step(horizon)
        return time.perf_counter() - start

    best = _interleaved_best({"off": lambda: run(False),
                              "on": lambda: run(True)}, repeats)
    off, on = best["off"], best["on"]
    return {
        "scenario": "smt_4_4_cpu_int_ldint_l2",
        "policy": "ipc_balance",
        "simulated_cycles": horizon,
        "wall_off_s": round(off, 4),
        "wall_on_s": round(on, 4),
        "overhead_on_vs_off": round(on / off, 3) if off else None,
    }


def _measure_array_hooks(config, repeats=None):
    """Telescoped vs dense array stepping with observers attached.

    Until horizon-bounded stepping, any periodic hook (sampler epoch,
    governor epoch, kernel timer) forced the array engine's dense
    loop for the whole run.  Both arms here run the *array* engine
    over the same fixed horizon; the dense arm only disables the
    steady-replay telescoper (``core.steady_replay = False``), which
    is exactly what every hooked run paid before jumps learned to
    clamp at the next hook boundary.  End state is asserted identical
    between the arms, so the speedup is free.
    """
    from repro.core import make_core
    from repro.governor import Governor, GovernorConfig, IpcBalancePolicy
    from repro.pmu.sampling import IntervalSampler

    def sampled(telescope: bool):
        core = make_core(config)
        core.load([make_microbenchmark("cpu_int", config)])
        core.steady_replay = telescope
        sampler = IntervalSampler(8192)
        sampler.attach(core)
        start = time.perf_counter()
        core.step(1_000_000)
        wall = time.perf_counter() - start
        return wall, (core._threads[0].retired, repr(sampler.samples))

    def governed(telescope: bool):
        core = make_core(config)
        core.load([make_microbenchmark("cpu_int", config),
                   make_microbenchmark("cpu_int", config,
                                       base_address=SECONDARY_BASE)],
                  priorities=(4, 4))
        core.steady_replay = telescope
        gcfg = GovernorConfig(epoch=32768)
        gov = Governor(gcfg, IpcBalancePolicy(gcfg))
        gov.attach(core)
        start = time.perf_counter()
        core.step(1_500_000)
        wall = time.perf_counter() - start
        sig = (tuple(th.retired for th in core._threads if th is not None),
               repr(gov.decision_log()))
        return wall, sig

    out = {}
    for label, arm, horizon, floor in (
            ("sampled_st_cpu_int", sampled, 1_000_000,
             ARRAY_HOOKS_SAMPLED_FLOOR),
            ("governed_smt_cpu_int_cpu_int", governed, 1_500_000,
             ARRAY_HOOKS_GOVERNED_FLOOR)):
        sigs = {}

        def timed(telescope, arm=arm, sigs=sigs):
            wall, sig = arm(telescope)
            prev = sigs.setdefault(telescope, sig)
            assert prev == sig  # deterministic per arm
            return wall

        best = _interleaved_best(
            {"telescoped": lambda: timed(True),
             "dense": lambda: timed(False)}, repeats)
        # Telescoping must not change a single observation.
        assert sigs[True] == sigs[False], label
        tele, dense = best["telescoped"], best["dense"]
        out[label] = {
            "simulated_cycles": horizon,
            "wall_telescoped_s": round(tele, 4),
            "wall_dense_s": round(dense, 4),
            "speedup": round(dense / tele, 3) if tele else None,
            "floor": floor,
        }
    return out


def _measure_chip_array(repeats=None):
    """Scheduled 2-core chip run: array engine vs object engine.

    The OS scheduler round-robins four cpu_int jobs over both cores
    with a large quantum; every scheduled core carries the patched
    kernel's timer hook, so before horizon-bounded stepping the array
    engine ran these cells dense.  Now each core telescopes between
    timer ticks and the chip hands bus-quiet spans over in one
    adaptive quantum.  The two engines must produce the identical
    ScheduleResult.
    """
    from repro.chip import Chip, ChipConfig
    from repro.sched import Job, OsScheduler, make_allocation_policy

    quantum = 131_072

    def run(engine: str):
        core_cfg = dataclasses.replace(POWER5.small(), engine=engine)
        chip = Chip(ChipConfig(n_cores=2, core=core_cfg))
        sched = OsScheduler(chip, make_allocation_policy("round_robin"),
                            quantum=quantum)
        jobs = [Job("cpu_int", repetitions=400) for _ in range(4)]
        start = time.perf_counter()
        result = sched.run(jobs)
        return time.perf_counter() - start, repr(result)

    sigs = {}

    def timed(engine):
        wall, sig = run(engine)
        prev = sigs.setdefault(engine, sig)
        assert prev == sig  # deterministic per engine
        return wall

    best = _interleaved_best({"array": lambda: timed("array"),
                              "object": lambda: timed("object")}, repeats)
    # Engine choice must not change a single scheduling decision,
    # job account or counter -- the speedup is free.
    assert sigs["array"] == sigs["object"]
    arr, obj = best["array"], best["object"]
    return {
        "scenario": "rr_2core_4x_cpu_int_reps400",
        "quantum": quantum,
        "wall_array_s": round(arr, 4),
        "wall_object_s": round(obj, 4),
        "speedup": round(obj / arr, 3) if arr else None,
        "floor": CHIP_ARRAY_FLOOR,
    }


def _load_baseline(path):
    """The committed BENCH_simcore.json, if present and parseable."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _comparable(prior, payload) -> bool:
    """True when the baseline came from an equivalent host + config."""
    if not prior:
        return False
    return all(prior.get(k) == payload[k]
               for k in ("config_fingerprint", "python", "cpu_count"))


def test_bench_perf_writes_simcore_json():
    array_cfg = POWER5.small()
    obj_cfg = dataclasses.replace(array_cfg, engine="object")

    array_scenarios = {}
    for label, names, horizon in ARRAY_SCENARIOS:
        arr = obj = None
        arr_retired = obj_retired = None
        for _ in range(REPEATS):
            a, a_ret = _measure_array_scenario(array_cfg, names,
                                               horizon, repeats=1)
            o, o_ret = _measure_array_scenario(obj_cfg, names, horizon,
                                               repeats=1)
            assert arr_retired is None or arr_retired == a_ret, label
            assert obj_retired is None or obj_retired == o_ret, label
            arr_retired, obj_retired = a_ret, o_ret
            if arr is None or a["wall_s"] < arr["wall_s"]:
                arr = a
            if obj is None or o["wall_s"] < obj["wall_s"]:
                obj = o
        # Same instructions retired per thread at the same horizon --
        # the cheap cross-engine check worth repeating in the bench.
        assert arr_retired == obj_retired, label
        array_scenarios[label] = {
            "array": arr,
            "object": obj,
            "speedup": round(obj["wall_s"] / arr["wall_s"], 3)
            if arr["wall_s"] else None,
        }

    pmu_overhead = _measure_pmu_overhead(array_cfg)
    governor_overhead = _measure_governor_overhead(array_cfg)
    array_hooks = _measure_array_hooks(array_cfg)
    chip_array = _measure_chip_array()

    payload = {
        "config_fingerprint": array_cfg.fingerprint(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "array_engine": {"floor": ARRAY_FLOOR,
                         "scenarios": array_scenarios},
        "array_hooks": array_hooks,
        "chip_array": chip_array,
        "pmu": pmu_overhead,
        "governor": governor_overhead,
    }
    out = ROOT / "BENCH_simcore.json"
    prior = _load_baseline(out)
    gate = _comparable(prior, payload)
    payload["pmu"]["baseline_gate_ran"] = gate
    payload["governor"]["baseline_gate_ran"] = gate
    payload["array_engine"]["baseline_gate_ran"] = gate
    if prior and "simcache" in prior:
        # The result-cache bench (test_bench_simcache.py) owns this
        # section via read-modify-write; keep it across rewrites.
        payload["simcache"] = prior["simcache"]
    out.write_text(json.dumps(payload, indent=2) + "\n")

    # Array-engine speedup gate: the compiled kernels plus the
    # steady-state replay telescoper must beat the object engine by at
    # least ARRAY_FLOOR on both CPU-bound scenarios.  Engine-relative,
    # so it runs on every host regardless of the baseline.
    for label, s in array_scenarios.items():
        assert s["speedup"] is not None and s["speedup"] >= ARRAY_FLOOR, (
            f"{label}: array engine at {s['speedup']}x of the object "
            f"engine, below the {ARRAY_FLOOR} floor")

    # Hooked-telescoping gates, engine-relative so they run on every
    # host: sampled and governed array runs must beat their own dense
    # fallback by the section floors, or horizon-bounded stepping
    # regressed back to dense-on-hooks.
    for label, s in array_hooks.items():
        assert s["speedup"] is not None and s["speedup"] >= s["floor"], (
            f"array_hooks/{label}: telescoped at {s['speedup']}x of "
            f"dense, below the {s['floor']} floor")

    # Chip-array gate: the scheduled 2-core cell must keep its
    # telescoped win over the object engine (needs hook-clamped core
    # jumps, zero-grant port eligibility and the adaptive bus-quiet
    # quantum all working together).
    assert (chip_array["speedup"] is not None
            and chip_array["speedup"] >= CHIP_ARRAY_FLOOR), (
        f"chip_array: array engine at {chip_array['speedup']}x of the "
        f"object engine, below the {CHIP_ARRAY_FLOOR} floor")

    # Governor equal-work overhead gate: same-horizon governed vs
    # ungoverned stepping.  The small absolute slack keeps a ~100ms
    # telescoped wall out of timer noise; a real regression (hooks
    # forcing dense again would read as ~3x here) still trips it.
    assert (governor_overhead["wall_on_s"]
            <= governor_overhead["wall_off_s"] * GOVERNOR_OVERHEAD_CEIL
            + 0.05), (
        f"governor: equal-work overhead "
        f"{governor_overhead['overhead_on_vs_off']}x exceeds the "
        f"{GOVERNOR_OVERHEAD_CEIL} ceiling")

    # Array-engine absolute-throughput gate: on a comparable host the
    # array engine must also hold ENGINE_FLOOR of its own committed
    # wall clock -- the relative gate above would miss both engines
    # slowing down together.  Compared in wall terms with the same
    # absolute slack as every other sub-100ms gate: the telescoped ST
    # wall is ~13ms, where a 1-2ms scheduler blip reads as a 10% ratio
    # swing, while a real regression (telescoper dropping to dense)
    # is two orders of magnitude.
    if gate:
        prior_array = prior.get("array_engine", {}).get("scenarios", {})
        for label, s in array_scenarios.items():
            base = prior_array.get(label, {}).get("array", {})
            base_wall = base.get("wall_s")
            if base_wall is None and base.get("cycles_per_sec"):
                base_wall = (s["array"]["simulated_cycles"]
                             / base["cycles_per_sec"])
            if base_wall:
                measured = s["array"]["wall_s"]
                assert measured <= base_wall / ENGINE_FLOOR + 0.05, (
                    f"{label}: array engine at {measured:.4f}s vs "
                    f"baseline {base_wall:.4f}s (floor {ENGINE_FLOOR})")

    # PMU-off regression gate: with the PMU detached, the always-on
    # raw counters are the only cost the subsystem adds to the hot
    # loop, and it must stay within 10% of the committed baseline.
    # Only meaningful when the baseline ran on an equivalent host
    # (cross-machine wall-clock comparisons say nothing); a small
    # absolute slack keeps sub-100ms scenarios out of timer noise.
    if gate:
        base_off = prior.get("pmu", {}).get("wall_off_s")
        if base_off is not None:
            measured = pmu_overhead["wall_off_s"]
            assert measured <= base_off * 1.10 + 0.05, (
                f"PMU-off run regressed: {measured:.4f}s vs baseline "
                f"{base_off:.4f}s (+10% budget)")

    # Governor-off regression gate, same shape: an ungoverned run
    # must not pay for the governor subsystem's existence.  The hook
    # list is empty and the sysfs interface untouched, so this should
    # be literally the pre-governor code path.  Comparable only when
    # the baseline measured the same quantity -- the section changed
    # from FAME convergence walls to equal-work fixed-horizon walls,
    # so a baseline without a matching ``simulated_cycles`` (an older
    # format) is skipped until the next baseline refresh.
    if gate:
        prior_gov = prior.get("governor", {})
        base_off = prior_gov.get("wall_off_s")
        if (base_off is not None
                and prior_gov.get("simulated_cycles")
                == governor_overhead["simulated_cycles"]):
            measured = governor_overhead["wall_off_s"]
            assert measured <= base_off * 1.10 + 0.05, (
                f"governor-off run regressed: {measured:.4f}s vs "
                f"baseline {base_off:.4f}s (+10% budget)")
