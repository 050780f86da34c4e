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

``"array_engine"`` records the compiled-kernel engine's sustained
direct-step throughput against the object engine on the two CPU-bound
scenarios the array engine was built for.  These run fixed horizons
through ``core.step`` directly (no FAME convergence), so both engines
do exactly the same work; the speedups are gated at ``ARRAY_FLOOR``
and, on a comparable host, the array engine's absolute throughput is
held to ``ENGINE_FLOOR`` of the committed baseline.

The bench owns only the sections it writes: every other section of
``BENCH_simcore.json`` (written by the other benches) is carried over.
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
#: the CPU-bound scenarios below.  The compiled kernels measure ~2.5x;
#: a run that silently falls back to reference decode reads ~1x, so
#: dropping under 1.5x means the kernels stopped being used.
ARRAY_FLOOR = 1.5

#: Ceiling on the governor's equal-work per-cycle overhead (wall per
#: simulated cycle, governed vs ungoverned, same horizon).  The hook
#: fires every ``GovernorConfig.epoch`` cycles and each firing is a
#: counter snapshot plus a policy decision; anything past this bound
#: means the hook machinery got expensive.
GOVERNOR_OVERHEAD_CEIL = 1.5

#: (label, (primary, secondary-or-None), direct-step horizon).  The
#: horizons keep kernel binding and load cost negligible against
#: stepping and each wall clock well clear of timer noise.
ARRAY_SCENARIOS = (
    ("st_cpu_int", ("cpu_int", None), 600_000),
    ("smt_4_4_cpu_int_ldint_l2", ("cpu_int", "ldint_l2"), 1_500_000),
)

def _measure_array_scenario(config, names, horizon, repeats=None):
    """Best-of-N sustained direct-step throughput of one engine.

    Fixed horizon through ``core.step`` rather than a FAME run, so the
    work does not depend on convergence.  Returns the measurement
    dict plus the per-thread retired
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
    epoch hook, the PMU snapshot and the policy decision.  The
    previous FAME-level on/off ratio was not an overhead: the governor
    changes priorities, which changes the convergence trajectory, and
    the recorded "3x overhead" was 2.7x more *simulated cycles*, not
    slower simulation.
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

    out = ROOT / "BENCH_simcore.json"
    prior = _load_baseline(out)
    # Other benches own their sections via read-modify-write; start
    # from the prior file and overwrite only the sections owned here.
    payload = dict(prior or {})
    payload.update({
        "config_fingerprint": array_cfg.fingerprint(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "array_engine": {"floor": ARRAY_FLOOR,
                         "scenarios": array_scenarios},
        "pmu": pmu_overhead,
        "governor": governor_overhead,
    })
    gate = _comparable(prior, payload)
    payload["pmu"]["baseline_gate_ran"] = gate
    payload["governor"]["baseline_gate_ran"] = gate
    payload["array_engine"]["baseline_gate_ran"] = gate
    out.write_text(json.dumps(payload, indent=2) + "\n")

    # Array-engine speedup gate: the compiled kernels must beat the
    # object engine by at least ARRAY_FLOOR on both CPU-bound
    # scenarios.  Engine-relative, so it runs on every host regardless
    # of the baseline.
    for label, s in array_scenarios.items():
        assert s["speedup"] is not None and s["speedup"] >= ARRAY_FLOOR, (
            f"{label}: array engine at {s['speedup']}x of the object "
            f"engine, below the {ARRAY_FLOOR} floor")

    # Governor equal-work overhead gate: same-horizon governed vs
    # ungoverned stepping.  The small absolute slack keeps timer noise
    # out of short walls; a real regression in the hook machinery
    # still trips it.
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
    # absolute slack as every other gate, so a scheduler blip on a
    # short wall does not read as a regression.
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
