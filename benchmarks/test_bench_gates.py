"""Bench: every performance gate of the simulator, one test per group.

Each test records its section of ``BENCH_simcore.json`` (``record``)
before it checks its bounds, so a failing bound still leaves its
numbers behind.
Wall-clock gates compare arms timed by :func:`interleaved_best`; the
absolute ones also compare against the committed record, but only
when a comparable host wrote it (``baseline``: same config
fingerprint, Python version and core count).  Every absolute check
carries ``SLACK_S`` so a scheduler blip on a short wall is not read
as a regression.  The end-to-end suite wall time is measured by the
repository benchmark (``perfbench/``), not here.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import tempfile
import threading
import time

from repro.config import POWER5
from repro.core import make_core
from repro.experiments import EXPERIMENTS, ExperimentContext, run_many
from repro.experiments import figure2, table3
from repro.experiments.parallel import PoolBackend
from repro.governor import Governor, GovernorConfig, IpcBalancePolicy
from repro.memory import MemoryHierarchy
from repro.microbench import make_microbenchmark
from repro.pmu import Pmu
from repro.service import ServiceBackend, ServiceClient
from repro.service.server import ServerConfig, ServiceHandle
from repro.simcache import SimCache
from repro.workloads.tracecache import clear_cache

#: Interleaved rounds per wall-clock comparison (``BENCH_REPEATS``
#: overrides): the per-arm minimum is the closest observable to the
#: noise-free cost on a busy host.
REPEATS = int(os.environ.get("BENCH_REPEATS", "3"))

#: Absolute slack on every wall-clock check against another wall.
SLACK_S = 0.05

#: Array-engine speedup over the object engine on the CPU-bound
#: scenarios.  The compiled kernels measure ~2.5x; a run that silently
#: falls back to reference decode reads ~1x.
ARRAY_FLOOR = 1.5

#: Array-engine throughput against its own committed wall clock.
ENGINE_FLOOR = 0.95

#: Governed vs ungoverned wall per simulated cycle (same horizon).
GOVERNOR_OVERHEAD_CEIL = 1.5

#: Uninstrumented stepping against the committed record (PMU-off and
#: governor-off: neither subsystem may cost a run that does not use it).
OFF_BUDGET = 1.10

#: Cold/warm wall-clock ratios: the full suite, and the dse and
#: prefetch experiments (whose cell-free work bounds the speedup).
SUITE_WARM_FLOOR = 5.0
WARM_FLOOR = 3.0

#: Warm service resubmission budget: max(seconds, fraction of cold).
SERVICE_WARM_CEILING_S = 5.0
SERVICE_WARM_CEILING_FRACTION = 0.25

#: Slowdown the default-off prefetcher may add to the L1-miss path.
PREFETCH_OFF_CEIL = 0.05

SECONDARY_BASE = (1 << 27) + 8192
SMT_PAIR = ("cpu_int", "ldint_l2")
GOVERNOR_HORIZON = 1_500_000

#: (label, workloads, direct-step horizon): long enough that kernel
#: binding and load cost are negligible against stepping.
ARRAY_SCENARIOS = (
    ("st_cpu_int", ("cpu_int",), 600_000),
    ("smt_4_4_cpu_int_ldint_l2", SMT_PAIR, 1_500_000),
)

#: (issue cycle, address) of distinct L3 lines, far enough apart in
#: time that no queue builds: every load misses to DRAM.  Short, so
#: many rounds fit and both arms see the host's fast phases.
MISS_STREAM = tuple((i * 400, i * 256) for i in range(2048))


def interleaved_best(arms: dict, repeats: int = REPEATS) -> dict:
    """Each arm's minimum wall over interleaved rounds.

    ``arms`` maps label -> zero-arg callable returning wall seconds.
    Every round runs each arm once and the order reverses every round,
    so a load spike or a running-second advantage lands on every arm
    alike.  Back-to-back blocks of one arm used to swing overhead
    ratios by +-20% on a busy host.
    """
    order = list(arms)
    best = dict.fromkeys(order, float("inf"))
    for _ in range(repeats):
        for label in order:
            best[label] = min(best[label], arms[label]())
        order.reverse()
    return best


def stepper(config, names, horizon, instrument=None, retired=None):
    """Arm timing ``core.step(horizon)`` on a fresh core at (4, 4).

    ``instrument(core)`` runs after loading, untimed; per-thread
    retired counts are added to the ``retired`` set.
    """
    def arm() -> float:
        core = make_core(config)
        core.load([make_microbenchmark(name, config, base_address=base)
                   for name, base in zip(names, (0, SECONDARY_BASE))],
                  priorities=(4, 4))
        if instrument is not None:
            instrument(core)
        start = time.perf_counter()
        core.step(horizon)
        wall = time.perf_counter() - start
        if retired is not None:
            retired.add(tuple(th.retired for th in core._threads
                              if th is not None))
        return wall
    return arm


def cold_warm(ids, backends=(None,), pmu=False) -> list:
    """``run_many(ids)`` cold into a fresh SimCache, then warm per backend.

    Returns ``(reports, wall, cache stats)`` per run, cold first, after
    asserting that the cache changed when work happened, never what
    any experiment reports.
    """
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for backend in (None, *backends):
            clear_cache()
            cache = SimCache(tmp)
            ctx = ExperimentContext(config=POWER5.small(), min_repetitions=3,
                                    max_cycles=2_500_000, pmu=pmu,
                                    backend=backend, simcache=cache)
            start = time.perf_counter()
            reports = run_many(list(ids), ctx)
            runs.append((reports, time.perf_counter() - start, cache.stats()))
    (cold, _, cold_stats), *warm = runs
    for reports, _, stats in warm:
        assert repr(reports) == repr(cold)
        assert stats["misses"] == 0
    assert cold_stats["stores"] == cold_stats["misses"] > 0
    return runs


def _walls(cold_wall, warm_wall) -> dict:
    return {"cold_wall_s": round(cold_wall, 2),
            "warm_wall_s": round(warm_wall, 2),
            "speedup_warm": round(cold_wall / warm_wall, 2)}


def test_array_engine(baseline, record):
    array_cfg = POWER5.small()
    obj_cfg = dataclasses.replace(array_cfg, engine="object")
    scenarios = {}
    for label, names, horizon in ARRAY_SCENARIOS:
        retired = set()
        best = interleaved_best({
            "array": stepper(array_cfg, names, horizon, retired=retired),
            "object": stepper(obj_cfg, names, horizon, retired=retired)})
        # Deterministic, and the same instructions retired per thread
        # on both engines (the full matrix is the differential suite's).
        assert len(retired) == 1, (label, retired)
        scenarios[label] = {
            engine: {"simulated_cycles": horizon, "wall_s": round(wall, 4),
                     "cycles_per_sec": round(horizon / wall)}
            for engine, wall in best.items()}
        scenarios[label]["speedup"] = round(best["object"] / best["array"], 3)
    record("array_engine", {"floor": ARRAY_FLOOR, "scenarios": scenarios,
                            "baseline_gate_ran": baseline is not None})

    for label, s in scenarios.items():
        assert s["speedup"] >= ARRAY_FLOOR, (
            f"{label}: array engine at {s['speedup']}x of the object "
            f"engine, below the {ARRAY_FLOOR} floor")
        if baseline:
            # Both engines slowing down together passes the ratio above.
            base = baseline["array_engine"]["scenarios"][label]["array"]
            measured = s["array"]["wall_s"]
            assert measured <= base["wall_s"] / ENGINE_FLOOR + SLACK_S, (
                f"{label}: array engine at {measured:.4f}s vs baseline "
                f"{base['wall_s']:.4f}s (floor {ENGINE_FLOOR})")


def test_governor_and_pmu_overhead(baseline, record):
    """Bare, governed and PMU-on stepping over one fixed horizon.

    Equal work: the governor (ipc_balance at the default epoch) prices
    its epoch hook, PMU snapshot and policy decision; the PMU its
    counters and interval sampling.  The bare arm is what every
    uninstrumented run pays.
    """
    config = POWER5.small()

    def govern(core):
        cfg = GovernorConfig()
        Governor(cfg, IpcBalancePolicy(cfg)).attach(core)

    best = interleaved_best({
        "off": stepper(config, SMT_PAIR, GOVERNOR_HORIZON),
        "governor": stepper(config, SMT_PAIR, GOVERNOR_HORIZON, govern),
        "pmu": stepper(config, SMT_PAIR, GOVERNOR_HORIZON,
                       lambda core: Pmu(sample_period=4096).attach(core))})
    off = best["off"]
    gate = {"scenario": "smt_4_4_cpu_int_ldint_l2",
            "simulated_cycles": GOVERNOR_HORIZON,
            "wall_off_s": round(off, 4),
            "baseline_gate_ran": baseline is not None}
    for section, knob in (("pmu", {"sample_period": 4096}),
                          ("governor", {"policy": "ipc_balance"})):
        on = best[section]
        record(section, {**gate, **knob, "wall_on_s": round(on, 4),
                         "overhead_on_vs_off": round(on / off, 3)})

    assert best["governor"] <= off * GOVERNOR_OVERHEAD_CEIL + SLACK_S, (
        f"governor: equal-work overhead {best['governor'] / off:.3f}x "
        f"exceeds the {GOVERNOR_OVERHEAD_CEIL} ceiling")
    prior = (baseline or {}).get("governor", {})
    if prior.get("simulated_cycles") == GOVERNOR_HORIZON:
        base_off = prior["wall_off_s"]
        assert off <= base_off * OFF_BUDGET + SLACK_S, (
            f"PMU-off/governor-off stepping regressed: {off:.4f}s vs "
            f"baseline {base_off:.4f}s (budget {OFF_BUDGET}x)")


def test_simcache_suite_cold_vs_warm(record):
    (_, cold_wall, cold), (_, warm_wall, warm), (_, jobs_wall, _) = (
        cold_warm(EXPERIMENTS, backends=(None, PoolBackend(2))))
    # The prefetch experiment's baseline twin shares only the disk
    # cache, so the cold run already hits: every cold lookup is a warm hit.
    assert warm["hits"] == cold["hits"] + cold["misses"]
    section = _walls(cold_wall, warm_wall)
    record("simcache", {**section, "warm_jobs2_wall_s": round(jobs_wall, 2),
                        "cells_cached": cold["stores"],
                        "cache_bytes": cold["bytes"],
                        "reports_identical": True})
    assert section["speedup_warm"] >= SUITE_WARM_FLOOR, (
        f"warm suite only {section['speedup_warm']}x faster than cold, "
        f"floor {SUITE_WARM_FLOOR}")


def _two_clients(url, plans) -> float:
    """Submit the plans from concurrent clients; returns wall-clock."""
    barrier = threading.Barrier(len(plans))
    errors: list[Exception] = []

    def client(plan):
        ctx = ExperimentContext(config=POWER5.small(), min_repetitions=3,
                                max_cycles=2_500_000,
                                backend=ServiceBackend(url))
        barrier.wait()
        try:
            ctx.prefetch(plan)
        except Exception as exc:  # reported by the caller's assert
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(plan,))
               for plan in plans]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    assert not errors, errors
    return wall


def test_service_overlapping_clients(record):
    """Two clients with overlapping table3 plans, cold then warm.

    Single-flight dedup must compute each unique cell once, and the
    warm resubmission dedups everything within the service budget.
    """
    plans = [table3.cells(), list(dict.fromkeys(
        table3.cells() + figure2.cells(diffs=(1, 2))))]
    unique = len(set().union(*plans))
    submitted = sum(map(len, plans))
    with tempfile.TemporaryDirectory() as tmp:
        handle = ServiceHandle(ServerConfig(
            port=0, workers=2, cache_dir=str(pathlib.Path(tmp) / "cache"),
            retry_backoff=0.05)).start()
        try:
            cold_wall = _two_clients(handle.url, plans)
            cold = ServiceClient(handle.url).metrics()["dedup"]
            warm_wall = _two_clients(handle.url, plans)
            warm = ServiceClient(handle.url).metrics()["dedup"]
        finally:
            handle.stop()

    computed_warm = warm["computed"] - cold["computed"]
    hit_rate = (warm["cached"] + warm["coalesced"] - cold["cached"]
                - cold["coalesced"]) / submitted
    single_flight_ok = cold["computed"] == unique and computed_warm == 0
    record("service", {
        "unique_cells": unique, "submitted_per_round": submitted,
        "cold_2client_wall_s": round(cold_wall, 2),
        "warm_2client_wall_s": round(warm_wall, 2),
        "warm_speedup": round(cold_wall / warm_wall, 2),
        "cold_dedup": {k: cold[k] for k in ("submitted", "cached",
                                            "coalesced", "computed",
                                            "retries", "failed")},
        "dedup_hit_rate_warm": round(hit_rate, 4),
        "single_flight_ok": single_flight_ok})

    assert single_flight_ok, (
        f"expected {unique} unique cells computed once "
        f"(cold {cold['computed']}, warm +{computed_warm})")
    assert hit_rate == 1.0, f"warm dedup hit rate {hit_rate:.3f}"
    ceiling = max(SERVICE_WARM_CEILING_S,
                  SERVICE_WARM_CEILING_FRACTION * cold_wall)
    assert warm_wall <= ceiling, (
        f"warm-path service overhead regressed: {warm_wall:.2f}s for "
        f"{submitted} deduped submissions (ceiling {ceiling:.2f}s)")


def test_dse_cold_vs_warm(record, save_report):
    """A warm sweep re-prices every design point without simulating."""
    ((report,), cold_wall, cold), (_, warm_wall, _) = cold_warm(
        ["dse"], pmu=True)
    save_report(report)
    claims = report.data["claims"]
    section = _walls(cold_wall, warm_wall)
    record("dse", {**section,
                   "design_points": len(report.data["points"]),
                   "pareto_points": len(report.data["pareto"]),
                   "cells_cached": cold["stores"],
                   "governed_cap_ratio": round(claims["governed_cap_ratio"], 4),
                   "lowest_power_all_1v1": claims["lowest_power_all_1v1"],
                   "reports_identical": True})
    assert claims["governed_holds_cap"]
    assert section["speedup_warm"] >= WARM_FLOOR, (
        f"warm dse sweep only {section['speedup_warm']}x faster than "
        f"cold, floor {WARM_FLOOR}")


def test_prefetch_cold_vs_warm_and_default_off(record, save_report):
    """The prefetch matrix caches like any other; off, it is free.

    The default-off prefetcher sits on every L1 miss, so its cost is
    timed on exactly that path: ``MemoryHierarchy.load_complete`` over
    a DRAM-missing stream, against a hierarchy with the prefetcher
    nulled out (``_pf = None``, the alias the hot path reads).
    """
    ((report,), cold_wall, cold), (_, warm_wall, _) = cold_warm(
        ["prefetch"], pmu=True)
    save_report(report)

    def miss_path(null_pf):
        def arm() -> float:
            hierarchy = MemoryHierarchy(POWER5.small())
            if null_pf:
                hierarchy._pf = None
            load = hierarchy.load_complete
            start = time.perf_counter()
            for cycle, addr in MISS_STREAM:
                load(addr, cycle)
            return time.perf_counter() - start
        return arm

    best = interleaved_best({"bare": miss_path(True),
                             "default_off": miss_path(False)}, 32 * REPEATS)
    bare, default_off = best["bare"], best["default_off"]
    # The default-off path does strictly more work: a negative estimate
    # is timer noise, so the stat is clamped at zero (walls kept).
    overhead = max(0.0, (default_off - bare) / bare)
    claims = report.data["claims"]
    section = _walls(cold_wall, warm_wall)
    record("prefetch", {
        **section,
        "cells_cached": cold["stores"],
        "miss_loads": len(MISS_STREAM),
        "bare_wall_s": round(bare, 4),
        "default_off_wall_s": round(default_off, 4),
        "default_off_overhead_frac": round(overhead, 4),
        "cotuning_margins": {e["pair"]: round(e["margin_frac"], 4)
                             for e in claims["cotuning_margins"]},
        "governed_tail_ratio": round(claims["governed_tail_ratio"], 4),
        "reports_identical": True})

    assert claims["baseline_prefetch_silent"]
    assert claims["cotuning_gains_some_pair"]
    assert claims["governed_reaches_best_static"]
    assert section["speedup_warm"] >= WARM_FLOOR, (
        f"warm prefetch run only {section['speedup_warm']}x faster "
        f"than cold, floor {WARM_FLOOR}")
    assert overhead <= PREFETCH_OFF_CEIL, (
        f"default-off prefetcher adds {overhead:.2%} to the L1-miss path "
        f"({default_off:.4f}s vs {bare:.4f}s), ceiling "
        f"{PREFETCH_OFF_CEIL:.0%}")
