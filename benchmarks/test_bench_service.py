"""Bench: the simulation service, cold vs warm overlapping clients.

Runs an in-process job server (2 persistent workers, fresh cache
directory) and submits the table3 sweep from two concurrent clients
with overlapping plans, twice:

- **cold** -- empty cache: every unique cell computed exactly once
  (single-flight dedup absorbs the overlap), values fetched over
  ``/entry``;
- **warm** -- same plans resubmitted: every cell deduped against the
  server's state, nothing recomputed.

Gates: the server's own counters must show one computation per unique
cell and a perfect warm-path dedup hit-rate, and the warm resubmission
must stay within ``WARM_CEILING`` (absolute or relative to cold) --
the regression gate on per-submission service overhead (keying, HTTP,
waiting), which a simulator change cannot excuse.  Results land in the
``"service"`` section of ``BENCH_simcore.json`` via read-modify-write.
"""

from __future__ import annotations

import json
import pathlib
import tempfile
import threading
import time

from repro.config import POWER5
from repro.experiments import figure2, table3
from repro.experiments.base import ExperimentContext
from repro.service import ServiceBackend, ServiceClient
from repro.service.server import ServerConfig, ServiceHandle

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Warm-path budget: max(absolute seconds, fraction of cold wall).
WARM_CEILING_S = 5.0
WARM_CEILING_FRACTION = 0.25


def _two_clients(url, plans) -> float:
    """Submit the plans from concurrent clients; returns wall-clock."""
    barrier = threading.Barrier(len(plans))
    errors: list[BaseException] = []

    def client(plan):
        ctx = ExperimentContext(config=POWER5.small(),
                                min_repetitions=3,
                                max_cycles=2_500_000,
                                backend=ServiceBackend(url))
        barrier.wait()
        try:
            ctx.prefetch(plan)
        except BaseException as exc:
            errors.append(exc)

    start = time.perf_counter()
    threads = [threading.Thread(target=client, args=(plan,))
               for plan in plans]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    assert not errors, errors
    return wall


def test_bench_service_cold_vs_warm_overlapping_clients():
    plan_a = table3.cells()
    plan_b = list(dict.fromkeys(table3.cells()
                                + figure2.cells(diffs=(1, 2))))
    unique = len(set(plan_a) | set(plan_b))
    submitted_per_round = len(plan_a) + len(plan_b)

    with tempfile.TemporaryDirectory() as tmp:
        handle = ServiceHandle(ServerConfig(
            port=0, workers=2, cache_dir=str(pathlib.Path(tmp) / "cache"),
            retry_backoff=0.05)).start()
        try:
            cold_wall = _two_clients(handle.url, [plan_a, plan_b])
            cold = ServiceClient(handle.url).metrics()["dedup"]
            warm_wall = _two_clients(handle.url, [plan_a, plan_b])
            warm = ServiceClient(handle.url).metrics()["dedup"]
        finally:
            handle.stop()

    computed_warm = warm["computed"] - cold["computed"]
    deduped_warm = (warm["cached"] + warm["coalesced"]
                    - cold["cached"] - cold["coalesced"])
    hit_rate_warm = deduped_warm / submitted_per_round
    single_flight_ok = (cold["computed"] == unique
                        and computed_warm == 0)

    section = {
        "unique_cells": unique,
        "submitted_per_round": submitted_per_round,
        "cold_2client_wall_s": round(cold_wall, 2),
        "warm_2client_wall_s": round(warm_wall, 2),
        "warm_speedup": (round(cold_wall / warm_wall, 2)
                         if warm_wall else None),
        "cold_dedup": {k: cold[k] for k in
                       ("submitted", "cached", "coalesced", "computed",
                        "retries", "failed")},
        "dedup_hit_rate_warm": round(hit_rate_warm, 4),
        "single_flight_ok": single_flight_ok,
    }

    # Read-modify-write: only this bench owns the "service" section.
    out = ROOT / "BENCH_simcore.json"
    try:
        payload = json.loads(out.read_text())
    except (OSError, ValueError):
        payload = {}
    payload["service"] = section
    out.write_text(json.dumps(payload, indent=2) + "\n")

    assert single_flight_ok, (
        f"expected {unique} unique cells computed once "
        f"(cold {cold['computed']}, warm +{computed_warm})")
    assert hit_rate_warm == 1.0, (
        f"warm resubmission should dedup every cell, "
        f"hit rate {hit_rate_warm:.3f}")
    ceiling = max(WARM_CEILING_S, WARM_CEILING_FRACTION * cold_wall)
    assert warm_wall <= ceiling, (
        f"warm-path service overhead regressed: {warm_wall:.2f}s "
        f"for {submitted_per_round} deduped submissions "
        f"(ceiling {ceiling:.2f}s, cold {cold_wall:.2f}s)")
