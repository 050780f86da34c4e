"""Shared fixtures for the benchmark harness.

Each ``test_bench_*`` module regenerates one table or figure of the
paper; ``test_bench_gates.py`` holds the simulator's performance gates.
A single :class:`ExperimentContext` is shared across the whole
benchmark session so that the Figure 2/3/4 sweeps reuse each other's
measurements (they are three views of one 400-run priority sweep).

Every benchmark writes its rendered report to
``benchmarks/results/<id>.txt`` so the regenerated rows/series are
inspectable after a ``pytest benchmarks/ --benchmark-only`` run, and
its headline numbers to one section of ``BENCH_simcore.json``.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform

import pytest

from repro.config import POWER5
from repro.experiments import ExperimentContext

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BENCH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_simcore.json"

#: The record's host stamp: wall clocks compare only across equal stamps.
HOST = {"config_fingerprint": POWER5.small().fingerprint(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count()}


def _read_bench() -> dict:
    try:
        return json.loads(BENCH.read_text())
    except (OSError, ValueError):
        return {}


@pytest.fixture(scope="session")
def ctx():
    """The shared measurement context (small preset, FAME defaults)."""
    return ExperimentContext(config=POWER5.small(), min_repetitions=3,
                             max_cycles=2_500_000)


@pytest.fixture(scope="session")
def save_report():
    """Write an experiment report to benchmarks/results/<id>.txt."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def save(report):
        path = RESULTS_DIR / f"{report.experiment_id}.txt"
        path.write_text(str(report) + "\n")
        return path
    return save


@pytest.fixture(scope="session")
def baseline():
    """The committed record if a comparable host wrote it, else None.

    Read once per session, before any gate rewrites the file: a gate
    that restamps it must not make a foreign record look comparable
    to the gates after it.
    """
    prior = _read_bench()
    return prior if all(prior.get(k) == v for k, v in HOST.items()) else None


@pytest.fixture(scope="session")
def record(baseline):
    """``record(section, values)``: rewrite one section of the record.

    Every other section is carried over.  A section that records
    ``baseline_gate_ran`` is itself a baseline, so writing it also
    stamps the record with this host.
    """
    def write(section, values):
        payload = _read_bench()
        payload[section] = values
        if "baseline_gate_ran" in values:
            payload.update(HOST)
        BENCH.write_text(json.dumps(payload, indent=2) + "\n")
    return write
