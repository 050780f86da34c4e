"""The simulation service: protocol, single-flight dedup, recovery.

Three properties carry the subsystem:

- **transparency** -- a sweep routed through the HTTP backend returns
  byte-identical reports to a local serial run (the backend is
  transport, never semantics);
- **single-flight dedup** -- N clients submitting overlapping plans
  cost exactly one computation per unique cell, asserted by the
  server's own counters;
- **robustness** -- a worker crash mid-sweep is retried to success
  with no client-visible failure, and a draining server refuses new
  work while finishing what it accepted.

Server-backed tests run a real :class:`ServiceHandle` (background
thread, ephemeral port, private cache directory) with real worker
processes -- the same stack ``power5-repro serve`` runs.
"""

from __future__ import annotations

import dataclasses
import re
import socket
import threading
import time

import pytest

from repro.cli import main
from repro.config import POWER5
from repro.experiments import figure2, table3
from repro.experiments.base import (
    ExperimentContext,
    governed_cell,
    pair_cell,
    priority_pair,
    single_cell,
)
from repro.experiments.registry import resolve_ids
from repro.service import (
    ServiceBackend,
    ServiceClient,
    ServiceError,
    decode_cell,
    encode_cell,
)
from repro.service import protocol, server
from repro.service.server import ServerConfig, ServiceHandle
from repro.simcache import SimCache, check_versions

#: Small benchmark subset keeping server-backed sweeps fast.
BENCHES = ("cpu_int", "ldint_l2")

#: One key of every cell kind, floats included (the transparent
#: governor embeds a measured IPC in its key).
KEYS = [
    single_cell("cpu_int"),
    pair_cell("cpu_int", "ldint_l2", priority_pair(2)),
    governed_cell("cpu_int", "ldint_l2", (4, 4), "transparent",
                  {"st_ipc": 0.123456789012}),
    ("chip", "spec", "round_robin", 2, 1),
]


def _ctx(**kwargs) -> ExperimentContext:
    return ExperimentContext(config=POWER5.small(), min_repetitions=2,
                             max_cycles=200_000, **kwargs)


def _server(tmp_path, workers=2, **kwargs) -> ServiceHandle:
    config = ServerConfig(port=0, workers=workers,
                          cache_dir=str(tmp_path / "svc-cache"),
                          retry_backoff=0.05, **kwargs)
    return ServiceHandle(config).start()


# -- protocol (no server) -----------------------------------------------


def test_cell_keys_roundtrip_exactly():
    for key in KEYS:
        assert decode_cell(encode_cell(key)) == key


def test_unencodable_key_component_rejected():
    with pytest.raises(TypeError, match="not wire-encodable"):
        encode_cell(("single", object()))


def test_spec_rebuilds_equivalent_context():
    """A context rebuilt from its wire spec computes identical cache
    keys -- the property the whole digest protocol stands on -- and so
    does a ``dataclasses.replace`` twin, against one built by hand."""
    ctx = _ctx(pmu=True, pmu_sample=512, governor="ipc_balance",
               governor_epoch=400, backend=ServiceBackend("http://x"))
    rebuilt = ExperimentContext.from_spec(ctx.spec())
    config = POWER5.small().replace(fx_latency=3)
    twin = dataclasses.replace(ctx, config=config, pmu=False,
                               pmu_sample=0, governor=None)
    by_hand = ExperimentContext(config=config, min_repetitions=2,
                                max_cycles=200_000, governor_epoch=400)
    assert rebuilt.config.fingerprint() == ctx.config.fingerprint()
    for key in KEYS:
        assert rebuilt._simcache_key(key) == ctx._simcache_key(key)
        assert twin._simcache_key(key) == by_hand._simcache_key(key)
    assert twin.backend is ctx.backend and twin._cache is not ctx._cache


def test_spec_survives_json(tmp_path):
    import json
    spec = _ctx(maiv=0.015).spec()
    rebuilt = ExperimentContext.from_spec(json.loads(json.dumps(spec)))
    assert rebuilt._simcache_key(KEYS[0]) == _ctx(
        maiv=0.015)._simcache_key(KEYS[0])


def test_handshake_mismatch_detected():
    payload = protocol.handshake()
    assert check_versions(payload, protocol.handshake()) is None
    payload["result"] = 999
    assert "result version mismatch" in check_versions(
        payload, protocol.handshake())


# -- transparency -------------------------------------------------------


def test_backend_sweep_byte_identical_to_serial(tmp_path):
    """The acceptance gate: an HTTP-backend sweep reproduces a local
    serial run byte for byte.  The client runs without a local
    simcache, so every value arrives over /entry and is key-verified."""
    handle = _server(tmp_path)
    try:
        serial = _ctx()
        remote = _ctx(backend=ServiceBackend(handle.url))
        report_serial = table3.run_table3(serial, benchmarks=BENCHES)
        report_remote = table3.run_table3(remote, benchmarks=BENCHES)
        assert repr(report_remote) == repr(report_serial)

        # A client sharing the server's cache directory resolves the
        # same digests from disk instead of /entry -- same bytes.
        shared = _ctx(backend=ServiceBackend(handle.url),
                      simcache=SimCache(tmp_path / "svc-cache"))
        report_shared = table3.run_table3(shared, benchmarks=BENCHES)
        assert repr(report_shared) == repr(report_serial)
        assert shared.simcache.hits > 0  # resolved locally
    finally:
        handle.stop()


def test_backend_cell_accessor_and_resubmission_dedup(tmp_path):
    """Single-cell misses route through the backend too, and
    resubmitting a computed cell is a cache hit, not a recompute."""
    handle = _server(tmp_path, workers=1)
    try:
        remote = _ctx(backend=ServiceBackend(handle.url))
        value = remote.single("cpu_int")
        assert repr(value) == repr(_ctx().single("cpu_int"))
        again = _ctx(backend=ServiceBackend(handle.url))
        assert repr(again.single("cpu_int")) == repr(value)
        dedup = ServiceClient(handle.url).metrics()["dedup"]
        assert dedup["computed"] == 1
        # The second submission deduped (coalesced against the DONE
        # in-memory cell) rather than recomputing.
        assert dedup["cached"] + dedup["coalesced"] == 1
    finally:
        handle.stop()


# -- single-flight dedup ------------------------------------------------


def test_concurrent_overlapping_clients_compute_each_cell_once(tmp_path):
    """Two clients with overlapping table3/figure2 plans, submitted
    concurrently: one computation per unique cell, identical reports."""
    plan_a = table3.cells(benchmarks=BENCHES)
    plan_b = list(dict.fromkeys(
        table3.cells(benchmarks=BENCHES)
        + figure2.cells(benchmarks=BENCHES, diffs=(1, 2))))
    unique = set(plan_a) | set(plan_b)

    handle = _server(tmp_path)
    barrier = threading.Barrier(2)
    outcomes: dict[str, object] = {}

    def client(name, plan):
        ctx = _ctx(backend=ServiceBackend(handle.url))
        barrier.wait()
        try:
            ctx.prefetch(plan)
            outcomes[name] = {key: ctx._cache[key] for key in plan}
        except Exception as exc:  # surfaced by the main thread
            outcomes[name] = exc

    try:
        threads = [threading.Thread(target=client, args=("a", plan_a)),
                   threading.Thread(target=client, args=("b", plan_b))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        for name in ("a", "b"):
            assert not isinstance(outcomes[name], Exception), outcomes[name]

        dedup = ServiceClient(handle.url).metrics()["dedup"]
        assert dedup["submitted"] == len(plan_a) + len(plan_b)
        assert dedup["computed"] == len(unique)  # single-flight
        assert (dedup["cached"] + dedup["coalesced"]
                == dedup["submitted"] - len(unique))
        assert dedup["failed"] == 0
    finally:
        handle.stop()

    # Shared cells are byte-identical across the two clients, and
    # match a local serial run.
    local = _ctx()
    local.prefetch(plan_b)
    for key in set(plan_a) & set(plan_b):
        assert repr(outcomes["a"][key]) == repr(outcomes["b"][key])
    for key in plan_b:
        assert repr(outcomes["b"][key]) == repr(local._cache[key])


# -- waiting for jobs (long-poll) ----------------------------------------


def _hold_dispatch(handle) -> None:
    """Keep queued cells queued: the dispatcher sees no idle worker."""
    handle.server.pool.idle = lambda: []


def _release_dispatch(handle) -> None:
    del handle.server.pool.idle
    handle._loop.call_soon_threadsafe(handle.server._wake.set)


def _spy_requests(client) -> list:
    """Record the path of every request ``client`` sends."""
    paths = []
    real = client._request

    def spy(method, path, *args, **kwargs):
        paths.append(path)
        return real(method, path, *args, **kwargs)

    client._request = spy
    return paths


def test_backend_waits_without_status_polls(tmp_path, monkeypatch):
    """compute_cells learns of completion from /wait alone and takes
    the cell rows from its settled answer."""
    def refuse(self, job_id):
        raise AssertionError("compute_cells asked /status or /results")

    monkeypatch.setattr(ServiceClient, "status", refuse)
    monkeypatch.setattr(ServiceClient, "results", refuse)
    keys = [single_cell(bench) for bench in BENCHES]
    handle = _server(tmp_path)
    try:
        backend = ServiceBackend(handle.url)
        values = dict(backend.compute_cells(_ctx(), keys))
        settled = backend.client.wait(backend.last_submit["job"],
                                      progress=lambda line: None)
    finally:
        handle.stop()
    local = _ctx()
    local.prefetch(keys)
    for key in keys:
        assert repr(values[key]) == repr(local._cache[key])
    assert settled["state"] == "done"
    assert [decode_cell(row["key"]) for row in settled["cells"]] == keys
    assert ([row["digest"] for row in settled["cells"]]
            == backend.last_submit["digests"])
    assert {row["state"] for row in settled["cells"]} == {"done"}


def test_wait_answers_running_when_its_bound_passes(tmp_path, monkeypatch):
    """A held /wait answers with the running status once its bound
    passes, and a client whose socket timeout is far below the
    server's bound re-issues it instead of timing out."""
    monkeypatch.setattr(server, "WAIT_BOUND_S", 0.2)
    handle = _server(tmp_path, workers=1)
    try:
        _hold_dispatch(handle)
        client = ServiceClient(handle.url)
        job = client.submit(_ctx().spec(),
                            [encode_cell(single_cell("cpu_int"))])["job"]
        start = time.monotonic()
        held = client._request("GET", f"/wait/{job}?done=0&failed=0")
        assert time.monotonic() - start >= 0.2
        assert held["state"] == "running" and held["queued"] == 1
        assert "cells" not in held
        with pytest.raises(ServiceError, match="400"):
            client._request("GET", f"/wait/{job}?done=x")

        monkeypatch.setattr(server, "WAIT_BOUND_S", 60.0)
        short = ServiceClient(handle.url, timeout=0.4, retries=0)
        paths = _spy_requests(short)
        threading.Timer(1.0, _release_dispatch, (handle,)).start()
        settled = short.wait(job, progress=lambda line: None)
        assert settled["state"] == "done"
        assert len(paths) >= 4  # re-issued every 0.2 s while held
        assert all(path.endswith("within=0.2") for path in paths)
    finally:
        handle.stop()


def test_wait_returns_on_each_count_change(tmp_path, monkeypatch):
    """With the bound far away, every /wait but the first returns
    because a cell settled; the client re-issues it with the counts it
    has seen and streams one progress line per change."""
    handle = _server(tmp_path, workers=1)
    try:
        client = ServiceClient(handle.url, timeout=120.0)
        paths = _spy_requests(client)
        job = client.submit(_ctx().spec(),
                            [encode_cell(single_cell(bench))
                             for bench in BENCHES])["job"]
        lines = []
        start = time.monotonic()
        settled = client.wait(job, progress=lines.append)
        assert time.monotonic() - start < 20.0  # never hit the bound
    finally:
        handle.stop()
    waits = [path for path in paths if path.startswith("/wait/")]
    assert len(waits) == len(lines)
    seen = [re.search(r"done=(-?\d+)&failed=(-?\d+)", path).groups()
            for path in waits]
    assert seen[0] == ("-1", "-1")
    done = [int(line.split(": ")[1].split("/")[0]) for line in lines]
    assert done == sorted(set(done)) and done[-1] == 2
    assert [int(d) for d, _ in seen[1:]] == done[:-1]
    assert settled["state"] == "done" and len(settled["cells"]) == 2


def test_drain_releases_pending_waiter_with_settled_payload(tmp_path):
    """Drain waits on the same settle notification as /wait, serves
    /wait while draining, and the waiter gets the /results payload."""
    handle = _server(tmp_path, workers=1)
    try:
        _hold_dispatch(handle)
        client = ServiceClient(handle.url)
        job = client.submit(_ctx().spec(),
                            [encode_cell(single_cell("cpu_int"))])["job"]
        first = threading.Event()
        outcome = {}

        def waiter():
            try:
                outcome["settled"] = client.wait(
                    job, progress=lambda line: first.set())
            except Exception as exc:  # surfaced by the main thread
                outcome["settled"] = exc

        thread = threading.Thread(target=waiter)
        thread.start()
        assert first.wait(30)
        client.drain()
        assert client.healthz()["draining"] is True
        _release_dispatch(handle)
        thread.join(timeout=120)
        settled = outcome["settled"]
        assert not isinstance(settled, Exception), settled
        assert settled["state"] == "done"
        assert [row["state"] for row in settled["cells"]] == ["done"]
    finally:
        handle.stop()
    assert handle.server._drained.is_set()


# -- robustness ---------------------------------------------------------


def test_injected_worker_crash_is_retried_to_success(tmp_path):
    """A worker killed mid-cell is detected, replaced, and the cell
    requeued -- the client sees a completed job, never the crash."""
    handle = _server(tmp_path, workers=1)
    try:
        client = ServiceClient(handle.url)
        client.inject_crash()
        remote = _ctx(backend=ServiceBackend(handle.url))
        cells = [single_cell("cpu_int"), single_cell("ldint_l2")]
        assert remote.prefetch(cells) == len(cells)
        dedup = client.metrics()["dedup"]
        assert dedup["injected_crashes"] == 1
        assert dedup["crashes"] >= 1
        assert dedup["retries"] >= 1
        assert dedup["failed"] == 0
        local = _ctx()
        local.prefetch(cells)
        for key in cells:
            assert repr(remote._cache[key]) == repr(local._cache[key])
    finally:
        handle.stop()


def test_handshake_mismatch_refused_with_409(tmp_path, monkeypatch):
    handle = _server(tmp_path)
    try:
        bad = dict(protocol.handshake(), protocol=999)
        bad["spec"] = _ctx().spec()
        bad["cells"] = [encode_cell(single_cell("cpu_int"))]
        client = ServiceClient(handle.url)
        with pytest.raises(ServiceError, match="409.*protocol version"):
            client._request("POST", "/submit", bad)
        # A v3 client still sends the retired ``fast_forward`` config
        # field; the handshake must refuse it before the spec decodes.
        old = dict(protocol.handshake(), protocol=3)
        old["spec"] = _ctx().spec()
        old["spec"]["config"]["fast_forward"] = True
        old["cells"] = [encode_cell(single_cell("cpu_int"))]
        with pytest.raises(ServiceError, match="409.*protocol version"):
            client._request("POST", "/submit", old)
        # A v4 client does not know /wait; the handshake refuses it.
        v4 = dict(protocol.handshake(), protocol=4)
        v4["spec"] = _ctx().spec()
        v4["cells"] = [encode_cell(single_cell("cpu_int"))]
        with pytest.raises(ServiceError, match="409.*protocol version"):
            client._request("POST", "/submit", v4)
    finally:
        handle.stop()


def test_bad_run_bounds_refused_with_400(tmp_path):
    """A spec with no cycle budget or no repetitions is a bad request."""
    handle = _server(tmp_path)
    try:
        client = ServiceClient(handle.url)
        for field, match in (("max_cycles", "max_cycles must be >= 1"),
                             ("min_repetitions",
                              "min_repetitions must be >= 1")):
            spec = _ctx().spec()
            spec[field] = 0
            with pytest.raises(ServiceError, match=f"400.*{match}"):
                client.submit(spec, [encode_cell(single_cell("cpu_int"))])
    finally:
        handle.stop()


@pytest.mark.parametrize("changes, error", [
    ({"pmu": True, "pmu_sample": -5}, "pmu_sample must be >= 0"),
    ({"maiv": "x"}, "'maiv' must be float or int"),
    ({"maiv": -1.0}, "maiv must be a positive number"),
    ({"pmu": "yes"}, "'pmu' must be bool"),
    ({"min_repetitions": True}, "'min_repetitions' must be int"),
    ({"colour": "red"}, "unknown ['colour']"),
    ({"chip_quota": ...}, "missing ['chip_quota']"),
], ids=["negative-sample", "str-maiv", "negative-maiv", "str-pmu",
        "bool-int", "unknown-key", "missing-key"])
def test_bad_spec_refused_with_400_and_queues_nothing(raw_server, changes,
                                                      error):
    """Malformed specs fail at /submit, never later inside a worker."""
    spec = dict(_ctx().spec(), **changes)
    spec = {name: value for name, value in spec.items() if value is not ...}
    client = ServiceClient(raw_server.url)
    before = client.metrics()["dedup"]["submitted"]
    with pytest.raises(ServiceError, match="HTTP 400: .*" + re.escape(error)):
        client.submit(spec, [encode_cell(single_cell("cpu_int"))])
    metrics = client.metrics()
    assert metrics["dedup"]["submitted"] == before
    assert metrics["queue_depth"] == metrics["in_flight"] == 0


def test_draining_server_refuses_submissions(tmp_path):
    handle = _server(tmp_path)
    try:
        handle.server._draining = True  # white-box: drain mid-flight
        client = ServiceClient(handle.url)
        with pytest.raises(ServiceError, match="503.*draining"):
            client.submit(_ctx().spec(),
                          [encode_cell(single_cell("cpu_int"))])
        # Observability stays available while draining.
        assert client.healthz()["draining"] is True
        handle.server._draining = False
    finally:
        handle.stop()


def test_healthz_and_metrics_shape(tmp_path):
    handle = _server(tmp_path)
    try:
        client = ServiceClient(handle.url)
        health = client.healthz()
        assert health["ok"] is True
        assert health["workers_alive"] == 2
        metrics = client.metrics()
        assert metrics["queue_depth"] == 0
        assert metrics["in_flight"] == 0
        assert len(metrics["workers"]) == 2
        assert {"submitted", "cached", "coalesced", "computed",
                "crashes", "retries", "failed",
                "hit_rate"} <= set(metrics["dedup"])
        with pytest.raises(ServiceError, match="404"):
            client.status("jxxx")
    finally:
        handle.stop()


@pytest.fixture(scope="module")
def raw_server(tmp_path_factory):
    """One single-worker server shared by the raw-socket tests."""
    handle = _server(tmp_path_factory.mktemp("raw"), workers=1)
    yield handle
    handle.stop()


def _raw_request(handle, data: bytes) -> int:
    """Send ``data`` over a bare socket; the response's status code."""
    with socket.create_connection(("127.0.0.1", handle.server.port),
                                  timeout=30) as sock:
        sock.sendall(data)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return int(reply.split(None, 2)[1])


@pytest.mark.parametrize("request_bytes, status", [
    (b"POST /submit HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
    (b"POST /submit HTTP/1.1\r\nContent-Length: lots\r\n\r\n", 400),
    (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n",
     413),
    (b"GET /healthz HTTP/1.1\r\n" + b"X-Many: aaaaaaaa\r\n" * 2000
     + b"\r\n", 413),
    (b"POST /submit HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n",
     413),
    (b"GARBAGE\r\n\r\n", 400),
    (b"GET /entry/not-a-digest HTTP/1.1\r\n\r\n", 400),
    (b"GET /entry/../outside HTTP/1.1\r\n\r\n", 400),
    (b"GET /entry/" + b"A" * 64 + b" HTTP/1.1\r\n\r\n", 400),
    (b"GET /entry/" + b"0" * 64 + b" HTTP/1.1\r\n\r\n", 404),
    (b"GET /wait/j999 HTTP/1.1\r\n\r\n", 404),
], ids=["negative-length", "non-integer-length", "long-header-line",
        "header-section", "huge-length", "bad-request-line",
        "bad-digest", "traversal-digest", "uppercase-digest",
        "unknown-digest", "unknown-wait-job"])
def test_malformed_and_oversized_requests_answered(raw_server,
                                                   request_bytes, status):
    """Hostile requests get a status code, never a dropped connection
    or a hang, and the server keeps serving."""
    assert _raw_request(raw_server, request_bytes) == status
    assert ServiceClient(raw_server.url).healthz()["ok"] is True


@pytest.mark.parametrize("request_bytes", [
    b"GET /healthz HTTP/1.1\r\n",  # stalls after the request line
    b"POST /submit HTTP/1.1\r\nContent-Length: 10\r\n\r\n{",
], ids=["after-request-line", "mid-body"])
def test_stalled_client_times_out_with_408(raw_server, monkeypatch,
                                           request_bytes):
    monkeypatch.setattr(server, "READ_TIMEOUT_S", 0.3)
    assert _raw_request(raw_server, request_bytes) == 408
    assert ServiceClient(raw_server.url).healthz()["ok"] is True


def test_unreachable_server_raises_service_error():
    client = ServiceClient("http://127.0.0.1:9", timeout=0.5,
                           retries=1, backoff=0.01)
    with pytest.raises(ServiceError, match="cannot reach service"):
        client.healthz()


# -- CLI verbs ----------------------------------------------------------


def test_cli_submit_status_results_flow(tmp_path, monkeypatch, capsys):
    """submit enqueues without waiting; status/results poll the job."""
    from repro.experiments import planner
    monkeypatch.setitem(
        planner.CELL_PLANNERS, "table3",
        lambda ctx: table3.cells(benchmarks=BENCHES))
    handle = _server(tmp_path)
    try:
        rc = main(["submit", "table3", "--backend", handle.url,
                   "--min-reps", "2", "--max-cycles", "200000",
                   "--no-simcache"])
        out = capsys.readouterr().out
        assert rc == 0
        job = out.split("job ", 1)[1].split(":", 1)[0]
        ServiceClient(handle.url).wait(job, progress=lambda line: None)

        assert main(["status", job, "--backend", handle.url]) == 0
        out = capsys.readouterr().out
        assert f"job {job}: done" in out

        assert main(["results", job, "--backend", handle.url]) == 0
        out = capsys.readouterr().out
        assert out.count("done") >= len(table3.cells(benchmarks=BENCHES))
    finally:
        handle.stop()


def test_cli_service_argument_validation(capsys):
    cases = [
        (["submit", "table3"], "needs --backend"),
        (["status", "--backend", "http://x"], "needs a job id"),
        (["table3", "stray"], "only applies"),
        (["serve", "--backend", "http://x"], "runs a server"),
        (["serve", "--no-simcache"], "requires the result cache"),
        (["serve", "--port", "-1"], "--port"),
        (["serve", "--service-workers", "-2"], "--service-workers"),
        (["serve", "--cell-retries", "-1"], "--cell-retries"),
    ]
    for argv, message in cases:
        assert main(argv) == 2, argv
        assert message in capsys.readouterr().err, argv


def test_cli_submit_unknown_experiment(capsys):
    rc = main(["submit", "tableX", "--backend", "http://127.0.0.1:9"])
    assert rc == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_resolve_ids_selectors():
    assert resolve_ids("all") == resolve_ids(list(resolve_ids("all")))
    assert resolve_ids("table3, figure2") == ["table3", "figure2"]
    with pytest.raises(ValueError, match="unknown experiments"):
        resolve_ids("table3,nope")
