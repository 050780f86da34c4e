"""The benchmark's three workloads: seeded plans and timed passes.

Every workload is one closed-loop caller (two for the service) timed
in host time.  A run is a series of *passes*, each over its own seeded
plan and each from cold caches, and reports medians across them.

Plans draw from a fixed universe of items whose expected result
digest and reference host cost are recorded in ``reference.json``.
Sampling is stratified on that reference cost: the universe is sorted
by cost and cut into as many contiguous groups as items wanted, and
the seed picks one item per group.  Any seed therefore gets the same
cost profile, so runs with different seeds measure comparable work.
"""

from __future__ import annotations

import hashlib
import resource
import shutil
import tempfile
import threading
import time

from hostspeed import HostSpeed

#: Items per pass never fall below this, so three passes hold at least
#: 100 timed items and ten of them lie beyond the p90.
MIN_ITEMS = 34

#: Passes per run (the minimum; fast code fits more into the budget).
PASSES = 3


def digest(value) -> str:
    """Result digest: a hash of the value's canonical repr."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def stratified(rows: list, n: int, rng) -> list:
    """``n`` rows of cost-sorted ``rows``, one per contiguous group."""
    n = min(n, len(rows))
    bounds = [len(rows) * i // n for i in range(n + 1)]
    return [rows[rng.randrange(lo, hi)]
            for lo, hi in zip(bounds, bounds[1:])]


class PassResult:
    """Timings and outcome counts of one pass."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        #: (start, seconds) of every timed item, as measured.
        self.items: list[tuple[float, float]] = []
        #: Item latencies scaled to the reference host, one by one.
        self.latencies: list[float] = []
        #: Reference-host seconds per measured second in this pass.
        self.factor = 1.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: Layer counters read from the program at the end of a pass.
        self.counters: dict = {}

    def check(self, item_id: str, values: list, expected: dict) -> None:
        """Count one item, failing it on any digest mismatch."""
        self.attempted += 1
        for key, value in values:
            want = expected.get(key)
            got = digest(value)
            if want != got:
                self.failed += 1
                self.errors.append(
                    f"{item_id}: {key} digest {got}, expected {want}")
                return

    def normalize(self, speed: HostSpeed) -> None:
        """Scale item latencies by the host speed around each item."""
        self.factor = speed.factor()
        self.latencies = [elapsed * speed.factor_between(t, t + elapsed)
                          for t, elapsed in self.items]

    def fail(self, item_id: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{item_id}: {type(exc).__name__}: {exc}")


def _cpu() -> float:
    """CPU seconds of this process and its reaped descendants."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def import_program() -> None:
    """Import every program module a workload drives (set-up work)."""
    import repro.experiments.planner  # noqa: F401
    import repro.experiments.registry  # noqa: F401
    import repro.governor  # noqa: F401
    import repro.service.server  # noqa: F401
    import repro.simcache  # noqa: F401
    import repro.workloads.pipeline  # noqa: F401


class _Timed:
    """Adds the wall and CPU time of one item to its pass's totals."""

    def __init__(self, res: PassResult) -> None:
        self.res = res

    def __enter__(self) -> None:
        self.cpu = _cpu()
        self.start = time.perf_counter()

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self.start
        self.res.wall_s += elapsed
        self.res.cpu_s += _cpu() - self.cpu
        self.res.items.append((self.start, elapsed))


def _cold_trace_caches() -> None:
    """Empty the process-wide trace, kernel and fingerprint caches."""
    from repro.simcache import store
    from repro.workloads import tracecache
    tracecache.clear_cache()
    store._FP_CACHE.clear()


# ----------------------------------------------------------------------
# suite_cold: cells of the `power5-repro all` plan, cold caches
# ----------------------------------------------------------------------

def suite_cells() -> list:
    """The universe: the phase-1 cell union of ``power5-repro all``
    plus the governed cells whose keys need no phase-1 result (the
    transparent policy's key embeds a measured IPC)."""
    from repro.experiments import ExperimentContext
    from repro.experiments.base import governed_cell
    from repro.experiments.governor import (GOVERNOR_PAIRS, INITIAL,
                                            PAIR_POLICIES)
    from repro.experiments.planner import planned_cells
    from repro.experiments.registry import EXPERIMENTS
    phase1, _ = planned_cells(ExperimentContext(), list(EXPERIMENTS))
    governed = [governed_cell(primary, secondary, INITIAL, policy)
                for primary, secondary in GOVERNOR_PAIRS
                for policy in PAIR_POLICIES if policy != "transparent"]
    return phase1 + governed


class SuiteCold:
    """Cells through ``ExperimentContext.prefetch``, one at a time.

    Every pass runs all single, governed and chip cells (27 cells
    whose costs spread over two orders of magnitude, so sampling them
    would decide a pass's time by the draw) and a cost-stratified
    sample of the 456 pair cells, in the planner's order.
    """

    name = "suite_cold"
    #: Pass time per second of reference cost, both in reference-host
    #: seconds: cold passes also build and compile traces and write
    #: the simcache.
    ref_scale = 1.46

    def __init__(self, ref: dict, work: str) -> None:
        self.ref = ref["cells"]
        self.work = work
        self.cells = {repr(key): key for key in suite_cells()}

    def plan(self, rng, budget_s: float) -> list:
        by_kind: dict = {}
        for cid, key in self.cells.items():
            by_kind.setdefault(key[0], []).append(cid)
        fixed = [cid for kind, ids in by_kind.items() if kind != "pair"
                 for cid in ids]
        pairs = sorted(by_kind["pair"], key=lambda c: self.ref[c]["ms"])
        fixed_s = sum(self.ref[c]["ms"] for c in fixed) / 1e3
        mean_s = sum(self.ref[c]["ms"] for c in pairs) / 1e3 / len(pairs)
        n_pairs = max(MIN_ITEMS, round(
            (budget_s / self.ref_scale - fixed_s) / mean_s))
        # The planner's order, as `power5-repro all` runs the cells: the
        # first cell to touch a trace pays its build and compile, so a
        # shuffled order would move that cost between items by seed.
        chosen = set(fixed + stratified(pairs, n_pairs, rng))
        return [cid for cid in self.cells if cid in chosen]

    def run_pass(self, items: list, tracer=None) -> PassResult:
        from repro.experiments import ExperimentContext
        from repro.simcache import SimCache
        res = PassResult()
        t0 = time.perf_counter()
        cache_dir = tempfile.mkdtemp(prefix="simcache-", dir=self.work)
        _cold_trace_caches()
        ctx = ExperimentContext(simcache=SimCache(cache_dir))
        res.setup_s = time.perf_counter() - t0
        expected = {cid: self.ref[cid]["digest"] for cid in items}
        speed = HostSpeed()
        speed.sample()
        for cid in items:
            key = self.cells[cid]
            if tracer is not None:
                tracer.set_item(cid)
            with _Timed(res):
                try:
                    ctx.prefetch([key])
                    value = ctx.cell(key)
                except Exception as exc:  # a failed item is a result
                    res.fail(cid, exc)
                    continue
            res.check(cid, [(cid, value)], expected)
            speed.sample()
        res.normalize(speed)
        res.counters = _cache_counters(ctx.simcache)
        shutil.rmtree(cache_dir, ignore_errors=True)
        return res


def _cache_counters(simcache) -> dict:
    from repro.workloads import tracecache
    out = dict(tracecache.cache_info())
    if simcache is not None:
        out["simcache_bytes"] = simcache.stats()["bytes"]
    return out


# ----------------------------------------------------------------------
# pipeline_dense: SoftwarePipeline.run, static and governed
# ----------------------------------------------------------------------

#: Table 4 and the governor experiment measure 10 iterations; the
#: governed run gets 16 more with a matching warmup so its window sits
#: after the policy's convergence (see experiments/governor.py).
ITERATIONS = 10

#: Share of pipeline runs made under PipelinePolicy.
GOVERNED_SHARE = 0.2


def pipeline_items() -> list[str]:
    """The universe: every static and governed run over 1..6 x 1..6,
    except (1,1).  Both threads at priority 1 put the core in low-power
    decode, which makes that run cost about 15x any other, so a single
    draw of it would set a pass's time."""
    pairs = [(a, b) for a in range(1, 7) for b in range(1, 7)
             if (a, b) != (1, 1)]
    return [f"{mode} {a},{b}" for mode in ("static", "governed")
            for a, b in pairs]


def run_pipeline_item(pipe, item: str, max_cycles: int):
    from repro.governor import Governor, GovernorConfig, PipelinePolicy
    mode, prio = item.split()
    priorities = tuple(int(p) for p in prio.split(","))
    if mode == "static":
        return pipe.run(priorities=priorities, iterations=ITERATIONS,
                        max_cycles=max_cycles)
    cfg = GovernorConfig()
    return pipe.run(priorities=priorities, iterations=ITERATIONS + 16,
                    warmup=ITERATIONS + 10, max_cycles=max_cycles,
                    governor=Governor(cfg, PipelinePolicy(cfg)))


class PipelineDense:
    """Seeded ``SoftwarePipeline.run`` measurements, one caller."""

    name = "pipeline_dense"
    #: Pass time per second of reference cost.
    ref_scale = 0.96

    def __init__(self, ref: dict, work: str) -> None:
        self.ref = ref["pipeline"]

    def plan(self, rng, budget_s: float) -> list:
        def by_cost(mode):
            return sorted((i for i in self.ref if i.startswith(mode)),
                          key=lambda i: self.ref[i]["ms"])
        static, governed = by_cost("static"), by_cost("governed")
        mean_s = ((1 - GOVERNED_SHARE)
                  * sum(self.ref[i]["ms"] for i in static) / len(static)
                  + GOVERNED_SHARE
                  * sum(self.ref[i]["ms"] for i in governed)
                  / len(governed)) / 1e3
        n = max(MIN_ITEMS, round(budget_s / self.ref_scale / mean_s))
        n_gov = round(n * GOVERNED_SHARE)
        items = (stratified(static, n - n_gov, rng)
                 + stratified(governed, n_gov, rng))
        rng.shuffle(items)
        return items

    def run_pass(self, items: list, tracer=None) -> PassResult:
        from repro.experiments import ExperimentContext
        from repro.workloads.pipeline import SoftwarePipeline
        res = PassResult()
        t0 = time.perf_counter()
        _cold_trace_caches()
        ctx = ExperimentContext()
        pipe = SoftwarePipeline(config=ctx.config)
        max_cycles = ctx.max_cycles * 4
        res.setup_s = time.perf_counter() - t0
        expected = {i: self.ref[i]["digest"] for i in items}
        speed = HostSpeed()
        speed.sample()
        for item in items:
            if tracer is not None:
                tracer.set_item(item)
            with _Timed(res):
                try:
                    value = run_pipeline_item(pipe, item, max_cycles)
                except Exception as exc:
                    res.fail(item, exc)
                    continue
            res.check(item, [(item, value)], expected)
            speed.sample()
        res.normalize(speed)
        res.counters = _cache_counters(None)
        return res


# ----------------------------------------------------------------------
# service_sweep: two clients against an in-process job server
# ----------------------------------------------------------------------

CLIENTS = 2
WORKERS = 2
CELLS_PER_JOB = 2
#: Cells of each job (after a client's first) repeated from earlier
#: jobs of either client: single-flight dedup serves them.
REPEATS_PER_JOB = 1
#: Jobs the two clients complete per reference-host second; sizes a
#: pass to its time budget.
JOBS_PER_SECOND = 16.0
#: Status poll period of the clients (the CLI's 0.1 s would quantize
#: job latency in 100 ms steps).
POLL_S = 0.02
#: Host-speed sampling period while the clients run (each sample is
#: about 3 ms of the main thread, about 1% of one core).
SAMPLE_EVERY_S = 0.25


class ServiceSweep:
    """Closed-loop clients submitting small jobs via ServiceBackend.

    Client 0 shares the server's cache directory and reads results
    from the simcache; client 1 is remote and fetches each result over
    ``/entry``.  Fresh cells are single and pair cells of the suite
    universe (chip and governed cells are not small jobs).  Cells of
    adjacent reference cost go to different clients, so both clients
    carry the same load and neither idles a worker at the end.
    """

    name = "service_sweep"

    def __init__(self, ref: dict, work: str) -> None:
        self.ref = ref["cells"]
        self.work = work
        self.cells = {repr(key): key for key in suite_cells()
                      if key[0] in ("single", "pair")}

    def plan(self, rng, budget_s: float) -> list:
        per_client = max(MIN_ITEMS // CLIENTS + 1,
                         round(budget_s * JOBS_PER_SECOND / CLIENTS))
        fresh_per_client = (CELLS_PER_JOB + (per_client - 1)
                            * (CELLS_PER_JOB - REPEATS_PER_JOB))
        pool = sorted(self.cells, key=lambda c: self.ref[c]["ms"])
        fresh = stratified(pool, CLIENTS * fresh_per_client, rng)
        streams: list = [[] for _ in range(CLIENTS)]
        for i in range(0, len(fresh), CLIENTS):
            group = fresh[i:i + CLIENTS]
            rng.shuffle(group)
            for stream, cid in zip(streams, group):
                stream.append(cid)
        for stream in streams:
            rng.shuffle(stream)
        jobs: list = [[] for _ in range(CLIENTS)]
        earlier: list = []
        for j in range(per_client):
            for client in range(CLIENTS):
                n_rep = REPEATS_PER_JOB if earlier else 0
                job = ([streams[client].pop()
                        for _ in range(CELLS_PER_JOB - n_rep)]
                       + [rng.choice(earlier) for _ in range(n_rep)])
                rng.shuffle(job)
                jobs[client].append(job)
            earlier += [cid for client in range(CLIENTS)
                        for cid in jobs[client][j]]
        return jobs

    def run_pass(self, jobs: list, tracer=None) -> PassResult:
        import multiprocessing.forkserver
        from repro.experiments import ExperimentContext
        from repro.service import ServiceBackend
        from repro.service.client import ServiceClient
        from repro.service.server import ServerConfig, ServiceHandle
        from repro.simcache import SimCache
        res = PassResult()
        lock = threading.Lock()
        t0 = time.perf_counter()
        cache_dir = tempfile.mkdtemp(prefix="service-", dir=self.work)
        handle = ServiceHandle(ServerConfig(
            port=0, workers=WORKERS, cache_dir=cache_dir)).start()
        res.setup_s = time.perf_counter() - t0
        expected = {cid: self.ref[cid]["digest"]
                    for client_jobs in jobs for job in client_jobs
                    for cid in job}

        def client(index: int) -> None:
            backend = ServiceBackend(handle.url, poll=POLL_S)
            ctx = ExperimentContext(
                backend=backend,
                simcache=SimCache(cache_dir) if index == 0 else None)
            for j, job in enumerate(jobs[index]):
                item = f"c{index}j{j}"
                if tracer is not None:
                    tracer.set_item(item)
                keys = [self.cells[cid] for cid in job]
                start = time.perf_counter()
                try:
                    values = [value for _, value
                              in backend.compute_cells(ctx, keys)]
                except Exception as exc:
                    with lock:
                        res.fail(item, exc)
                    continue
                elapsed = time.perf_counter() - start
                with lock:
                    res.items.append((start, elapsed))
                    res.check(item, list(zip(job, values)), expected)

        speed = HostSpeed()
        cpu0, wall0 = _cpu(), time.perf_counter()
        try:
            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                while thread.is_alive():
                    thread.join(SAMPLE_EVERY_S)
                    speed.sample()
            res.wall_s = time.perf_counter() - wall0
            res.normalize(speed)
            res.counters = {"metrics": ServiceClient(handle.url).metrics(),
                            "simcache_bytes":
                                handle.server.simcache.stats()["bytes"]}
        finally:
            handle.stop()
            # Workers are forkserver children: stopping the fork server
            # reaps them, which is what adds their CPU time to ours.
            multiprocessing.forkserver._forkserver._stop()
        res.cpu_s = _cpu() - cpu0 - speed.spent
        shutil.rmtree(cache_dir, ignore_errors=True)
        return res


WORKLOADS = {cls.name: cls for cls in (SuiteCold, PipelineDense,
                                       ServiceSweep)}
