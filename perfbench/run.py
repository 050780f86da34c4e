"""Benchmark of the POWER5 priority reproduction, end to end and by layer.

Run from the repository root::

    python3 perfbench/run.py --workload suite_cold --seed 1 --seconds 27 --trace 0

Workloads, metrics and bounds are declared in ``BENCHMARK.json``; the
reasons, default and held-out seeds and the recorded layer split of
each workload are in ``perfbench/workloads.json``.  The last line of
standard output is the result as one JSON object.  Times are scaled to
the reference host by the interleaved calibration of ``hostspeed.py``;
the raw per-pass times and factors are printed above the result.  With
``--trace 1`` the run alternates traced and untraced passes and
reports the per-layer metrics, including the tracing overhead,
instead of the end-to-end ones.

Other modes:

``--steadiness N``
    run the workload N times with seeds ``seed .. seed+N-1`` and print
    each end-to-end metric's median, quartiles and spread against its
    bound (records go to ``--out`` for ``compare.py``).
``--record``
    recompute ``reference.json``: the expected result digest and the
    reference host cost of every item of every workload (slow: about
    four minutes).
``--record-traffic``
    with ``--trace 1``, store the run's layer split in
    ``workloads.json`` beside the workload's reason.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
WORKLOADS_JSON = BENCH / "workloads.json"
OUT = BENCH / "out"


def _load(path: pathlib.Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def host_fingerprint() -> dict:
    """What a comparison must hold equal, plus the code's identity.

    ``python``, ``nproc`` and ``config`` must match between compared
    results; ``git_commit`` (None outside a git checkout) and
    ``source`` (a hash of ``src/``) say which code was measured.
    """
    from repro.config import POWER5
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    # Only the checkout's own repository: git would otherwise search
    # the parent directories for one.
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "config": POWER5.small().fingerprint(),
            "git_commit": commit,
            "source": digest.hexdigest()[:16]}


def _median(values):
    return statistics.median(values) if values else 0.0


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile of ``values``.

    A weighted mean of all order statistics, with weights from the
    Beta(p(n+1), (1-p)(n+1)) distribution, so the estimate moves
    smoothly instead of jumping between the two order statistics
    around the quantile.  Item latencies have a sparse tail, where
    those two can differ by a third.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 2:
        return xs[0] if xs else 0.0
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 32  # trapezoid steps per order statistic

    def density(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x)
                        + (b - 1) * math.log1p(-x))

    weights = []
    for i in range(n):
        grid = [(i + k / steps) / n for k in range(steps + 1)]
        ys = [density(x) for x in grid]
        weights.append(sum(ys) - (ys[0] + ys[-1]) / 2)
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, xs)) / total


# ----------------------------------------------------------------------
# A measured run
# ----------------------------------------------------------------------

def run(args) -> int:
    import tracing
    import workloads

    spec = _load(WORKLOADS_JSON)["workloads"][args.workload]
    seed = spec["default_seed"] if args.seed is None else args.seed
    work = BENCH / ".work"
    work.mkdir(exist_ok=True)
    # multiprocessing puts the fork server's socket in a temp dir; keep
    # it inside the checkout.  The socket adds about 32 bytes to the
    # dir's path, and AF_UNIX paths end at 107, so a long absolute path
    # is replaced by the one relative to the working directory.
    tempfile.tempdir = (str(work) if len(str(work)) <= 64
                        else os.path.relpath(work))
    workloads.import_program()
    start = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](_load(REFERENCE),
                                                  str(work))
    prepare_s = time.perf_counter() - start
    import_s = 0.0 if args.trace else measure_import()
    budget_s = args.seconds / workloads.PASSES

    kinds = ["traced", "untraced", "traced"] if args.trace else \
        ["untraced"] * workloads.PASSES
    passes = []
    started = time.perf_counter()
    while True:
        # The planned passes run unless one would stretch the run past
        # 1.5 x --seconds; untraced runs then add passes that still fit.
        i = len(passes)
        limit = 1.5 * args.seconds if i < len(kinds) else args.seconds
        if i >= len(kinds) and args.trace or _late(passes, started, limit):
            break
        traced = i < len(kinds) and kinds[i] == "traced"
        tracer = tracing.Tracer() if traced else None
        # Each pass draws its own plan, so a run times distinct items.
        plan = workload.plan(
            random.Random(f"{args.workload}:{seed}:{i}"), budget_s)
        installed = tracing.install(tracer) if traced else None
        try:
            result = workload.run_pass(plan, tracer)
        finally:
            if installed is not None:
                installed.undo()
        passes.append((tracer, result))
    # The service's queues started multiprocessing's resource tracker.
    # Release their semaphores, then stop the tracker and wait for it,
    # rather than leave both to interpreter exit.
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        import multiprocessing.util
        multiprocessing.util._run_finalizers(0)
        tracker._resource_tracker._stop()

    untraced = [r for t, r in passes if t is None]
    all_results = [r for _, r in passes]
    attempted = sum(r.attempted for r in all_results)
    failed = sum(r.failed for r in all_results)
    # Timings are scaled to the reference host per pass (hostspeed.py).
    latencies = [x for r in untraced for x in r.latencies]
    factor = _median([r.factor for r in untraced])
    bench = _load(ROOT / "BENCHMARK.json")
    if args.trace:
        values = layer_metrics([(t, r) for t, r in passes if t],
                               untraced)
        declared = bench["per_layer"]
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{seed}.jsonl"
        with open(spans, "w", encoding="utf-8") as fh:
            for number, (t, _) in enumerate(passes):
                if t is not None:
                    t.dump(fh, number)
    else:
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(
                         resource.RUSAGE_CHILDREN).ru_maxrss)
        values = {
            "setup_s": import_s + factor * (
                prepare_s + _median([r.setup_s for r in untraced])),
            "wall_s": _median([r.wall_s * r.factor for r in untraced]),
            "cpu_s": _median([r.cpu_s * r.factor for r in untraced]),
            "item_p50_ms": quantile(latencies, 0.5) * 1e3,
            "item_p90_ms": quantile(latencies, 0.9) * 1e3,
            "peak_rss_mb": rss_kb / 1024,
        }
        declared = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    host = host_fingerprint()
    print(f"perfbench {args.workload} seed={seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"passes={len(passes)} items/pass={len(_flat(plan))} "
          f"timed items={len(latencies)}")
    print("host " + json.dumps(host, sort_keys=True))
    print("  passes: " + "  ".join(
        f"{'T' if t else 'U'} wall {r.wall_s:.3f}s cpu {r.cpu_s:.3f}s "
        f"x{r.factor:.3f}" for t, r in passes))
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {'fail_frac':32s} {failed / max(attempted, 1):14.6g} frac "
          f"({failed} of {attempted} items)")
    for error in [e for r in all_results for e in r.errors][:10]:
        print(f"  FAILED {error}")
    if args.trace:
        print(f"  spans written to {spans.relative_to(ROOT)}")
    if args.record_traffic:
        record_traffic(args.workload, seed, values, passes)
    outcome = {"correct": failed == 0 and attempted > 0,
               "attempted": attempted, "failed": failed,
               "metrics": metrics}
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "host": host, "workload": args.workload, "seed": seed,
                "seconds": args.seconds, "trace": args.trace,
                "passes": [[r.wall_s, r.cpu_s, r.factor]
                           for _, r in passes],
                **outcome}) + "\n")
    print(json.dumps(outcome))
    return 0


#: Fresh interpreters timed importing the program, per run.
IMPORT_REPEATS = 9


def _late(passes: list, started: float, limit: float) -> bool:
    """Whether another pass like the last would end after ``limit``.

    Runs make at least two passes.  The third, which a quiet host fits
    into the run's seconds, is skipped when a slow phase of the host
    would stretch the run past one and a half times them.
    """
    if len(passes) < 2:
        return False
    last = passes[-1][1]
    return (time.perf_counter() - started + last.setup_s + last.wall_s
            > limit)


def measure_import() -> float:
    """Median time for a fresh interpreter to import the program.

    Each launch is scaled by the host speed sampled around it.
    """
    from hostspeed import HostSpeed
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
            "import workloads; workloads.import_program()")
    speed = HostSpeed()
    times = []
    for _ in range(IMPORT_REPEATS):
        speed.sample()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        elapsed = time.perf_counter() - start
        speed.sample()
        times.append(elapsed * speed.factor_between(start,
                                                    start + elapsed))
    return _median(times)


def _flat(plan) -> list:
    """Items of a plan (the service plan is one job list per client)."""
    if plan and isinstance(plan[0], list):
        return [job for jobs in plan for job in jobs]
    return plan


def layer_metrics(traced: list, untraced: list) -> dict:
    """Per-layer metrics, per traced pass, plus the tracing overhead."""
    import tracing
    n = len(traced)
    summaries = [tracing.summarize(t.spans) for t, _ in traced]

    def total(field, name=None):
        if name is None:
            return sum(s[field] for s in summaries)
        return sum(s[field].get(name, 0) for s in summaries)

    def per_pass(field, name=None):
        return total(field, name) / n

    def counter(name):
        return sum(r.counters.get(name, 0) for _, r in traced) / n

    def ratio(num, den):
        return num / den if den else 0.0

    cycles = total("cycles")
    m = {
        "workloads.build_s": per_pass("busy", "workloads.build"),
        "workloads.build_misses": counter("misses"),
        "workloads.compile_s": per_pass("busy", "workloads.compile"),
        "workloads.factory_misses": counter("factory_misses"),
        "workloads.factory_hit_frac": ratio(
            counter("factory_hits"),
            counter("factory_hits") + counter("factory_misses")),
        "core.step_s": per_pass("busy", "core.step"),
        "core.step_calls": per_pass("count", "core.step"),
        "core.sim_cycles": cycles / n,
        "core.ns_per_cycle": ratio(total("busy", "core.step") * 1e9,
                                   cycles),
        "core.jumps": sum(t.jumps for t, _ in traced) / n,
        "core.jumped_frac": ratio(
            sum(t.jumped_cycles for t, _ in traced), cycles),
        "fame.run_s": per_pass("busy", "fame.run_pair"),
        "fame.self_s": per_pass("self", "fame.run_pair"),
        "fame.chunks_per_run": ratio(total("chunks_in_fame"),
                                     total("count", "fame.run_pair")),
        "fame.steady_engaged_frac": ratio(total("engaged"),
                                          total("singles")),
        "experiments.self_s": per_pass("self", "experiments.prefetch"),
        "sched.run_s": per_pass("busy", "sched.run"),
        "simcache.store_s": per_pass("busy", "simcache.store"),
        "simcache.stores": per_pass("count", "simcache.store"),
        "simcache.bytes": counter("simcache_bytes"),
        "simcache.lookup_s": per_pass("busy", "simcache.lookup"),
        "simcache.hit_frac": ratio(total("hits"), total("lookups")),
        "pipeline.run_s.static": per_pass("busy", "pipeline.run.static"),
        "pipeline.run_s.governed": per_pass("busy",
                                            "pipeline.run.governed"),
        "governor.decide_s": per_pass("busy", "governor.decide"),
        "governor.epochs": per_pass("count", "governor.decide"),
        "service.submit_s": per_pass("busy", "service.submit"),
        "service.wait_s": per_pass("busy", "service.wait"),
        "service.polls": per_pass("count", "service.status"),
        "service.results_s": per_pass("busy", "service.results"),
        "service.fetch_s": per_pass("busy", "service.fetch"),
        "service.fetch_bytes": total("fetch_bytes") / n,
    }
    for kind in ("single", "pair", "governed", "chip"):
        m[f"experiments.cell_s.{kind}"] = per_pass(
            "busy", f"experiments.cell.{kind}")
    dedup = [r.counters["metrics"]["dedup"] for _, r in traced
             if "metrics" in r.counters]
    workers = [w["throughput_cps"] for _, r in traced
               if "metrics" in r.counters
               for w in r.counters["metrics"]["workers"]]
    for name in ("computed", "coalesced", "cached", "retries", "failed"):
        m[f"service.{name}"] = sum(d[name] for d in dedup) / n
    m["service.dedup_hit_rate"] = _median([d["hit_rate"] for d in dedup])
    m["service.worker_cps"] = _median(workers)
    traced_cpu = _median([r.cpu_s * r.factor for _, r in traced])
    plain_cpu = _median([r.cpu_s * r.factor for r in untraced])
    m["trace.overhead_cpu_s"] = traced_cpu - plain_cpu
    m["trace.overhead_frac"] = ratio(traced_cpu - plain_cpu, plain_cpu)
    m["trace.spans"] = sum(len(t.spans) for t, _ in traced) / n
    return m


def record_traffic(workload: str, seed: int, values: dict,
                   passes: list) -> None:
    """Store a traced run's layer split in ``workloads.json``."""
    wall = _median([r.wall_s for t, r in passes if t is not None])
    spec = _load(WORKLOADS_JSON)
    spec["workloads"][workload]["traffic"] = {
        "seed": seed,
        "source": host_fingerprint()["source"],
        "traced_wall_s": wall,
        "dense_step_share": (values["core.step_s"] / wall) if wall else 0,
        "jumped_frac": values["core.jumped_frac"],
        "simcache_share": ((values["simcache.store_s"]
                            + values["simcache.lookup_s"]) / wall)
        if wall else 0,
        "service_dedup": {name: values[f"service.{name}"]
                          for name in ("computed", "coalesced", "cached")},
        "per_layer": values,
    }
    with open(WORKLOADS_JSON, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=2)
        fh.write("\n")


# ----------------------------------------------------------------------
# Steadiness report
# ----------------------------------------------------------------------

def steadiness(args) -> int:
    bench = _load(ROOT / "BENCHMARK.json")
    spec = _load(WORKLOADS_JSON)["workloads"][args.workload]
    first = spec["default_seed"] if args.seed is None else args.seed
    values: dict = {m["name"]: [] for m in bench["end_to_end"]}
    failed = 0
    for seed in range(first, first + args.steadiness):
        cmd = [sys.executable, str(BENCH / "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                              text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
    print(f"{args.workload}: {args.steadiness} runs, {failed} failed items")
    print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for m in bench["end_to_end"]:
        q1, q2, q3 = statistics.quantiles(values[m["name"]], n=4)
        spread = (q3 - q1) / q2 if q2 else float("inf")
        verdict = ("steady" if spread < m["bound"] / 3 else
                   "within bound" if spread <= m["bound"] else "UNSTEADY")
        print(f"  {m['name']:14s} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.3f} {m['bound']:6.2f}  {verdict}")
    return 0


# ----------------------------------------------------------------------
# Reference recording
# ----------------------------------------------------------------------

def record() -> int:
    """Recompute every item twice: digest (must agree) and warm cost.

    The cost is the second computation's time scaled to the reference
    host, so a slow phase of the host does not reorder the strata.
    """
    import workloads
    from hostspeed import HostSpeed
    from repro.experiments import ExperimentContext
    from repro.workloads.pipeline import SoftwarePipeline

    def measure(compute):
        first = compute()
        speed = HostSpeed()
        speed.sample()
        start = time.perf_counter()
        second = compute()
        elapsed = time.perf_counter() - start
        speed.sample()
        if workloads.digest(first) != workloads.digest(second):
            raise RuntimeError("result differs between two computations")
        ms = elapsed * speed.factor_between(start, start + elapsed) * 1e3
        return {"digest": workloads.digest(second), "ms": round(ms, 3)}

    ctx = ExperimentContext()
    ref: dict = {"host": host_fingerprint(), "cells": {}, "pipeline": {}}
    for key in workloads.suite_cells():
        ref["cells"][repr(key)] = measure(lambda: ctx.compute_cell(key))
    pipe = SoftwarePipeline(config=ctx.config)
    for item in workloads.pipeline_items():
        ref["pipeline"][item] = measure(
            lambda: workloads.run_pipeline_item(pipe, item,
                                                ctx.max_cycles * 4))
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(ref['cells'])} cells and "
          f"{len(ref['pipeline'])} pipeline runs to "
          f"{REFERENCE.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=("suite_cold", "pipeline_dense",
                                 "service_sweep"))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's "
                             "default seed in workloads.json)")
    parser.add_argument("--seconds", type=float, default=27.0,
                        help="measurement time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="PATH",
                        help="append a result record (with the host "
                             "fingerprint) to PATH")
    parser.add_argument("--steadiness", type=int, metavar="N",
                        default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--record-traffic", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    if args.record_traffic and not args.trace:
        parser.error("--record-traffic needs --trace 1")
    if args.steadiness:
        return steadiness(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
