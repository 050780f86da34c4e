"""Command-line interface: regenerate any table or figure.

Usage::

    power5-repro list
    power5-repro table3
    power5-repro all --preset default --min-reps 10
    power5-repro all --jobs 4
    power5-repro figure2 --pmu --pmu-sample 4096
    power5-repro pmu --primary cpu_int --secondary ldint_mem --diff 4
    power5-repro governor --jobs 4
    power5-repro table3 --governor ipc_balance --governor-epoch 500
    power5-repro dse                    # throughput-per-watt sweep
    power5-repro dse --energy-node 22 --energy-freq 0.8
    power5-repro prefetch               # prefetch x priority matrix
    power5-repro table3 --prefetch --prefetch-depth 8
    power5-repro all --no-simcache      # force fresh simulation
    power5-repro cache                  # cache statistics
    power5-repro cache --clear          # purge cached results
    python -m repro figure5 --json results.json

    power5-repro serve --port 8765 --service-workers 4
    power5-repro all --backend http://127.0.0.1:8765
    power5-repro submit table3,figure2 --backend http://127.0.0.1:8765
    power5-repro status j1 --backend http://127.0.0.1:8765
    power5-repro results j1 --backend http://127.0.0.1:8765
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from repro.config import POWER5
from repro.experiments import EXPERIMENTS, ExperimentContext, run_experiment


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="power5-repro",
        description="Reproduce the tables and figures of 'Software-"
                    "Controlled Priority Characterization of POWER5 "
                    "Processor' (ISCA 2008) on the simulator.")
    parser.add_argument(
        "experiment",
        help="experiment id (see 'list'), or 'all', 'list', 'cache' "
             "(cache statistics / maintenance), 'pmu' (instrument "
             "one workload pair with the emulated PMU), 'serve' (run "
             "the simulation job server), or the service client verbs "
             "'submit'/'status'/'results'")
    parser.add_argument(
        "argument", nargs="?", default=None,
        help="verb argument: experiment selection for 'submit' "
             "(comma-separated ids or 'all'), job id for "
             "'status'/'results'")
    parser.add_argument(
        "--preset", choices=("small", "default"), default="small",
        help="machine preset: 'small' (scaled caches, fast; default) "
             "or 'default' (full POWER5 geometry)")
    parser.add_argument(
        "--min-reps", type=int, default=3, metavar="N",
        help="FAME minimum repetitions per thread (paper used 10)")
    parser.add_argument(
        "--max-cycles", type=int, default=2_500_000, metavar="N",
        help="per-measurement simulated-cycle budget")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for sweep cells: 1 = serial (default), "
             "0 = all cores; results are identical regardless")
    parser.add_argument(
        "--engine", choices=("array", "object"), default=None,
        help="simulation engine: 'array' (compiled trace kernels; "
             "default) or 'object' (reference decode loop, slower, "
             "bit-identical results)")
    parser.add_argument(
        "--json", metavar="PATH",
        help="also dump experiment data as JSON to PATH")
    cache = parser.add_argument_group("result cache")
    cache.add_argument(
        "--simcache", action=argparse.BooleanOptionalAction,
        default=True,
        help="persistent on-disk memoisation of measurement cells; "
             "cached and fresh runs are bit-identical "
             "(--no-simcache forces fresh simulation)")
    cache.add_argument(
        "--simcache-dir", metavar="PATH", default=None,
        help="result-cache directory (default: "
             "$POWER5_SIMCACHE_DIR or ~/.cache/power5-repro/simcache)")
    cache.add_argument(
        "--clear", action="store_true",
        help="'cache' subcommand: delete all cached results")
    gov = parser.add_argument_group("governor (closed-loop priorities)")
    gov.add_argument(
        "--governor", metavar="POLICY", default=None,
        help="run every pair measurement under this closed-loop "
             "policy instead of static priorities (see "
             "repro.governor.POLICIES: static, ipc_balance, "
             "throughput_max, transparent, pipeline, energy_budget, "
             "prefetch_adapt)")
    gov.add_argument(
        "--governor-epoch", type=int, default=0, metavar="N",
        help="governor sampling epoch in cycles "
             "(0 = GovernorConfig default)")
    pmu = parser.add_argument_group("PMU / observability")
    pmu.add_argument(
        "--pmu", action="store_true",
        help="instrument every measurement with the emulated PMU; "
             "prints CPI stacks and writes a Chrome-trace file")
    pmu.add_argument(
        "--pmu-sample", type=int, default=0, metavar="N",
        help="PMU interval-sampling period in cycles "
             "(0 = counters only, no time series)")
    pmu.add_argument(
        "--pmu-trace", metavar="PATH",
        help="Chrome-trace (Perfetto) output path "
             "(default: pmu_<experiment>.trace.json when --pmu is on)")
    pmu.add_argument(
        "--pmu-jsonl", metavar="PATH",
        help="also dump PMU counters/samples/FAME telemetry as JSONL")
    pmu.add_argument(
        "--primary", default="cpu_int", metavar="NAME",
        help="'pmu' experiment: primary-thread microbenchmark")
    pmu.add_argument(
        "--secondary", default="ldint_mem", metavar="NAME",
        help="'pmu' experiment: secondary-thread microbenchmark "
             "('none' for single-thread mode)")
    pmu.add_argument(
        "--diff", type=int, default=0, metavar="D",
        help="'pmu' experiment: priority difference PrioP-PrioS "
             "(-5..5)")
    chip = parser.add_argument_group("chip (multi-core scheduling)")
    chip.add_argument(
        "--chip-cores", type=int, default=2, metavar="N",
        help="'chip' experiment: SMT cores on the simulated chip "
             "(default 2, matching POWER5)")
    chip.add_argument(
        "--chip-quota", type=int, default=4, metavar="N",
        help="'chip' experiment: job repetition-quota scale "
             "(mix quotas are multiplied by N/4)")
    chip.add_argument(
        "--chip-governor", metavar="POLICY", default=None,
        help="'chip' experiment: run each scheduled pair under a "
             "per-core closed-loop governor (static, ipc_balance, "
             "throughput_max)")
    pf = parser.add_argument_group(
        "prefetch (software-controlled stream prefetcher)")
    pf.add_argument(
        "--prefetch", action="store_true",
        help="enable the stream/stride prefetcher on both hardware "
             "threads for every measurement (default: off, the "
             "pre-prefetch machine)")
    pf.add_argument(
        "--prefetch-depth", type=int, default=4, metavar="N",
        help="prefetch run-ahead horizon in lines (1..32, default 4; "
             "requires --prefetch)")
    pf.add_argument(
        "--prefetch-degree", type=int, default=2, metavar="N",
        help="fills issued per stream advance (1..min(depth, 8), "
             "default 2; requires --prefetch)")
    energy = parser.add_argument_group("energy model / DSE")
    energy.add_argument(
        "--energy-node", type=int, default=45, metavar="NM",
        help="technology node for energy reporting and the governed "
             "energy_budget cells (45, 32, 22 or 14; default 45)")
    energy.add_argument(
        "--energy-freq", type=float, default=1.0, metavar="F",
        help="DVFS frequency fraction in (0, 1] for energy reporting "
             "(default 1.0 = the node's nominal clock)")
    service = parser.add_argument_group(
        "simulation service (distributed sweeps)")
    service.add_argument(
        "--backend", metavar="URL", default=None,
        help="compute missing cells on this job server instead of "
             "locally (e.g. http://127.0.0.1:8765); results are "
             "byte-identical to a local run")
    service.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="'serve': address to listen on")
    service.add_argument(
        "--port", type=int, default=8765, metavar="N",
        help="'serve': port to listen on (0 = ephemeral)")
    service.add_argument(
        "--service-workers", type=int, default=2, metavar="N",
        help="'serve': persistent simulation workers (0 = all cores)")
    service.add_argument(
        "--cell-timeout", type=float, default=300.0, metavar="S",
        help="'serve': wall-clock budget per dispatched cell; an "
             "overrun kills the worker and requeues the cell "
             "(0 = unlimited)")
    service.add_argument(
        "--cell-retries", type=int, default=3, metavar="N",
        help="'serve': retries per cell (crash/timeout/error) before "
             "the cell is reported failed")
    return parser


def _validate_args(args) -> str | None:
    """Cross-option validation; returns an error message or None.

    Everything here fails at parse time with a clear message instead
    of mid-sweep inside a worker process (possibly after minutes of
    simulation).
    """
    if args.governor is not None:
        from repro.governor import POLICIES
        if args.governor not in POLICIES:
            return (f"unknown governor policy {args.governor!r}; "
                    f"available: {', '.join(POLICIES)}")
        if args.experiment == "chip":
            return ("--governor applies to pair measurements, not "
                    "chip runs; use --chip-governor for scheduled "
                    "rounds")
        if args.experiment == "pmu" and args.secondary in (None, "none"):
            return ("--governor requires SMT2: a single-thread 'pmu' "
                    "run (--secondary none) has no priority trade-off "
                    "to govern")
    if args.chip_governor is not None:
        from repro.sched import CHIP_GOVERNOR_POLICIES
        if args.chip_governor not in CHIP_GOVERNOR_POLICIES:
            return (f"unknown chip governor policy "
                    f"{args.chip_governor!r}; available: "
                    f"{', '.join(CHIP_GOVERNOR_POLICIES)}")
        if args.experiment not in ("chip", "all"):
            return ("--chip-governor only applies to the 'chip' "
                    "experiment")
    bad_bounds = [f"{flag} must be >= 1, got {value}"
                  for flag, value in (("--min-reps", args.min_reps),
                                      ("--max-cycles", args.max_cycles))
                  if value < 1]
    if bad_bounds:
        return "; ".join(bad_bounds)
    if args.jobs < 0:
        return f"--jobs must be >= 0 (0 = all cores), got {args.jobs}"
    if args.pmu_sample < 0:
        return f"--pmu-sample must be >= 0, got {args.pmu_sample}"
    from repro.experiments.base import PRIORITY_PAIRS
    if args.diff not in PRIORITY_PAIRS:
        return (f"--diff must be in {min(PRIORITY_PAIRS)}.."
                f"{max(PRIORITY_PAIRS)}, got {args.diff}")
    from repro.microbench import MICROBENCHMARKS
    for flag, name in (("--primary", args.primary),
                       ("--secondary", args.secondary)):
        if name not in MICROBENCHMARKS and not (
                flag == "--secondary" and name == "none"):
            return (f"unknown micro-benchmark {name!r} for {flag}; "
                    f"available: {', '.join(sorted(MICROBENCHMARKS))}")
    if args.chip_cores < 1:
        return f"--chip-cores must be >= 1, got {args.chip_cores}"
    if args.chip_quota < 1:
        return f"--chip-quota must be >= 1, got {args.chip_quota}"
    if args.governor_epoch < 0:
        return (f"--governor-epoch must be >= 0, got "
                f"{args.governor_epoch}")
    if (args.governor_epoch and args.governor is None
            and args.chip_governor is None
            and args.experiment not in ("governor", "all")):
        return ("--governor-epoch is set but nothing consumes it: "
                "select --governor or --chip-governor, or run the "
                "'governor' experiment")
    if args.pmu_sample and not (
            args.pmu or args.experiment in ("pmu", "dse", "prefetch")):
        return ("--pmu-sample requires --pmu (or the "
                "'pmu'/'dse'/'prefetch' experiments)")
    if not args.prefetch and (args.prefetch_depth != 4
                              or args.prefetch_degree != 2):
        return ("--prefetch-depth/--prefetch-degree have no effect "
                "without --prefetch")
    if args.prefetch:
        if args.experiment == "prefetch":
            return ("the 'prefetch' experiment owns its prefetch "
                    "points; --prefetch only applies to other "
                    "experiments")
        from repro.prefetch import PrefetchConfig
        try:
            PrefetchConfig(enabled=(True, True),
                           depth=args.prefetch_depth,
                           degree=args.prefetch_degree)
        except ValueError as exc:
            return str(exc)
    from repro.energy import TECH_NODES
    if args.energy_node not in TECH_NODES:
        return (f"--energy-node must be one of "
                f"{', '.join(str(n) for n in sorted(TECH_NODES))}, "
                f"got {args.energy_node}")
    if not 0.0 < args.energy_freq <= 1.0:
        return f"--energy-freq must be in (0, 1], got {args.energy_freq}"
    client_verbs = ("submit", "status", "results")
    if args.argument is not None and args.experiment not in client_verbs:
        return (f"positional argument {args.argument!r} only applies "
                f"to the {'/'.join(client_verbs)} verbs")
    if args.experiment in client_verbs and not args.backend:
        return (f"'{args.experiment}' needs --backend URL "
                f"(the job-server address)")
    if args.experiment in ("status", "results") and not args.argument:
        return (f"'{args.experiment}' needs a job id, e.g. "
                f"power5-repro {args.experiment} j1 --backend URL")
    if args.experiment == "serve":
        if args.backend:
            return ("'serve' runs a server; --backend selects one "
                    "for the client verbs")
        if not args.simcache:
            return ("'serve' requires the result cache: workers "
                    "publish results through it")
    if not 0 <= args.port <= 65535:
        return f"--port must be in 0..65535, got {args.port}"
    if args.service_workers < 0:
        return (f"--service-workers must be >= 0, "
                f"got {args.service_workers}")
    if args.cell_timeout < 0:
        return f"--cell-timeout must be >= 0, got {args.cell_timeout}"
    if args.cell_retries < 0:
        return f"--cell-retries must be >= 0, got {args.cell_retries}"
    return None


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        for exp_id in EXPERIMENTS:
            print(exp_id)
        return 0
    if args.experiment == "cache":
        return _run_cache(args)
    error = _validate_args(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    if args.experiment == "serve":
        return _run_serve(args)
    if args.experiment in ("status", "results"):
        return _run_service_query(args)
    config = POWER5.small() if args.preset == "small" else POWER5.default()
    if args.engine:
        config = dataclasses.replace(config, engine=args.engine)
    if args.prefetch:
        from repro.prefetch import PrefetchConfig
        config = config.replace(prefetch=PrefetchConfig(
            enabled=(True, True), depth=args.prefetch_depth,
            degree=args.prefetch_degree))
    simcache = None
    if args.simcache:
        from repro.simcache import SimCache
        simcache = SimCache(args.simcache_dir)
    backend = None
    if args.backend:
        from repro.service import ServiceBackend
        backend = ServiceBackend(args.backend)
    ctx = ExperimentContext(config=config,
                            min_repetitions=args.min_reps,
                            max_cycles=args.max_cycles,
                            jobs=args.jobs,
                            pmu=args.pmu
                            or args.experiment in ("pmu", "dse",
                                                   "prefetch"),
                            pmu_sample=args.pmu_sample,
                            governor=args.governor,
                            governor_epoch=args.governor_epoch,
                            chip_cores=args.chip_cores,
                            chip_quota=args.chip_quota,
                            chip_governor=args.chip_governor,
                            energy_node=args.energy_node,
                            energy_freq=args.energy_freq,
                            simcache=simcache,
                            backend=backend)
    if args.experiment == "submit":
        return _run_submit(args, ctx)
    if args.experiment == "pmu":
        return _run_pmu(args, ctx)
    if args.experiment == "all":
        ids = list(EXPERIMENTS)
    elif args.experiment in EXPERIMENTS:
        ids = [args.experiment]
    else:
        print(f"unknown experiment {args.experiment!r}; "
              f"available: {', '.join(EXPERIMENTS)} "
              f"(or 'all', 'list', 'pmu')",
              file=sys.stderr)
        return 2
    try:
        if len(ids) > 1:
            # Cross-experiment planning: measure the deduplicated
            # union of every cell up front (one batch, one worker
            # pool); the per-experiment prefetches below then find
            # everything cached.
            from repro.experiments.planner import prefetch_all
            start = time.time()
            plan = prefetch_all(ctx, ids)
            print(f"planned {plan['cells']} unique cells across "
                  f"{len(plan['experiments'])} experiments, "
                  f"simulated {plan['simulated']} "
                  f"[{time.time() - start:.1f}s]\n")
        reports = []
        for exp_id in ids:
            start = time.time()
            report = run_experiment(exp_id, ctx)
            elapsed = time.time() - start
            print(report)
            print(f"   [{elapsed:.1f}s, {ctx.cached_runs()} cached runs]\n")
            reports.append(report)
    except Exception as exc:
        from repro.service import ServiceError
        if backend is not None and isinstance(exc, ServiceError):
            print(exc, file=sys.stderr)
            return 1
        raise
    if backend is not None:
        _print_service_summary(backend)
    if simcache is not None and (simcache.hits or simcache.misses):
        stats = simcache.stats()
        print(f"result cache: {stats['hits']} hits, "
              f"{stats['misses']} misses, {stats['stores']} stored "
              f"({stats['entries']} entries, "
              f"{stats['bytes'] / 1e6:.1f} MB on disk)")
        simcache.flush_stats()
    if args.pmu:
        _print_pmu_appendix(args, ctx)
    if "chip" in ids and (args.pmu or args.pmu_trace):
        _export_scheduler_trace(args, ctx)
    if args.json:
        payload = [{"id": r.experiment_id, "title": r.title,
                    "paper_reference": r.paper_reference,
                    "data": _jsonable(r.data)} for r in reports]
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


def _run_cache(args) -> int:
    """The 'cache' subcommand: statistics and maintenance.

    Reports both caching layers: the persistent result cache (on
    disk, shared across invocations) and the in-process trace cache
    (per-process memoisation of workload construction -- its counters
    are only meaningful inside a run, so a fresh CLI process reports
    zeros).  ``--clear`` purges both; clearing is always safe, costing
    only recomputation.
    """
    from repro.simcache import SimCache
    from repro.workloads import tracecache
    cache = SimCache(args.simcache_dir)
    if args.clear:
        removed = cache.clear()
        tracecache.clear_cache()
        print(f"cleared {removed} cached results from {cache.root}")
        return 0
    stats = cache.stats()
    totals = cache.persistent_stats()
    lookups = totals["hits"] + totals["misses"]
    rate = f"{100 * totals['hits'] / lookups:.1f}%" if lookups else "n/a"
    print(f"result cache: {stats['dir']}")
    print(f"  entries: {stats['entries']} "
          f"({stats['bytes'] / 1e6:.1f} MB)")
    print(f"  lifetime: {totals['hits']} hits / {lookups} lookups "
          f"({rate} hit rate), {totals['stores']} stores")
    info = tracecache.cache_info()
    print(f"trace cache (in-process): {info['entries']} entries, "
          f"{info['hits']} hits, {info['misses']} misses")
    return 0


def _run_serve(args) -> int:
    """The 'serve' verb: run the simulation job server until SIGTERM."""
    from repro.service.server import ServerConfig, serve
    return serve(ServerConfig(host=args.host, port=args.port,
                              workers=args.service_workers,
                              cell_timeout=args.cell_timeout,
                              max_retries=args.cell_retries,
                              cache_dir=args.simcache_dir))


def _run_submit(args, ctx: ExperimentContext) -> int:
    """The 'submit' verb: enqueue an experiment plan, do not wait.

    Fire-and-forget companion of ``--backend`` (which runs the full
    experiment and waits): submit the plan, print the job id, poll
    later with 'status'/'results'.  Deferred cells (keys that are
    functions of phase-1 results, e.g. the governor's transparent
    policy) cannot be enumerated without the phase-1 values, so they
    are reported rather than submitted.
    """
    from repro.experiments.planner import submission_cells
    from repro.experiments.registry import resolve_ids
    from repro.service import ServiceError
    try:
        ids = resolve_ids(args.argument or "all")
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    plan = submission_cells(ctx, ids)
    if not plan["cells"]:
        print(f"nothing to submit: {', '.join(ids)} plan no "
              f"measurement cells")
        return 0
    from repro.service import ServiceClient, context_spec, encode_cell
    client = ServiceClient(args.backend)
    try:
        submitted = client.submit(
            context_spec(ctx),
            [encode_cell(key) for key in plan["cells"]])
    except ServiceError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"job {submitted['job']}: {submitted['total']} cells "
          f"({submitted['cached']} cached, "
          f"{submitted['coalesced']} coalesced, "
          f"{submitted['queued']} queued) on {args.backend}")
    if plan["deferred"]:
        print(f"deferred cells not submitted ({', '.join(plan['deferred'])}"
              f"): their keys depend on phase-1 results; run the "
              f"experiments with --backend to compute them")
    print(f"poll with: power5-repro status {submitted['job']} "
          f"--backend {args.backend}")
    return 0


def _run_service_query(args) -> int:
    """The 'status' and 'results' verbs."""
    from repro.service import ServiceClient, ServiceError, decode_cell
    client = ServiceClient(args.backend)
    try:
        if args.experiment == "status":
            payload = client.status(args.argument)
        else:
            payload = client.results(args.argument)
    except ServiceError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"job {payload['job']}: {payload['state']} -- "
          f"{payload['done']}/{payload['total']} done, "
          f"{payload['failed']} failed, {payload['running']} running, "
          f"{payload['queued']} queued, {payload['retries']} retries")
    for row in payload.get("cells", ()):
        line = f"  {row['state']:<8} {decode_cell(row['key'])!r}"
        if row["error"]:
            line += f"  [{row['error']}]"
        print(line)
    return 0 if payload["state"] != "failed" else 1


def _print_service_summary(backend) -> None:
    """One dedup/throughput line after a --backend run (stderr, so
    stdout stays byte-identical to a local run)."""
    try:
        dedup = backend.client.metrics()["dedup"]
    except Exception:
        return
    print(f"[service] server totals: {dedup['submitted']} submitted, "
          f"{dedup['cached']} cached, {dedup['coalesced']} coalesced, "
          f"{dedup['computed']} computed, {dedup['retries']} retries "
          f"(dedup hit rate {dedup['hit_rate']:.0%})",
          file=sys.stderr)


def _run_pmu(args, ctx: ExperimentContext) -> int:
    """The 'pmu' experiment: instrument one measurement and dump it."""
    from repro.experiments.report import (render_counters,
                                          render_cpi_stacks,
                                          render_energy)
    secondary = None if args.secondary in (None, "none") else args.secondary
    if secondary is not None:
        metrics = ctx.pair_at_diff(args.primary, secondary, args.diff)
        label = f"{args.primary}+{secondary} diff {args.diff:+d}"
        report = metrics.pmu
    else:
        metrics = ctx.single(args.primary)
        label = f"single {args.primary}"
        report = metrics.pmu
    print(render_counters(report, title=f"PMU counters: {label}"))
    print()
    print(render_cpi_stacks(
        [(label, stack) for stack in report.cpi_stacks()]))
    print()
    print(render_energy([(label, report)], ctx.energy_config()))
    if report.samples:
        print(f"\n{len(report.samples)} interval samples "
              f"(period {report.sample_period} cycles)")
    if report.fame_samples:
        print(f"{len(report.fame_samples)} FAME convergence points")
    _export_pmu([(label, report)], args, default_stem="pmu",
                energy=ctx.energy_config())
    return 0


def _print_pmu_appendix(args, ctx: ExperimentContext) -> None:
    """CPI-stack + energy appendix and trace export after
    instrumented runs."""
    from repro.experiments.report import render_cpi_stacks, render_energy
    labelled = ctx.pmu_reports()
    if not labelled:
        return
    stacks = [(label, stack) for label, report in labelled
              for stack in report.cpi_stacks()]
    print(render_cpi_stacks(stacks, title="PMU CPI stacks"))
    print()
    print(render_energy(labelled, ctx.energy_config()))
    _export_pmu(labelled, args, default_stem=args.experiment,
                energy=ctx.energy_config())


def _export_scheduler_trace(args, ctx: ExperimentContext) -> None:
    """Chrome-trace export of the scheduler decisions of chip runs.

    Written alongside (never instead of) the PMU trace: the scheduler
    trace is chip-global time with per-core rows, a different document
    than the per-measurement PMU trace.
    """
    from repro.experiments.chip import chip_schedule_results
    from repro.pmu import write_scheduler_trace
    labelled = chip_schedule_results(ctx)
    if not labelled:
        return
    path = f"sched_{args.experiment}.trace.json"
    count = write_scheduler_trace(path, labelled)
    print(f"wrote {path} ({count} scheduler trace events)")


def _export_pmu(labelled_reports, args, default_stem: str,
                energy=None) -> None:
    from repro.pmu import report_records, write_chrome_trace, write_jsonl
    trace_path = args.pmu_trace or f"pmu_{default_stem}.trace.json"
    count = write_chrome_trace(trace_path, labelled_reports,
                               energy=energy)
    print(f"wrote {trace_path} ({count} trace events)")
    if args.pmu_jsonl:
        records = []
        for label, report in labelled_reports:
            records.extend(report_records(report, label, energy=energy))
        count = write_jsonl(args.pmu_jsonl, records)
        print(f"wrote {args.pmu_jsonl} ({count} records)")


def _jsonable(obj):
    """Make experiment data JSON-serializable (tuple keys -> strings)."""
    if isinstance(obj, dict):
        return {_key(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _key(key) -> str:
    if isinstance(key, tuple):
        return "|".join(str(k) for k in key)
    return str(key)


if __name__ == "__main__":
    raise SystemExit(main())
