"""Shared infrastructure for the table/figure experiments.

:class:`ExperimentContext` owns the machine configuration, the FAME
runner and a result cache.  The cache matters: Figures 2, 3 and 4 are
three views of the same 396-run priority sweep, and Table 3 is its
baseline slice, so each (pair, priorities) combination is simulated
exactly once per context.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from dataclasses import dataclass, field

from repro.config import POWER5, CoreConfig
from repro.fame import FameRunner
from repro.workloads.tracecache import SECONDARY_BASE, cached_workload

#: Priority pairs realising each priority difference, using the
#: supervisor-settable range 1..6 exposed by the paper's kernel patch.
#: Positive differences raise the primary, negative raise the secondary.
PRIORITY_PAIRS: dict[int, tuple[int, int]] = {
    0: (4, 4),
    1: (5, 4), 2: (6, 4), 3: (6, 3), 4: (6, 2), 5: (6, 1),
    -1: (4, 5), -2: (4, 6), -3: (3, 6), -4: (2, 6), -5: (1, 6),
}


def priority_pair(diff: int) -> tuple[int, int]:
    """The (PrioP, PrioS) pair used for a priority difference."""
    try:
        return PRIORITY_PAIRS[diff]
    except KeyError:
        raise ValueError(f"unsupported priority difference: {diff}"
                         ) from None


@dataclass(frozen=True)
class ThreadMetrics:
    """Per-thread outcome of one measured run."""

    workload: str
    priority: int
    ipc: float
    avg_rep_cycles: float
    repetitions: int
    #: PMU report of the measurement (single-thread cells only; pair
    #: cells carry theirs on :class:`PairMetrics`).  None unless the
    #: context ran with ``pmu=True``.
    pmu: object = None

    def energy(self, config=None):
        """Price this measurement: an :class:`repro.energy.EnergyReport`.

        Post-hoc over the cell's PMU counters -- requires the context
        to have run with ``pmu=True``.  ``config`` selects the
        operating point (default: 45nm nominal).
        """
        if self.pmu is None:
            raise ValueError(
                "energy requires a PMU-instrumented measurement "
                "(run the context with pmu=True)")
        return self.pmu.energy(config)


@dataclass(frozen=True)
class PairMetrics:
    """Outcome of one (PThread, SThread) measurement."""

    priorities: tuple[int, int]
    primary: ThreadMetrics
    secondary: ThreadMetrics | None
    cycles: int
    capped: bool = False
    #: :class:`repro.pmu.PmuReport` of the measurement, or None unless
    #: the context ran with ``pmu=True``.
    pmu: object = None
    #: Set on governed measurements: the policy id, its per-epoch
    #: :class:`repro.governor.GovernorDecision` log, and the priority
    #: assignment in force at the end (``priorities`` above is the
    #: *initial* assignment of a governed run).
    policy: str = ""
    decisions: tuple = ()
    final_priorities: tuple[int, int] | None = None

    @property
    def total_ipc(self) -> float:
        """Combined throughput (paper's ``tt``)."""
        total = self.primary.ipc
        if self.secondary is not None:
            total += self.secondary.ipc
        return total

    def energy(self, config=None):
        """Price this measurement: an :class:`repro.energy.EnergyReport`.

        Post-hoc over the cell's PMU counters (per-thread attribution
        included) -- requires the context to have run with
        ``pmu=True``.  ``config`` selects the operating point.
        """
        if self.pmu is None:
            raise ValueError(
                "energy requires a PMU-instrumented measurement "
                "(run the context with pmu=True)")
        return self.pmu.energy(config)


#: FAME parameters of :meth:`ExperimentContext.probe_context`.
PROBE_RUNNER = {"min_repetitions": 2, "maiv": 0.02, "max_cycles": 400_000}


def single_cell(name: str) -> tuple:
    """Cache key of a single-thread measurement cell."""
    return ("single", name)


def pair_cell(primary: str, secondary: str,
              priorities: tuple[int, int]) -> tuple:
    """Cache key of a co-scheduled measurement cell."""
    return ("pair", primary, secondary, priorities)


def governed_cell(primary: str, secondary: str,
                  priorities: tuple[int, int], policy: str,
                  params: dict | None = None) -> tuple:
    """Cache key of a governor-driven measurement cell.

    ``priorities`` is the initial assignment; ``policy`` a
    :data:`repro.governor.POLICIES` id; ``params`` extra policy
    constructor arguments (must be hashable values -- they are part of
    the key and cross process boundaries in parallel sweeps).
    """
    frozen = tuple(sorted((params or {}).items()))
    return ("governed", primary, secondary, priorities, policy, frozen)


#: Fields that say where values are cached or computed, never what
#: they are: they stay out of :meth:`ExperimentContext.spec`.
_DEPLOYMENT_FIELDS = ("simcache", "backend")


@dataclass
class ExperimentContext:
    """Configuration + runner + memoised measurements.

    Every other field is the context's *spec* (:meth:`spec`): a cell's
    value is a pure function of the spec and the cell key.  ``backend``
    alone decides where :meth:`prefetch` computes missed cells, so the
    results are identical whichever executor runs them (the test-suite
    asserts byte-identical sweeps).
    """

    config: CoreConfig = field(default_factory=POWER5.small)
    min_repetitions: int = 3
    maiv: float = 0.01
    max_cycles: int = 2_500_000
    #: Instrument every measurement with the emulated PMU; the frozen
    #: :class:`repro.pmu.PmuReport` rides on each cell's metrics.
    pmu: bool = False
    #: Interval-sampling period in cycles (0 = counters only).
    pmu_sample: int = 0
    #: Run every *pair* cell under this governor policy id (None =
    #: static priorities, the default).  Dedicated ``governed`` cells
    #: ignore this and always carry their own policy.
    governor: str | None = None
    #: Governor epoch in cycles (0 = the GovernorConfig default).
    governor_epoch: int = 0
    #: Chip experiment knobs: number of SMT cores on the simulated
    #: chip, repetition quota scale of scheduled jobs, and an optional
    #: per-core governor policy for scheduled rounds.
    chip_cores: int = 2
    chip_quota: int = 4
    chip_governor: str | None = None
    #: Operating point of post-hoc energy reporting: technology node
    #: (nm) and DVFS frequency fraction.  Deliberately *not* part of
    #: performance cell keys -- energy is a pure function of already
    #: cached counters, so re-pricing at another point never
    #: invalidates a cached performance result.  Governed
    #: ``energy_budget`` cells carry their operating point in their
    #: own key params instead (the policy's decisions depend on it).
    energy_node: int = 45
    energy_freq: float = 1.0
    #: Optional :class:`repro.simcache.SimCache`: persistent, on-disk
    #: memoisation of cell values across processes and invocations.
    #: ``None`` (the default) keeps memoisation purely in-memory; the
    #: CLI enables the disk cache unless ``--no-simcache``.  Cached and
    #: freshly simulated cells are bit-identical (differential-tested),
    #: so enabling it never changes a reported number.
    simcache: object = field(default=None, repr=False)
    #: Executor of cells missing from both caches (duck-typed:
    #: ``compute_cells(ctx, keys)`` yielding ``(key, value)`` in input
    #: order).  ``None`` computes them serially in this process;
    #: :class:`repro.experiments.parallel.PoolBackend` on local worker
    #: processes; :class:`repro.service.ServiceBackend` on a job
    #: server, whose answers are verified against locally computed
    #: cache keys.
    backend: object = field(default=None, repr=False)
    _cache: dict = field(init=False, default_factory=dict, repr=False)
    #: Derived-context memo: ``("twin", config)`` -> :meth:`twin`,
    #: ``("probe",)`` -> :meth:`probe_context`.
    _derived: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.validate()
        self.runner = FameRunner(
            self.config, min_repetitions=self.min_repetitions,
            maiv=self.maiv, max_cycles=self.max_cycles)

    def twin(self, config: CoreConfig | None = None) -> "ExperimentContext":
        """A PMU-instrumented, ungoverned twin on ``config`` (default: own).

        For experiments whose cells this context cannot own.  The twin
        shares the simcache and backend, so its cells land in (and are
        served from) the same store as a direct run; it is memoised per
        config, so repeated calls reuse one twin and its memory cache.
        """
        config = config or self.config
        key = ("twin", config)
        if key not in self._derived:
            self._derived[key] = dataclasses.replace(
                self, config=config, pmu=True, governor=None,
                chip_governor=None)
        return self._derived[key]

    def probe_context(self) -> "ExperimentContext":
        """The context whose pair cells are chip placement probes.

        Adaptive allocation policies rank placements by short co-runs,
        which an OS gathers from PMU-sampled runs.  A probe is a pair
        cell with capped FAME parameters (:data:`PROBE_RUNNER`) on a
        bare core -- deliberately *without* the chip's shared bus, the
        way an OS samples per-core counters that cannot see cross-core
        contention.  Probes are uninstrumented, ungoverned, computed
        in-process and kept in memory only (a warm run reads the chip
        cell, never its probes).  Memoised, so each probe runs once.
        """
        key = ("probe",)
        if key not in self._derived:
            self._derived[key] = dataclasses.replace(
                self, pmu=False, pmu_sample=0, governor=None,
                simcache=None, backend=None, **PROBE_RUNNER)
        return self._derived[key]

    def spec(self) -> dict:
        """Every field a cell's value depends on, as plain JSON.

        The field set is the dataclass's minus the deployment fields,
        so a new knob cannot be left out.  The engine switch rides
        inside the config (it is not part of the simcache key).
        """
        spec = {name: getattr(self, name) for name in _spec_types()}
        spec["config"] = dataclasses.asdict(self.config)
        return spec

    @classmethod
    def from_spec(cls, spec: dict, simcache=None) -> "ExperimentContext":
        """The context a :meth:`spec` describes, on ``simcache``.

        Strict, since specs cross process and network boundaries: a
        missing or unknown key raises ``ValueError`` and a wrongly
        typed value (a bool passing as a number included) ``TypeError``.
        """
        types = _spec_types()
        missing = sorted(types.keys() - spec.keys())
        unknown = sorted(spec.keys() - types.keys())
        if missing or unknown:
            raise ValueError(f"spec fields missing {missing}, "
                             f"unknown {unknown}")
        kwargs = dict(spec)
        if isinstance(spec["config"], dict):
            kwargs["config"] = CoreConfig.from_dict(spec["config"])
        for name, allowed in types.items():
            value = kwargs[name]
            if (not isinstance(value, allowed)
                    or isinstance(value, bool) and bool not in allowed):
                names = " or ".join(t.__name__ for t in allowed)
                raise TypeError(f"spec field {name!r} must be {names}, "
                                f"got {value!r}")
        return cls(simcache=simcache, **kwargs)

    def validate(self) -> None:
        """Reject inconsistent option combinations up front.

        Called from ``__post_init__`` so a bad combination fails once,
        at context construction (i.e. CLI parse time), with a clear
        message -- not mid-sweep inside a worker process.
        """
        if self.governor is not None:
            from repro.governor import POLICIES
            if self.governor not in POLICIES:
                raise ValueError(
                    f"unknown governor policy {self.governor!r}; "
                    f"choose from {sorted(POLICIES)}")
        if self.chip_governor is not None:
            from repro.sched import CHIP_GOVERNOR_POLICIES
            if self.chip_governor not in CHIP_GOVERNOR_POLICIES:
                raise ValueError(
                    f"chip governor policy must be one of "
                    f"{sorted(CHIP_GOVERNOR_POLICIES)} (parameter-free "
                    f"policies), got {self.chip_governor!r}")
        if isinstance(self.maiv, bool) or not (
                isinstance(self.maiv, (int, float)) and self.maiv > 0):
            raise ValueError(
                f"maiv must be a positive number, got {self.maiv!r}")
        if self.max_cycles < 1:
            raise ValueError(
                f"max_cycles must be >= 1, got {self.max_cycles}")
        if self.chip_cores < 1:
            raise ValueError(
                f"chip_cores must be >= 1, got {self.chip_cores}")
        if self.chip_quota < 1:
            raise ValueError(
                f"chip_quota must be >= 1, got {self.chip_quota}")
        if self.pmu_sample < 0:
            raise ValueError(
                f"pmu_sample must be >= 0, got {self.pmu_sample}")
        if self.pmu_sample and not self.pmu:
            raise ValueError(
                "pmu_sample requires the PMU to be enabled (pmu=True); "
                "sampling without counters has nothing to record")
        # governor_epoch without a context-wide policy stays legal:
        # governed_cell and the 'governor' experiment consume the
        # epoch with explicitly chosen policies.
        if self.governor_epoch < 0:
            raise ValueError(
                f"governor_epoch must be >= 0, got {self.governor_epoch}")
        from repro.energy import TECH_NODES
        if self.energy_node not in TECH_NODES:
            raise ValueError(
                f"unsupported energy tech node {self.energy_node}nm; "
                f"choose from {sorted(TECH_NODES)}")
        if not 0.0 < self.energy_freq <= 1.0:
            raise ValueError(
                f"energy_freq must be in (0, 1], got {self.energy_freq}")

    def energy_config(self, node: int | None = None,
                      freq_frac: float | None = None):
        """The :class:`repro.energy.EnergyConfig` at this context's
        operating point (overridable per call for DSE sweeps)."""
        from repro.energy import EnergyConfig
        return EnergyConfig(
            node=self.energy_node if node is None else node,
            freq_frac=self.energy_freq if freq_frac is None else freq_frac,
            base_clock_ghz=self.config.clock_hz / 1e9)

    def _workload(self, name: str, base_address: int = 0):
        return cached_workload(name, self.config, base_address)

    def compute_cell(self, key: tuple):
        """Simulate one cell (no cache involvement).

        ``key`` is a :func:`single_cell` or :func:`pair_cell` tuple.
        This is the one entry point through which every measurement is
        produced, by whichever executor :meth:`prefetch` hands it to.
        """
        kind = key[0]
        pmu = self._make_pmu()
        if kind == "single":
            name = key[1]
            fame = self.runner.run_single(self._workload(name), pmu=pmu)
            return _thread_metrics(fame.thread(0), name, 4,
                                   pmu=_pmu_report(pmu))
        if kind == "chip":
            from repro.experiments.chip import compute_chip_cell
            return compute_chip_cell(self, key)
        if kind == "pair":
            _, primary, secondary, priorities = key
            governor = (self._make_governor(self.governor)
                        if self.governor else None)
        elif kind == "governed":
            _, primary, secondary, priorities, policy, params = key
            governor = self._make_governor(policy, dict(params))
        else:
            raise ValueError(f"unknown cell kind in key: {key!r}")
        fame = self.runner.run_pair(
            self._workload(primary),
            self._workload(secondary, SECONDARY_BASE),
            priorities=priorities,
            pmu=pmu,
            governor=governor)
        return PairMetrics(
            priorities=priorities,
            primary=_thread_metrics(fame.thread(0), primary,
                                    priorities[0]),
            secondary=_thread_metrics(fame.thread(1), secondary,
                                      priorities[1]),
            cycles=fame.cycles,
            capped=fame.capped,
            pmu=_pmu_report(pmu),
            policy=governor.policy.name if governor else "",
            decisions=governor.decision_log() if governor else (),
            final_priorities=(governor.final_priorities
                              if governor else None))

    def _make_pmu(self):
        """A fresh PMU handle per measurement, or None when disabled."""
        if not self.pmu:
            return None
        from repro.pmu import Pmu
        return Pmu(sample_period=self.pmu_sample or None)

    def _make_governor(self, policy: str, params: dict | None = None):
        """A fresh governor (one per measurement) running ``policy``."""
        from repro.governor import Governor, GovernorConfig, make_policy
        kwargs = {}
        if self.governor_epoch:
            kwargs["epoch"] = self.governor_epoch
        params = dict(params or {})
        # Policy params prefixed "cfg_" target the GovernorConfig.
        for key in [k for k in params if k.startswith("cfg_")]:
            kwargs[key[4:]] = params.pop(key)
        config = GovernorConfig(**kwargs)
        return Governor(config, make_policy(policy, config, **params))

    def _simcache_key(self, key: tuple) -> tuple:
        """The persistent-cache key of a cell.

        Prefixed by the trace-cache schema version and the result
        format version (so entries from other code eras can never be
        served), then every input the cell's value is a function of:
        the engine-normalized config fingerprint (both engines are
        bit-identical, so they share entries), the runner parameters,
        the instrumentation and policy knobs *relevant to this cell kind*,
        the cell key, and a content fingerprint per workload trace.
        Scoping the policy knobs per kind keeps e.g. chip flags from
        invalidating pair sweeps.
        """
        from repro.simcache import RESULT_VERSION, workload_fingerprint
        from repro.workloads.tracecache import SCHEMA_VERSION
        kind = key[0]
        runner = self.runner
        if kind == "single":
            scope: tuple = ()
            fps = (workload_fingerprint(key[1], self.config),)
        elif kind == "pair":
            scope = (self.governor, self.governor_epoch)
            fps = (workload_fingerprint(key[1], self.config),
                   workload_fingerprint(key[2], self.config,
                                        SECONDARY_BASE))
        elif kind == "governed":
            scope = (self.governor_epoch,)
            fps = (workload_fingerprint(key[1], self.config),
                   workload_fingerprint(key[2], self.config,
                                        SECONDARY_BASE))
        elif kind == "chip":
            from repro.experiments.chip import CHIP_MIXES
            scope = (self.chip_governor, self.governor_epoch)
            names = sorted({name for name, _, _ in CHIP_MIXES[key[1]]})
            fps = tuple(workload_fingerprint(name, self.config)
                        for name in names)
        else:
            raise ValueError(f"unknown cell kind in key: {key!r}")
        return (SCHEMA_VERSION, RESULT_VERSION,
                self.config.fingerprint(),
                (self.min_repetitions, runner.max_repetitions,
                 self.maiv, self.max_cycles, runner.chunk,
                 runner.warmup),
                (self.pmu, self.pmu_sample),
                scope, key, fps)

    def _simcache_lookup(self, key: tuple):
        if self.simcache is None:
            return None
        value = self.simcache.lookup(self._simcache_key(key))
        return None if self.simcache.is_miss(value) else value

    def _simcache_store(self, key: tuple, value) -> None:
        if self.simcache is not None:
            self.simcache.store(self._simcache_key(key), value)

    def prefetch(self, cells) -> int:
        """Ensure every cell in ``cells`` is measured; returns #simulated.

        Cells absent from the in-memory cache are first looked up in
        the persistent result cache (when enabled); the remainder are
        computed by ``backend`` (serially in-process when None),
        persisted, and merged into the cache in input order, so
        subsequent :meth:`single`/:meth:`pair` calls are hits and the
        cache fills identically whatever the executor or cache
        temperature.  Experiments call this with their full cell list
        up front.
        """
        todo = [k for k in dict.fromkeys(cells) if k not in self._cache]
        if not todo:
            return 0
        resolved: dict = {}
        missing = []
        for key in todo:
            value = self._simcache_lookup(key)
            if value is None:
                missing.append(key)
            else:
                resolved[key] = value
        computed = (serial_cells(self, missing) if self.backend is None
                    else self.backend.compute_cells(self, missing))
        for key, value in computed:
            resolved[key] = value
            self._simcache_store(key, value)
        for key in todo:
            self._cache[key] = resolved[key]
        return len(missing)

    def cell(self, key: tuple):
        """The metrics of an arbitrary cell key (memoised)."""
        if key not in self._cache:
            self.prefetch([key])
        return self._cache[key]

    def single(self, name: str) -> ThreadMetrics:
        """Single-thread-mode measurement (memoised)."""
        return self.cell(("single", name))

    def pair(self, primary: str, secondary: str,
             priorities: tuple[int, int]) -> PairMetrics:
        """Co-scheduled measurement at fixed priorities (memoised)."""
        return self.cell(("pair", primary, secondary, priorities))

    def pair_at_diff(self, primary: str, secondary: str,
                     diff: int) -> PairMetrics:
        """Co-scheduled measurement at a priority difference."""
        return self.pair(primary, secondary, priority_pair(diff))

    def cached_runs(self) -> int:
        """Number of distinct measurements performed so far."""
        return len(self._cache)

    def pmu_reports(self) -> list[tuple[str, object]]:
        """(label, :class:`repro.pmu.PmuReport`) per instrumented cell.

        Empty unless the context ran with ``pmu=True``.  Labels encode
        the cell key, e.g. ``cpu_int+ldint_mem prio 6v2``.
        """
        out = []
        for key, value in self._cache.items():
            report = getattr(value, "pmu", None)
            if report is None:
                continue
            if key[0] == "single":
                label = f"single {key[1]}"
            elif key[0] == "governed":
                _, primary, secondary, (prio_p, prio_s), policy, _ = key
                label = (f"{primary}+{secondary} governed {policy} "
                         f"from {prio_p}v{prio_s}")
            else:
                _, primary, secondary, (prio_p, prio_s) = key
                label = f"{primary}+{secondary} prio {prio_p}v{prio_s}"
            out.append((label, report))
        return out


def serial_cells(ctx: ExperimentContext, keys):
    """The in-process executor (``backend=None``): yield ``(key,
    value)`` for every key, in input order."""
    for key in keys:
        yield key, ctx.compute_cell(key)


@functools.cache
def _spec_types() -> dict:
    """Spec field name -> the types its value may have."""
    hints = typing.get_type_hints(ExperimentContext)
    types = {}
    for f in dataclasses.fields(ExperimentContext):
        if f.init and f.name not in _DEPLOYMENT_FIELDS:
            allowed = typing.get_args(hints[f.name]) or (hints[f.name],)
            types[f.name] = allowed + (int,) if float in allowed else allowed
    return types


def _thread_metrics(tr, name: str, priority: int,
                    pmu=None) -> ThreadMetrics:
    return ThreadMetrics(
        workload=name,
        priority=priority,
        ipc=tr.ipc,
        avg_rep_cycles=tr.avg_repetition_cycles,
        repetitions=tr.repetitions,
        pmu=pmu)


def _pmu_report(pmu):
    return pmu.report() if pmu is not None else None
