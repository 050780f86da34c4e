"""The OS scheduler: a run queue of jobs dispatched onto a chip.

:class:`OsScheduler` owns more jobs than the chip has hardware
threads.  An allocation policy pre-plans the dispatch order
(:mod:`repro.sched.policies`); the scheduler gang-dispatches the next
planned pair (or single tail) onto whichever core drains first, steps
the chip in quanta, and harvests exact per-job accounting when a
core's jobs complete their repetition quotas.

All scheduler activity is itself measurable, in the spirit of
Becker & Chakraborty's "the OS scheduler is a component, not noise":
every dispatch/completion is a :class:`SchedulerDecision` (exported to
the PMU trace as its own track), per-round PMU counter banks are
aggregated per core and chip-wide, and shared-bus wait cycles are
attributed per core.

Optionally each dispatched pair runs under its own per-core priority
:class:`repro.governor.Governor`, actuating through the chip kernel's
per-core sysfs files -- the chip-wide coordination is the scheduler's
own placement + initial-priority choice.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chip import Chip
from repro.governor import GovernorConfig, Governor, make_policy
from repro.pmu.counters import CounterBank
from repro.sched.jobs import BoundedSource, Job, JobRun
from repro.sched.policies import AllocationPolicy, RoundPlan
from repro.syskernel import ChipKernel
from repro.workloads.tracecache import SECONDARY_BASE, cached_workload

#: Governor policies a chip run may use: only those that need no
#: per-workload parameters (``transparent`` requires a measured
#: single-thread IPC, which the scheduler does not have per job).
CHIP_GOVERNOR_POLICIES = ("static", "ipc_balance", "throughput_max")


@dataclass(frozen=True)
class SchedulerDecision:
    """One observable scheduler action, in chip-global time."""

    cycle: int
    core_id: int
    round: int
    action: str                 # "dispatch" | "complete" | "capped"
    jobs: tuple[str, ...]
    priorities: tuple[int, int]
    reason: str


@dataclass(frozen=True)
class ScheduleResult:
    """Complete, deterministic outcome of one scheduled workload."""

    policy: str
    n_cores: int
    quantum: int
    makespan: int               # chip cycle of the last job completion
    stepped_cycles: int         # chip cycles actually stepped
    total_retired: int          # instructions retired in complete reps
    throughput: float           # total_retired / makespan
    jobs: tuple[JobRun, ...]
    decisions: tuple[SchedulerDecision, ...]
    counters: tuple             # chip-aggregate ((event, total), ...)
    core_counters: tuple        # per-core ((event, total), ...) tuples
    bus: tuple                  # per-core (l2 grants, l2 wait, mem grants, mem wait)
    capped: bool

    def job(self, name: str) -> JobRun:
        for run in self.jobs:
            if run.name == name:
                return run
        raise KeyError(f"no job {name!r} in schedule result")

    def energy(self, config=None):
        """Price this schedule: a chip :class:`repro.energy.EnergyReport`.

        Post-hoc over the chip-aggregate counters; the makespan is the
        wall-clock, so static power burns on all ``n_cores`` for its
        duration.  ``config`` selects the operating point.
        """
        from repro.energy import energy_from_totals
        return energy_from_totals(
            dict(self.counters), self.makespan, config,
            cores=self.n_cores, retired=self.total_retired)


class OsScheduler:
    """Dispatches a job queue onto a :class:`repro.chip.Chip`.

    ``probes`` feeds the adaptive policies (:mod:`repro.sched.policies`).
    """

    def __init__(self, chip: Chip, policy: AllocationPolicy, *,
                 probes=None,
                 quantum: int | None = None,
                 max_cycles: int = 50_000_000,
                 governor: str | None = None,
                 governor_epoch: int = 0,
                 warmup: int = 1):
        if governor is not None and governor not in CHIP_GOVERNOR_POLICIES:
            raise ValueError(
                f"chip governor policy must be one of "
                f"{CHIP_GOVERNOR_POLICIES}, got {governor!r}")
        self.chip = chip
        self.policy = policy
        self.probes = probes
        self.quantum = quantum or chip.config.sync_quantum
        self.max_cycles = max_cycles
        self.governor = governor
        self.governor_epoch = governor_epoch
        self.warmup = warmup

    def run(self, jobs: list[Job]) -> ScheduleResult:
        """Execute every job to its repetition quota; exact accounting."""
        if not jobs:
            raise ValueError("job queue is empty")
        chip = self.chip
        plan = list(self.policy.plan(list(jobs), self.probes))
        kernel = ChipKernel(chip)
        decisions: list[SchedulerDecision] = []
        runs: list[JobRun] = []
        banks: list[CounterBank] = []
        core_banks: list[list[CounterBank]] = [[] for _ in chip.cores]
        # Per-core in-flight state: (RoundPlan, round index, governor).
        current: list[tuple[RoundPlan, int, Governor | None] | None] = (
            [None] * chip.n_cores)
        rounds = [0] * chip.n_cores
        stepped = 0
        capped = False

        def dispatch(core_id: int) -> None:
            entry = plan.pop(0)
            sources = [None, None]
            for slot, job in enumerate(entry.jobs):
                base = 0 if slot == 0 else SECONDARY_BASE
                sources[slot] = BoundedSource(
                    cached_workload(job.name, chip.config.core,
                                    base_address=base),
                    job.repetitions)
            chip.load_core(core_id, sources, priorities=entry.priorities)
            core_kernel = kernel.attach(core_id)
            gov = None
            if (self.governor is not None and len(entry.jobs) == 2
                    and all(1 <= p <= 6 for p in entry.priorities)):
                cfg = (GovernorConfig(epoch=self.governor_epoch)
                       if self.governor_epoch else GovernorConfig())
                gov = Governor(cfg, make_policy(self.governor, cfg),
                               kernel=core_kernel)
                gov.attach(chip.cores[core_id])
            current[core_id] = (entry, rounds[core_id], gov)
            decisions.append(SchedulerDecision(
                cycle=chip.now, core_id=core_id, round=rounds[core_id],
                action="dispatch",
                jobs=tuple(j.name for j in entry.jobs),
                priorities=entry.priorities, reason=entry.reason))
            rounds[core_id] += 1

        def harvest(core_id: int, action: str = "complete") -> None:
            entry, round_no, gov = current[core_id]
            core = chip.cores[core_id]
            offset = chip.core_offset(core_id)
            result = core.result(warmup=self.warmup)
            bank = CounterBank.capture(core)
            banks.append(bank)
            core_banks[core_id].append(bank)
            for slot, job in enumerate(entry.jobs):
                th = result.thread(slot)
                end_local = (th.rep_end_times[-1] if th.rep_end_times
                             else core.cycle)
                runs.append(JobRun(
                    name=job.name, background=job.background,
                    core_id=core_id, slot=slot, round=round_no,
                    priority=entry.priorities[slot],
                    start_cycle=offset, end_cycle=offset + end_local,
                    retired=th.accounted_retired,
                    repetitions=th.repetitions,
                    ipc=th.ipc, avg_rep_cycles=th.avg_repetition_cycles,
                    governor_changes=(gov.applied_changes if gov else 0),
                    final_priority=core.priorities[slot]))
            decisions.append(SchedulerDecision(
                cycle=chip.now, core_id=core_id, round=round_no,
                action=action, jobs=tuple(j.name for j in entry.jobs),
                priorities=core.priorities,
                reason=(f"{gov.applied_changes} governor changes"
                        if gov else entry.reason)))
            current[core_id] = None
            chip.idle_core(core_id)

        while plan or any(c is not None for c in current):
            for core_id in range(chip.n_cores):
                if current[core_id] is None and plan:
                    dispatch(core_id)
            chip.step(self.quantum)
            stepped += self.quantum
            for core_id in range(chip.n_cores):
                if current[core_id] is not None and chip.core_idle(core_id):
                    harvest(core_id)
            if stepped >= self.max_cycles:
                capped = True
                for core_id in range(chip.n_cores):
                    if current[core_id] is not None:
                        harvest(core_id, action="capped")
                break

        makespan = max((run.end_cycle for run in runs), default=chip.now)
        total_retired = sum(run.retired for run in runs)
        counters = tuple(sorted(CounterBank.aggregate(banks).items()))
        core_counters = tuple(
            tuple(sorted(CounterBank.aggregate(cb).items()))
            for cb in core_banks)
        bus = (tuple(chip.bus.core_stats(c) for c in range(chip.n_cores))
               if chip.bus is not None else ())
        return ScheduleResult(
            policy=self.policy.name, n_cores=chip.n_cores,
            quantum=self.quantum, makespan=makespan,
            stepped_cycles=stepped, total_retired=total_retired,
            throughput=(total_retired / makespan if makespan else 0.0),
            jobs=tuple(runs), decisions=tuple(decisions),
            counters=counters, core_counters=core_counters, bus=bus,
            capped=capped)
