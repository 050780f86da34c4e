"""OS-scheduler layer: run queue, allocation policies, dispatch loop."""

from repro.sched.jobs import BoundedSource, Job, JobRun
from repro.sched.policies import (
    PROBE_LADDER,
    SCHED_POLICIES,
    AllocationPolicy,
    BackgroundPolicy,
    PriorityAwarePolicy,
    RoundPlan,
    RoundRobinPolicy,
    SymbiosisPolicy,
    make_allocation_policy,
)
from repro.sched.scheduler import (
    CHIP_GOVERNOR_POLICIES,
    OsScheduler,
    ScheduleResult,
    SchedulerDecision,
)

__all__ = [
    "AllocationPolicy",
    "BackgroundPolicy",
    "BoundedSource",
    "CHIP_GOVERNOR_POLICIES",
    "Job",
    "JobRun",
    "OsScheduler",
    "PROBE_LADDER",
    "PriorityAwarePolicy",
    "RoundPlan",
    "RoundRobinPolicy",
    "SCHED_POLICIES",
    "ScheduleResult",
    "SchedulerDecision",
    "SymbiosisPolicy",
    "make_allocation_policy",
]
