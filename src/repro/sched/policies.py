"""Thread-to-core allocation policies.

A policy turns a run queue of jobs into an ordered dispatch plan of
:class:`RoundPlan` entries -- each a pair (or single tail) of jobs to
co-schedule on one SMT core at given software priorities.  The
scheduler pops the next plan entry whenever a core drains.

Policies (after Navarro et al.'s thread-to-core allocation families,
grafted onto this paper's priority mechanism):

``round_robin``
    Static baseline: pair jobs in queue order at neutral (4, 4).
``symbiosis``
    Greedy best-friend pairing by probed pair throughput: repeatedly
    co-schedule the two remaining jobs whose probed combined IPC is
    highest, at (4, 4).
``priority_aware``
    Pairs *and* priorities chosen together: over a small priority
    ladder, greedily pick the (pair, priorities) minimising the
    predicted round makespan -- placing jobs so the priority mechanism
    has the most leverage, not just picking friends.
``background``
    Transparent consolidation (paper section 6.3): each background job
    rides behind a foreground job at (6, 1); leftovers pair among
    themselves at (4, 4).

The two adaptive policies read short co-run measurements from a
``probes`` object: ``probes.pair(a, b, priorities)`` measures ``a`` in
slot 0 beside ``b`` in slot 1 and returns a value with ``total_ipc``
and per-thread ``primary``/``secondary`` ``avg_rep_cycles`` -- the
chip experiment passes its context's probe context, whose pair cells
are :class:`repro.experiments.base.PairMetrics`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sched.jobs import Job


@dataclass(frozen=True)
class RoundPlan:
    """One dispatch: 1-2 jobs for one core, with SMT priorities."""

    jobs: tuple[Job, ...]
    priorities: tuple[int, int]
    reason: str

    def __post_init__(self) -> None:
        if not 1 <= len(self.jobs) <= 2:
            raise ValueError("a round schedules 1 or 2 jobs")


#: Priority assignments the priority-aware policy searches.  A small
#: ladder keeps probe cost bounded: neutral, one step either way, and
#: the +4 difference the paper shows reallocates decode aggressively.
PROBE_LADDER: tuple[tuple[int, int], ...] = (
    (4, 4), (5, 4), (4, 5), (6, 2), (2, 6))


class AllocationPolicy:
    """Base: turn a job queue into an ordered dispatch plan."""

    #: Registry name, set on subclasses.
    name = "abstract"

    def plan(self, jobs: list[Job], probes=None) -> list[RoundPlan]:
        raise NotImplementedError

    @staticmethod
    def _single_tail(job: Job) -> RoundPlan:
        return RoundPlan(jobs=(job,), priorities=(4, 0),
                         reason="single tail")


class RoundRobinPolicy(AllocationPolicy):
    """Static baseline: queue order, neutral priorities."""

    name = "round_robin"

    def plan(self, jobs: list[Job], probes=None) -> list[RoundPlan]:
        plans = []
        queue = list(jobs)
        while len(queue) >= 2:
            a, b = queue.pop(0), queue.pop(0)
            plans.append(RoundPlan(jobs=(a, b), priorities=(4, 4),
                                   reason="queue order"))
        if queue:
            plans.append(self._single_tail(queue.pop()))
        return plans


class SymbiosisPolicy(AllocationPolicy):
    """Greedy best-friend pairing by sampled pair throughput."""

    name = "symbiosis"

    def plan(self, jobs: list[Job], probes=None) -> list[RoundPlan]:
        if probes is None:
            raise ValueError(f"{self.name} policy requires a pair "
                             "sampler (probes)")
        plans = []
        queue = list(jobs)
        while len(queue) >= 2:
            best = None
            for i in range(len(queue)):
                for j in range(i + 1, len(queue)):
                    score = probes.pair(queue[i].name, queue[j].name,
                                        (4, 4)).total_ipc
                    if best is None or score > best[0]:
                        best = (score, i, j)
            score, i, j = best
            b = queue.pop(j)
            a = queue.pop(i)
            plans.append(RoundPlan(
                jobs=(a, b), priorities=(4, 4),
                reason=f"probe IPC {score:.3f}"))
        if queue:
            plans.append(self._single_tail(queue.pop()))
        return plans


class PriorityAwarePolicy(AllocationPolicy):
    """Joint pair + priority choice minimising predicted makespan."""

    name = "priority_aware"

    def plan(self, jobs: list[Job], probes=None) -> list[RoundPlan]:
        if probes is None:
            raise ValueError(f"{self.name} policy requires a pair "
                             "sampler (probes)")
        plans = []
        queue = list(jobs)
        while len(queue) >= 2:
            best = None
            for i in range(len(queue)):
                for j in range(i + 1, len(queue)):
                    a, b = queue[i], queue[j]
                    for prios in PROBE_LADDER:
                        # The pair runs until the slower job's quota
                        # completes; maximising probe IPC alone can
                        # starve the longer job and lengthen the round.
                        probe = probes.pair(a.name, b.name, prios)
                        span = max(
                            probe.primary.avg_rep_cycles * a.repetitions,
                            probe.secondary.avg_rep_cycles
                            * b.repetitions)
                        if best is None or span < best[0]:
                            best = (span, i, j, prios)
            span, i, j, prios = best
            b = queue.pop(j)
            a = queue.pop(i)
            plans.append(RoundPlan(
                jobs=(a, b), priorities=prios,
                reason=f"predicted makespan {span:.0f} at {prios}"))
        if queue:
            plans.append(self._single_tail(queue.pop()))
        return plans


class BackgroundPolicy(AllocationPolicy):
    """Transparent consolidation: background rides behind foreground."""

    name = "background"

    def plan(self, jobs: list[Job], probes=None) -> list[RoundPlan]:
        fg = [j for j in jobs if not j.background]
        bg = [j for j in jobs if j.background]
        plans = []
        while fg and bg:
            plans.append(RoundPlan(
                jobs=(fg.pop(0), bg.pop(0)), priorities=(6, 1),
                reason="transparent consolidation"))
        leftovers = fg or bg
        while len(leftovers) >= 2:
            a, b = leftovers.pop(0), leftovers.pop(0)
            plans.append(RoundPlan(jobs=(a, b), priorities=(4, 4),
                                   reason="leftover pair"))
        if leftovers:
            plans.append(self._single_tail(leftovers.pop()))
        return plans


SCHED_POLICIES: dict[str, type[AllocationPolicy]] = {
    cls.name: cls
    for cls in (RoundRobinPolicy, SymbiosisPolicy,
                PriorityAwarePolicy, BackgroundPolicy)
}


def make_allocation_policy(name: str) -> AllocationPolicy:
    """Instantiate a registered policy by name."""
    try:
        cls = SCHED_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown allocation policy {name!r}; "
            f"choose from {sorted(SCHED_POLICIES)}") from None
    return cls()
