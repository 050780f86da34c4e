"""Functional-unit pools of the POWER5 core.

POWER5 issues to 2 fixed-point units (FXU), 2 load-store units (LSU),
2 floating-point units (FPU) and 1 branch unit (BXU).  Units are fully
pipelined: each accepts one operation per cycle regardless of latency.
The pools are shared by the two SMT threads -- contention between two
integer-heavy or two load-heavy threads is emergent, which is what
halves same-class pairs in the paper's Table 3.
"""

from __future__ import annotations

from repro.config import CoreConfig


class UnitPool:
    """A pool of identical, fully pipelined units.

    Scheduling is *slot occupancy*, not first-come reservation: an
    operation issues in the first cycle at or after its operands are
    ready in which fewer than ``count`` operations already occupy the
    pool.  This models out-of-order issue correctly -- an op whose
    operands are ready early is never blocked by an older op that
    reserved the unit for a far-future cycle.  The occupancy map stays
    small because the GCT bounds in-flight work; stale entries are
    garbage-collected periodically by the core.
    """

    __slots__ = ("name", "count", "_occupied", "issues", "thread_issues",
                 "total_wait")

    def __init__(self, name: str, count: int):
        if count < 1:
            raise ValueError(f"{name}: need at least one unit")
        self.name = name
        self.count = count
        self._occupied: dict[int, int] = {}
        self.issues = 0
        self.thread_issues = [0, 0]
        self.total_wait = 0

    def reset(self) -> None:
        """Free all units and zero statistics, in place (compiled
        kernels bind ``thread_issues`` itself)."""
        self._occupied.clear()
        self.issues = 0
        self.thread_issues[:] = (0, 0)
        self.total_wait = 0

    def issue(self, earliest: int, thread_id: int = 0) -> int:
        """Claim an issue slot at the first free cycle >= ``earliest``."""
        occupied = self._occupied
        cap = self.count
        start = earliest
        while occupied.get(start, 0) >= cap:
            start += 1
        occupied[start] = occupied.get(start, 0) + 1
        self.total_wait += start - earliest
        self.issues += 1
        self.thread_issues[thread_id] += 1
        return start

    def state(self, now: int) -> tuple:
        """Statistics and occupancy at or after ``now`` (every future
        claim probes there; ``collect`` drops older records lazily)."""
        return (self.issues, self.total_wait, tuple(self.thread_issues),
                tuple(sorted((t, v) for t, v in self._occupied.items()
                             if t >= now)))

    def collect(self, now: int) -> None:
        """Drop occupancy records older than ``now`` (bookkeeping only)."""
        occupied = self._occupied
        if len(occupied) > 4 * self.count:
            stale = [t for t in occupied if t < now]
            for t in stale:
                del occupied[t]


class FunctionalUnits:
    """All execution pools of one core."""

    def __init__(self, config: CoreConfig):
        self.fxu = UnitPool("FXU", config.num_fxu)
        self.lsu = UnitPool("LSU", config.num_lsu)
        self.fpu = UnitPool("FPU", config.num_fpu)
        self.bxu = UnitPool("BXU", config.num_bxu)

    def reset(self) -> None:
        """Free all pools."""
        self.fxu.reset()
        self.lsu.reset()
        self.fpu.reset()
        self.bxu.reset()

    def collect(self, now: int) -> None:
        """Garbage-collect stale occupancy records in all pools."""
        self.fxu.collect(now)
        self.lsu.collect(now)
        self.fpu.collect(now)
        self.bxu.collect(now)

    def state(self, now: int) -> tuple:
        """Every pool's :meth:`UnitPool.state`."""
        return (self.fxu.state(now), self.lsu.state(now),
                self.fpu.state(now), self.bxu.state(now))

    def pools(self) -> tuple[UnitPool, ...]:
        """All pools, for reporting."""
        return (self.fxu, self.lsu, self.fpu, self.bxu)
