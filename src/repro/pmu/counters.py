"""The central counter bank of the emulated PMU.

A :class:`CounterBank` is an immutable snapshot of every registered
PMU event (:mod:`repro.pmu.events`) for both hardware threads of one
core.  Snapshots are cheap -- the simulator maintains the underlying
raw counters unconditionally (like real PMCs, they are always
counting), so capturing is a read-only walk over existing state, and
the hot simulation loop pays nothing for the PMU beyond those raw
increments.

Exactness: every captured value is a plain counter of the machine
state, which both engines advance identically (a telescoped jump
adds whole verified periods of every counter).  The differential
test-suite asserts bank equality across the full microbenchmark x
priority-difference matrix.
"""

from __future__ import annotations

from repro.memory.hierarchy import MemLevel
from repro.pmu.events import EVENT_NAMES, EVENTS


class CounterBank:
    """Immutable per-thread values of every PMU event."""

    __slots__ = ("cycles", "priorities", "_values")

    def __init__(self, cycles: int, priorities: tuple[int, int],
                 values: dict[str, tuple[int, int]]):
        self.cycles = cycles
        self.priorities = priorities
        self._values = values

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------

    @classmethod
    def capture(cls, core, cycles: int | None = None) -> "CounterBank":
        """Snapshot all events from a live :class:`repro.core.SMTCore`.

        ``cycles`` overrides the core's cycle count -- callers inside a
        periodic hook pass the hook's ``now`` (the core only publishes
        its cycle counter when :meth:`SMTCore.step` returns).
        """
        if cycles is None:
            cycles = core.cycle
        hier = core.hierarchy
        bal = core.balancer.stats
        fus = core.fus
        levels = hier.level_counts

        def per_thread(attr: str) -> tuple[int, int]:
            out = [0, 0]
            for tid in (0, 1):
                th = core._threads[tid]
                if th is not None:
                    out[tid] = getattr(th, attr)
            return (out[0], out[1])

        def pair(seq) -> tuple[int, int]:
            return (int(seq[0]), int(seq[1]))

        values = {
            "PM_CYC": (cycles, cycles),
            "PM_INST_DISP": per_thread("decoded"),
            "PM_INST_CMPL": per_thread("retired"),
            "PM_GRP_DISP": per_thread("groups_dispatched"),
            "PM_SLOT_GRANT": per_thread("owned_slots"),
            "PM_SLOT_DECODE": per_thread("groups_dispatched"),
            "PM_SLOT_LOST_STALL": per_thread("slots_lost_stall"),
            "PM_SLOT_LOST_BAL": per_thread("slots_lost_balancer"),
            "PM_SLOT_LOST_THROTTLE": per_thread("slots_lost_throttle"),
            "PM_SLOT_LOST_GCT": per_thread("slots_lost_gct"),
            "PM_SLOT_LOST_OTHER": per_thread("slots_lost_other"),
            "PM_SLOT_WASTED": per_thread("wasted_slots"),
            "PM_LD_L1_HIT": pair(levels[MemLevel.L1]),
            "PM_LD_L2_HIT": pair(levels[MemLevel.L2]),
            "PM_LD_L3_HIT": pair(levels[MemLevel.L3]),
            "PM_LD_MEM": pair(levels[MemLevel.MEM]),
            "PM_ST_CMPL": pair(hier.store_counts),
            "PM_TLB_MISS": pair(hier.tlb.stats.thread_misses),
            "PM_LMQ_ACQ": pair(hier.lmq.thread_acquisitions),
            "PM_LMQ_WAIT_CYC": pair(hier.lmq.thread_wait_cycles),
            "PM_DRAM_ACCESS": pair(hier.dram.thread_accesses),
            "PM_DRAM_QUEUE_CYC": pair(hier.dram.thread_queue_cycles),
            "PM_PREF_ALLOC": pair(hier.prefetcher.stats.allocs),
            "PM_PREF_ISSUE": pair(hier.prefetcher.stats.issues),
            "PM_LD_PREF_HIT": pair(hier.prefetcher.stats.hits),
            "PM_PREF_USELESS": pair(hier.prefetcher.stats.useless),
            "PM_PREF_LATE": pair(hier.prefetcher.stats.late),
            "PM_BR_MPRED": per_thread("mispredicts"),
            "PM_BAL_FLUSH": per_thread("flushes"),
            "PM_BAL_FLUSH_INST": per_thread("flushed_instructions"),
            "PM_BAL_STALL_EV": pair(bal.stall_events),
            "PM_BAL_STALL_CYC": pair(bal.stall_cycles),
            "PM_BAL_THROTTLE_WIN": pair(bal.throttle_windows),
            "PM_FXU_ISSUE": pair(fus.fxu.thread_issues),
            "PM_LSU_ISSUE": pair(fus.lsu.thread_issues),
            "PM_FPU_ISSUE": pair(fus.fpu.thread_issues),
            "PM_BXU_ISSUE": pair(fus.bxu.thread_issues),
            "PM_FU_WAIT_CYC": per_thread("fu_wait_cycles"),
            "PM_OPERAND_WAIT_CYC": per_thread("operand_wait_cycles"),
            "PM_PRIO_CHANGE": per_thread("priority_changes"),
        }
        missing = set(EVENT_NAMES) - set(values)
        if missing:  # registry and capture must stay in lock-step
            raise RuntimeError(f"uncaptured PMU events: {sorted(missing)}")
        return cls(cycles, core.priorities, values)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def __getitem__(self, name: str) -> tuple[int, int]:
        return self._values[name]

    def value(self, name: str, thread_id: int) -> int:
        """One event's value for one thread."""
        return self._values[name][thread_id]

    def thread(self, thread_id: int) -> dict[str, int]:
        """All events of one thread, in registry order."""
        return {name: self._values[name][thread_id]
                for name in EVENT_NAMES}

    def as_tuple(self) -> tuple:
        """Canonical immutable form: ((name, (t0, t1)), ...).

        Deterministically ordered; used for equality assertions and as
        the picklable payload inside :class:`repro.pmu.PmuReport`.
        """
        return tuple((name, self._values[name]) for name in EVENT_NAMES)

    @classmethod
    def from_tuple(cls, cycles: int, priorities: tuple[int, int],
                   data: tuple) -> "CounterBank":
        """Rebuild a bank from :meth:`as_tuple` output.

        Registered events absent from ``data`` are backfilled as zero:
        cached/pickled banks from before an event existed stay
        readable, and the backfill is exact because new events always
        describe hardware that, in those runs, did not exist (e.g. the
        ``PM_PREF_*`` counters of a machine with no prefetcher).
        """
        values = {name: tuple(v) for name, v in data}
        for name in EVENT_NAMES:
            if name not in values:
                values[name] = (0, 0)
        return cls(cycles, priorities, values)

    def __reduce__(self):
        # Serialize through the canonical tuple form rather than the
        # default slots protocol: banks ride inside PmuReports across
        # worker processes and into the persistent result cache, and
        # the canonical form keeps that byte stream independent of the
        # in-memory dict layout (insertion order, future slot changes).
        return (CounterBank.from_tuple,
                (self.cycles, self.priorities, self.as_tuple()))

    def delta(self, prev: "CounterBank") -> "CounterBank":
        """The counting since ``prev``: elementwise ``self - prev``.

        ``cycles`` becomes the span length and ``priorities`` the
        current pair.  This is the epoch arithmetic of the priority
        governor: two snapshots bracket an epoch and the delta holds
        exactly what happened inside it.  All registered events are
        monotonic counters, so every delta component is >= 0 when
        ``prev`` was captured earlier on the same run.
        """
        old = prev._values
        values = {name: (cur[0] - old[name][0], cur[1] - old[name][1])
                  for name, cur in self._values.items()}
        return CounterBank(self.cycles - prev.cycles, self.priorities,
                           values)

    def totals(self) -> dict[str, int]:
        """Per-event t0+t1 sums, in registry order.

        The core-level aggregate a chip-wide report sums over cores;
        note ``PM_CYC`` counts per-thread, so a core's total is twice
        its cycle count.
        """
        return {name: self._values[name][0] + self._values[name][1]
                for name in EVENT_NAMES}

    @staticmethod
    def aggregate(banks) -> dict[str, int]:
        """Chip-level totals: sum of :meth:`totals` over many banks.

        Accepts any iterable of banks (e.g. one per dispatch round per
        core) and returns zeros for an empty iterable, so callers can
        aggregate a chip where some cores never ran a job.
        """
        out = {name: 0 for name in EVENT_NAMES}
        for bank in banks:
            for name, (t0, t1) in bank._values.items():
                out[name] += t0 + t1
        return out

    def rows(self) -> list[tuple[str, str, int, int]]:
        """(name, description, t0, t1) rows in registry order."""
        return [(e.name, e.description, *self._values[e.name])
                for e in EVENTS]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CounterBank):
            return NotImplemented
        return (self.cycles == other.cycles
                and self.priorities == other.priorities
                and self._values == other._values)

    def __hash__(self):  # immutable by convention
        return hash((self.cycles, self.priorities, self.as_tuple()))

    def __repr__(self) -> str:
        return (f"CounterBank(cycles={self.cycles}, "
                f"priorities={self.priorities}, "
                f"events={len(self._values)})")
