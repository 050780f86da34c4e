"""Per-hardware-thread state of the SMT core."""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from repro.isa.registers import NUM_REGS
from repro.isa.trace import TraceSource
from repro.priority.levels import PrivilegeLevel


class InflightGroup(NamedTuple):
    """One dispatched group occupying a GCT entry.

    ``completion`` is the cycle the group's last instruction finishes;
    ``rep_done`` marks the group that ends a workload repetition;
    ``start_pos``/``rep_index`` allow a balancer flush to rewind decode
    to the start of a squashed group.

    A named *tuple* rather than a slotted class: the step loops append
    millions of these, and a plain tuple display is several times
    cheaper than any Python-level ``__init__``.  The hot paths build
    anonymous 5-tuples in this field order and read by index; the named
    accessors exist for tests and inspection.
    """

    completion: int
    count: int
    rep_done: bool
    start_pos: int
    rep_index: int


#: The per-thread counters the array engine's step loop keeps in locals,
#: in spill/fill order: ``fill_hot``/``spill_hot`` are generated from
#: it, and :meth:`HardwareThread.state` reads it too.
HOT_COUNTERS = (
    "owned_slots", "gct_held", "retired", "decoded", "groups_dispatched",
    "operand_wait_cycles", "fu_wait_cycles", "wasted_slots",
    "slots_lost_gct", "slots_lost_stall", "slots_lost_balancer",
    "slots_lost_throttle", "mispredicts", "stall_until", "pos")


def _make_sync(names: tuple[str, ...]):
    # Straight-line attribute loads and one tuple-target store: both
    # cheaper than ``attrgetter(*names)`` or a setattr loop.
    attrs = ", ".join(f"th.{n}" for n in names)
    ns: dict = {}
    exec(f"def fill_hot(th):\n    return ({attrs})\n\n"
         f"def spill_hot(th, values):\n    {attrs} = values\n", ns)
    return ns["fill_hot"], ns["spill_hot"]


#: ``fill_hot(th)`` -> the ``HOT_COUNTERS`` values of ``th``;
#: ``spill_hot(th, values)`` stores such a tuple back.
fill_hot, spill_hot = _make_sync(HOT_COUNTERS)


class HardwareThread:
    """Decode/execution state of one SMT context."""

    def __init__(self, thread_id: int, source: TraceSource,
                 privilege: PrivilegeLevel = PrivilegeLevel.USER):
        self.thread_id = thread_id
        self.source = source
        self.privilege = privilege

        self.rep_index = 0
        self.trace = list(source.repetition(0))
        if not self.trace:
            raise ValueError(f"{source.name}: empty repetition trace")
        self.pos = 0
        self.finished = False

        # Scoreboard: completion time of the latest writer per register.
        self.reg_ready = [0] * NUM_REGS

        # In-flight groups (each holds one shared-GCT entry).
        self.inflight: deque[InflightGroup] = deque()
        self.gct_held = 0

        # Front-end blocking state.
        self.stall_until = 0          # branch redirect / flush penalty
        self.balancer_stalled = False
        self.throttled = False

        # Counters.  ``wasted_slots`` aggregates the per-cause PMU
        # buckets below it (stall + balancer + throttle + other); the
        # slot identity owned == dispatched + wasted + lost_gct holds
        # at every cycle and backs the exact CPI-stack decomposition.
        self.owned_slots = 0
        self.wasted_slots = 0
        self.slots_lost_gct = 0
        self.slots_lost_stall = 0      # redirect / flush-penalty wait
        self.slots_lost_balancer = 0   # balancer GCT-occupancy stall
        self.slots_lost_throttle = 0   # reduced decode duty-cycle
        self.slots_lost_other = 0      # defensive paths (empty group)
        self.decoded = 0
        self.retired = 0
        self.groups_dispatched = 0
        self.mispredicts = 0
        self.flushes = 0
        self.flushed_instructions = 0
        # Stall attribution accumulated at decode time: cycles a
        # dispatched instruction waited on source operands past the
        # front-end depth, and cycles it waited for a busy functional
        # unit past operand readiness.
        self.operand_wait_cycles = 0
        self.fu_wait_cycles = 0
        # Applied in-trace priority-change requests (PRIO_NOPs that
        # actually changed this thread's priority).
        self.priority_changes = 0

        # FAME accounting: completion cycle and cumulative retired
        # instruction count at the end of each complete repetition,
        # plus the cycle each repetition's first group decoded (used to
        # separate busy time from lead-wait time in pipelines).
        self.rep_end_times: list[int] = []
        self.rep_end_retired: list[int] = []
        self.rep_start_times: list[int] = []

        # Counters sampled at the last balancer window boundary.
        self.window_l2_misses = 0
        self.window_retired = 0

    def state(self, now: int) -> tuple:
        """Everything the thread's future behaviour depends on.

        A stall or scoreboard entry at or before ``now`` reads as
        ``now`` (any expired one means "ready"); the array engine's two
        sentinel scoreboard slots hold nothing observable.
        """
        hot = tuple(max(v, now) if n == "stall_until" else v
                    for n, v in zip(HOT_COUNTERS, fill_hot(self)))
        return (hot, self.rep_index, self.finished,
                self.balancer_stalled, self.throttled,
                tuple(self.inflight),
                tuple(r if r > now else now
                      for r in self.reg_ready[:NUM_REGS]),
                tuple(self.rep_end_times), tuple(self.rep_end_retired),
                tuple(self.rep_start_times), self.slots_lost_other,
                self.flushes, self.flushed_instructions,
                self.priority_changes, self.window_l2_misses,
                self.window_retired)

    @property
    def completed_repetitions(self) -> int:
        """Number of fully retired workload repetitions."""
        return len(self.rep_end_times)

    def advance_repetition(self) -> None:
        """Move decode to the next repetition of the workload.

        A source may end the workload by raising ``StopIteration`` or
        returning an empty sequence; the thread then stops decoding.
        """
        self.rep_index += 1
        try:
            nxt = self.source.repetition(self.rep_index)
        except StopIteration:
            nxt = ()
        self._install(nxt)
        self.finished = not self.trace
        self.pos = 0

    def rewind(self, rep_index: int, pos: int) -> None:
        """Rewind decode to ``(rep_index, pos)`` after a balancer flush."""
        if rep_index != self.rep_index:
            self.rep_index = rep_index
            self._install(self.source.repetition(rep_index))
            self.finished = False
        self.pos = pos

    def _install(self, repetition) -> None:
        """Make ``repetition`` (a sequence of instructions) the trace."""
        self.trace = list(repetition)

    def __repr__(self) -> str:
        return (f"HardwareThread({self.thread_id}, {self.source.name!r}, "
                f"rep={self.rep_index}, pos={self.pos})")
