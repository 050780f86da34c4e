"""The closed-loop control runtime driving SMT priorities online.

:class:`Governor` wires three existing subsystems into one loop:

- **sensing** -- a periodic core hook (the same machinery kernel timer
  interrupts use, exact under both simulation engines) snapshots the
  emulated PMU's :class:`repro.pmu.CounterBank` every ``epoch`` cycles
  and turns the delta into an :class:`EpochObservation`;
- **deciding** -- a :class:`repro.governor.policies.Policy` maps the
  observation to a target priority pair (or holds);
- **actuating** -- accepted targets are written through the patched
  kernel's ``/sys/kernel/smt_priority/thread<N>`` files, the paper's
  software interface, so every governor action passes through kernel
  priority semantics, takes effect at the next decode boundary exactly
  like a user-issued priority nop, and is counted as a
  ``PM_PRIO_CHANGE`` event.

Every decision -- including "hold" epochs -- is recorded as a frozen
:class:`GovernorDecision`, giving experiments, exports and tests an
exact audit trail of what the controller saw and did.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.governor.config import GovernorConfig
from repro.governor.policies import Policy, StaticPolicy
from repro.pmu.counters import CounterBank


@dataclass(frozen=True)
class GovernorDecision:
    """One per-epoch decision of the governor.

    ``ipc`` is the per-thread IPC observed over the epoch that
    triggered the decision; ``before``/``after`` are the priority
    pairs around it (equal unless ``applied``); ``reason`` is the
    policy's explanation.
    """

    epoch: int
    cycle: int
    ipc: tuple[float, float]
    before: tuple[int, int]
    after: tuple[int, int]
    reason: str
    applied: bool


@dataclass(frozen=True)
class EpochObservation:
    """What a policy sees at one epoch boundary.

    Rates (``ipc``, ``slot_share``) are over the epoch just ended;
    ``reps`` and ``rep_cycles`` summarize the repetition accounting
    (completed repetitions, and the duration of the most recent
    complete repetition) each thread has accumulated so far.
    """

    epoch: int
    cycle: int
    priorities: tuple[int, int]
    ipc: tuple[float, float]
    retired: tuple[int, int]
    slot_share: tuple[float, float]
    reps: tuple[int, int]
    rep_cycles: tuple[float, float]
    #: Cycle at which each thread's latest repetition completed (0
    #: before the first completion) -- lets a policy measure exact
    #: per-repetition rates across decision windows.
    rep_ends: tuple[int, int] = (0, 0)
    #: Full counter delta of the epoch (a :class:`CounterBank` whose
    #: counts cover exactly this epoch) -- lets a policy price the
    #: epoch with the energy model.  ``None`` only in hand-built
    #: observations that predate the field.
    bank: CounterBank | None = None


class Governor:
    """PMU-guided closed-loop retuning of the two thread priorities."""

    def __init__(self, config: GovernorConfig | None = None,
                 policy: Policy | None = None, kernel=None):
        self.config = config or GovernorConfig()
        self.policy = policy or StaticPolicy(self.config)
        self.kernel = kernel
        self.decisions: list[GovernorDecision] = []
        self._prev_bank: CounterBank | None = None
        self._epoch = 0
        self._initial_priorities: tuple[int, int] | None = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self, core) -> None:
        """Instrument a loaded core (call after :meth:`SMTCore.load`).

        Installs a :class:`repro.syskernel.PatchedKernel` when the
        caller did not supply one (the governor actuates through its
        ``/sys`` files) and registers the epoch hook.  Rejects cores
        that are not running two hardware threads: with a single
        context there is no priority trade-off to govern.
        """
        t0, t1 = core._threads
        if t0 is None or t1 is None:
            raise ValueError(
                "the priority governor requires SMT2: both hardware "
                "threads must have a loaded workload (got "
                f"thread0={'loaded' if t0 else 'empty'}, "
                f"thread1={'loaded' if t1 else 'empty'}); single-thread "
                "runs have no priority trade-off to govern")
        prio = core.priorities
        if not all(1 <= p <= 6 for p in prio):
            raise ValueError(
                f"the priority governor requires both threads in the "
                f"software-controllable range 1..6, got {prio}: levels "
                "0 and 7 put the core in a single-thread mode")
        if self.kernel is None:
            from repro.syskernel import PatchedKernel
            self.kernel = PatchedKernel()
            self.kernel.install(core)
        self._epoch = 0
        self._initial_priorities = prio
        self.decisions = []
        self.policy.reset()
        # Policies controlling knobs beyond priorities (e.g. the
        # prefetch co-tuner) receive the kernel's sysfs surface here.
        bind = getattr(self.policy, "bind", None)
        if bind is not None:
            bind(self)
        self._prev_bank = CounterBank.capture(core, cycles=core.cycle)
        core.add_periodic_hook(self.config.epoch, self._on_epoch)

    # ------------------------------------------------------------------
    # The control loop
    # ------------------------------------------------------------------

    def _observe(self, core, now: int) -> EpochObservation:
        cur = CounterBank.capture(core, cycles=now)
        delta = cur.delta(self._prev_bank)
        self._prev_bank = cur
        span = max(delta.cycles, 1)
        retired = delta["PM_INST_CMPL"]
        owned = delta["PM_SLOT_GRANT"]
        reps = [0, 0]
        rep_cycles = [0.0, 0.0]
        rep_ends = [0, 0]
        for tid in (0, 1):
            th = core._threads[tid]
            ends = th.rep_end_times
            reps[tid] = len(ends)
            if ends:
                rep_ends[tid] = ends[-1]
                k = len(ends) - 1
                if k < len(th.rep_start_times):
                    rep_cycles[tid] = float(ends[k]
                                            - th.rep_start_times[k])
        return EpochObservation(
            epoch=self._epoch,
            cycle=now,
            priorities=core.priorities,
            ipc=(retired[0] / span, retired[1] / span),
            retired=retired,
            slot_share=(owned[0] / span, owned[1] / span),
            reps=(reps[0], reps[1]),
            rep_cycles=(rep_cycles[0], rep_cycles[1]),
            rep_ends=(rep_ends[0], rep_ends[1]),
            bank=delta)

    def _on_epoch(self, core, now: int) -> None:
        obs = self._observe(core, now)
        target, reason = self.policy.decide(obs)
        applied = False
        after = obs.priorities
        if target is not None:
            clamp = self.config.clamp
            target = (clamp(target[0]), clamp(target[1]))
            if target != obs.priorities:
                self._actuate(target, obs.priorities)
                after = target
                applied = True
        self.decisions.append(GovernorDecision(
            epoch=self._epoch, cycle=now, ipc=obs.ipc,
            before=obs.priorities, after=after, reason=reason,
            applied=applied))
        self._epoch += 1

    def _actuate(self, target: tuple[int, int],
                 current: tuple[int, int]) -> None:
        """Write the changed priorities through the kernel's sysfs."""
        for tid in (0, 1):
            if target[tid] != current[tid]:
                self.kernel.sysfs.write(
                    f"{self.kernel.SYSFS_DIR}/thread{tid}",
                    str(target[tid]))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def decision_log(self) -> tuple[GovernorDecision, ...]:
        """Every per-epoch decision, frozen, in time order."""
        return tuple(self.decisions)

    @property
    def applied_changes(self) -> int:
        """Number of epochs in which priorities actually changed."""
        return sum(1 for d in self.decisions if d.applied)

    @property
    def final_priorities(self) -> tuple[int, int]:
        """The assignment in force after the last decision."""
        for d in reversed(self.decisions):
            return d.after
        if self._initial_priorities is not None:
            return self._initial_priorities
        raise RuntimeError("governor was never attached")
