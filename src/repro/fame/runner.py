"""The FAME workload runner (paper section 4.1, Figure 1).

Runs a one- or two-thread workload on the simulated core until every
thread has completed its minimum number of repetitions *and* its
accumulated IPC satisfies MAIV.  Per Figure 1 of the paper, the faster
thread keeps re-executing while the slower one finishes its quota, and
each thread's metrics are taken over its own complete repetitions only
(the trailing incomplete repetition is discarded -- the core's FAME
accounting does this natively).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

from repro.config import POWER5, CoreConfig
from repro.core import CoreResult, SMTCore, ThreadResult, make_core
from repro.fame.maiv import accumulated_ipc_series, maiv_converged
from repro.isa.trace import TraceSource
from repro.priority.levels import PrivilegeLevel


@dataclass(frozen=True)
class FameResult:
    """A FAME measurement: the core result plus convergence metadata."""

    result: CoreResult
    converged: tuple[bool, ...]
    capped: bool  # True when the cycle budget ended the run

    def thread(self, thread_id: int) -> ThreadResult:
        """Per-thread result (delegates to the core result)."""
        return self.result.thread(thread_id)

    @property
    def total_ipc(self) -> float:
        """Combined throughput (sum of per-thread FAME IPCs)."""
        return self.result.total_ipc

    @property
    def cycles(self) -> int:
        """Total simulated cycles."""
        return self.result.cycles


class FameRunner:
    """Drives :class:`SMTCore` to a FAME-convergent measurement."""

    #: Always False (the steady-state telescoper it reported is gone;
    #: quiet spans are not telescoped jumps); kept for the benchmark's
    #: span tracer, which reads it after every single-thread run.
    last_steady_state = False

    def __init__(self, config: CoreConfig | None = None, *,
                 min_repetitions: int = 4,
                 max_repetitions: int = 64,
                 maiv: float = 0.01,
                 max_cycles: int = 20_000_000,
                 chunk: int = 8192,
                 warmup: int = 1):
        """Create a runner.

        ``min_repetitions`` is the floor the paper sets at 10 for real
        hardware; the simulator is deterministic, so fewer repetitions
        already satisfy MAIV and the default trades nothing but noise
        head-room.  ``warmup`` cold-start repetitions are excluded
        from the reported metrics.  ``max_cycles`` bounds pathological
        runs (a thread starved at priority difference -5 may take
        millions of cycles per repetition).
        """
        if min_repetitions < 1:
            raise ValueError("min_repetitions must be >= 1")
        if warmup < 0:
            raise ValueError("warmup must be >= 0")
        if max_repetitions < min_repetitions:
            raise ValueError("max_repetitions < min_repetitions")
        self.config = config or POWER5.small()
        self.min_repetitions = min_repetitions
        self.max_repetitions = max_repetitions
        self.maiv = maiv
        self.max_cycles = max_cycles
        self.chunk = chunk
        self.warmup = warmup

    def run_pair(self, primary: TraceSource,
                 secondary: TraceSource | None,
                 priorities: tuple[int, int] = (4, 4),
                 privileges: tuple[PrivilegeLevel, PrivilegeLevel] = (
                     PrivilegeLevel.USER, PrivilegeLevel.USER),
                 core: SMTCore | None = None,
                 pmu=None, governor=None) -> FameResult:
        """Measure a (PThread, SThread) pair at fixed priorities.

        ``secondary=None`` measures the primary in single-thread mode.
        A caller may pass a pre-built ``core`` to install hooks (e.g. a
        kernel model's timer interrupts) before the run.  Passing a
        :class:`repro.pmu.Pmu` instruments the run: it is attached
        after :meth:`SMTCore.load` (which clears hooks), receives the
        per-repetition FAME convergence telemetry, and captures the
        final counter bank.  Passing a :class:`repro.governor.Governor`
        closes the loop: ``priorities`` become the *initial* assignment
        and the governor retunes it per epoch; its decision log rides
        on the PMU report when both are given.
        """
        core = core or make_core(self.config)
        core.load([primary, secondary], priorities, privileges)
        if pmu is not None:
            pmu.attach(core)
        if governor is not None:
            governor.attach(core)
        active = [i for i in (0, 1)
                  if (primary, secondary)[i] is not None]
        # The simulation allocates no reference cycles, so the cyclic
        # GC only adds pauses to the hot loop; suspend it for the run.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while core.cycle < self.max_cycles:
                core.step(self.chunk)
                if self._all_converged(core, active):
                    break
        finally:
            if gc_was_enabled:
                gc.enable()
        return self._finish(core, active, pmu=pmu, governor=governor)

    def _finish(self, core: SMTCore, active: list[int],
                pmu=None, governor=None) -> FameResult:
        """Package the core's state as the measurement result."""
        capped = core.cycle >= self.max_cycles
        result = core.result(warmup=self.warmup)
        converged = tuple(
            self._thread_converged(core, tid) for tid in active)
        if pmu is not None:
            self._emit_fame_telemetry(core, active, pmu)
            if governor is not None:
                pmu.set_decisions(governor.decision_log())
            pmu.finish(core)
        return FameResult(result=result, converged=converged, capped=capped)

    def run_single(self, workload: TraceSource,
                   priority: int = 4, pmu=None) -> FameResult:
        """Single-thread-mode measurement (the paper's ST columns)."""
        return self.run_pair(workload, None, priorities=(priority, 0),
                             pmu=pmu)

    @staticmethod
    def _emit_fame_telemetry(core: SMTCore, active: list[int],
                             pmu) -> None:
        """Emit the accumulated-IPC convergence series to the PMU.

        One point per complete repetition; ``maiv_gap`` is the relative
        change MAIV bounds, with the first repetition reporting 1.0
        (unconverged by definition -- and deliberately not NaN, so the
        telemetry participates cleanly in equality assertions).
        """
        for tid in active:
            th = core.thread(tid)
            series = accumulated_ipc_series(th.rep_end_times,
                                            th.rep_end_retired)
            prev: float | None = None
            for rep, (end, acc) in enumerate(
                    zip(th.rep_end_times, series)):
                if prev is None or not acc:
                    gap = 1.0
                else:
                    gap = abs(acc - prev) / acc
                pmu.emit_fame(tid, rep, end, acc, gap)
                prev = acc

    def _thread_converged(self, core: SMTCore, thread_id: int) -> bool:
        th = core.thread(thread_id)
        reps = th.completed_repetitions
        if reps < self.min_repetitions:
            return False
        if reps >= self.max_repetitions:
            return True
        series = accumulated_ipc_series(th.rep_end_times,
                                        th.rep_end_retired)
        return maiv_converged(series, self.maiv)

    def _all_converged(self, core: SMTCore, active: list[int]) -> bool:
        return all(self._thread_converged(core, tid) for tid in active)
