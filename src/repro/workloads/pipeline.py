"""The FFT -> LU software pipeline of paper section 5.4 (Table 4).

One thread repeatedly produces FFT results; the sibling consumes each
result on the *next* iteration by applying LU over parts of the
output.  Iteration ``k`` of the consumer may therefore only start once
iteration ``k`` of the producer has completed, and the producer is
held back by a bounded buffer so it cannot run unboundedly ahead.
Per-iteration execution time is the time of the longest stage -- the
quantity the paper improves by prioritizing the FFT.  Both rules are
repetition leads of the core (``SMTCore.load``'s ``rep_lead``): the
producer leads by the buffer depth, the consumer by 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import POWER5, CoreConfig
from repro.core import make_core
from repro.isa.trace import TraceSource
from repro.workloads.fft import FFTTraceProgram
from repro.workloads.lu import LUTraceProgram


@dataclass(frozen=True)
class PipelineResult:
    """Steady-state timing of a pipeline run (cycles)."""

    priorities: tuple[int, int]
    producer_rep_cycles: float
    consumer_rep_cycles: float
    iteration_cycles: float
    iterations_measured: int
    total_cycles: int
    #: When a governor drove the run: the assignment in force at the
    #: end and its per-epoch decision log (``priorities`` above is the
    #: *initial* assignment).
    final_priorities: tuple[int, int] | None = None
    decisions: tuple = ()

    def seconds(self, config: CoreConfig) -> tuple[float, float, float]:
        """(producer, consumer, iteration) times in nominal seconds."""
        return (config.seconds(self.producer_rep_cycles),
                config.seconds(self.consumer_rep_cycles),
                config.seconds(self.iteration_cycles))


class SoftwarePipeline:
    """Runs a producer/consumer pair with pipeline gating.

    Every :meth:`run` reloads one core, built on first use, so its
    kernel bindings carry over from run to run.
    """

    def __init__(self, producer: TraceSource | None = None,
                 consumer: TraceSource | None = None,
                 config: CoreConfig | None = None,
                 buffer_depth: int = 2):
        self.config = config or POWER5.small()
        self.producer = producer or FFTTraceProgram(128, self.config)
        self.consumer = consumer or LUTraceProgram(
            7, self.config, base_address=1 << 26)
        if buffer_depth < 1:
            raise ValueError("buffer_depth must be >= 1")
        self.buffer_depth = buffer_depth
        self._core = None

    def run(self, priorities: tuple[int, int] = (4, 4),
            iterations: int = 10, warmup: int = 2,
            max_cycles: int = 10_000_000,
            governor=None) -> PipelineResult:
        """Measure steady-state per-iteration time at ``priorities``.

        With a :class:`repro.governor.Governor`, ``priorities`` is the
        initial assignment and the governor retunes it per epoch
        (:class:`repro.governor.PipelinePolicy` is the policy built
        for this workload: it boosts whichever stage lags).
        """
        if iterations <= warmup:
            raise ValueError("need more iterations than warmup")
        core = self._core
        if core is None:
            core = self._core = make_core(self.config)
        # Consumer iteration k needs producer iteration k done; the
        # producer may run ``buffer_depth`` iterations ahead.
        core.load([self.producer, self.consumer], priorities,
                  rep_lead=(self.buffer_depth, 0))
        if governor is not None:
            governor.attach(core)
        while (core.thread(1).completed_repetitions < iterations
               and core.cycle < max_cycles):
            core.step(4096)
        # The reused core must not keep the governor alive until the
        # next run reloads it.
        core.clear_hooks()

        cons = core.thread(1).rep_end_times
        prod = core.thread(0).rep_end_times
        measured = min(iterations, len(cons))
        if measured <= warmup:
            raise RuntimeError("pipeline did not reach steady state "
                               f"within {max_cycles} cycles")
        span = cons[measured - 1] - cons[warmup - 1]
        iteration = span / (measured - warmup)
        prod_avg = _steady_average(prod, warmup, measured)
        # Consumer busy time: completion minus the cycle its input was
        # ready and decode actually began (excludes lead-wait).
        starts = core.thread(1).rep_start_times
        busy = [e - s for s, e in zip(starts[warmup:measured],
                                      cons[warmup:measured])]
        cons_avg = sum(busy) / len(busy) if busy else float("inf")
        return PipelineResult(
            priorities=priorities,
            producer_rep_cycles=prod_avg,
            consumer_rep_cycles=cons_avg,
            iteration_cycles=iteration,
            iterations_measured=measured - warmup,
            total_cycles=core.cycle,
            final_priorities=(governor.final_priorities
                              if governor is not None else None),
            decisions=(governor.decision_log()
                       if governor is not None else ()),
        )

    def single_thread_times(self) -> tuple[float, float]:
        """ST execution time (cycles) of one FFT and one LU repetition.

        The paper's baseline: with one hardware thread, each pipeline
        iteration costs FFT-time + LU-time.
        """
        from repro.fame import FameRunner
        runner = FameRunner(self.config, min_repetitions=3)
        fft = runner.run_single(self.producer)
        lu = runner.run_single(self.consumer)
        return (fft.thread(0).avg_repetition_cycles,
                lu.thread(0).avg_repetition_cycles)


def _steady_average(rep_ends: list[int] | tuple[int, ...],
                    warmup: int, upto: int) -> float:
    """Average inter-completion gap over the steady-state window."""
    usable = list(rep_ends)[:upto]
    if len(usable) <= warmup:
        return float("inf")
    return (usable[-1] - usable[warmup - 1]) / (len(usable) - warmup)
