"""Opt-in pipeline event tracing.

Attach a :class:`PipelineTracer` to a core to record, per dynamic
instruction, when it was decoded, when it issued and when it
completed.  Useful for debugging workload schedules and for the
examples' timeline rendering.  Tracing is off by default and costs
nothing when detached.

Interaction with the engines: tracing is **exact** on both.  Events
are recorded at decode time, per instruction, which neither a
compiled group kernel can do, so an attached
tracer routes the array engine to the per-cycle loop it inherits from
the object engine.  Both engines therefore execute the identical
sequence of decode cycles with identical machine state, and the
recorded (decode, issue, complete) triples are bit-identical.  The
test-suite asserts this equivalence over microbenchmark pairs and
priority differences (see ``tests/test_tracing_fast_forward.py``).

::

    tracer = PipelineTracer(limit=10_000)
    core.attach_tracer(tracer)
    core.step(200)
    print(tracer.render_timeline(thread_id=0, first=0, count=20))
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean

from repro.isa.instruction import OpClass


@dataclass(frozen=True)
class PipelineEvent:
    """Lifecycle of one dynamic instruction."""

    thread_id: int
    op: OpClass
    decode: int      # cycle the instruction entered a group
    issue: int       # cycle it claimed its functional unit
    complete: int    # cycle its result was ready

    @property
    def issue_delay(self) -> int:
        """Cycles between decode and issue (queue + operand wait)."""
        return self.issue - self.decode

    @property
    def latency(self) -> int:
        """Issue-to-complete latency."""
        return self.complete - self.issue


class PipelineTracer:
    """Bounded recorder of per-instruction pipeline events."""

    def __init__(self, limit: int = 100_000):
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self.limit = limit
        self.events: list[PipelineEvent] = []
        self.dropped = 0

    def record(self, thread_id: int, op: int, decode: int, issue: int,
               complete: int) -> None:
        """Record one instruction (called from the core's decode)."""
        if len(self.events) >= self.limit:
            self.dropped += 1
            return
        self.events.append(PipelineEvent(
            thread_id=thread_id, op=OpClass(op), decode=decode,
            issue=issue, complete=complete))

    def clear(self) -> None:
        """Drop all recorded events."""
        self.events.clear()
        self.dropped = 0

    def thread_events(self, thread_id: int) -> list[PipelineEvent]:
        """Events of one hardware thread, in decode order."""
        return [e for e in self.events if e.thread_id == thread_id]

    def latency_by_class(self) -> dict[OpClass, float]:
        """Mean issue-to-complete latency per operation class."""
        buckets: dict[OpClass, list[int]] = {}
        for e in self.events:
            buckets.setdefault(e.op, []).append(e.latency)
        return {op: mean(vals) for op, vals in buckets.items()}

    def render_timeline(self, thread_id: int = 0, first: int = 0,
                        count: int = 32, width: int = 64) -> str:
        """Text pipeline diagram: D = decode, = wait, X = execute.

        One row per instruction; the horizontal axis is cycles from
        the first shown instruction's decode.
        """
        events = self.thread_events(thread_id)[first:first + count]
        if not events:
            return "(no events)"
        origin = events[0].decode
        lines = [f"thread {thread_id}, cycles from {origin}:"]
        for i, e in enumerate(events):
            d = e.decode - origin
            s = e.issue - origin
            c = e.complete - origin
            if d >= width:
                lines.append(f"{i + first:>5} {e.op.name:<8} "
                             f"(off scale: decode at +{d})")
                continue
            c = min(c, width - 1)
            s = min(s, c)
            row = [" "] * width
            for x in range(d, s):
                row[x] = "="
            for x in range(s, c):
                row[x] = "X"
            row[d] = "D"
            lines.append(f"{i + first:>5} {e.op.name:<8} {''.join(row)}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.events)
