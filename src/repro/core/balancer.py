"""Dynamic hardware resource balancing (paper section 3.1).

POWER5 monitors the shared resources and throttles a thread that is
"potentially blocking the other thread's execution".  Three mechanisms:

- **stall**: stop decoding the offending thread until the congestion
  clears (triggered by GCT over-occupancy);
- **flush**: squash the offending thread's not-yet-dispatched
  instructions and stall its decode (triggered by GCT over-occupancy
  while the thread is itself blocked on a long-latency miss);
- **throttle**: temporarily reduce the offending thread's decode rate
  (triggered by an excessive L2/TLB miss rate in a monitoring window).

One modelling decision interacts with the paper's topic: the balancer
*defers to software-controlled priorities*.  A thread whose software
priority is strictly higher than its sibling's is never treated as an
offender -- otherwise the hardware would undo exactly the imbalance
the software asked for, and the paper's 20-42x starvation results
(Figures 3) could not occur while its balanced (4,4) baselines do.
At equal priorities the balancer is fully active, which is what keeps
the paper's default-priority baseline competitive (section 5.3).

The per-cycle stall checks are inlined in the core's step loop for
speed; this module holds the policy state, the window bookkeeping for
throttling and the flush decision, plus statistics.
"""

from __future__ import annotations

from repro.config import BalancerConfig


class BalancerStats:
    """Counters for each balancing mechanism, per thread."""

    __slots__ = ("stall_events", "stall_cycles", "flush_events",
                 "flushed_groups", "throttle_windows")

    def __init__(self) -> None:
        self.stall_events = [0, 0]
        self.stall_cycles = [0, 0]
        self.flush_events = [0, 0]
        self.flushed_groups = [0, 0]
        self.throttle_windows = [0, 0]

    def reset(self) -> None:
        """Zero all counters."""
        for attr in self.__slots__:
            setattr(self, attr, [0, 0])


class ResourceBalancer:
    """Policy state for the three POWER5 balancing mechanisms."""

    #: A group whose completion lies further than this many cycles in
    #: the future is considered blocked on a long-latency miss (the
    #: flush trigger condition).
    FLUSH_HORIZON = 40

    def __init__(self, config: BalancerConfig):
        self.config = config
        self.stats = BalancerStats()
        # Hysteresis: resume decode a little below the stall threshold.
        self.resume_threshold = max(1, config.gct_stall_threshold - 2)
        self.next_window = config.window_cycles

    def reset(self) -> None:
        """Reset statistics and window state."""
        self.stats.reset()
        self.next_window = self.config.window_cycles

    def state(self) -> tuple:
        """Every statistics list and the next window boundary."""
        stats = self.stats
        return (tuple(tuple(getattr(stats, n)) for n in stats.__slots__),
                self.next_window)

    def is_offender(self, prio_self: int, prio_other: int) -> bool:
        """True when this thread may be balanced against.

        Software prioritization overrides automatic balancing: a thread
        explicitly favoured by software is never throttled back in
        favour of its lower-priority sibling.
        """
        return prio_self <= prio_other

    def should_flush(self, gct_held: int, oldest_completion: int,
                     now: int) -> bool:
        """Flush decision: hogging the GCT while blocked on a miss."""
        return (self.config.flush_enabled
                and gct_held >= self.config.gct_flush_threshold
                and oldest_completion > now + self.FLUSH_HORIZON)

    #: A thread is miss-dominated when its window L2 misses exceed this
    #: fraction of its retired instructions.  Keeps a high-IPC thread
    #: with incidental conflict misses from being throttled.
    MISS_RATE_THRESHOLD = 0.05

    def window_throttle(self, l2_miss_delta: int,
                        retired_delta: int) -> bool:
        """Throttle decision for the next monitoring window.

        Requires both an absolute L2-miss count over the window and a
        miss-dominated instruction stream.
        """
        return (self.config.throttle_enabled
                and l2_miss_delta >= self.config.l2_miss_threshold
                and l2_miss_delta > self.MISS_RATE_THRESHOLD
                * max(1, retired_delta))
