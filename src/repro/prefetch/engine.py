"""The per-thread stream/stride prefetch engine.

:class:`StreamPrefetcher` lives inside
:class:`repro.memory.MemoryHierarchy` and acts between the L1D and the
lower levels: every demand L1 miss of an enabled thread trains a
stride-N detector over miss *line* addresses (L2-line granularity --
prefetched data fills into the L2, see DESIGN.md), and a confirmed
stream issues up to ``degree`` fills running up to ``depth`` lines
ahead of the demand pointer.  Fills are real memory traffic: each one
reserves a shared LMQ slot, crosses the chip's shared fabric/memory
channels when the core is chip-attached, and serializes over the DRAM
bus -- so an aggressive prefetcher visibly steals bandwidth from the
sibling thread, which is exactly the priority-interaction axis the
``prefetch`` experiment characterizes.

The engine is strictly *miss-triggered*: it only runs on the L1-miss
path of ``MemoryHierarchy.load_complete``, never on its own cycle.
L1D hits resolve inside the array engine's compiled kernels; every L1
miss still enters ``load_complete``, so the miss-triggered prefetcher
is unchanged and its behaviour -- timing and all five ``PM_PREF_*``
counters -- is bit-identical across engines by construction.

In-flight fills live in a per-thread ``{line: ready_cycle}`` map
rather than being installed into the L2 tags at issue time: a demand
miss that finds its line in flight completes as an L2-latency access
no earlier than the fill's ready time (fully hidden -> PM_LD_PREF_HIT,
partially hidden -> PM_PREF_LATE) and installs the line into the L2 at
that point.  Unconsumed fills past the buffer capacity are dropped
oldest-first and counted as PM_PREF_USELESS, as is a fill whose target
already sits in the L2/L3 -- the useless/late split is the signal the
``prefetch_adapt`` governor policy steers by.

Run-time control mirrors the priority interface: the patched kernel
registers ``/sys/kernel/smt_prefetch/thread<T>/{enable,depth,degree}``
files that call :meth:`set_enable`/:meth:`set_depth`/:meth:`set_degree`.
"""

from __future__ import annotations

from repro.prefetch.config import (
    MAX_DEGREE,
    MAX_DEPTH,
    PrefetchConfig,
)

#: In-flight fills held per thread before the oldest is dropped (and
#: counted useless).  Sized generously above depth x streams so drops
#: only happen when a stream was abandoned, not in steady state.
INFLIGHT_CAP = 64


class PrefetchStats:
    """Monotone per-thread counters behind the ``PM_PREF_*`` events."""

    __slots__ = ("allocs", "issues", "hits", "useless", "late")

    def __init__(self) -> None:
        self.allocs = [0, 0]
        self.issues = [0, 0]
        self.hits = [0, 0]
        self.useless = [0, 0]
        self.late = [0, 0]

    def reset(self) -> None:
        for pair in (self.allocs, self.issues, self.hits, self.useless,
                     self.late):
            pair[0] = pair[1] = 0


class StreamPrefetcher:
    """Software-controlled stream/stride prefetcher of one core."""

    __slots__ = ("config", "stats", "on", "depth", "degree",
                 "_streams", "_inflight", "_prev", "_matches",
                 "_nstreams", "_line_bytes", "_mem_duration")

    def __init__(self, config: PrefetchConfig, line_bytes: int,
                 mem_duration: int):
        self.config = config
        self.stats = PrefetchStats()
        # Hot-path geometry/latency constants.
        self._line_bytes = line_bytes
        self._mem_duration = mem_duration
        self._matches = config.stride_matches
        self._nstreams = config.streams
        # Run-time knobs (sysfs-tunable), initialised from the config
        # by reset() below.
        self.on = [False, False]
        self.depth = [config.depth, config.depth]
        self.degree = [config.degree, config.degree]
        self.reset()

    def reset(self) -> None:
        """Restore config knobs and clear all state and statistics."""
        cfg = self.config
        self.on = [cfg.enabled[0], cfg.enabled[1]]
        self.depth = [cfg.depth, cfg.depth]
        self.degree = [cfg.degree, cfg.degree]
        # Stream table entries are [last_line, stride, count, next_pf].
        self._streams: list[list[list[int]]] = [[], []]
        self._inflight: list[dict[int, int]] = [{}, {}]
        self._prev = [-1, -1]
        self.stats.reset()

    # -- run-time control (the smt_prefetch sysfs files) ---------------

    def set_enable(self, thread_id: int, value: bool) -> None:
        """Enable/disable one thread's prefetching at run time.

        Disabling kills the engine for that thread: its streams are
        forgotten and its in-flight fills are dropped (each counted
        ``PM_PREF_USELESS`` -- fetched but never consumed).
        """
        value = bool(value)
        if value == self.on[thread_id]:
            return
        self.on[thread_id] = value
        if not value:
            self._streams[thread_id] = []
            self._prev[thread_id] = -1
            dropped = len(self._inflight[thread_id])
            if dropped:
                self.stats.useless[thread_id] += dropped
                self._inflight[thread_id] = {}

    def set_depth(self, thread_id: int, depth: int) -> None:
        """Retune one thread's stream lookahead (1..MAX_DEPTH lines)."""
        if not 1 <= depth <= MAX_DEPTH:
            raise ValueError(
                f"prefetch depth must be in 1..{MAX_DEPTH}, got {depth}")
        self.depth[thread_id] = depth

    def set_degree(self, thread_id: int, degree: int) -> None:
        """Retune one thread's fills-per-trigger (1..MAX_DEGREE)."""
        if not 1 <= degree <= MAX_DEGREE:
            raise ValueError(
                f"prefetch degree must be in 1..{MAX_DEGREE}, "
                f"got {degree}")
        self.degree[thread_id] = degree

    # -- the demand-side hooks (called by MemoryHierarchy) -------------

    def consume(self, addr: int, thread_id: int) -> int:
        """Ready time of an in-flight fill covering ``addr``, or -1.

        A hit pops the fill: the caller services the load as an
        L2-latency access completing no earlier than the returned
        cycle, installs the line into the L2, and classifies the
        outcome (fully hidden vs late) against its own schedule via
        :meth:`account`.
        """
        inflight = self._inflight[thread_id]
        if not inflight:
            return -1
        return inflight.pop(addr // self._line_bytes, -1)

    def account(self, thread_id: int, late: bool) -> None:
        """Record the outcome of one consumed fill."""
        if late:
            self.stats.late[thread_id] += 1
        else:
            self.stats.hits[thread_id] += 1

    def observe(self, hier, addr: int, want: int, now: int,
                thread_id: int) -> None:
        """Train on one demand L1 miss; issue fills when confirmed.

        ``want`` is the demand access's post-TLB issue time -- fills
        triggered by this miss queue behind it.
        """
        line = addr // self._line_bytes
        prev = self._prev[thread_id]
        if line == prev:
            return  # same-line re-miss (TLB replay): no signal
        self._prev[thread_id] = line
        streams = self._streams[thread_id]
        for entry in streams:
            if entry[0] + entry[1] == line:
                # The stream predicted this miss: advance and run.
                # The confidence count saturates at the confirmation
                # threshold -- only the >= comparison below ever reads
                # it, and a bounded count keeps the stream table a
                # function of the miss pattern, not of run length.
                entry[0] = line
                if entry[2] < self._matches:
                    entry[2] += 1
                if entry[2] >= self._matches:
                    self._run(hier, entry, line, want, now, thread_id)
                return
            if entry[0] == line:
                return  # re-miss on a stream head: no retrain
        if prev < 0:
            return
        stride = line - prev
        if stride == 0:
            return
        entry = [line, stride, 1, line + stride]
        if len(streams) < self._nstreams:
            streams.append(entry)
        else:
            # Replace the least-established stream (lowest confidence
            # count; first such slot on ties).  Victim choice is a
            # pure function of table content, so the prefetcher's
            # state stays a function of what it has seen -- a rotating
            # round-robin pointer would add hidden phase state.
            victim = min(range(self._nstreams),
                         key=lambda i: streams[i][2])
            streams[victim] = entry
        self.stats.allocs[thread_id] += 1
        if self._matches <= 1:
            self._run(hier, entry, line, want, now, thread_id)

    # -- fill issue ----------------------------------------------------

    def _run(self, hier, entry, line: int, want: int, now: int,
             thread_id: int) -> None:
        """Issue up to ``degree`` fills, up to ``depth`` lines ahead."""
        stride = entry[1]
        limit = line + stride * self.depth[thread_id]
        nxt = entry[3]
        # The stream pointer never trails the demand pointer.
        if (nxt - line) * stride <= 0:
            nxt = line + stride
        budget = self.degree[thread_id]
        while budget and (limit - nxt) * stride >= 0:
            self._fetch(hier, nxt, want, now, thread_id)
            budget -= 1
            nxt += stride
        entry[3] = nxt

    def _fetch(self, hier, line: int, want: int, now: int,
               thread_id: int) -> None:
        """One fill: LMQ slot, chip grants, DRAM bus, in-flight entry."""
        inflight = self._inflight[thread_id]
        if line in inflight:
            return  # already in flight: one fill per line
        addr = line * self._line_bytes
        if hier.l2.probe(addr) or hier.l3.probe(addr):
            # Already cached below L1: the fill would only burn
            # bandwidth.  The filter drops it but the wasted issue
            # slot is what PM_PREF_USELESS measures.
            self.stats.useless[thread_id] += 1
            return
        start = hier.lmq.acquire(want, now, thread_id,
                                 self._mem_duration)
        port = hier.chip_port
        if port is not None:
            start = port.l2_grant(start, thread_id)
            start = port.mem_grant(start, thread_id)
        complete = hier.dram.access(start, now, thread_id)
        hier.lmq.fill(complete)
        inflight[line] = complete
        self.stats.issues[thread_id] += 1
        if len(inflight) > INFLIGHT_CAP:
            # Drop the oldest unconsumed fill (deterministic:
            # insertion order), like a hardware prefetch buffer.
            del inflight[next(iter(inflight))]
            self.stats.useless[thread_id] += 1
