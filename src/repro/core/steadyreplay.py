"""Exact steady-state replay telescoping for the array engine.

The simulator is deterministic and autonomous between ``step`` calls:
once the machine state at cycle ``t + P`` equals the state at ``t`` in
every respect that can influence the future *relative to the current
cycle*, the whole future repeats with period ``P`` -- the same slots
decode the same groups, the same misses queue at the same offsets, the
same windows trigger the same balancer actions.  Replaying those
periods one cycle at a time only re-derives known numbers, so the
array engine telescopes them: detect a candidate period from the
repetition-completion pattern, verify it by densely simulating one
more period and comparing an exhaustive relative-state signature, then
jump whole periods at once by adding the verified per-period counter
deltas and time-shifting every future-dated record.

Exactness contract (enforced by the engine differential tests): a jump
of ``k`` periods leaves the core in a state *bit-identical* -- every
counter, every repetition record, every cache line, every queued miss
-- to the state dense simulation would have reached, for every
observable the simulator exposes.  There is no extrapolation slack:
the signature covers the complete mutable state expressed relative to
``now`` (trace positions, scoreboards, in-flight groups, unit-pool
reservations, LMQ intervals, DRAM bus slots, cache/TLB tag order and
recency order, branch-predictor tables, balancer phase), so signature
equality at ``t`` and ``t + P`` implies the two states are related by
a pure time translation, and the jump applies exactly that
translation.

Three state classes get three treatments:

- *monotone counters* (retired, slot accounting, hit/miss statistics,
  ...) advance by ``k`` times their verified per-period delta;
- *future-dated records* (group completions, scoreboard entries,
  unit-pool reservations, LMQ/DRAM intervals, the balancer window
  boundary) shift by ``k * P``;
- *recency state* (cache/TLB stamps) is left untouched: lookups only
  compare stamps within a set, post-jump stamps exceed all resident
  ones just as they would after dense replay, and the signature pins
  the resident relative order, so every future hit/miss/eviction
  decision is unchanged.

Instrumented and chip-attached runs telescope too, under three extra
fences (dense fallback remains for the tracer and repetition gates,
whose per-cycle observations no jump can reproduce):

- *periodic hooks* fire at exact cycles because dense spans already
  fold ``_next_hook`` into their deadline and :meth:`SteadyReplay.run`
  clamps every jump at the next pending fire time -- a jump never
  crosses a hook firing, and a due hook is discharged by one dense
  cycle.  Hooks themselves are free to perturb the machine: a hook
  registered as an *observer* (PMU samplers, governors, stock-kernel
  timer ticks) promises its mutations, if any, land in the priority
  interface or the prefetch knobs, both of which already void a
  verified regime (arbiter identity, ``knob_gen``); any non-observer
  hook firing bumps ``SMTCore._hook_mut_gen``, which voids the regime
  the same way.
- *chip-attached cores* (``hierarchy.chip_port`` set) only earn a
  verified regime when the verification period made **zero** shared-
  bus grants: the bus is stateless occupancy booking, so a core whose
  period never touches it is autonomous for as long as the regime
  holds, and jumps are sound by induction.  A period that does touch
  the bus fails verification and backs off like any signature
  mismatch.
- *jump length* is clamped to the largest ``k`` whose landing
  repetition still decodes the verified trace object (halving on
  mismatch), so a bounded source ending mid-horizon degrades to
  shorter jumps before falling back to dense.

A failed verification just resumes dense simulation -- detection is
pure overhead bounded by one signature comparison per retry, and the
densely simulated verification cycles count toward the run anyway.
"""

from __future__ import annotations

from math import gcd

#: Monotone per-thread counters extrapolated across jumped periods.
#: ``rep_index`` and the window snapshots ride along: their per-period
#: deltas are verified like any counter and their relations to the
#: phase state (snapshot-vs-current differences, in-flight group
#: repetition tags) are pinned by the signature.
_THREAD_COUNTERS = (
    "owned_slots", "wasted_slots", "slots_lost_gct", "slots_lost_stall",
    "slots_lost_balancer", "slots_lost_throttle", "slots_lost_other",
    "decoded", "retired", "groups_dispatched", "mispredicts", "flushes",
    "flushed_instructions", "operand_wait_cycles", "fu_wait_cycles",
    "priority_changes", "rep_index", "window_l2_misses", "window_retired",
)

_BALANCER_STATS = ("stall_events", "stall_cycles", "flush_events",
                   "flushed_groups", "throttle_windows")

#: Longest repetition-delta block searched for a repeating pattern.
#: Joint SMT regimes cycle through many repetition lengths before the
#: pair realigns (cpu_int + ldint_l2 repeats every 49 primary
#: repetitions: 94,848 cycles, exactly 304 secondary repetitions).
_MAX_BLOCK = 64

#: Candidate periods above this are not worth verifying: the horizon
#: needed to amortize them exceeds any practical measurement.
_MAX_PERIOD = 1 << 22

#: Dense cycles between detection probes while no candidate exists.
_PROBE = 4096

_IDLE, _VERIFYING, _VERIFIED = 0, 1, 2


def _counter_slots(core):
    """Every monotone counter as a (container, key) slot list.

    ``key`` is an attribute name or a list index; the same slot list
    drives snapshotting, delta computation and the jump update, so the
    three can never disagree about coverage.
    """
    slots = []
    for th in core._threads:
        if th is not None:
            slots += [(th, f) for f in _THREAD_COUNTERS]
    for pool in core.fus.pools():
        slots += [(pool, "issues"), (pool, "total_wait"),
                  (pool.thread_issues, 0), (pool.thread_issues, 1)]
    hier = core.hierarchy
    for counts in hier.level_counts.values():
        slots += [(counts, 0), (counts, 1)]
    slots += [(hier.store_counts, 0), (hier.store_counts, 1)]
    lmq = hier.lmq
    slots += [(lmq, "acquisitions"), (lmq, "total_wait_cycles"),
              (lmq.thread_acquisitions, 0), (lmq.thread_acquisitions, 1),
              (lmq.thread_wait_cycles, 0), (lmq.thread_wait_cycles, 1)]
    dram = hier.dram
    slots += [(dram, "accesses"), (dram, "total_queue_cycles"),
              (dram.thread_accesses, 0), (dram.thread_accesses, 1),
              (dram.thread_queue_cycles, 0), (dram.thread_queue_cycles, 1)]
    for unit in (hier.tlb, hier.l1d, hier.l2, hier.l3):
        st = unit.stats
        slots += [(st, "hits"), (st, "misses"),
                  (st.thread_hits, 0), (st.thread_hits, 1),
                  (st.thread_misses, 0), (st.thread_misses, 1)]
    bht = core.bht
    slots += [(bht, "predictions"), (bht, "mispredictions"),
              (bht.thread_predictions, 0), (bht.thread_predictions, 1),
              (bht.thread_mispredictions, 0), (bht.thread_mispredictions, 1)]
    for name in _BALANCER_STATS:
        pair = getattr(core.balancer.stats, name)
        slots += [(pair, 0), (pair, 1)]
    pstats = hier.prefetcher.stats
    for pair in (pstats.allocs, pstats.issues, pstats.hits,
                 pstats.useless, pstats.late):
        slots += [(pair, 0), (pair, 1)]
    return slots


def _read(slots):
    return [getattr(c, k) if type(k) is str else c[k] for c, k in slots]


def _apply(slots, deltas, k):
    for (c, key), d in zip(slots, deltas):
        if d:
            if type(key) is str:
                setattr(c, key, getattr(c, key) + k * d)
            else:
                c[key] += k * d


def _recency_sig(sets):
    """Canonical (tags, recency order) form of one cache/TLB level.

    Lookups compare stamps only within a set, so two states behave
    identically iff each set holds the same tags in the same dict
    order with the same stamp ranking -- eviction picks the minimum
    stamp with dict-order tie-break, which this form pins exactly
    while staying invariant to the absolute stamp values.
    """
    out = []
    for s in sets:
        if s:
            vals = list(s.values())
            out.append((tuple(s), tuple(sorted(range(len(vals)),
                                               key=vals.__getitem__))))
        else:
            out.append(())
    return tuple(out)


def _signature(core, tab_len, thr_interval, bal_on):
    """Complete mutable state relative to the current cycle.

    Equality of two signatures taken ``P`` cycles apart proves the
    states are time-translates of each other: every field is either
    phase state expressed relative to ``now`` (with past timestamps
    clamped -- anything at or before ``now`` acts as "ready") or a
    difference of two monotone counters whose relation feeds future
    decisions (balancer window snapshots versus current values).
    """
    now = core._cycle
    hier = core.hierarchy
    bal = core.balancer
    parts = [now % tab_len,
             core.priorities,
             core.honor_priority_nops,
             core._gct_used,
             bal.next_window - now if bal_on else -1]
    for tid, th in enumerate(core._threads):
        if th is None:
            parts.append(None)
            continue
        rep_obj = getattr(th, "_rep_obj", None)
        parts.append((
            th.pos, th.finished, th.gated, th.balancer_stalled,
            th.throttled, th.gct_held,
            max(th.stall_until - now, 0),
            0 if rep_obj is None else id(rep_obj),
            th.owned_slots % thr_interval if bal_on else -1,
            hier.l2_miss_count(tid) - th.window_l2_misses if bal_on else -1,
            th.retired - th.window_retired if bal_on else -1,
            tuple(r - now if r > now else 0 for r in th.reg_ready),
            tuple((g[0] - now, g[1], g[2], g[3], g[4] - th.rep_index)
                  for g in th.inflight),
        ))
    for pool in core.fus.pools():
        parts.append(tuple(sorted(
            (t - now, v) for t, v in pool._occupied.items() if t >= now)))
    parts.append(tuple((e - now, s - now)
                       for e, s in hier.lmq._intervals))
    dram = hier.dram
    horizon = now - dram.config.dram_bus_gap
    parts.append(tuple(s - now for s in dram._starts if s > horizon))
    pf = hier.prefetcher
    # Prefetcher phase state.  Stream entries and miss lines are
    # absolute but periodic (looping working sets revisit the same
    # lines); in-flight fill ready times are future-dated and clamped
    # like scoreboard entries -- any past ready behaves as "arrived"
    # (a consuming demand always completes after ``now``), and the
    # tuple order pins the insertion order the capacity eviction
    # walks.  The live knobs ride along even though every knob write
    # also voids the regime through ``knob_gen``.
    parts.append((tuple(pf.on), tuple(pf.depth), tuple(pf.degree)))
    for tid in (0, 1):
        parts.append((
            tuple(tuple(e) for e in pf._streams[tid]),
            tuple((ln, r - now if r > now else 0)
                  for ln, r in pf._inflight[tid].items()),
            pf._prev[tid],
        ))
    parts.append(_recency_sig(hier.tlb._sets))
    parts.append(_recency_sig(hier.l1d._sets))
    parts.append(_recency_sig(hier.l2._sets))
    parts.append(_recency_sig(hier.l3._sets))
    parts.append(bytes(core.bht._table))
    return parts


def _block(ends):
    """Smallest repeating tail block of the repetition-length series.

    Returns ``(block_reps, block_cycles)`` when the last ``2 * b``
    repetition deltas form two identical blocks of ``b``, else
    ``(0, 0)``.  One block is the thread's contribution to the period.
    """
    n = len(ends)
    if n < 4:
        return 0, 0
    tail = ends[-(3 * _MAX_BLOCK + 1):]
    d = [b - a for a, b in zip(tail, tail[1:])]
    m = len(d)
    for b in range(1, _MAX_BLOCK + 1):
        # Three consecutive occurrences: two would accept transient
        # coincidences whose inflated alignment lcm then wastes the
        # whole verification budget on a hopeless candidate.
        if (m >= 3 * b and d[-b:] == d[-2 * b:-b]
                and d[-2 * b:-b] == d[-3 * b:-2 * b]):
            total = sum(d[-b:])
            return (b, total) if total > 0 else (0, 0)
    return 0, 0


def _cycle_index(rel, phase):
    """Last index of ``phase`` in one period's event-phase pattern."""
    for i in range(len(rel) - 1, -1, -1):
        if rel[i] == phase:
            return i
    return -1


class SteadyReplay:
    """Per-load telescoping driver owned by one ``ArraySMTCore``.

    The engine's ``step`` hands uninstrumented runs to :meth:`run`,
    which advances the core to the target cycle through a mix of dense
    ``_step_dense`` spans and verified whole-period jumps.  All state
    is per-workload; ``SMTCore.load`` builds a fresh instance.
    """

    __slots__ = ("core", "disabled", "state", "period", "anchor", "arb",
                 "pf_gen", "hook_gen", "port_base", "port_quiet",
                 "slots", "sig1", "snap", "lens", "base",
                 "deltas", "suffix", "tab_len", "thr_interval", "bal_on",
                 "jumps", "jumped_cycles", "_retry_at", "_fails")

    def __init__(self, core):
        self.core = core
        self.disabled = False
        self.state = _IDLE
        self.period = 0
        self.anchor = 0
        self.arb = None
        self.pf_gen = -1
        self.hook_gen = -1
        # Chip-port grant counts at _begin; a verified regime under a
        # chip port requires a zero delta (bus-quiet period).
        self.port_base = None
        self.port_quiet = False
        self.slots = _counter_slots(core)
        self.sig1 = None
        self.snap = None
        self.lens = None
        self.base = None
        self.deltas = None
        self.suffix = None
        self.tab_len = 1
        self.thr_interval = 1
        t0, t1 = core._threads
        bal_cfg = core.balancer.config
        self.bal_on = (bal_cfg.enabled
                       and t0 is not None and t1 is not None)
        self.jumps = 0
        self.jumped_cycles = 0
        self._retry_at = 0
        self._fails = 0

    # -- driver ---------------------------------------------------------

    def run(self, end: int) -> None:
        """Advance the core from its current cycle to ``end``."""
        core = self.core
        dense = core._step_dense
        while core._cycle < end:
            now = core._cycle
            if self.state != _IDLE and (
                    core._arbiter is not self.arb
                    or core.hierarchy.prefetcher.knob_gen != self.pf_gen
                    or core._hook_mut_gen != self.hook_gen):
                # Priorities changed (sysfs write, priority nop), a
                # prefetch knob was retuned, or a non-observer hook
                # fired: the behaviour the regime was verified against
                # is gone, so the regime is void.
                self.state = _IDLE
                self.sig1 = self.deltas = self.suffix = None
                self.port_quiet = False
                continue
            if self.disabled:
                dense(end - now)
                return
            if self.state == _VERIFIED:
                # Never jump across a pending hook: dense spans fire
                # hooks at their exact cycle (the dense loop folds
                # _next_hook into its deadline), so clamping the
                # telescoped horizon at the next fire time preserves
                # exact firing.  A hook due *now* is discharged by one
                # dense cycle (whose hook block also reloads state and
                # revalidates dispatch tables); if it retuned anything,
                # the void check above catches it next iteration.
                nh = core._next_hook
                if 0 <= nh <= now:
                    dense(1)
                    continue
                limit = end if nh < 0 or nh >= end else nh
                k = (limit - now) // self.period
                if k > 0 and self._jump(k):
                    continue
                dense(limit - now)
            elif self.state == _VERIFYING:
                target = self.anchor + self.period
                dense(min(end, target) - now)
                if core._cycle >= target:
                    self._check()
            else:
                p = self._detect()
                if p:
                    self._begin(p)
                else:
                    dense(min(end - now, _PROBE))

    # -- detection ------------------------------------------------------

    def _lead(self) -> int:
        return sum(len(th.rep_end_times) for th in self.core._threads
                   if th is not None)

    def _detect(self) -> int:
        core = self.core
        tab_len = core._array_locals()[2]
        self.tab_len = tab_len
        period = tab_len
        live = 0
        for th in core._threads:
            if th is None or th.finished:
                continue
            live += 1
            _, cycles = _block(th.rep_end_times)
            if not cycles:
                return 0
            period = period * cycles // gcd(period, cycles)
        if not live or self._lead() < self._retry_at:
            return 0
        if self.bal_on:
            # Window sampling must land at the same period phase.
            w = core.balancer.config.window_cycles
            period = period * w // gcd(period, w)
        if period > _MAX_PERIOD:
            return 0
        return period

    def _begin(self, period: int) -> None:
        core = self.core
        self.period = period
        self.anchor = core._cycle
        self.arb = core._arbiter
        self.pf_gen = core.hierarchy.prefetcher.knob_gen
        self.hook_gen = core._hook_mut_gen
        self.port_base = self._port_grants()
        self.thr_interval = core.balancer.config.throttle_interval
        self.sig1 = _signature(core, self.tab_len, self.thr_interval,
                               self.bal_on)
        self.snap = _read(self.slots)
        self.lens = [(len(th.rep_end_times), len(th.rep_start_times))
                     if th is not None else None
                     for th in core._threads]
        self.base = [(th.retired, th.rep_index)
                     if th is not None else None
                     for th in core._threads]
        self.state = _VERIFYING

    def _port_grants(self):
        """Shared-bus grant counts for this core, or None off-chip."""
        port = self.core.hierarchy.chip_port
        if port is None:
            return None
        cid = port.core_id
        l2, mem = port._l2.grants[cid], port._mem.grants[cid]
        return (l2[0], l2[1], mem[0], mem[1])

    def _check(self) -> None:
        core = self.core
        sig2 = _signature(core, self.tab_len, self.thr_interval,
                          self.bal_on)
        if sig2 != self.sig1 or self._port_grants() != self.port_base:
            # Not steady yet (warmup transient, misaligned throttle
            # phase, aperiodic source) -- or, chip-attached, the period
            # touched the shared bus, so the core is not autonomous and
            # jumping it would skip grants its siblings must contend
            # with.  Back off exponentially: each retry costs one
            # signature comparison.
            self._fails += 1
            self._retry_at = self._lead() + 8 * (1 << min(self._fails, 6))
            self.state = _IDLE
            self.sig1 = self.snap = self.lens = self.base = None
            self.port_quiet = False
            return
        self.port_quiet = self.port_base is not None
        after = _read(self.slots)
        self.deltas = [b - a for a, b in zip(self.snap, after)]
        anchor = self.anchor
        suffix = []
        for th, lens, base in zip(core._threads, self.lens, self.base):
            if th is None:
                suffix.append(None)
                continue
            (n_end, n_start), (ret0, rep0) = lens, base
            suffix.append((
                [e - anchor for e in th.rep_end_times[n_end:]],
                [r - ret0 for r in th.rep_end_retired[n_end:]],
                [s - anchor for s in th.rep_start_times[n_start:]],
                th.rep_index - rep0,
                th.retired - ret0,
            ))
        self.suffix = suffix
        self.sig1 = self.snap = self.lens = self.base = None
        self.state = _VERIFIED

    # -- the jump -------------------------------------------------------

    def _jump(self, k: int) -> bool:
        """Advance up to ``k`` verified periods in one exact translation.

        Jumps are phase-free: signature equality at the anchor proves
        ``state(anchor + t)`` and ``state(anchor + t + P)`` are time-
        translates for every ``t >= 0`` (determinism propagates the
        anchor equality forward cycle by cycle), so a jump may start at
        any phase of the period.  Per-period counter deltas are phase-
        independent (any ``P``-cycle window sums every residue's
        per-cycle increment exactly once) and future-dated records
        translate by ``k * P`` from any phase; the per-repetition logs
        are extended by continuing the verified cyclic per-period
        pattern from the last recorded event.

        ``k`` is clamped by halving to the largest jump whose landing
        repetition still decodes the verified trace object, so a
        bounded source whose quota ends inside the horizon takes the
        shorter jumps it can still prove; only when not even one
        period fits (the quota ends within the next period) does the
        telescoper disable itself and fall back to dense.
        """
        core = self.core
        threads = core._threads
        now = core._cycle
        period = self.period
        anchor = self.anchor
        # Telescoped repetitions must decode the very trace object the
        # verified period decoded; sources are contractually
        # deterministic in rep_index, so object identity at the
        # landing repetition certifies every one in between.
        while k:
            ok = True
            for th, suf in zip(threads, self.suffix):
                if th is None or suf is None or th.finished or not suf[3]:
                    continue
                try:
                    cur = th.source.repetition(th.rep_index)
                    fut = th.source.repetition(th.rep_index + k * suf[3])
                except Exception:
                    cur = fut = None
                if cur is not th._rep_obj or fut is not th._rep_obj:
                    ok = False
                    break
            if ok:
                break
            k >>= 1
        if not k:
            self.disabled = True
            return False
        # Locate each rep log's position in the cyclic pattern before
        # mutating anything: the last recorded event's phase must be
        # one of the verified per-period phases (scanned from the back
        # so simultaneous rep ends resolve to the final one appended).
        plans = []
        for th, suf in zip(threads, self.suffix):
            if th is None or suf is None:
                plans.append(None)
                continue
            ends_rel, _, starts_rel, _, _ = suf
            idx_e = idx_s = -1
            if ends_rel:
                idx_e = _cycle_index(
                    ends_rel, (th.rep_end_times[-1] - anchor) % period)
            if starts_rel:
                idx_s = _cycle_index(
                    starts_rel, (th.rep_start_times[-1] - anchor) % period)
            if (ends_rel and idx_e < 0) or (starts_rel and idx_s < 0):
                # The log drifted off the verified pattern -- a regime
                # violation the void checks should have caught; refuse
                # to extrapolate and fall back to dense.
                self.disabled = True
                return False
            plans.append((idx_e, idx_s))
        dt = k * period
        for th, suf, plan in zip(threads, self.suffix, plans):
            if th is None or suf is None:
                continue
            ends_rel, rets_rel, starts_rel, drep, dret = suf
            idx_e, idx_s = plan
            n_e = len(ends_rel)
            if n_e:
                ends = th.rep_end_times
                rets = th.rep_end_retired
                t, r = ends[-1], rets[-1]
                wrap_t = period - ends_rel[-1] + ends_rel[0]
                wrap_r = dret - rets_rel[-1] + rets_rel[0]
                i = idx_e
                for _ in range(k * n_e):
                    j = i + 1
                    if j == n_e:
                        t += wrap_t
                        r += wrap_r
                        i = 0
                    else:
                        t += ends_rel[j] - ends_rel[i]
                        r += rets_rel[j] - rets_rel[i]
                        i = j
                    ends.append(t)
                    rets.append(r)
            n_s = len(starts_rel)
            if n_s:
                starts = th.rep_start_times
                t = starts[-1]
                wrap_t = period - starts_rel[-1] + starts_rel[0]
                i = idx_s
                for _ in range(k * n_s):
                    j = i + 1
                    if j == n_s:
                        t += wrap_t
                        i = 0
                    else:
                        t += starts_rel[j] - starts_rel[i]
                        i = j
                    starts.append(t)
            # Future-dated per-thread state.  Scoreboard entries at or
            # before ``now`` all mean "ready" and stay put (the write
            # sink and zero-register sentinels among them); in-flight
            # completions shift wholesale -- overdue ones (retire
            # budget backlog) keep their relative lateness.
            rr = th.reg_ready
            for i, r in enumerate(rr):
                if r > now:
                    rr[i] = r + dt
            if th.stall_until > now:
                th.stall_until += dt
            q = th.inflight
            kd = k * drep
            for _ in range(len(q)):
                g = q.popleft()
                q.append((g[0] + dt, g[1], g[2], g[3], g[4] + kd))
        _apply(self.slots, self.deltas, k)
        for pool in core.fus.pools():
            occ = pool._occupied
            if occ:
                kept = [(t, v) for t, v in occ.items() if t >= now]
                occ.clear()
                for t, v in kept:
                    occ[t + dt] = v
        hier = core.hierarchy
        iv = hier.lmq._intervals
        if iv:
            iv[:] = [(e + dt, s + dt) for e, s in iv]
        dram = hier.dram
        starts = dram._starts
        if starts:
            horizon = now - dram.config.dram_bus_gap
            starts[:] = [s + dt for s in starts if s > horizon]
        for inflight in hier.prefetcher._inflight:
            for line, ready in inflight.items():
                if ready > now:
                    # In-place update preserves the insertion order
                    # the capacity eviction depends on.
                    inflight[line] = ready + dt
        if self.bal_on:
            core.balancer.next_window += dt
        core._cycle = now + dt
        self.jumps += 1
        self.jumped_cycles += dt
        return True
