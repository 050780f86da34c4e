"""The cycle-level two-way SMT POWER5 core model.

This is the measurement substrate that replaces the paper's bare-metal
POWER5 (see DESIGN.md).  Per simulated cycle the core:

1. asks the :class:`PrioritySlotArbiter` which thread owns the decode
   slot (Eq. 1 of the paper, plus the special priority-0/1/7 modes);
2. lets the owner decode **one group of up to five instructions**
   (one in the low-power modes) into the shared 20-entry global
   completion table (GCT), scheduling each instruction against the
   register scoreboard, the shared functional-unit pools and the shared
   memory hierarchy;
3. retires up to one completed group per thread in order, freeing GCT
   entries and recording FAME repetition boundaries;
4. runs the dynamic resource balancer (stall / flush / throttle).

Slots are strictly owned: a slot whose owner cannot decode (stalled,
redirecting, GCT full) is wasted, never handed to the sibling -- the
behaviour that makes extreme negative priorities catastrophic.  Only an
owner with no instructions at all (no context, finished, or held at a
repetition boundary by its lead) passes its slot on.

The step loop is written for speed (flat locals, integer op codes,
minimal allocation): full experiment sweeps simulate hundreds of
millions of cycles.

This object engine is the per-cycle reference.  The compiled array
engine (:mod:`repro.core.array_engine`) shares its semantics, steps
cycle by cycle too and credits quiet spans (no group can dispatch,
retire or flush) in closed form; the differential suites assert that
both engines are bit-identical.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.branch import BimodalBHT
from repro.config import CoreConfig
from repro.core.balancer import ResourceBalancer
from repro.core.fu import FunctionalUnits
from repro.core.results import CoreResult, ThreadResult
from repro.core.thread import HardwareThread
from repro.isa.instruction import OpClass
from repro.isa.priority_ops import OR_REGISTER_TO_PRIORITY
from repro.isa.trace import TraceSource
from repro.memory import MemoryHierarchy
from repro.priority import PriorityInterface, PrioritySlotArbiter
from repro.priority.arbiter import ArbiterMode
from repro.priority.levels import PrivilegeLevel

# Integer opcode constants for the hot loop.
_OP_FX = int(OpClass.FX)
_OP_FX_MUL = int(OpClass.FX_MUL)
_OP_FP = int(OpClass.FP)
_OP_LOAD = int(OpClass.LOAD)
_OP_STORE = int(OpClass.STORE)
_OP_BRANCH = int(OpClass.BRANCH)
_OP_NOP = int(OpClass.NOP)
_OP_PRIO = int(OpClass.PRIO_NOP)

#: The lead of a thread that ``load`` was given no lead for: larger
#: than any repetition index, so its gate never closes.
_UNGATED = 1 << 62


class SMTCore:
    """Trace-driven cycle-level model of one POWER5 core (2 SMT threads)."""

    def __init__(self, config: CoreConfig | None = None):
        self.config = config or CoreConfig()
        self.hierarchy = MemoryHierarchy(self.config)
        self.bht = BimodalBHT(self.config.branch)
        self.fus = FunctionalUnits(self.config)
        self.balancer = ResourceBalancer(self.config.balancer)
        self.interface = PriorityInterface()
        self.honor_priority_nops = True
        self._threads: list[HardwareThread | None] = [None, None]
        self._arbiter = PrioritySlotArbiter(
            4, 4, self.config.low_power_decode_interval)
        self._cycle = 0
        self._gct_used = 0
        # Repetition leads (``load``'s ``rep_lead``; _UNGATED: none).
        self._leads = (_UNGATED, _UNGATED)
        # Periodic hooks: [period, next_fire, callable(core, now)].
        self._hooks: list[list] = []
        # Earliest pending hook fire time (-1: no hooks).  Maintained
        # on registration and after every firing so hooks registered
        # mid-step (e.g. from another hook) are never silently skipped.
        self._next_hook = -1
        # Optional pipeline tracer (see repro.core.tracing); None costs
        # one comparison per decoded group.
        self._tracer = None
        # Hot-loop constants and bound callables.  The config is frozen
        # and every component resets in place (object identity is
        # stable), so these can be hoisted once per core.
        cfg = self.config
        self._dec_consts = (
            cfg.break_group_on_long_dep,
            cfg.branch_ends_group, cfg.decode_to_issue, cfg.fx_latency,
            cfg.fx_mul_latency, cfg.fp_latency, cfg.branch_latency,
            cfg.branch.mispredict_penalty, cfg.gct_groups,
            cfg.balancer.throttle_interval)
        self._fxu_pool = self.fus.fxu
        self._lsu_pool = self.fus.lsu
        self._fpu_pool = self.fus.fpu
        self._bxu_issue = self.fus.bxu.issue
        self._hier_load = self.hierarchy.load_complete
        self._hier_store = self.hierarchy.store

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def load(self,
             sources: Sequence[TraceSource | None],
             priorities: tuple[int, int] = (4, 4),
             privileges: tuple[PrivilegeLevel, PrivilegeLevel] = (
                 PrivilegeLevel.USER, PrivilegeLevel.USER),
             rep_lead: Sequence[int | None] | None = None) -> None:
        """Reset the core and install workloads.

        ``sources`` holds one TraceSource per hardware thread; ``None``
        leaves that context empty (the machine behaves as in ST mode
        for arbitration purposes).  ``priorities`` are applied directly
        (as the patched kernel of section 4.3 would); in-trace
        ``or X,X,X`` requests are honoured against ``privileges``.
        ``rep_lead`` optionally holds one lead per source (``None``:
        ungated): thread ``t`` may start repetition ``r`` only while
        ``r < completed repetitions of its sibling + lead[t]`` (with no
        sibling the lead caps its repetitions); until then its slots
        pass to the sibling.  The software pipeline of the Table 4 case
        study passes ``(buffer_depth, 0)``.  Once open, a gate stays
        open: the sibling's count only grows and a balancer flush only
        lowers ``rep_index``.
        """
        if len(sources) not in (1, 2):
            raise ValueError("need one or two workload sources")
        leads = [_UNGATED if lead is None else lead for lead in rep_lead or ()]
        if len(leads) > len(sources) or min(leads, default=0) < 0:
            raise ValueError("need at most one non-negative lead per source")
        srcs = list(sources) + [None] * (2 - len(sources))
        self.hierarchy.reset()
        self.bht.reset()
        self.fus.reset()
        self.balancer.reset()
        self.interface = PriorityInterface(priorities)
        self._threads = [
            self._make_thread(i, src, privileges[i])
            if src is not None else None
            for i, src in enumerate(srcs)]
        self._cycle = 0
        self._gct_used = 0
        self._leads = tuple(leads + [_UNGATED] * (2 - len(leads)))
        self.clear_hooks()
        self._rebuild_arbiter()

    def _make_thread(self, thread_id: int, source: TraceSource,
                     privilege: PrivilegeLevel) -> HardwareThread:
        """Thread-state factory (the array engine binds compiled traces)."""
        return HardwareThread(thread_id, source, privilege)

    def attach_tracer(self, tracer) -> None:
        """Record per-instruction pipeline events into ``tracer``."""
        self._tracer = tracer

    def detach_tracer(self) -> None:
        """Stop recording pipeline events."""
        self._tracer = None

    def add_periodic_hook(self, period: int,
                          hook: Callable[["SMTCore", int], None]) -> None:
        """Run ``hook(core, now)`` every ``period`` cycles.

        Used by the kernel models to inject timer interrupts (which on
        a stock kernel reset thread priorities to MEDIUM), and by PMU
        samplers and governors.
        """
        if period < 1:
            raise ValueError("hook period must be >= 1")
        fire = self._cycle + period
        self._hooks.append([period, fire, hook])
        if self._next_hook < 0 or fire < self._next_hook:
            self._next_hook = fire

    def clear_hooks(self) -> None:
        """Drop every periodic hook (and whatever it keeps alive)."""
        self._hooks = []
        self._next_hook = -1

    def set_priorities(self, prio_p: int, prio_s: int) -> None:
        """Set both thread priorities with hypervisor authority."""
        self.interface.request(0, prio_p, PrivilegeLevel.HYPERVISOR)
        self.interface.request(1, prio_s, PrivilegeLevel.HYPERVISOR)
        self._rebuild_arbiter()

    def request_priority(self, thread_id: int, level: int,
                         privilege: PrivilegeLevel) -> bool:
        """Software's priority write: the one counted path.

        A priority nop in the trace, a ``/sys`` write and a hypervisor
        call all end here.  An impermissible request is a silent nop;
        an applied one counts as a ``PM_PRIO_CHANGE`` on the target
        thread (even when it re-asserts the current level) and takes
        effect at the next decode boundary.  Returns whether it applied.
        """
        if not self.interface.request(thread_id, level, privilege):
            return False
        th = self._threads[thread_id]
        if th is not None:
            th.priority_changes += 1
        self._rebuild_arbiter()
        return True

    @property
    def priorities(self) -> tuple[int, int]:
        """Current (thread0, thread1) software priorities."""
        p = self.interface.priorities
        return int(p[0]), int(p[1])

    @property
    def cycle(self) -> int:
        """Current simulation time in cycles."""
        return self._cycle

    def thread(self, thread_id: int) -> HardwareThread:
        """Live state of hardware thread ``thread_id``."""
        th = self._threads[thread_id]
        if th is None:
            raise KeyError(f"no workload on thread {thread_id}")
        return th

    def state(self) -> tuple:
        """The machine state, from every subsystem's ``state``: two
        cores that agree here behave identically from this cycle on."""
        now = self._cycle
        return (now, self._gct_used, self._leads,
                tuple(int(p) for p in self.interface.priorities),
                self.honor_priority_nops,
                tuple((h[0], h[1]) for h in self._hooks), self._next_hook,
                tuple(None if th is None else th.state(now)
                      for th in self._threads),
                self.hierarchy.state(now), self.fus.state(now),
                self.bht.state(), self.balancer.state())

    def _rebuild_arbiter(self) -> None:
        prio_p, prio_s = self.priorities
        # An empty context never decodes: arbitrate as if shut off.
        if self._threads[0] is None:
            prio_p = 0
        if self._threads[1] is None:
            prio_s = 0
        self._arbiter = PrioritySlotArbiter(
            prio_p, prio_s, self.config.low_power_decode_interval)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def step(self, cycles: int) -> int:
        """Simulate ``cycles`` cycles; returns cycles actually run."""
        if cycles <= 0:
            return 0
        cfg = self.config
        arbiter = self._arbiter
        owner_of = arbiter.owner
        threads = self._threads
        t0, t1 = threads[0], threads[1]
        retire_budget = cfg.retire_groups_per_cycle

        bal = self.balancer
        bal_cfg = bal.config
        bal_enabled = bal_cfg.enabled
        stall_en = bal_cfg.stall_enabled and bal_enabled
        flush_en = bal_cfg.flush_enabled and bal_enabled
        stall_thr = bal_cfg.gct_stall_threshold
        resume_thr = bal.resume_threshold
        window = bal_cfg.window_cycles
        stall_events = bal.stats.stall_events
        stall_cycles = bal.stats.stall_cycles
        gct_floor = cfg.gct_groups - 2

        prio_p, prio_s = self.priorities
        decode_slot = self._decode_slot
        gated = self._leads != (_UNGATED, _UNGATED)
        bal_on = bal_enabled and t0 is not None and t1 is not None

        # NORMAL-mode slot ownership is a modulo test; inline it and
        # refresh the locals whenever the arbiter is rebuilt.
        (arb_norm, arb_ratio, arb_high, arb_low,
         dec_width) = self._arb_locals()

        now = self._cycle
        end = now + cycles
        next_gc = now + 1024
        while now < end:
            if now >= next_gc:
                self.fus.collect(now)
                next_gc = now + 1024
            # -- decode ------------------------------------------------
            # A slot whose owner has *no instructions at all* (empty
            # context, workload finished, or its lead not yet open)
            # passes to the sibling: hardware cannot decode from an
            # empty instruction buffer.  A slot whose owner is merely
            # blocked (GCT full, balancer, redirect) is wasted -- that
            # strictness is what starves low-priority threads.
            if arb_norm:
                owner = arb_high if now % arb_ratio else arb_low
            else:
                owner = owner_of(now)
            if owner is not None:
                th = threads[owner]
                if th is None or th.finished or (
                        gated and self._gate_closed(owner)):
                    owner = 1 - owner
                    th = threads[owner]
                    if th is not None and (th.finished or (
                            gated and self._gate_closed(owner))):
                        th = None
                if th is not None:
                    th.owned_slots += 1
                    decode_slot(th, owner, now, dec_width)
            if arbiter is not self._arbiter:
                # A priority nop (or an in-loop callback) changed the
                # slot allocation.
                arbiter = self._arbiter
                owner_of = arbiter.owner
                prio_p, prio_s = self.priorities
                (arb_norm, arb_ratio, arb_high, arb_low,
                 dec_width) = self._arb_locals()

            # -- retire (in order, one group per thread per cycle) -----
            # Unrolled over the two threads: this runs every cycle and
            # the loop form costs a tuple + iterator allocation.
            if t0 is not None and t0.inflight:
                budget = retire_budget
                q = t0.inflight
                while budget and q and q[0][0] <= now:
                    g = q.popleft()
                    t0.retired += g[1]
                    t0.gct_held -= 1
                    self._gct_used -= 1
                    budget -= 1
                    if g[2]:
                        t0.rep_end_times.append(now)
                        t0.rep_end_retired.append(t0.retired)
            if t1 is not None and t1.inflight:
                budget = retire_budget
                q = t1.inflight
                while budget and q and q[0][0] <= now:
                    g = q.popleft()
                    t1.retired += g[1]
                    t1.gct_held -= 1
                    self._gct_used -= 1
                    budget -= 1
                    if g[2]:
                        t1.rep_end_times.append(now)
                        t1.rep_end_retired.append(t1.retired)

            # -- dynamic resource balancing -----------------------------
            # Also unrolled (thread 0 then thread 1, same order as the
            # reference loop so flush-induced GCT changes are seen by
            # the second thread's checks).
            if bal_on:
                if t1.finished:
                    if t0.balancer_stalled:
                        t0.balancer_stalled = False
                else:
                    # The GCT-occupancy stall is priority-independent:
                    # it is a structural fairness floor that keeps one
                    # thread from owning the entire completion table.
                    if stall_en:
                        if t0.balancer_stalled:
                            if t0.gct_held <= resume_thr:
                                t0.balancer_stalled = False
                        elif t0.gct_held > stall_thr:
                            t0.balancer_stalled = True
                            stall_events[0] += 1
                        if t0.balancer_stalled:
                            stall_cycles[0] += 1
                    # Flush defers to software priority: hardware does
                    # not squash a thread that software explicitly
                    # favoured (see ResourceBalancer docs).
                    if (flush_en and prio_p <= prio_s
                            and t0.inflight
                            and t0.stall_until <= now
                            and self._gct_used >= gct_floor
                            and bal.should_flush(t0.gct_held,
                                                 t0.inflight[0][0],
                                                 now)):
                        self._flush(t0, now)
                if t0.finished:
                    if t1.balancer_stalled:
                        t1.balancer_stalled = False
                else:
                    if stall_en:
                        if t1.balancer_stalled:
                            if t1.gct_held <= resume_thr:
                                t1.balancer_stalled = False
                        elif t1.gct_held > stall_thr:
                            t1.balancer_stalled = True
                            stall_events[1] += 1
                        if t1.balancer_stalled:
                            stall_cycles[1] += 1
                    if (flush_en and prio_s <= prio_p
                            and t1.inflight
                            and t1.stall_until <= now
                            and self._gct_used >= gct_floor
                            and bal.should_flush(t1.gct_held,
                                                 t1.inflight[0][0],
                                                 now)):
                        self._flush(t1, now)

                if now >= bal.next_window:
                    bal.next_window = now + window
                    self._window_update(t0, t1, prio_p, prio_s,
                                        t0.retired, t1.retired)

            # -- periodic hooks -----------------------------------------
            next_hook = self._next_hook
            if 0 <= next_hook <= now:
                for h in self._hooks:
                    if now >= h[1]:
                        h[1] += h[0]
                        h[2](self, now)
                self._next_hook = min(h[1] for h in self._hooks)
                if arbiter is not self._arbiter:
                    arbiter = self._arbiter
                    owner_of = arbiter.owner
                    prio_p, prio_s = self.priorities
                    (arb_norm, arb_ratio, arb_high, arb_low,
                     dec_width) = self._arb_locals()

            now += 1

        self._cycle = now
        return cycles

    def _arb_locals(self):
        """Arbiter-derived locals for :meth:`step`'s hot loop.

        Recomputed only when the arbiter object changes (priority nop,
        hook, or in-loop callback), never per cycle.
        """
        arb = self._arbiter
        mode = arb.mode
        high = arb._high
        if mode is ArbiterMode.LOW_POWER or mode is ArbiterMode.LOW_POWER_ST:
            width = 1
        else:
            width = self.config.decode_width
        return (mode is ArbiterMode.NORMAL, arb._ratio, high, 1 - high,
                width)

    def _gate_closed(self, tid: int) -> bool:
        """Whether thread ``tid`` waits at a repetition boundary: its
        ``rep_index`` is not below its sibling's completed repetitions
        (0 with no sibling) plus its lead."""
        sib = self._threads[1 - tid]
        return self._threads[tid].rep_index >= self._leads[tid] + (
            0 if sib is None else len(sib.rep_end_times))

    def _decode_slot(self, th: HardwareThread, tid: int, now: int,
                     width: int = 0) -> None:
        """Attempt to decode one group for the slot owner ``th``.

        ``width`` is the group width under the current arbiter mode
        (precomputed by the caller; 0 means derive it here).  A slot
        whose owner cannot decode is counted as wasted or lost.
        """
        if th.stall_until > now:
            th.wasted_slots += 1
            th.slots_lost_stall += 1
            return
        if th.balancer_stalled:
            th.wasted_slots += 1
            th.slots_lost_balancer += 1
            return
        (break_long, branch_ends, d2i, fx_lat, mul_lat, fp_lat,
         br_lat, misp_pen, gct_groups, thr_interval) = self._dec_consts
        if th.throttled and th.owned_slots % thr_interval:
            th.wasted_slots += 1
            th.slots_lost_throttle += 1
            return
        if self._gct_used >= gct_groups:
            th.slots_lost_gct += 1
            return

        trace = th.trace
        pos = th.pos
        n = len(trace)
        if pos >= n:  # defensive: advance_repetition keeps pos < n
            th.wasted_slots += 1
            th.slots_lost_other += 1
            return

        if not width:
            width = self._arb_locals()[4]

        reg_ready = th.reg_ready
        # Functional-unit issue is inlined below (UnitPool.issue with
        # the call overhead stripped); these locals mirror its state.
        fxu = self._fxu_pool
        fxu_occ = fxu._occupied
        fxu_cap = fxu.count
        fxu_ti = fxu.thread_issues
        lsu = self._lsu_pool
        lsu_occ = lsu._occupied
        lsu_cap = lsu.count
        lsu_ti = lsu.thread_issues
        fpu_issue = self._fpu_pool.issue
        hier_load = self._hier_load
        hier_store = self._hier_store
        base = now + d2i

        group_comp = 0
        count = 0
        long_dsts: list[int] = []
        start_pos = pos
        start_rep = th.rep_index
        tracer = self._tracer
        op_wait = 0
        fu_wait = 0

        while count < width and pos < n:
            op, dst, s1, s2, addr, aux = trace[pos]
            if count and break_long and long_dsts and (
                    s1 in long_dsts or s2 in long_dsts):
                break

            earliest = base
            if s1 >= 0:
                t = reg_ready[s1]
                if t > earliest:
                    earliest = t
            if s2 >= 0:
                t = reg_ready[s2]
                if t > earliest:
                    earliest = t
            op_wait += earliest - base

            if op == _OP_FX:
                start = earliest
                while fxu_occ.get(start, 0) >= fxu_cap:
                    start += 1
                fxu_occ[start] = fxu_occ.get(start, 0) + 1
                fxu.total_wait += start - earliest
                fxu.issues += 1
                fxu_ti[tid] += 1
                fu_wait += start - earliest
                comp = start + fx_lat
            elif op == _OP_LOAD:
                start = earliest
                while lsu_occ.get(start, 0) >= lsu_cap:
                    start += 1
                lsu_occ[start] = lsu_occ.get(start, 0) + 1
                lsu.total_wait += start - earliest
                lsu.issues += 1
                lsu_ti[tid] += 1
                fu_wait += start - earliest
                comp = hier_load(addr, start, tid, now)
                long_dsts.append(dst)
            elif op == _OP_STORE:
                start = earliest
                while lsu_occ.get(start, 0) >= lsu_cap:
                    start += 1
                lsu_occ[start] = lsu_occ.get(start, 0) + 1
                lsu.total_wait += start - earliest
                lsu.issues += 1
                lsu_ti[tid] += 1
                fu_wait += start - earliest
                comp = hier_store(addr, start, tid)
            elif op == _OP_FX_MUL:
                start = earliest
                while fxu_occ.get(start, 0) >= fxu_cap:
                    start += 1
                fxu_occ[start] = fxu_occ.get(start, 0) + 1
                fxu.total_wait += start - earliest
                fxu.issues += 1
                fxu_ti[tid] += 1
                fu_wait += start - earliest
                comp = start + mul_lat
                long_dsts.append(dst)
            elif op == _OP_FP:
                start = fpu_issue(earliest, tid)
                fu_wait += start - earliest
                comp = start + fp_lat
                long_dsts.append(dst)
            elif op == _OP_BRANCH:
                start = self._bxu_issue(earliest, tid)
                fu_wait += start - earliest
                comp = start + br_lat
                pos += 1
                count += 1
                if comp > group_comp:
                    group_comp = comp
                if tracer is not None:
                    tracer.record(tid, op, now, start, comp)
                correct = self.bht.predict_and_update(
                    (pos << 1) | tid, aux == 1, tid)
                if not correct:
                    th.mispredicts += 1
                    th.stall_until = comp + misp_pen
                    break
                if branch_ends:
                    break
                continue
            elif op == _OP_PRIO:
                start = comp = earliest
                if self.honor_priority_nops:
                    # An unrecognised encoding is a plain nop.
                    level = OR_REGISTER_TO_PRIORITY.get(aux)
                    if level is not None:
                        self.request_priority(tid, level, th.privilege)
            else:  # _OP_NOP
                start = comp = earliest

            if tracer is not None:
                tracer.record(tid, op, now, start, comp)
            if dst >= 0:
                reg_ready[dst] = comp
            if comp > group_comp:
                group_comp = comp
            pos += 1
            count += 1

        if count == 0:
            # First instruction of the group hit a break rule against an
            # empty group -- cannot happen, but never dispatch nothing.
            th.wasted_slots += 1
            th.slots_lost_other += 1
            return

        if op_wait:
            th.operand_wait_cycles += op_wait
        if fu_wait:
            th.fu_wait_cycles += fu_wait
        rep_done = pos >= n
        if start_pos == 0 and len(th.rep_start_times) == start_rep:
            th.rep_start_times.append(now)
        th.inflight.append((group_comp, count, rep_done, start_pos, start_rep))
        th.gct_held += 1
        self._gct_used += 1
        th.decoded += count
        th.groups_dispatched += 1
        th.pos = pos
        if rep_done:
            th.advance_repetition()

    def _flush(self, th: HardwareThread, now: int) -> None:
        """Balancer flush: squash the thread's youngest groups.

        Groups beyond the stall threshold are removed from the GCT and
        their instructions re-decoded later; the thread pays the flush
        redirect penalty.  Resource reservations already made by the
        squashed instructions are *not* undone -- a real flush wastes
        that work too.
        """
        target = self.balancer.config.gct_flush_target
        squashed_first = None
        nsquashed = 0
        while th.gct_held > target and len(th.inflight) > 1:
            g = th.inflight.pop()
            squashed_first = g
            nsquashed += g[1]
            th.gct_held -= 1
            self._gct_used -= 1
        if squashed_first is None:
            return
        th.rewind(squashed_first[4], squashed_first[3])
        th.decoded -= nsquashed
        th.flushes += 1
        th.flushed_instructions += nsquashed
        # Per the paper (section 3.1), a flushed thread stops decoding
        # "until the congestion clears": hold decode until its oldest
        # outstanding miss resolves (bounded), plus the refill penalty.
        oldest = th.inflight[0][0] if th.inflight else now
        hold = min(oldest, now + self.config.memory.dram_latency * 2)
        th.stall_until = max(now + self.balancer.config.flush_penalty, hold)
        self.balancer.stats.flush_events[th.thread_id] += 1
        self.balancer.stats.flushed_groups[th.thread_id] += nsquashed

    def _window_update(self, t0: HardwareThread, t1: HardwareThread,
                       prio_p: int, prio_s: int, retired0: int,
                       retired1: int) -> tuple[bool, bool]:
        """Throttle decisions at a monitoring-window boundary; returns
        the new ``throttled`` flags (the retired counts are passed in:
        the array engine holds them in locals)."""
        bal = self.balancer
        hier = self.hierarchy
        for th, other, mine, theirs, retired in (
                (t0, t1, prio_p, prio_s, retired0),
                (t1, t0, prio_s, prio_p, retired1)):
            misses = hier.l2_miss_count(th.thread_id)
            delta = misses - th.window_l2_misses
            th.window_l2_misses = misses
            retired_delta = retired - th.window_retired
            th.window_retired = retired
            throttle = (not other.finished and mine <= theirs
                        and bal.window_throttle(delta, retired_delta))
            if throttle and not th.throttled:
                bal.stats.throttle_windows[th.thread_id] += 1
            th.throttled = throttle
        return t0.throttled, t1.throttled

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def all_finished(self) -> bool:
        """True when every loaded workload has decoded its last rep."""
        return all(th is None or th.finished for th in self._threads)

    def drain(self, max_cycles: int = 1_000_000) -> int:
        """Run until all in-flight groups retire (bounded)."""
        ran = 0
        while ran < max_cycles and any(
                th is not None and th.inflight for th in self._threads):
            ran += self.step(256)
        return ran

    def result(self, warmup: int = 1) -> CoreResult:
        """Snapshot the measurement as a :class:`CoreResult`.

        ``warmup`` repetitions are excluded from each thread's
        steady-state metrics when enough complete repetitions exist.
        """
        prio_p, prio_s = self.priorities
        out = []
        for th in self._threads:
            if th is None:
                continue
            out.append(ThreadResult(
                warmup=warmup,
                thread_id=th.thread_id,
                workload=th.source.name,
                priority=(prio_p, prio_s)[th.thread_id],
                cycles=self._cycle,
                retired=th.retired,
                repetitions=th.completed_repetitions,
                rep_end_times=tuple(th.rep_end_times),
                rep_end_retired=tuple(th.rep_end_retired),
                mispredicts=th.mispredicts,
                flushes=th.flushes,
                owned_slots=th.owned_slots,
                wasted_slots=th.wasted_slots,
                slots_lost_gct=th.slots_lost_gct,
                decoded=th.decoded,
                groups_dispatched=th.groups_dispatched,
                slots_lost_stall=th.slots_lost_stall,
                slots_lost_balancer=th.slots_lost_balancer,
                slots_lost_throttle=th.slots_lost_throttle,
                slots_lost_other=th.slots_lost_other,
                operand_wait_cycles=th.operand_wait_cycles,
                fu_wait_cycles=th.fu_wait_cycles,
                flushed_instructions=th.flushed_instructions,
                priority_changes=th.priority_changes,
            ))
        return CoreResult(cycles=self._cycle,
                          priorities=(prio_p, prio_s),
                          threads=tuple(out))
