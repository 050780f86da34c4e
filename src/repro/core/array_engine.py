"""Compiled-trace dense-dispatch engine (``CoreConfig.engine="array"``).

:class:`ArraySMTCore` replaces the decode/issue/retire hot path of
:class:`~repro.core.smt_core.SMTCore` with **per-trace compiled
kernels**: :mod:`repro.isa.kernelgen` lowers each workload trace to
one straightline Python function per decode-group start (register
indices, latencies, occupancy caps and branch keys baked in as
literals, intra-group dependencies forwarded through locals), and the
step loop dispatches a whole group with one ``kernels[pos](now, tid)``
call.  Three layers of cost disappear relative to the object engine:

- the per-instruction interpreter work (tuple unpack, opcode cascade,
  operand scans) -- a kernel runs ~3 bytecodes per simulated slot;
- the per-group ``_decode_slot`` call and its ~25-local prologue;
- the per-cycle attribute traffic on hot counters -- the step loop
  keeps the per-thread dispatch/retire counters (owned slots, GCT
  held, retired, decoded, wait accumulators) in *locals* and syncs
  them to the thread objects only at the rare boundaries where
  something else can observe them: before a balancer flush, a
  monitoring-window update, a periodic hook, a reference-path decode,
  and on return from ``step``.

Exactness is structural, not approximate: a kernel performs exactly
the scoreboard reads, unit-pool claims and counter increments the
reference decode loop would (unit-pool ``issues``/``thread_issues``/
``total_wait`` are folded per group, which is exact at cycle
granularity), and every group the kernels *cannot* express -- groups
containing a priority nop, traces with dynamic group extents, traces
too large to compile -- falls back to the inherited
``SMTCore._decode_slot``, which is the reference implementation
itself.  Instrumented runs (pipeline tracer) and repetition-gated
runs route to the inherited step loop wholesale.  The object engine
remains the differential reference;
``tests/test_array_engine_differential`` asserts bit-identity across
the full microbenchmark x priority matrix.

Kernel binding: a kernel list is instantiated per (thread, trace,
group width) by the process-wide factory cache in
:mod:`repro.workloads.tracecache`.  Sources that return the same
repetition object every time (all built-in workloads) rebind by
identity -- no per-repetition hashing.
"""

from __future__ import annotations

from repro.config import CoreConfig
from repro.core.smt_core import SMTCore
from repro.core.steadyreplay import _VERIFIED as _VERIFIED_STATE
from repro.core.steadyreplay import SteadyReplay
from repro.core.thread import HardwareThread
from repro.isa.compiled import SCOREBOARD_SLOTS
from repro.isa.kernelgen import KernelConsts
from repro.isa.trace import TraceSource
from repro.priority.arbiter import ArbiterMode
from repro.priority.levels import PrivilegeLevel

#: ``ArrayThread.kernels`` value meaning "not bound yet" (None means
#: "bound, but the trace is not kernelizable: use the reference path").
_UNBOUND = object()

#: Memoised accessor for the process-wide kernel-factory cache.  Bound
#: lazily: ``repro.workloads`` imports ``repro.core`` at module scope,
#: so the reverse edge must wait until both packages are initialised.
_kernel_factory = None


def _factory(instructions: tuple, consts: KernelConsts):
    global _kernel_factory
    if _kernel_factory is None:
        from repro.workloads.tracecache import kernel_factory
        _kernel_factory = kernel_factory
    return _kernel_factory(instructions, consts)


class ArrayThread(HardwareThread):
    """Hardware-thread state plus compiled kernels for its trace.

    ``kernels`` always mirrors ``trace``: every path that can replace
    the trace list (construction, repetition advance, flush rewind)
    invalidates the binding, and the engine rebinds lazily through the
    process-wide factory cache.  Rebinding is keyed on the *identity*
    of the source's repetition object, so steady sources (which return
    the same sequence every repetition) never re-hash their trace.
    The scoreboard gains the two sentinel slots compiled register
    indices address (see :mod:`repro.isa.compiled`).
    """

    def __init__(self, thread_id: int, source: TraceSource,
                 privilege: PrivilegeLevel = PrivilegeLevel.USER):
        super().__init__(thread_id, source, privilege)
        self.reg_ready = [0] * SCOREBOARD_SLOTS
        self._rep_obj: object | None = None
        self._bound_trace: list | None = None
        self._trace_tuple: tuple = ()
        self.kernels = _UNBOUND
        self._kern_width = -1
        #: factory -> instantiated kernel list (one entry per width the
        #: run has used; alternating rewind targets reuse entries).
        self._kern_cache: dict = {}
        self._bind()

    def _bind(self) -> None:
        self._bound_trace = self.trace
        self._trace_tuple = tuple(self.trace)
        self.kernels = _UNBOUND
        self._kern_width = -1

    def advance_repetition(self) -> None:
        self.rep_index += 1
        try:
            nxt = self.source.repetition(self.rep_index)
        except StopIteration:
            nxt = ()
        if nxt is not None and nxt is self._rep_obj:
            # Same repetition object as the bound trace: reuse the
            # trace list and the compiled kernels untouched (the
            # engine never mutates a trace).
            self.trace = self._bound_trace
            self.pos = 0
            return
        trace = list(nxt)
        if not trace:
            self.finished = True
            self.trace = []
            self._rep_obj = None
        else:
            self.trace = trace
            self._rep_obj = nxt
        self.pos = 0
        self._bind()

    def rewind(self, rep_index: int, pos: int) -> None:
        if rep_index != self.rep_index:
            self.rep_index = rep_index
            nxt = self.source.repetition(rep_index)
            if nxt is not None and nxt is self._rep_obj:
                self.trace = self._bound_trace
            else:
                self.trace = list(nxt)
                self._rep_obj = nxt
                self._bind()
            self.finished = False
        self.pos = pos


class ArraySMTCore(SMTCore):
    """The compiled-kernel engine.  See the module docstring."""

    def __init__(self, config: CoreConfig | None = None):
        super().__init__(config)
        # Compiled per-priority dispatch table: slot owner for one full
        # period of the current arbiter's rotation.  Invalidated by
        # _rebuild_arbiter so priority nops, sysfs writes and governor
        # actuations land at the next decode boundary exactly as in
        # the object engine.
        self._dispatch_tab: list | None = None
        self._dispatch_arb = None
        # Group width -> baked kernel constants.
        self._kern_consts: dict[int, KernelConsts] = {}
        # Steady-state replay telescoping (exact whole-period jumps in
        # uninstrumented runs).  The flag is an instance toggle rather
        # than a CoreConfig field: jumps are bit-exact, so the knob is
        # not part of the machine's identity (config fingerprints and
        # cached results stay comparable across it).
        self.steady_replay = True
        self._steady: SteadyReplay | None = None

    def load(self, *args, **kwargs) -> None:
        super().load(*args, **kwargs)
        self._steady = SteadyReplay(self)

    def _make_thread(self, thread_id: int, source: TraceSource,
                     privilege: PrivilegeLevel) -> ArrayThread:
        return ArrayThread(thread_id, source, privilege)

    def _rebuild_arbiter(self) -> None:
        self._dispatch_tab = None
        super()._rebuild_arbiter()

    def _consts(self, width: int) -> KernelConsts:
        consts = self._kern_consts.get(width)
        if consts is None:
            cfg = self.config
            consts = KernelConsts(
                width=width,
                break_long=cfg.break_group_on_long_dep,
                branch_ends=cfg.branch_ends_group,
                decode_to_issue=cfg.decode_to_issue,
                fx_latency=cfg.fx_latency,
                fx_mul_latency=cfg.fx_mul_latency,
                fp_latency=cfg.fp_latency,
                branch_latency=cfg.branch_latency,
                fxu_cap=cfg.num_fxu,
                lsu_cap=cfg.num_lsu,
                fpu_cap=cfg.num_fpu,
                bxu_cap=cfg.num_bxu)
            self._kern_consts[width] = consts
        return consts

    def _live_kernels(self, th: ArrayThread | None, width: int):
        """Kernel list for ``th``'s current trace at ``width`` (or None).

        Instantiation binds the thread scoreboard, this core's unit
        pools, memory hierarchy and branch predictor into the kernels'
        default arguments; all of those are identity-stable across
        ``reset`` (they clear in place), and threads are constructed
        after the pools reset in :meth:`SMTCore.load`.
        """
        if th is None:
            return None
        kernels = th.kernels
        if kernels is not _UNBOUND and th._kern_width == width:
            return kernels
        factory = _factory(th._trace_tuple, self._consts(width))
        if factory is None:
            kernels = None
        else:
            kernels = th._kern_cache.get(factory)
            if kernels is None:
                kernels = factory(
                    th, self._fxu_pool, self._lsu_pool, self._fpu_pool,
                    self.fus.bxu, self._hier_load, self._hier_store,
                    self.bht.predict_and_update)
                th._kern_cache[factory] = kernels
        th.kernels = kernels
        th._kern_width = width
        return kernels

    def _array_locals(self):
        """Hot-loop locals: decode width and dispatch table.

        The table maps ``cycle % len(table)`` to the owning thread id
        (or None) -- every arbiter mode's owner pattern is periodic
        with the period used here, which ``owner()`` itself guarantees
        since the table is built by evaluating it.
        """
        arb = self._arbiter
        mode = arb.mode
        if mode is ArbiterMode.LOW_POWER or mode is ArbiterMode.LOW_POWER_ST:
            width = 1
        else:
            width = self.config.decode_width
        tab = self._dispatch_tab
        if tab is None or self._dispatch_arb is not arb:
            if mode is ArbiterMode.NORMAL:
                period = arb._ratio
            elif mode is ArbiterMode.LOW_POWER:
                period = 2 * arb.low_power_interval
            elif mode is ArbiterMode.LOW_POWER_ST:
                period = arb.low_power_interval
            else:  # SINGLE_THREAD / ALL_OFF: constant owner
                period = 1
            owner = arb.owner
            tab = [owner(c) for c in range(period)]
            self._dispatch_tab = tab
            self._dispatch_arb = arb
        return width, tab, len(tab)

    def step(self, cycles: int) -> int:
        """Simulate ``cycles`` cycles; returns cycles actually run.

        Runs go through the steady-state replay driver
        (:mod:`repro.core.steadyreplay`), which mixes dense spans with
        exact whole-period jumps once the machine has settled into a
        verified periodic regime.  Hooked runs (PMU sampling, the
        governor, kernel timer ticks) telescope too: the driver clamps
        every jump at the next pending fire time and dense spans fire
        hooks at their exact cycle, so observations land on the same
        cycles with the same counter values as a fully dense run.
        Chip-attached cores (``hierarchy.chip_port``) telescope only
        inside regimes verified to make zero shared-bus grants.  Only
        the tracer and repetition gates -- per-cycle observers no jump
        can reproduce -- force the plain dense path, as does
        ``steady_replay = False``.
        """
        if cycles <= 0:
            return 0
        replay = self._steady
        if (replay is None or replay.disabled
                or not self.steady_replay
                or self._tracer is not None
                or self._rep_gate is not None):
            return self._step_dense(cycles)
        replay.run(self._cycle + cycles)
        return cycles

    def steady_bus_quiet(self) -> bool:
        """True in a verified steady regime that never touches the bus.

        :class:`~repro.chip.Chip` uses this to enlarge its
        synchronization quantum: a chip-attached core only reaches
        ``_VERIFIED`` when its verification period made zero shared-bus
        grants, so until the regime voids it cannot interact with
        sibling cores and fine slicing buys nothing.  Periodic hooks
        (kernel timer, governor, sampler) do not disqualify a core:
        they fire at their exact cycles inside any quantum (jumps clamp
        at the next fire time) and touch only their own core's state.
        """
        replay = self._steady
        return (replay is not None and not replay.disabled
                and self.steady_replay
                and replay.state == _VERIFIED_STATE
                and replay.port_quiet
                and self._tracer is None
                and self._rep_gate is None)

    def _step_dense(self, cycles: int) -> int:  # noqa: C901 (the hot loop)
        """Simulate ``cycles`` cycles one at a time (no telescoping)."""
        if cycles <= 0:
            return 0
        if self._tracer is not None or self._rep_gate is not None:
            # Per-instruction tracing and per-cycle repetition gating
            # are the instrumented object loop's job.
            return super().step(cycles)
        cfg = self.config
        arbiter = self._arbiter
        t0, t1 = self._threads
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
        flush_thr = bal_cfg.gct_flush_threshold
        horizon = bal.FLUSH_HORIZON

        prio_p, prio_s = self.priorities
        gct_groups = cfg.gct_groups
        bal_on = bal_enabled and t0 is not None and t1 is not None
        misp_pen = cfg.branch.mispredict_penalty
        thr_interval = bal_cfg.throttle_interval
        decode_slot = self._decode_slot  # reference path (prio groups,
        #                                  unkernelizable traces)
        BIG = 1 << 62

        dec_width, tab, tab_len = self._array_locals()
        one = tab_len == 1
        tid0 = tab[0]
        kern0 = self._live_kernels(t0, dec_width)
        kern1 = self._live_kernels(t1, dec_width)

        # Hot per-thread state lives in locals; the thread objects are
        # synced before anything that can observe them runs (reference
        # decode, flush, window update, hooks) and on return.
        # ``balancer_stalled`` is written through on change
        # (transitions are rare) so the attribute is never stale;
        # ``throttled`` is only ever written by the window update and
        # hooks, so the local is reloaded there.
        if t0 is not None:
            q0 = t0.inflight
            ends0, rets0 = t0.rep_end_times, t0.rep_end_retired
            rst0 = t0.rep_start_times
            own0, gh0, ret0 = t0.owned_slots, t0.gct_held, t0.retired
            dec0, grp0 = t0.decoded, t0.groups_dispatched
            opw0, fuw0 = t0.operand_wait_cycles, t0.fu_wait_cycles
            ws0, lg0 = t0.wasted_slots, t0.slots_lost_gct
            ls0, lb0 = t0.slots_lost_stall, t0.slots_lost_balancer
            lt0, mis0 = t0.slots_lost_throttle, t0.mispredicts
            su0, pos0 = t0.stall_until, t0.pos
            bst0, thr0 = t0.balancer_stalled, t0.throttled
            rep0, n0 = t0.rep_index, len(t0.trace)
            avail0 = not t0.finished
            nc0 = q0[0][0] if q0 else BIG
        else:
            q0 = None
            ends0 = rets0 = rst0 = None
            own0 = gh0 = ret0 = dec0 = grp0 = opw0 = fuw0 = 0
            ws0 = lg0 = ls0 = lb0 = lt0 = mis0 = 0
            su0 = pos0 = rep0 = n0 = 0
            bst0 = thr0 = False
            avail0 = False
            nc0 = BIG
        if t1 is not None:
            q1 = t1.inflight
            ends1, rets1 = t1.rep_end_times, t1.rep_end_retired
            rst1 = t1.rep_start_times
            own1, gh1, ret1 = t1.owned_slots, t1.gct_held, t1.retired
            dec1, grp1 = t1.decoded, t1.groups_dispatched
            opw1, fuw1 = t1.operand_wait_cycles, t1.fu_wait_cycles
            ws1, lg1 = t1.wasted_slots, t1.slots_lost_gct
            ls1, lb1 = t1.slots_lost_stall, t1.slots_lost_balancer
            lt1, mis1 = t1.slots_lost_throttle, t1.mispredicts
            su1, pos1 = t1.stall_until, t1.pos
            bst1, thr1 = t1.balancer_stalled, t1.throttled
            rep1, n1 = t1.rep_index, len(t1.trace)
            avail1 = not t1.finished
            nc1 = q1[0][0] if q1 else BIG
        else:
            q1 = None
            ends1 = rets1 = rst1 = None
            own1 = gh1 = ret1 = dec1 = grp1 = opw1 = fuw1 = 0
            ws1 = lg1 = ls1 = lb1 = lt1 = mis1 = 0
            su1 = pos1 = rep1 = n1 = 0
            bst1 = thr1 = False
            avail1 = False
            nc1 = BIG
        gct_used = self._gct_used

        now = self._cycle
        end = now + cycles
        next_gc = now + 1024
        # One folded deadline gates the three per-cycle bookkeeping
        # checks (unit-pool GC, balancer window, periodic hooks): each
        # component only moves inside a ``slow`` iteration, so the
        # deadline is recomputed there and nowhere else.
        due = next_gc
        if bal_on:
            nw = bal.next_window
            if nw < due:
                due = nw
        nh = self._next_hook
        if 0 <= nh < due:
            due = nh
        while now < end:
            slow = now >= due
            if slow and now >= next_gc:
                self.fus.collect(now)
                next_gc = now + 1024
            # -- decode ------------------------------------------------
            # Same slot-passing strictness as the object engine: an
            # *empty* owner (no context, workload finished) passes the
            # slot to the sibling; a merely *blocked* owner wastes it.
            tid = tid0 if one else tab[now % tab_len]
            if tid is not None:
                if tid == 0:
                    dec = 0 if avail0 else (1 if avail1 else -1)
                else:
                    dec = 1 if avail1 else (0 if avail0 else -1)
                if dec == 0:
                    own0 += 1
                    if su0 > now:
                        ws0 += 1
                        ls0 += 1
                    elif bst0:
                        ws0 += 1
                        lb0 += 1
                    elif thr0 and own0 % thr_interval:
                        ws0 += 1
                        lt0 += 1
                    elif gct_used >= gct_groups:
                        lg0 += 1
                    else:
                        p = pos0
                        k = (kern0[p]
                             if kern0 is not None and p < n0 else None)
                        if k is not None:
                            p2, cnt, gcomp, ow, fw, mc, rd = k(now, 0)
                            opw0 += ow
                            fuw0 += fw
                            if mc >= 0:
                                mis0 += 1
                                su0 = mc + misp_pen
                            if p == 0 and len(rst0) == rep0:
                                rst0.append(now)
                            q0.append((gcomp, cnt, rd, p, rep0))
                            if nc0 == BIG:
                                nc0 = gcomp
                            gh0 += 1
                            gct_used += 1
                            dec0 += cnt
                            grp0 += 1
                            pos0 = p2
                            if rd:
                                t0.advance_repetition()
                                pos0 = 0
                                rep0 = t0.rep_index
                                n0 = len(t0.trace)
                                avail0 = not t0.finished
                                kern0 = self._live_kernels(t0, dec_width)
                        else:
                            # Reference path: prio group, unkernelized
                            # trace, or the defensive pos-overrun case.
                            t0.owned_slots = own0
                            t0.gct_held = gh0
                            t0.retired = ret0
                            t0.decoded = dec0
                            t0.groups_dispatched = grp0
                            t0.operand_wait_cycles = opw0
                            t0.fu_wait_cycles = fuw0
                            t0.wasted_slots = ws0
                            t0.slots_lost_gct = lg0
                            t0.slots_lost_stall = ls0
                            t0.slots_lost_balancer = lb0
                            t0.slots_lost_throttle = lt0
                            t0.mispredicts = mis0
                            t0.stall_until = su0
                            t0.pos = pos0
                            self._gct_used = gct_used
                            decode_slot(t0, 0, now, dec_width)
                            own0 = t0.owned_slots
                            gh0 = t0.gct_held
                            dec0 = t0.decoded
                            grp0 = t0.groups_dispatched
                            opw0 = t0.operand_wait_cycles
                            fuw0 = t0.fu_wait_cycles
                            ws0 = t0.wasted_slots
                            lg0 = t0.slots_lost_gct
                            ls0 = t0.slots_lost_stall
                            lb0 = t0.slots_lost_balancer
                            lt0 = t0.slots_lost_throttle
                            mis0 = t0.mispredicts
                            su0 = t0.stall_until
                            pos0 = t0.pos
                            gct_used = self._gct_used
                            rep0 = t0.rep_index
                            n0 = len(t0.trace)
                            avail0 = not t0.finished
                            nc0 = q0[0][0] if q0 else BIG
                            if arbiter is not self._arbiter:
                                arbiter = self._arbiter
                                prio_p, prio_s = self.priorities
                                dec_width, tab, tab_len = self._array_locals()
                                one = tab_len == 1
                                tid0 = tab[0]
                                kern1 = self._live_kernels(t1, dec_width)
                            kern0 = self._live_kernels(t0, dec_width)
                elif dec == 1:
                    own1 += 1
                    if su1 > now:
                        ws1 += 1
                        ls1 += 1
                    elif bst1:
                        ws1 += 1
                        lb1 += 1
                    elif thr1 and own1 % thr_interval:
                        ws1 += 1
                        lt1 += 1
                    elif gct_used >= gct_groups:
                        lg1 += 1
                    else:
                        p = pos1
                        k = (kern1[p]
                             if kern1 is not None and p < n1 else None)
                        if k is not None:
                            p2, cnt, gcomp, ow, fw, mc, rd = k(now, 1)
                            opw1 += ow
                            fuw1 += fw
                            if mc >= 0:
                                mis1 += 1
                                su1 = mc + misp_pen
                            if p == 0 and len(rst1) == rep1:
                                rst1.append(now)
                            q1.append((gcomp, cnt, rd, p, rep1))
                            if nc1 == BIG:
                                nc1 = gcomp
                            gh1 += 1
                            gct_used += 1
                            dec1 += cnt
                            grp1 += 1
                            pos1 = p2
                            if rd:
                                t1.advance_repetition()
                                pos1 = 0
                                rep1 = t1.rep_index
                                n1 = len(t1.trace)
                                avail1 = not t1.finished
                                kern1 = self._live_kernels(t1, dec_width)
                        else:
                            t1.owned_slots = own1
                            t1.gct_held = gh1
                            t1.retired = ret1
                            t1.decoded = dec1
                            t1.groups_dispatched = grp1
                            t1.operand_wait_cycles = opw1
                            t1.fu_wait_cycles = fuw1
                            t1.wasted_slots = ws1
                            t1.slots_lost_gct = lg1
                            t1.slots_lost_stall = ls1
                            t1.slots_lost_balancer = lb1
                            t1.slots_lost_throttle = lt1
                            t1.mispredicts = mis1
                            t1.stall_until = su1
                            t1.pos = pos1
                            self._gct_used = gct_used
                            decode_slot(t1, 1, now, dec_width)
                            own1 = t1.owned_slots
                            gh1 = t1.gct_held
                            dec1 = t1.decoded
                            grp1 = t1.groups_dispatched
                            opw1 = t1.operand_wait_cycles
                            fuw1 = t1.fu_wait_cycles
                            ws1 = t1.wasted_slots
                            lg1 = t1.slots_lost_gct
                            ls1 = t1.slots_lost_stall
                            lb1 = t1.slots_lost_balancer
                            lt1 = t1.slots_lost_throttle
                            mis1 = t1.mispredicts
                            su1 = t1.stall_until
                            pos1 = t1.pos
                            gct_used = self._gct_used
                            rep1 = t1.rep_index
                            n1 = len(t1.trace)
                            avail1 = not t1.finished
                            nc1 = q1[0][0] if q1 else BIG
                            if arbiter is not self._arbiter:
                                arbiter = self._arbiter
                                prio_p, prio_s = self.priorities
                                dec_width, tab, tab_len = self._array_locals()
                                one = tab_len == 1
                                tid0 = tab[0]
                                kern0 = self._live_kernels(t0, dec_width)
                            kern1 = self._live_kernels(t1, dec_width)

            # -- retire (in order, one group per thread per cycle) -----
            if nc0 <= now:
                budget = retire_budget
                while True:
                    g = q0.popleft()
                    ret0 += g[1]
                    gh0 -= 1
                    gct_used -= 1
                    if g[2]:
                        ends0.append(now)
                        rets0.append(ret0)
                    budget -= 1
                    if q0:
                        nc0 = q0[0][0]
                        if not budget or nc0 > now:
                            break
                    else:
                        nc0 = BIG
                        break
            if nc1 <= now:
                budget = retire_budget
                while True:
                    g = q1.popleft()
                    ret1 += g[1]
                    gh1 -= 1
                    gct_used -= 1
                    if g[2]:
                        ends1.append(now)
                        rets1.append(ret1)
                    budget -= 1
                    if q1:
                        nc1 = q1[0][0]
                        if not budget or nc1 > now:
                            break
                    else:
                        nc1 = BIG
                        break

            # -- dynamic resource balancing ----------------------------
            if bal_on:
                if not avail1:
                    if bst0:
                        bst0 = t0.balancer_stalled = False
                else:
                    if stall_en:
                        if bst0:
                            if gh0 <= resume_thr:
                                bst0 = t0.balancer_stalled = False
                        elif gh0 > stall_thr:
                            bst0 = t0.balancer_stalled = True
                            stall_events[0] += 1
                        if bst0:
                            stall_cycles[0] += 1
                    # should_flush inlined: threshold + horizon test.
                    if (flush_en and prio_p <= prio_s and gh0
                            and su0 <= now
                            and gct_used >= gct_floor
                            and gh0 >= flush_thr
                            and nc0 > now + horizon):
                        t0.gct_held = gh0
                        t0.decoded = dec0
                        self._gct_used = gct_used
                        self._flush(t0, now)
                        gh0 = t0.gct_held
                        dec0 = t0.decoded
                        gct_used = self._gct_used
                        su0 = t0.stall_until
                        pos0 = t0.pos
                        rep0 = t0.rep_index
                        n0 = len(t0.trace)
                        avail0 = not t0.finished
                        kern0 = self._live_kernels(t0, dec_width)
                        nc0 = q0[0][0] if q0 else BIG
                if not avail0:
                    if bst1:
                        bst1 = t1.balancer_stalled = False
                else:
                    if stall_en:
                        if bst1:
                            if gh1 <= resume_thr:
                                bst1 = t1.balancer_stalled = False
                        elif gh1 > stall_thr:
                            bst1 = t1.balancer_stalled = True
                            stall_events[1] += 1
                        if bst1:
                            stall_cycles[1] += 1
                    if (flush_en and prio_s <= prio_p and gh1
                            and su1 <= now
                            and gct_used >= gct_floor
                            and gh1 >= flush_thr
                            and nc1 > now + horizon):
                        t1.gct_held = gh1
                        t1.decoded = dec1
                        self._gct_used = gct_used
                        self._flush(t1, now)
                        gh1 = t1.gct_held
                        dec1 = t1.decoded
                        gct_used = self._gct_used
                        su1 = t1.stall_until
                        pos1 = t1.pos
                        rep1 = t1.rep_index
                        n1 = len(t1.trace)
                        avail1 = not t1.finished
                        kern1 = self._live_kernels(t1, dec_width)
                        nc1 = q1[0][0] if q1 else BIG

                if slow and now >= bal.next_window:
                    bal.next_window = now + window
                    t0.retired = ret0
                    t1.retired = ret1
                    self._window_update(t0, t1, prio_p, prio_s)
                    thr0 = t0.throttled
                    thr1 = t1.throttled

            # -- periodic hooks ----------------------------------------
            if slow and 0 <= self._next_hook <= now:
                # Hooks observe everything (PMU capture, governor
                # policies): sync the localized state out first and
                # reload after -- a hook may retune priorities or read
                # any thread counter.
                if t0 is not None:
                    t0.owned_slots = own0
                    t0.gct_held = gh0
                    t0.retired = ret0
                    t0.decoded = dec0
                    t0.groups_dispatched = grp0
                    t0.operand_wait_cycles = opw0
                    t0.fu_wait_cycles = fuw0
                    t0.wasted_slots = ws0
                    t0.slots_lost_gct = lg0
                    t0.slots_lost_stall = ls0
                    t0.slots_lost_balancer = lb0
                    t0.slots_lost_throttle = lt0
                    t0.mispredicts = mis0
                    t0.stall_until = su0
                    t0.pos = pos0
                if t1 is not None:
                    t1.owned_slots = own1
                    t1.gct_held = gh1
                    t1.retired = ret1
                    t1.decoded = dec1
                    t1.groups_dispatched = grp1
                    t1.operand_wait_cycles = opw1
                    t1.fu_wait_cycles = fuw1
                    t1.wasted_slots = ws1
                    t1.slots_lost_gct = lg1
                    t1.slots_lost_stall = ls1
                    t1.slots_lost_balancer = lb1
                    t1.slots_lost_throttle = lt1
                    t1.mispredicts = mis1
                    t1.stall_until = su1
                    t1.pos = pos1
                self._gct_used = gct_used
                for h in self._hooks:
                    if now >= h[1]:
                        h[1] += h[0]
                        h[2](self, now)
                        if not h[3]:
                            self._hook_mut_gen += 1
                self._next_hook = min(h[1] for h in self._hooks)
                if t0 is not None:
                    own0, gh0, ret0 = (t0.owned_slots, t0.gct_held,
                                       t0.retired)
                    dec0, grp0 = t0.decoded, t0.groups_dispatched
                    opw0, fuw0 = (t0.operand_wait_cycles,
                                  t0.fu_wait_cycles)
                    ws0, lg0 = t0.wasted_slots, t0.slots_lost_gct
                    ls0, lb0 = (t0.slots_lost_stall,
                                t0.slots_lost_balancer)
                    lt0, mis0 = t0.slots_lost_throttle, t0.mispredicts
                    su0, pos0 = t0.stall_until, t0.pos
                    bst0, thr0 = t0.balancer_stalled, t0.throttled
                    rep0, n0 = t0.rep_index, len(t0.trace)
                    avail0 = not t0.finished
                    nc0 = q0[0][0] if q0 else BIG
                if t1 is not None:
                    own1, gh1, ret1 = (t1.owned_slots, t1.gct_held,
                                       t1.retired)
                    dec1, grp1 = t1.decoded, t1.groups_dispatched
                    opw1, fuw1 = (t1.operand_wait_cycles,
                                  t1.fu_wait_cycles)
                    ws1, lg1 = t1.wasted_slots, t1.slots_lost_gct
                    ls1, lb1 = (t1.slots_lost_stall,
                                t1.slots_lost_balancer)
                    lt1, mis1 = t1.slots_lost_throttle, t1.mispredicts
                    su1, pos1 = t1.stall_until, t1.pos
                    bst1, thr1 = t1.balancer_stalled, t1.throttled
                    rep1, n1 = t1.rep_index, len(t1.trace)
                    avail1 = not t1.finished
                    nc1 = q1[0][0] if q1 else BIG
                gct_used = self._gct_used
                if arbiter is not self._arbiter:
                    arbiter = self._arbiter
                    prio_p, prio_s = self.priorities
                    dec_width, tab, tab_len = self._array_locals()
                    one = tab_len == 1
                    tid0 = tab[0]
                kern0 = self._live_kernels(t0, dec_width)
                kern1 = self._live_kernels(t1, dec_width)

            if slow:
                due = next_gc
                if bal_on:
                    nw = bal.next_window
                    if nw < due:
                        due = nw
                nh = self._next_hook
                if 0 <= nh < due:
                    due = nh

            now += 1

        if t0 is not None:
            t0.owned_slots = own0
            t0.gct_held = gh0
            t0.retired = ret0
            t0.decoded = dec0
            t0.groups_dispatched = grp0
            t0.operand_wait_cycles = opw0
            t0.fu_wait_cycles = fuw0
            t0.wasted_slots = ws0
            t0.slots_lost_gct = lg0
            t0.slots_lost_stall = ls0
            t0.slots_lost_balancer = lb0
            t0.slots_lost_throttle = lt0
            t0.mispredicts = mis0
            t0.stall_until = su0
            t0.pos = pos0
        if t1 is not None:
            t1.owned_slots = own1
            t1.gct_held = gh1
            t1.retired = ret1
            t1.decoded = dec1
            t1.groups_dispatched = grp1
            t1.operand_wait_cycles = opw1
            t1.fu_wait_cycles = fuw1
            t1.wasted_slots = ws1
            t1.slots_lost_gct = lg1
            t1.slots_lost_stall = ls1
            t1.slots_lost_balancer = lb1
            t1.slots_lost_throttle = lt1
            t1.mispredicts = mis1
            t1.stall_until = su1
            t1.pos = pos1
        self._gct_used = gct_used
        self._cycle = now
        return cycles
