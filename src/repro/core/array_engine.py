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
  keeps the per-thread counters declared once as
  :data:`repro.core.thread.HOT_COUNTERS` in *locals*.  It spills them
  to the thread (one ``spill_hot`` tuple store) only where something
  else can observe them -- before a reference-path decode, a balancer
  flush and the periodic hooks, and on return from ``step`` -- and
  reloads them with one ``_fill`` after each of those.

Exactness is structural, not approximate: a kernel performs exactly
the scoreboard reads, unit-pool claims and counter increments the
reference decode loop would (unit-pool ``issues``/``thread_issues``/
``total_wait`` are folded per group, which is exact at cycle
granularity; a load or store that hits both the D-TLB and the L1D
makes the hierarchy's stamp and counter writes in the kernel, and
anything else calls the hierarchy), and every group the kernels
*cannot* express -- groups containing a priority nop, traces with
dynamic group extents -- falls back to the inherited
``SMTCore._decode_slot``, which is the reference implementation
itself.  Runs with repetition leads (the software pipeline) stay on
the kernels: a thread's lead is an integer compare folded into its
decode-availability local, re-evaluated only where its terms move (a
repetition advance, a sibling's repetition-end retire, a sync).  Only
instrumented runs (pipeline tracer) route to the inherited step loop
wholesale.  The object engine remains the differential reference;
``tests/test_array_engine_differential`` asserts bit-identity across
the full microbenchmark x priority matrix and the pipelines.
Kernel factories come from the process-wide cache in
:mod:`repro.workloads.tracecache`; the core keeps each thread slot's
scoreboard and instantiated kernel lists, so a reloaded core (one
``SoftwarePipeline`` runs every priority pair on one) binds nothing
again.

**Quiet spans.**  Memory-bound pairs, the balancer's stall/flush/
throttle and priority-1 low-power decode leave the core with nothing
to do for long stretches.  After a cycle whose decode dispatched
nothing (and with no retire due within ``_MIN_SPAN`` cycles), the loop
finds the first cycle ``t`` at which anything but a slot counter can
change: the next retire, balancer window, hook or end of ``step``; the
first cycle a flush can fire (it needs redirect expiry and grows no
likelier as the oldest completion nears); the first slot that goes to
a thread that could dispatch (at redirect expiry, at a throttled
thread's every ``throttle_interval``-th owned slot, or at once).
Until ``t`` GCT use, completions, thread availability (repetition
leads included) and the balancer's stall and throttle flags hold
still -- the loop checks that the stall flags are a fixed point -- so
every slot ends in its owner's current blocking reason, and the loop
credits the span in closed form: each thread's owned, wasted and
per-cause lost slots grow by its slot count, read from per-period slot
offsets of the dispatch table (throttle slots that meet a full GCT
count as GCT-lost), and a stalled thread's balancer stall cycles by
the span's length.  Unit-pool GC is bookkeeping and runs on landing.
Runs with repetition leads do not skip: their spans are exact too
(leads move only at a dispatch or a retire), but in the software
pipeline the attempts cost more than the 4-9% of cycles they skip.
``skipped_cycles`` counts the credited cycles.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.config import CoreConfig
from repro.core.smt_core import _UNGATED, SMTCore
from repro.core.thread import HOT_COUNTERS, HardwareThread, fill_hot, spill_hot
from repro.isa.compiled import SCOREBOARD_SLOTS
from repro.isa.kernelgen import KernelConsts
from repro.isa.trace import TraceSource
from repro.priority.arbiter import ArbiterMode
from repro.priority.levels import PrivilegeLevel

#: ``ArrayThread.kernels`` value meaning "not bound yet" (None means
#: "bound, but the trace is not kernelizable: use the reference path").
_UNBOUND = object()

#: "No completion pending" for the step loop's next-completion locals.
_BIG = 1 << 62

#: Shortest quiet span the step loop credits arithmetically (shorter
#: ones cost more to credit than to simulate), and how far off both
#: threads' next retire must be for a quiet decode to try one.
_MIN_SPAN = 3

#: (prio_p, prio_s, low_power_interval) -> (dispatch table, slot
#: schedules) of that arbiter; see ``ArraySMTCore._array_locals``.
_TABLES: dict[tuple, tuple] = {}

#: ``ArraySMTCore._fill`` of an empty context: zero counters, not
#: stalled or throttled, nothing to decode or retire, no kernels.
_EMPTY = (0,) * len(HOT_COUNTERS) + (False, False, 0, 0, False, False, _BIG,
                                     None)

#: A cleared scoreboard, copied into a slot's board in place at ``load``.
_CLEAR = (0,) * SCOREBOARD_SLOTS


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
    invalidates the binding, and the engine rebinds lazily from its
    per-slot kernel lists.  Rebinding is keyed on the *identity*
    of the source's repetition object, so steady sources (which return
    the same sequence every repetition) never re-hash their trace.
    The scoreboard is the core's board for this thread slot, with the
    two sentinel slots compiled register indices address (see
    :mod:`repro.isa.compiled`).
    """

    def __init__(self, thread_id: int, source: TraceSource,
                 privilege: PrivilegeLevel, scoreboard: list[int]):
        super().__init__(thread_id, source, privilege)
        self.reg_ready = scoreboard
        self._rep_obj: object | None = None
        self._bound_trace: list | None = None
        self._trace_tuple: tuple = ()
        self.kernels = _UNBOUND
        self._kern_width = -1
        self._bind()

    def _bind(self) -> None:
        self._bound_trace = self.trace
        self._trace_tuple = tuple(self.trace)
        self.kernels = _UNBOUND
        self._kern_width = -1

    def _install(self, repetition) -> None:
        if repetition is not None and repetition is self._rep_obj:
            # Same repetition object as the bound trace: reuse the
            # trace list and the compiled kernels untouched (the
            # engine never mutates a trace).
            self.trace = self._bound_trace
            return
        self.trace = list(repetition)
        self._rep_obj = repetition if self.trace else None
        self._bind()


class ArraySMTCore(SMTCore):
    """The compiled-kernel engine.  See the module docstring."""

    def __init__(self, config: CoreConfig | None = None):
        super().__init__(config)
        #: Cycles the step loop credited arithmetically instead of
        #: simulating (quiet-span fast-forward) since the last ``load``.
        self.skipped_cycles = 0
        # Group width -> baked kernel constants.
        self._kern_consts: dict[int, KernelConsts] = {}
        # Per thread slot: the scoreboard its kernels bind (cleared in
        # place at ``load``) and factory -> kernel list, one list per
        # trace and width the slot has run.  Everything else a kernel
        # binds also resets in place, so a reloaded core rebinds nothing.
        self._scoreboards = ([0] * SCOREBOARD_SLOTS, [0] * SCOREBOARD_SLOTS)
        self._kernel_lists: tuple[dict, dict] = ({}, {})

    def _make_thread(self, thread_id: int, source: TraceSource,
                     privilege: PrivilegeLevel) -> ArrayThread:
        board = self._scoreboards[thread_id]
        board[:] = _CLEAR
        return ArrayThread(thread_id, source, privilege, board)

    def load(self, *args, **kwargs) -> None:
        super().load(*args, **kwargs)
        self.skipped_cycles = 0

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
                bxu_cap=cfg.num_bxu,
                tlb_page=cfg.tlb.page_bytes,
                tlb_sets=cfg.tlb.entries // cfg.tlb.associativity,
                l1_line=cfg.l1d.line_bytes,
                l1_sets=cfg.l1d.num_sets,
                l1_latency=cfg.l1d.latency,
                store_latency=cfg.store_latency)
            self._kern_consts[width] = consts
        return consts

    def _live_kernels(self, th: ArrayThread | None, width: int):
        """Kernel list for ``th``'s current trace at ``width`` (or None).

        Instantiation binds the thread slot's scoreboard, this core's
        unit pools, branch predictor, hierarchy entry points, D-TLB/L1D
        set dicts and hit/load/store counter lists into the kernels'
        default arguments; all of those are identity-stable across
        ``load`` (they clear in place), so the slot keeps the list.
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
            lists = self._kernel_lists[th.thread_id]
            kernels = lists.get(factory)
            if kernels is None:
                hier = self.hierarchy
                kernels = lists[factory] = factory(
                    th.reg_ready, self._fxu_pool, self._lsu_pool,
                    self._fpu_pool, self.fus.bxu, self._hier_load,
                    self._hier_store, self.bht.predict_and_update,
                    hier.tlb._sets, hier.l1d._sets, hier.tlb.stats.thread_hits,
                    hier.l1d.stats.thread_hits, hier._l1_counts,
                    hier.store_counts)
        th.kernels = kernels
        th._kern_width = width
        return kernels

    def _array_locals(self):
        """Arbiter-derived hot-loop locals: the arbiter, priorities,
        decode width, dispatch table (its length, whether constant,
        first owner) and slot schedules, re-read whenever the arbiter
        changes (a priority nop, sysfs write or governor actuation
        lands at the next decode boundary, as in the object engine).
        The table maps ``cycle % len(table)`` to the owning thread id
        (or None) -- every arbiter mode's owner pattern is periodic
        with the period used here, which ``owner()`` itself guarantees
        since the table is built by evaluating it.  The table and the
        schedules depend only on the arbiter's parameters, so each is
        built once per process.  ``sched[ga0 + 2 * ga1]`` holds,
        per thread, the slots it decodes in while exactly those threads
        may decode (a slot whose owner may not passes to the
        sibling): ``(m, cum, offs)``, the sorted table offsets ``offs``
        of its ``m`` slots per period and ``cum[r]``, how many of them
        lie before offset ``r``.  Slot ``g`` (counting from cycle 0)
        then falls on cycle ``g // m * period + offs[g % m]``, and
        ``c // period * m + cum[c % period]`` slots precede cycle ``c``.
        """
        arb = self._arbiter
        mode = arb.mode
        if mode is ArbiterMode.LOW_POWER or mode is ArbiterMode.LOW_POWER_ST:
            width = 1
        else:
            width = self.config.decode_width
        key = (arb.prio_p, arb.prio_s, arb.low_power_interval)
        tables = _TABLES.get(key)
        if tables is None:
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
            own0, own1, both = [], [], []
            for k, o in enumerate(tab):
                if o is not None:
                    both.append(k)
                    (own1 if o else own0).append(k)
            own0, own1, both = (
                (len(offs), [bisect_left(offs, r) for r in range(period)],
                 offs) for offs in (own0, own1, both))
            none = (0, None, None)
            sched = ((none, none), (both, none), (none, both), (own0, own1))
            tables = _TABLES[key] = (tab, sched)
        tab, sched = tables
        prio_p, prio_s = self.priorities
        return (arb, prio_p, prio_s, width, tab, len(tab), len(tab) == 1,
                tab[0], sched)

    def _fill(self, th: ArrayThread | None, width: int) -> tuple:
        """Step-loop locals of ``th`` (``_EMPTY`` for no context): the
        ``HOT_COUNTERS``, balancer stall and throttle flags, repetition
        index, trace length, whether it has instructions (unfinished)
        and whether it may decode them (unfinished, lead open), next
        completion and kernels at ``width``.  Every sync in :meth:`step`
        reloads here.
        """
        if th is None:
            return _EMPTY
        q = th.inflight
        avail = not th.finished
        return fill_hot(th) + (
            th.balancer_stalled, th.throttled, th.rep_index, len(th.trace),
            avail, avail and not self._gate_closed(th.thread_id),
            q[0][0] if q else _BIG, self._live_kernels(th, width))

    def step(self, cycles: int) -> int:  # noqa: C901 (the hot loop)
        """Simulate ``cycles`` cycles; returns cycles actually run."""
        if cycles <= 0:
            return 0
        if self._tracer is not None:
            # Per-instruction tracing is the instrumented object loop's
            # job.
            return super().step(cycles)
        cfg = self.config
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

        gct_groups = cfg.gct_groups
        bal_on = bal_enabled and t0 is not None and t1 is not None
        misp_pen = cfg.branch.mispredict_penalty
        thr_interval = bal_cfg.throttle_interval
        decode_slot = self._decode_slot  # reference path (prio groups,
        #                                  unkernelizable traces)
        # Quiet-span fast-forward (see the slow block): a decode that
        # dispatches nothing raises ``slow`` when no retire is due within
        # ``min_span`` cycles, from cycle ``retry`` on; an attempt that
        # finds a shorter span moves ``retry`` to its bound, before which
        # nothing moves.  Runs with repetition leads never try: leads hold
        # still inside a span, so their spans would be exact too, but in
        # the software pipeline the attempts cost more than they skip.
        retry = 0 if self._leads == (_UNGATED, _UNGATED) else _BIG
        min_span = _MIN_SPAN
        stall_on = stall_en and bal_on
        flush_on = flush_en and bal_on
        fill = self._fill
        BIG = _BIG

        (arbiter, prio_p, prio_s, dec_width, tab, tab_len, one, tid0,
         sched) = self._array_locals()

        # Hot per-thread state lives in locals (in ``_fill`` order).  A
        # sync is one ``spill_hot`` before anything that can observe a
        # thread runs (reference decode, flush, hooks) and one ``fill``
        # after, plus a spill on return.  ``balancer_stalled`` is written
        # through on change and ``throttled`` only by the window update
        # (which returns it), so neither attribute is ever stale.
        # ``avail`` (unfinished) drives the balancer, ``ga`` (unfinished,
        # lead open; see the module docstring) decode.
        ld0, ld1 = self._leads
        ends0 = () if t0 is None else t0.rep_end_times
        ends1 = () if t1 is None else t1.rep_end_times
        q0 = None if t0 is None else t0.inflight
        q1 = None if t1 is None else t1.inflight
        (own0, gh0, ret0, dec0, grp0, opw0, fuw0, ws0, lg0, ls0, lb0, lt0,
         mis0, su0, pos0, bst0, thr0, rep0, n0, avail0, ga0, nc0,
         kern0) = fill(t0, dec_width)
        (own1, gh1, ret1, dec1, grp1, opw1, fuw1, ws1, lg1, ls1, lb1, lt1,
         mis1, su1, pos1, bst1, thr1, rep1, n1, avail1, ga1, nc1,
         kern1) = fill(t1, dec_width)
        gct_used = self._gct_used

        now = self._cycle
        end = now + cycles
        next_gc = now + 1024
        # One folded deadline gates the three per-cycle bookkeeping
        # checks (unit-pool GC, balancer window, periodic hooks): each
        # component only moves inside a ``slow`` iteration, so the
        # deadline is recomputed there, starting with the first.
        due = now
        while now < end:
            slow = now >= due
            if slow and now >= next_gc:
                self.fus.collect(now)
                next_gc = now + 1024
            # -- decode ------------------------------------------------
            # Same slot-passing strictness as the object engine: an
            # *empty* owner (no context, workload finished, or its lead
            # not open) passes the slot to the sibling; a merely
            # *blocked* owner wastes it.
            tid = tid0 if one else tab[now % tab_len]
            if tid is None:
                dec = -1
            elif tid == 0:
                dec = 0 if ga0 else 1 if ga1 else -1
            else:
                dec = 1 if ga1 else 0 if ga0 else -1
            if dec == 0:
                own0 += 1
                if su0 > now:
                    ws0 += 1
                    ls0 += 1
                    if (now >= retry and nc0 - now > min_span
                            and nc1 - now > min_span):
                        slow = True
                elif bst0:
                    ws0 += 1
                    lb0 += 1
                    if (now >= retry and nc0 - now > min_span
                            and nc1 - now > min_span):
                        slow = True
                elif thr0 and own0 % thr_interval:
                    ws0 += 1
                    lt0 += 1
                    if (now >= retry and nc0 - now > min_span
                            and nc1 - now > min_span):
                        slow = True
                elif gct_used >= gct_groups:
                    lg0 += 1
                    if (now >= retry and nc0 - now > min_span
                            and nc1 - now > min_span):
                        slow = True
                else:
                    p = pos0
                    k = kern0[p] if kern0 is not None and p < n0 else None
                    if k is not None:
                        p2, cnt, gcomp, ow, fw, mc, rd = k(now, 0)
                        opw0 += ow
                        fuw0 += fw
                        if mc >= 0:
                            mis0 += 1
                            su0 = mc + misp_pen
                        if p == 0 and len(t0.rep_start_times) == rep0:
                            t0.rep_start_times.append(now)
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
                            ga0 = avail0 and rep0 < len(ends1) + ld0
                            kern0 = self._live_kernels(t0, dec_width)
                    else:
                        # Reference path: prio group, unkernelized
                        # trace, or the defensive pos-overrun case.
                        spill_hot(t0, (own0, gh0, ret0, dec0, grp0, opw0,
                                       fuw0, ws0, lg0, ls0, lb0, lt0, mis0,
                                       su0, pos0))
                        self._gct_used = gct_used
                        decode_slot(t0, 0, now, dec_width)
                        gct_used = self._gct_used
                        if arbiter is not self._arbiter:
                            (arbiter, prio_p, prio_s, dec_width, tab, tab_len,
                             one, tid0, sched) = self._array_locals()
                            kern1 = self._live_kernels(t1, dec_width)
                        (own0, gh0, ret0, dec0, grp0, opw0, fuw0, ws0, lg0,
                         ls0, lb0, lt0, mis0, su0, pos0, bst0, thr0, rep0,
                         n0, avail0, ga0, nc0, kern0) = fill(t0, dec_width)
            elif dec == 1:
                own1 += 1
                if su1 > now:
                    ws1 += 1
                    ls1 += 1
                    if (now >= retry and nc0 - now > min_span
                            and nc1 - now > min_span):
                        slow = True
                elif bst1:
                    ws1 += 1
                    lb1 += 1
                    if (now >= retry and nc0 - now > min_span
                            and nc1 - now > min_span):
                        slow = True
                elif thr1 and own1 % thr_interval:
                    ws1 += 1
                    lt1 += 1
                    if (now >= retry and nc0 - now > min_span
                            and nc1 - now > min_span):
                        slow = True
                elif gct_used >= gct_groups:
                    lg1 += 1
                    if (now >= retry and nc0 - now > min_span
                            and nc1 - now > min_span):
                        slow = True
                else:
                    p = pos1
                    k = kern1[p] if kern1 is not None and p < n1 else None
                    if k is not None:
                        p2, cnt, gcomp, ow, fw, mc, rd = k(now, 1)
                        opw1 += ow
                        fuw1 += fw
                        if mc >= 0:
                            mis1 += 1
                            su1 = mc + misp_pen
                        if p == 0 and len(t1.rep_start_times) == rep1:
                            t1.rep_start_times.append(now)
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
                            ga1 = avail1 and rep1 < len(ends0) + ld1
                            kern1 = self._live_kernels(t1, dec_width)
                    else:
                        spill_hot(t1, (own1, gh1, ret1, dec1, grp1, opw1,
                                       fuw1, ws1, lg1, ls1, lb1, lt1, mis1,
                                       su1, pos1))
                        self._gct_used = gct_used
                        decode_slot(t1, 1, now, dec_width)
                        gct_used = self._gct_used
                        if arbiter is not self._arbiter:
                            (arbiter, prio_p, prio_s, dec_width, tab, tab_len,
                             one, tid0, sched) = self._array_locals()
                            kern0 = self._live_kernels(t0, dec_width)
                        (own1, gh1, ret1, dec1, grp1, opw1, fuw1, ws1, lg1,
                         ls1, lb1, lt1, mis1, su1, pos1, bst1, thr1, rep1,
                         n1, avail1, ga1, nc1, kern1) = fill(t1, dec_width)
            elif (now >= retry and nc0 - now > min_span
                  and nc1 - now > min_span):
                slow = True

            # -- retire (in order, one group per thread per cycle) -----
            if nc0 <= now:
                budget = retire_budget
                while True:
                    g = q0.popleft()
                    ret0 += g[1]
                    gh0 -= 1
                    gct_used -= 1
                    if g[2]:
                        t0.rep_end_times.append(now)
                        t0.rep_end_retired.append(ret0)
                        ga1 = avail1 and rep1 < len(ends0) + ld1
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
                        t1.rep_end_times.append(now)
                        t1.rep_end_retired.append(ret1)
                        ga0 = avail0 and rep0 < len(ends1) + ld0
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
                        spill_hot(t0, (own0, gh0, ret0, dec0, grp0, opw0, fuw0,
                                       ws0, lg0, ls0, lb0, lt0, mis0, su0,
                                       pos0))
                        self._gct_used = gct_used
                        self._flush(t0, now)
                        gct_used = self._gct_used
                        (own0, gh0, ret0, dec0, grp0, opw0, fuw0, ws0, lg0,
                         ls0, lb0, lt0, mis0, su0, pos0, bst0, thr0, rep0, n0,
                         avail0, ga0, nc0, kern0) = fill(t0, dec_width)
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
                        spill_hot(t1, (own1, gh1, ret1, dec1, grp1, opw1, fuw1,
                                       ws1, lg1, ls1, lb1, lt1, mis1, su1,
                                       pos1))
                        self._gct_used = gct_used
                        self._flush(t1, now)
                        gct_used = self._gct_used
                        (own1, gh1, ret1, dec1, grp1, opw1, fuw1, ws1, lg1,
                         ls1, lb1, lt1, mis1, su1, pos1, bst1, thr1, rep1, n1,
                         avail1, ga1, nc1, kern1) = fill(t1, dec_width)

                if slow and now >= bal.next_window:
                    bal.next_window = now + window
                    thr0, thr1 = self._window_update(
                        t0, t1, prio_p, prio_s, ret0, ret1)

            # -- periodic hooks ----------------------------------------
            if slow and 0 <= self._next_hook <= now:
                # Hooks observe everything (PMU capture, governor
                # policies): sync the localized state out first and
                # reload after -- a hook may retune priorities or read
                # any thread counter.
                if t0 is not None:
                    spill_hot(t0, (own0, gh0, ret0, dec0, grp0, opw0, fuw0,
                                   ws0, lg0, ls0, lb0, lt0, mis0, su0, pos0))
                if t1 is not None:
                    spill_hot(t1, (own1, gh1, ret1, dec1, grp1, opw1, fuw1,
                                   ws1, lg1, ls1, lb1, lt1, mis1, su1, pos1))
                self._gct_used = gct_used
                for h in self._hooks:
                    if now >= h[1]:
                        h[1] += h[0]
                        h[2](self, now)
                self._next_hook = min(h[1] for h in self._hooks)
                gct_used = self._gct_used
                if arbiter is not self._arbiter:
                    (arbiter, prio_p, prio_s, dec_width, tab, tab_len, one,
                     tid0, sched) = self._array_locals()
                (own0, gh0, ret0, dec0, grp0, opw0, fuw0, ws0, lg0, ls0, lb0,
                 lt0, mis0, su0, pos0, bst0, thr0, rep0, n0, avail0, ga0, nc0,
                 kern0) = fill(t0, dec_width)
                (own1, gh1, ret1, dec1, grp1, opw1, fuw1, ws1, lg1, ls1, lb1,
                 lt1, mis1, su1, pos1, bst1, thr1, rep1, n1, avail1, ga1, nc1,
                 kern1) = fill(t1, dec_width)

            if slow:
                if now >= due:
                    # The balancer window and the hooks are hard
                    # deadlines; unit-pool GC is bookkeeping and may
                    # run late, on landing from a span.
                    hard = end
                    if bal_on and bal.next_window < hard:
                        hard = bal.next_window
                    nh = self._next_hook
                    if 0 <= nh < hard:
                        hard = nh
                    due = next_gc if next_gc < hard else hard
                # -- quiet-span fast-forward ---------------------------
                # Find the first cycle ``t`` > ``now`` at which anything
                # but a slot counter can change, and credit ``[now+1,
                # t)`` arithmetically.  Until ``t`` no group retires
                # (``nc``) and no deadline passes, so GCT use,
                # completions, availability (leads included: they move
                # only at a dispatch or a retire) and the balancer and
                # throttle flags hold still; each slot then ends in its
                # owner's current blocking reason, and ``t`` stops at
                # the first slot whose owner could dispatch.
                if now >= retry:
                    s = now + 1
                    t = hard if hard < nc0 else nc0
                    if nc1 < t:
                        t = nc1
                    if t - s >= min_span and stall_on and (
                            ((not avail1 or gh0 <= resume_thr) if bst0
                             else avail1 and gh0 > stall_thr)
                            or ((not avail0 or gh1 <= resume_thr) if bst1
                                else avail0 and gh1 > stall_thr)):
                        t = s  # a balancer stall flag is about to move
                    if t - s >= min_span:
                        gct_full = gct_used >= gct_groups
                        ((m0, cum0, offs0),
                         (m1, cum1, offs1)) = sched[ga0 + 2 * ga1]
                        # A slot wakes its owner at redirect expiry, at
                        # the throttle's every ``thr_interval``-th owned
                        # slot, or at once -- unless a balancer stall or
                        # a full GCT blocks it until a retire.
                        if m0:
                            if su0 > s:
                                if su0 < t:
                                    t = su0
                            elif not bst0 and not gct_full:
                                g = (s // tab_len * m0 + cum0[s % tab_len]
                                     + (thr_interval - 1
                                        - own0 % thr_interval if thr0
                                        else 0))
                                w = g // m0 * tab_len + offs0[g % m0]
                                if w < t:
                                    t = w
                        if m1:
                            if su1 > s:
                                if su1 < t:
                                    t = su1
                            elif not bst1 and not gct_full:
                                g = (s // tab_len * m1 + cum1[s % tab_len]
                                     + (thr_interval - 1
                                        - own1 % thr_interval if thr1
                                        else 0))
                                w = g // m1 * tab_len + offs1[g % m1]
                                if w < t:
                                    t = w
                        # A flush waits for redirect expiry (``su``) and
                        # gets no likelier as the oldest completion nears.
                        if flush_on and gct_used >= gct_floor:
                            if (avail1 and gh0 and gh0 >= flush_thr
                                    and prio_p <= prio_s):
                                w = su0 if su0 > s else s
                                if w < t and nc0 > w + horizon:
                                    t = w
                            if (avail0 and gh1 and gh1 >= flush_thr
                                    and prio_s <= prio_p):
                                w = su1 if su1 > s else s
                                if w < t and nc1 > w + horizon:
                                    t = w
                    if t - s < min_span:
                        retry = t
                    else:
                        span = t - s
                        wraps = t // tab_len - s // tab_len
                        if m0:
                            got = (wraps * m0 + cum0[t % tab_len]
                                   - cum0[s % tab_len])
                            if su0 > s:
                                ws0 += got
                                ls0 += got
                            elif bst0:
                                ws0 += got
                                lb0 += got
                            elif thr0:
                                # Every thr_interval-th owned slot meets
                                # the full GCT instead.
                                full = ((own0 + got) // thr_interval
                                        - own0 // thr_interval)
                                lg0 += full
                                ws0 += got - full
                                lt0 += got - full
                            else:
                                lg0 += got
                            own0 += got
                        if m1:
                            got = (wraps * m1 + cum1[t % tab_len]
                                   - cum1[s % tab_len])
                            if su1 > s:
                                ws1 += got
                                ls1 += got
                            elif bst1:
                                ws1 += got
                                lb1 += got
                            elif thr1:
                                full = ((own1 + got) // thr_interval
                                        - own1 // thr_interval)
                                lg1 += full
                                ws1 += got - full
                                lt1 += got - full
                            else:
                                lg1 += got
                            own1 += got
                        if stall_on:
                            if bst0:
                                stall_cycles[0] += span
                            if bst1:
                                stall_cycles[1] += span
                        self.skipped_cycles += span
                        now = t - 1

            now += 1

        if t0 is not None:
            spill_hot(t0, (own0, gh0, ret0, dec0, grp0, opw0, fuw0, ws0, lg0,
                           ls0, lb0, lt0, mis0, su0, pos0))
        if t1 is not None:
            spill_hot(t1, (own1, gh1, ret1, dec1, grp1, opw1, fuw1, ws1, lg1,
                           ls1, lb1, lt1, mis1, su1, pos1))
        self._gct_used = gct_used
        self._cycle = now
        return cycles
