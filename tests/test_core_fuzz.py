"""Property-based fuzzing of the SMT core with random traces.

Hypothesis generates arbitrary (valid) instruction traces and priority
pairs; the core must uphold its structural invariants on all of them:
bounded GCT occupancy, monotone accounting, retirement never ahead of
decode, and clean termination of finite workloads.  Memory-heavy
two-thread traces over an address pool that aliases on purpose must
also leave the array and object engines in the same machine state,
with or without random repetition gates, as must traces whose decode
groups re-touch lines and mix same-set tags, or run under a hook
that rewrites priorities and prefetcher knobs.  These traces carry
priority nops, whose groups the array engine decodes on the reference
path.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import POWER5
from repro.core import SMTCore, make_core
from repro.isa import FixedTraceSource, Instruction, OpClass, Trace
from repro.isa.priority_ops import encode_priority_nop
from repro.prefetch import PrefetchConfig
from repro.prefetch.config import MAX_DEGREE, MAX_DEPTH

_CONFIG = POWER5.small()

regs = st.integers(min_value=0, max_value=63)
maybe_reg = st.one_of(st.just(-1), regs)
addrs = st.integers(min_value=0, max_value=1 << 22)


def _instruction(draw_op, dst, s1, s2, addr, taken):
    op = draw_op
    if op is OpClass.LOAD:
        return Instruction(op, dst, s1, -1, addr)
    if op is OpClass.STORE:
        return Instruction(op, -1, max(s1, 0), s2, addr)
    if op is OpClass.BRANCH:
        return Instruction(op, -1, s1, -1, -1, 1 if taken else 0)
    if op in (OpClass.NOP, OpClass.PRIO_NOP):
        return Instruction(OpClass.NOP)
    return Instruction(op, dst, s1, s2)


instructions = st.builds(
    _instruction,
    st.sampled_from(list(OpClass)),
    regs, maybe_reg, maybe_reg, addrs, st.booleans())

traces = st.lists(instructions, min_size=1, max_size=60)
priorities = st.integers(min_value=0, max_value=7)


def _source(items, name):
    return FixedTraceSource(Trace(name, items))


class TestCoreInvariantsUnderFuzz:
    @given(traces, traces, priorities, priorities)
    @settings(max_examples=40, deadline=None)
    def test_structural_invariants(self, t0, t1, p0, p1):
        core = SMTCore(_CONFIG)
        core.load([_source(t0, "a"), _source(t1, "b")],
                  priorities=(p0, p1))
        last = [0, 0]
        for _ in range(8):
            core.step(256)
            held = 0
            for tid in (0, 1):
                th = core.thread(tid)
                held += th.gct_held
                # Retirement is bounded by decode.
                assert th.retired <= th.decoded
                # Progress counters are monotone.
                assert th.retired >= last[tid]
                last[tid] = th.retired
                # Repetition accounting is ordered and consistent.
                ends = list(th.rep_end_times)
                assert ends == sorted(ends)
                assert len(th.rep_end_times) == len(th.rep_end_retired)
                assert th.gct_held == len(th.inflight)
            assert held <= _CONFIG.gct_groups

    @given(traces, priorities)
    @settings(max_examples=30, deadline=None)
    def test_single_thread_progress_or_off(self, t0, p0):
        core = SMTCore(_CONFIG)
        core.load([_source(t0, "a")], priorities=(p0, 0))
        core.step(4096)
        th = core.thread(0)
        if p0 == 0:
            assert th.retired == 0
        else:
            assert th.retired > 0

    @given(traces, traces)
    @settings(max_examples=20, deadline=None)
    def test_result_snapshot_consistent(self, t0, t1):
        core = SMTCore(_CONFIG)
        core.load([_source(t0, "a"), _source(t1, "b")])
        core.step(1024)
        result = core.result()
        for tr in result.threads:
            assert 0.0 <= tr.ipc <= 5.0 + 1e-9
            assert tr.retired >= tr.accounted_retired - tr.retired \
                or tr.accounted_retired <= tr.retired
        assert result.total_ipc >= 0.0

    @given(traces)
    @settings(max_examples=20, deadline=None)
    def test_determinism(self, t0):
        runs = []
        for _ in range(2):
            core = SMTCore(_CONFIG)
            core.load([_source(t0, "a"), _source(t0[::-1] or t0, "b")])
            core.step(2048)
            runs.append((core.thread(0).retired,
                         core.thread(1).retired))
        assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# Array vs object engine on aliasing memory traces
# ----------------------------------------------------------------------

_OBJECT_CONFIG = dataclasses.replace(_CONFIG, engine="object")


def _aliasing_pool(config):
    """Addresses that crowd one L1D set and one TLB set.

    One more tag than the L1D has ways, in L1D set 0, on each of one
    more page than the TLB has ways, all in TLB set 0 (the TLB set
    span is a multiple of the L1D set span), so both levels evict and
    re-fill under random reuse.
    """
    l1d, tlb = config.l1d, config.tlb
    l1_span = l1d.num_sets * l1d.line_bytes
    tlb_span = tlb.entries // tlb.associativity * tlb.page_bytes
    assert tlb_span % l1_span == 0
    return [page * tlb_span + line * l1_span
            for page in range(tlb.associativity + 1)
            for line in range(l1d.associativity + 1)]


_POOL = _aliasing_pool(_CONFIG)

#: Levels a priority nop can request (user code may set only 2..4).
nop_levels = st.integers(min_value=1, max_value=6)


def _mem_instruction(op, dst, src, addr, taken, prio):
    if op is OpClass.PRIO_NOP:
        return encode_priority_nop(prio)
    if op is OpClass.LOAD:
        return Instruction(op, dst, src, -1, addr)
    if op is OpClass.STORE:
        return Instruction(op, -1, max(src, 0), -1, addr)
    if op is OpClass.BRANCH:
        return Instruction(op, -1, src, -1, -1, 1 if taken else 0)
    return Instruction(op, dst, src, -1)


mem_traces = st.lists(st.builds(
    _mem_instruction,
    st.sampled_from([OpClass.LOAD, OpClass.LOAD, OpClass.STORE,
                     OpClass.FX, OpClass.FP, OpClass.BRANCH,
                     OpClass.PRIO_NOP]),
    regs, maybe_reg, st.sampled_from(_POOL), st.booleans(), nop_levels),
    min_size=1, max_size=40)


class TestEnginesAgreeOnAliasingMemoryTraces:
    @given(mem_traces, mem_traces, st.booleans(),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_machine_state_identical(self, t0, t1, lockstep, p0, p1):
        """Same stamps, LRU order, statistics and timing on both engines.

        With ``lockstep`` both threads run the same trace, so their
        accesses to the shared sets land on equal cycles and recency
        stamps tie.
        """
        if lockstep:
            t1 = t0
        states = []
        for config in (_CONFIG, _OBJECT_CONFIG):
            core = make_core(config)
            core.load([_source(t0, "a"), _source(t1, "b")],
                      priorities=(p0, p1))
            core.step(3000)
            states.append(core.state())
        assert states[0] == states[1]


def _mixed_pool(config):
    """Addresses that re-touch, conflict with and miss past each other.

    More L1D set-0 tags than ways (the first also shares its line with
    a second address), more TLB set-0 pages than ways, and lines in
    other L1D and TLB sets.  Within one decode group a memory op then
    often re-touches a line an earlier op of the group touched, with
    or without a same-set, other-tag op in between.
    """
    l1d, tlb = config.l1d, config.tlb
    line = l1d.line_bytes
    l1_span = l1d.num_sets * line
    tlb_span = tlb.entries // tlb.associativity * tlb.page_bytes
    same_set = [k * l1_span for k in range(l1d.associativity + 1)]
    same_tlb_set = [k * tlb_span for k in range(1, tlb.associativity + 1)]
    other_sets = [line, 3 * line + l1_span, tlb.page_bytes + 2 * line]
    same_lines = [8, line + 64, l1_span + 16]
    return same_set + same_tlb_set + other_sets + same_lines


mixed_traces = st.lists(st.builds(
    _mem_instruction,
    st.sampled_from([OpClass.LOAD, OpClass.LOAD, OpClass.STORE,
                     OpClass.FX, OpClass.BRANCH, OpClass.PRIO_NOP]),
    regs, maybe_reg, st.sampled_from(_mixed_pool(_CONFIG)),
    st.booleans(), nop_levels),
    min_size=1, max_size=40)


class TestEnginesAgreeOnMixedMemoryTraces:
    @given(mixed_traces, mixed_traces, st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_machine_state_identical(self, t0, t1, p0, p1):
        """Groups that re-touch lines, mix same-set tags, claim units
        with and without ready operands, or change priority leave both
        engines in the same machine state."""
        states = []
        for config in (_CONFIG, _OBJECT_CONFIG):
            core = make_core(config)
            core.load([_source(t0, "a"), _source(t1, "b")],
                      priorities=(p0, p1))
            core.step(3000)
            states.append(core.state())
        assert states[0] == states[1]


# ----------------------------------------------------------------------
# Array vs object engine under random repetition gates
# ----------------------------------------------------------------------

#: Per-thread gate rules: ``None`` (always open), a repetition cap
#: (``rep < k``), the two sibling-progress rules of
#: ``SoftwarePipeline``'s gate (``lead``: at most ``k`` repetitions
#: ahead of the sibling, like its producer; ``follow``: only past the
#: sibling's completed repetitions, like its consumer), or a
#: ``now >= t`` threshold.
gate_rules = st.one_of(
    st.none(),
    st.tuples(st.just("cap"), st.integers(min_value=0, max_value=6)),
    st.tuples(st.just("lead"), st.integers(min_value=1, max_value=3)),
    st.just(("follow", 0)),
    st.tuples(st.just("after"), st.integers(min_value=0, max_value=3000)))


def _rep_gate(rules, threads):
    """The gate of ``rules``; ``threads`` is filled after ``load``."""
    def gate(tid, rep, now):
        rule = rules[tid]
        if rule is None:
            return True
        kind, k = rule
        if kind == "cap":
            return rep < k
        if kind == "after":
            return now >= k
        done = threads[1 - tid].completed_repetitions
        return rep - done < k if kind == "lead" else done > rep
    return gate


class TestEnginesAgreeUnderRandomGates:
    @given(mem_traces, mem_traces, gate_rules, gate_rules,
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=6),
           st.sampled_from([(3000,), (700, 1100, 1200)]))
    @settings(max_examples=40, deadline=None)
    def test_machine_state_identical(self, t0, t1, r0, r1, p0, p1,
                                     chunks):
        """Gate polling in the array loop matches ``SMTCore.step``,
        whole-run or in chunks that stop mid-wait."""
        states = []
        for config in (_CONFIG, _OBJECT_CONFIG):
            core = make_core(config)
            threads = []
            core.load([_source(t0, "a"), _source(t1, "b")],
                      priorities=(p0, p1),
                      rep_gate=_rep_gate((r0, r1), threads))
            threads += (core.thread(0), core.thread(1))
            for cycles in chunks:
                core.step(cycles)
            states.append(core.state())
        assert states[0] == states[1]


# ----------------------------------------------------------------------
# Array vs object engine under random periodic hooks
# ----------------------------------------------------------------------

_PF_CONFIG = _CONFIG.replace(prefetch=PrefetchConfig(
    enabled=(True, True), depth=2, degree=1))

#: Successive hook firings' writes (cycled): a priority pair and one
#: thread's prefetcher knobs (thread, on, depth, degree).
hook_writes = st.lists(st.tuples(
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=1), st.booleans(),
    st.integers(min_value=1, max_value=MAX_DEPTH),
    st.integers(min_value=1, max_value=MAX_DEGREE)), min_size=1, max_size=6)


def _writer(writes, fired, knobs):
    def hook(core, now):
        p0, p1, tid, on, depth, degree = writes[len(fired) % len(writes)]
        fired.append(now)
        core.set_priorities(p0, p1)
        if knobs:  # only a prefetch-enabled config exercises them
            pf = core.hierarchy.prefetcher
            pf.set_enable(tid, on)
            pf.set_depth(tid, depth)
            pf.set_degree(tid, degree)
    return hook


class TestEnginesAgreeUnderRandomHooks:
    @given(mem_traces, mem_traces, nop_levels, nop_levels, st.booleans(),
           st.integers(min_value=2, max_value=900), hook_writes, st.data())
    @settings(max_examples=40, deadline=None)
    def test_machine_state_identical(self, t0, t1, p0, p1, prefetch,
                                     period, writes, data):
        """Hook firings land on the same cycles with the same effects
        on both engines when ``step`` is called in random chunks, the
        first of which ends strictly inside a hook period."""
        inside = data.draw(st.integers(min_value=1, max_value=period - 1))
        chunks = [period + inside] + data.draw(st.lists(
            st.integers(min_value=1, max_value=1500), max_size=3))
        array = _PF_CONFIG if prefetch else _CONFIG
        states = []
        for config in (array, dataclasses.replace(array, engine="object")):
            core = make_core(config)
            core.load([_source(t0, "a"), _source(t1, "b")],
                      priorities=(p0, p1))
            fired: list[int] = []
            core.add_periodic_hook(period, _writer(writes, fired, prefetch))
            for cycles in chunks:
                core.step(cycles)
            states.append((core.state(), fired))
        assert states[0] == states[1]
