"""Behavioural tests of the cycle-level SMT core."""

import pytest

from repro.core import SMTCore
from repro.isa import (
    FixedTraceSource,
    Trace,
    TraceBuilder,
    fx,
)
from repro.priority.levels import PrivilegeLevel


def fx_source(name="fxloop", n=64):
    """A simple independent-FX workload."""
    b = TraceBuilder()
    for i in range(n):
        b.fx(2 + i % 8)
    return FixedTraceSource(b.build(name))


def chain_source(name="chain", n=64):
    """A serially dependent FX workload."""
    b = TraceBuilder()
    for _ in range(n):
        b.fx(2, 2)
    return FixedTraceSource(b.build(name))


class TestBasicExecution:
    def test_single_thread_retires_instructions(self, config):
        core = SMTCore(config)
        core.load([fx_source()])
        core.step(2000)
        th = core.thread(0)
        assert th.retired > 500
        assert th.completed_repetitions >= 1

    def test_repetition_accounting_monotonic(self, config):
        core = SMTCore(config)
        core.load([fx_source()])
        core.step(4000)
        th = core.thread(0)
        ends = list(th.rep_end_times)
        assert ends == sorted(ends)
        retired = list(th.rep_end_retired)
        assert retired == sorted(retired)

    def test_retired_never_exceeds_decoded(self, config):
        core = SMTCore(config)
        core.load([fx_source()])
        core.step(1000)
        th = core.thread(0)
        assert th.retired <= th.decoded

    def test_two_threads_both_progress(self, config):
        core = SMTCore(config)
        core.load([fx_source("a"), fx_source("b")])
        core.step(4000)
        assert core.thread(0).retired > 0
        assert core.thread(1).retired > 0

    def test_equal_priorities_equal_progress(self, config):
        core = SMTCore(config)
        core.load([fx_source("a"), fx_source("b")], priorities=(4, 4))
        core.step(8000)
        r0 = core.thread(0).retired
        r1 = core.thread(1).retired
        assert abs(r0 - r1) / max(r0, r1) < 0.05

    def test_missing_thread_is_st_mode(self, config):
        core = SMTCore(config)
        core.load([fx_source()])
        core.step(2000)
        st_retired = core.thread(0).retired
        core2 = SMTCore(config)
        core2.load([fx_source(), fx_source("other")])
        core2.step(2000)
        assert core2.thread(0).retired < st_retired

    def test_result_snapshot(self, config):
        core = SMTCore(config)
        core.load([fx_source()], priorities=(6, 2))
        core.step(1000)
        result = core.result()
        assert result.priorities == (6, 2)
        assert result.thread(0).workload == "fxloop"
        assert result.cycles == 1000


class TestGCTBound:
    def test_gct_occupancy_never_exceeds_capacity(self, config):
        core = SMTCore(config)
        core.load([chain_source("a"), chain_source("b")])
        for _ in range(50):
            core.step(100)
            held = core.thread(0).gct_held + core.thread(1).gct_held
            assert held <= config.gct_groups

    def test_slow_thread_reports_gct_losses(self, config):
        core = SMTCore(config)
        # A long serial chain fills the GCT; the sibling loses slots.
        core.load([fx_source("fast"), chain_source("slow", n=512)])
        core.step(20000)
        assert core.thread(0).slots_lost_gct > 0


class TestPriorityEffects:
    def test_higher_priority_gets_more_done(self, config):
        core = SMTCore(config)
        core.load([fx_source("a"), fx_source("b")], priorities=(6, 2))
        core.step(16000)
        assert core.thread(0).retired > 4 * core.thread(1).retired

    def test_symmetric_priorities_swap(self, config):
        results = []
        for prios in ((6, 2), (2, 6)):
            core = SMTCore(config)
            core.load([fx_source("a"), fx_source("b")], priorities=prios)
            core.step(16000)
            results.append((core.thread(0).retired,
                            core.thread(1).retired))
        assert results[0][0] == pytest.approx(results[1][1], rel=0.05)

    def test_low_power_mode_trickles(self, config):
        core = SMTCore(config)
        core.load([fx_source("a"), fx_source("b")], priorities=(1, 1))
        core.step(3200)
        total = core.thread(0).retired + core.thread(1).retired
        # One instruction per 32 cycles in low-power mode.
        assert total <= 3200 // config.low_power_decode_interval + 2

    def test_thread_off_means_no_progress(self, config):
        core = SMTCore(config)
        core.load([fx_source("a"), fx_source("b")], priorities=(4, 0))
        core.step(4000)
        assert core.thread(1).retired == 0
        assert core.thread(0).retired > 1000

    def test_set_priorities_midrun(self, config):
        core = SMTCore(config)
        core.load([fx_source("a"), fx_source("b")], priorities=(4, 4))
        core.step(2000)
        r1_before = core.thread(1).retired
        core.set_priorities(6, 1)
        core.step(8000)
        r1_gain = core.thread(1).retired - r1_before
        assert r1_gain < core.thread(0).retired / 4


class TestPriorityNops:
    def _source_with_nop(self, priority):
        b = TraceBuilder()
        if priority is None:
            b.nop()
        else:
            b.priority_nop(priority)
        for _ in range(63):
            b.fx(2)
        return FixedTraceSource(b.build("prio_nop"))

    def test_honored_at_sufficient_privilege(self, config):
        core = SMTCore(config)
        core.load([self._source_with_nop(2), fx_source("b")],
                  privileges=(PrivilegeLevel.USER, PrivilegeLevel.USER))
        core.step(500)
        assert core.priorities[0] == 2
        assert core.thread(0).priority_changes >= 1

    def test_silently_ignored_without_privilege(self, config):
        core = SMTCore(config)
        core.load([self._source_with_nop(6), fx_source("b")],
                  privileges=(PrivilegeLevel.USER, PrivilegeLevel.USER))
        core.step(500)
        assert core.priorities[0] == 4  # unchanged
        assert core.thread(0).priority_changes == 0

    def test_supervisor_may_raise_to_six(self, config):
        core = SMTCore(config)
        core.load([self._source_with_nop(6), fx_source("b")],
                  privileges=(PrivilegeLevel.SUPERVISOR,
                              PrivilegeLevel.USER))
        core.step(500)
        assert core.priorities[0] == 6
        assert core.thread(0).priority_changes >= 1

    def test_plain_nop_is_ignored(self, config):
        core = SMTCore(config)
        core.load([self._source_with_nop(None), fx_source("b")],
                  privileges=(PrivilegeLevel.HYPERVISOR,
                              PrivilegeLevel.USER))
        core.step(500)
        assert core.priorities == (4, 4)
        assert core.thread(0).priority_changes == 0

    def test_request_priority_counts_only_applied(self, config):
        core = SMTCore(config)
        core.load([fx_source("a"), fx_source("b")])
        assert not core.request_priority(1, 6, PrivilegeLevel.USER)
        assert core.request_priority(1, 6, PrivilegeLevel.SUPERVISOR)
        assert core.priorities == (4, 6)
        assert [core.thread(t).priority_changes for t in (0, 1)] == [0, 1]

    def test_nop_change_affects_arbitration(self, config):
        core = SMTCore(config)
        core.load([self._source_with_nop(6), fx_source("b")],
                  privileges=(PrivilegeLevel.SUPERVISOR,
                              PrivilegeLevel.USER))
        core.step(16000)
        assert core.thread(0).retired > 2 * core.thread(1).retired


class TestHooks:
    def test_periodic_hook_fires(self, config):
        core = SMTCore(config)
        core.load([fx_source()])
        fired = []
        core.add_periodic_hook(500, lambda c, now: fired.append(now))
        core.step(2600)
        assert len(fired) == 5

    def test_hook_period_validated(self, config):
        core = SMTCore(config)
        core.load([fx_source()])
        with pytest.raises(ValueError):
            core.add_periodic_hook(0, lambda c, n: None)


class TestLoadValidation:
    def test_needs_one_or_two_sources(self, config):
        core = SMTCore(config)
        with pytest.raises(ValueError):
            core.load([])
        with pytest.raises(ValueError):
            core.load([fx_source(), fx_source(), fx_source()])

    def test_empty_trace_rejected(self, config):
        core = SMTCore(config)
        with pytest.raises(ValueError):
            core.load([FixedTraceSource(Trace("empty", []))])

    def test_thread_accessor_errors_on_missing(self, config):
        core = SMTCore(config)
        core.load([fx_source()])
        with pytest.raises(KeyError):
            core.thread(1)

    def test_load_resets_state(self, config):
        core = SMTCore(config)
        core.load([fx_source()])
        core.step(1000)
        core.load([fx_source()])
        assert core.cycle == 0
        assert core.thread(0).retired == 0
