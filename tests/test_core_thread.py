"""Unit tests for per-thread state: repetitions, rewind, repetition leads."""

import dataclasses

import pytest

from repro.core import SMTCore, make_core
from repro.core.thread import HardwareThread, InflightGroup
from repro.isa import FixedTraceSource, Trace, fx


def small_source(n=8, name="s"):
    return FixedTraceSource(Trace(name, [fx(2 + i % 4) for i in range(n)]))


class FiniteSource:
    """A source that ends after ``reps`` repetitions."""

    def __init__(self, reps, n=16):
        self.name = f"finite{reps}"
        self.reps = reps
        self._trace = Trace(self.name, [fx(2 + i % 4) for i in range(n)])

    def repetition(self, rep_index):
        if rep_index >= self.reps:
            return ()
        return self._trace


class TestHardwareThread:
    def test_initial_state(self):
        th = HardwareThread(0, small_source())
        assert th.rep_index == 0
        assert th.pos == 0
        assert not th.finished
        assert th.completed_repetitions == 0

    def test_empty_first_repetition_rejected(self):
        with pytest.raises(ValueError):
            HardwareThread(0, FixedTraceSource(Trace("e", [])))

    def test_advance_repetition(self):
        th = HardwareThread(0, small_source())
        th.pos = 8
        th.advance_repetition()
        assert th.rep_index == 1
        assert th.pos == 0
        assert not th.finished

    def test_finite_source_finishes(self):
        th = HardwareThread(0, FiniteSource(2))
        th.advance_repetition()
        assert not th.finished
        th.advance_repetition()
        assert th.finished
        assert th.trace == []

    def test_stopiteration_also_ends(self):
        class Raising:
            name = "raising"

            def repetition(self, rep_index):
                if rep_index:
                    raise StopIteration
                return [fx(2)]
        th = HardwareThread(0, Raising())
        th.advance_repetition()
        assert th.finished

    def test_rewind_same_repetition(self):
        th = HardwareThread(0, small_source())
        th.pos = 6
        th.rewind(0, 2)
        assert th.pos == 2
        assert th.rep_index == 0

    def test_rewind_to_earlier_repetition(self):
        th = HardwareThread(0, small_source())
        th.advance_repetition()
        th.pos = 3
        th.rewind(0, 5)
        assert th.rep_index == 0
        assert th.pos == 5
        assert len(th.trace) == 8

    def test_rewind_clears_finished(self):
        th = HardwareThread(0, FiniteSource(1))
        th.advance_repetition()
        assert th.finished
        th.rewind(0, 0)
        assert not th.finished


class TestInflightGroup:
    def test_slots(self):
        g = InflightGroup(100, 3, True, 5, 2)
        assert (g.completion, g.count, g.rep_done) == (100, 3, True)
        assert (g.start_pos, g.rep_index) == (5, 2)
        with pytest.raises(AttributeError):
            g.other = 1  # __slots__ enforced


class TestFiniteWorkloadsOnCore:
    def test_core_finishes_finite_workload(self, config):
        core = SMTCore(config)
        core.load([FiniteSource(3)])
        for _ in range(100):
            core.step(100)
            if core.all_finished():
                break
        assert core.all_finished()
        core.drain()
        assert core.thread(0).completed_repetitions == 3

    def test_finished_thread_cedes_slots(self, config):
        core = SMTCore(config)
        core.load([FiniteSource(1), small_source(name="b")])
        core.step(20_000)
        # Thread 0 finished long ago; thread 1 should approach
        # single-thread throughput thanks to slot reassignment.
        solo = SMTCore(config)
        solo.load([small_source(name="b")])
        solo.step(20_000)
        assert core.thread(1).retired > 0.75 * solo.thread(0).retired

    def test_drain_empties_inflight(self, config):
        core = SMTCore(config)
        core.load([FiniteSource(2)])
        while not core.all_finished():
            core.step(500)
        core.drain()
        assert not core.thread(0).inflight


class TestRepetitionGate:
    """Repetition leads on the object engine (the reference loop)."""

    engine = "object"

    def make(self, config):
        return make_core(dataclasses.replace(config, engine=self.engine))

    def test_gate_blocks_until_open(self, config):
        """A lead of 0 holds a thread until its sibling completes a
        repetition: it decodes nothing before, and each of its
        repetitions starts only after the sibling's same repetition."""
        core = self.make(config)
        core.load([small_source(n=200, name="a"), small_source(name="b")],
                  rep_lead=(None, 0))
        while not core.thread(0).completed_repetitions:
            assert core.thread(1).decoded == 0
            core.step(7)
        core.step(4000)
        producer, consumer = core.thread(0), core.thread(1)
        assert consumer.completed_repetitions > 1
        for k, start in enumerate(consumer.rep_start_times):
            assert start > producer.rep_end_times[k]

    def test_gate_consulted_per_repetition(self, config):
        """With no sibling, a lead caps the thread's repetitions."""
        for lead in (0, 2):
            core = self.make(config)
            core.load([small_source()], rep_lead=(lead,))
            core.step(20_000)
            assert core.thread(0).completed_repetitions == lead
            assert core.thread(0).decoded == 8 * lead

    def test_gated_thread_cedes_slots_to_sibling(self, config):
        """A thread whose lead is closed passes its slots to the sibling
        (the sibling's one long repetition never completes here)."""
        core = self.make(config)
        core.load([small_source(n=12_000, name="a"), small_source(name="b")],
                  rep_lead=(None, 0))
        core.step(4000)
        solo = self.make(config)
        solo.load([small_source(n=12_000, name="a")])
        solo.step(4000)
        assert core.thread(0).completed_repetitions == 0
        assert core.thread(1).retired == 0
        assert core.thread(0).retired > 0.75 * solo.thread(0).retired

    def test_lead_validated(self, config):
        core = self.make(config)
        with pytest.raises(ValueError):
            core.load([small_source()], rep_lead=(1, 1))
        with pytest.raises(ValueError):
            core.load([small_source(), small_source()], rep_lead=(-1, 0))

    def test_rep_start_times_recorded(self, config):
        core = self.make(config)
        core.load([small_source()])
        core.step(5000)
        th = core.thread(0)
        starts = th.rep_start_times
        assert len(starts) >= th.completed_repetitions
        assert starts == sorted(starts)
        # Each repetition starts before it ends.
        for s, e in zip(starts, th.rep_end_times):
            assert s < e


class TestRepetitionGateArray(TestRepetitionGate):
    """The same lead contract on the compiled kernels: gated runs stay
    on the array loop, which folds the lead into decode availability."""

    engine = "array"
