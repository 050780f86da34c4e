"""Tests for the FAME methodology (MAIV + runner)."""

import pytest

from repro.fame import (
    FameRunner,
    accumulated_ipc_series,
    maiv_converged,
    repetitions_for_maiv,
)


class TestAccumulatedIPC:
    def test_series_values(self):
        series = accumulated_ipc_series([100, 200], [50, 100])
        assert series == [0.5, 0.5]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            accumulated_ipc_series([1, 2], [1])

    def test_zero_cycles_guarded(self):
        assert accumulated_ipc_series([0], [10]) == [0.0]


class TestMaivConvergence:
    def test_flat_series_converges(self):
        assert maiv_converged([1.0, 1.0, 1.0], maiv=0.01)

    def test_short_series_never_converges(self):
        assert not maiv_converged([1.0, 1.0], maiv=0.01)

    def test_moving_series_does_not_converge(self):
        assert not maiv_converged([1.0, 1.1, 1.2], maiv=0.01)

    def test_threshold_respected(self):
        series = [1.0, 1.005, 1.006]
        assert maiv_converged(series, maiv=0.01)
        assert not maiv_converged(series, maiv=0.0001)

    def test_window_requires_consecutive_stability(self):
        series = [1.0, 2.0, 2.0, 2.0]
        assert maiv_converged(series, maiv=0.01, window=2)
        assert not maiv_converged([1.0, 2.0, 2.0], maiv=0.01, window=2)

    def test_zero_ipc_never_converges(self):
        assert not maiv_converged([0.0, 0.0, 0.0], maiv=0.01)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            maiv_converged([1.0], maiv=0.0)
        with pytest.raises(ValueError):
            maiv_converged([1.0], maiv=0.01, window=0)

    def test_repetitions_for_maiv(self):
        series = [1.0, 1.5, 1.52, 1.521, 1.5211]
        assert repetitions_for_maiv(series, maiv=0.02) == 4

    def test_repetitions_for_maiv_none_when_unstable(self):
        assert repetitions_for_maiv([1.0, 2.0, 3.0], maiv=0.01) is None


class TestFameRunner:
    def test_single_run_reaches_min_reps(self, config, bench):
        runner = FameRunner(config, min_repetitions=5)
        fame = runner.run_single(bench("cpu_int"))
        assert fame.thread(0).repetitions >= 5
        assert fame.converged == (True,)
        assert not fame.capped

    def test_pair_run_both_reach_min_reps(self, config, bench):
        runner = FameRunner(config, min_repetitions=3)
        fame = runner.run_pair(bench("cpu_int"),
                               bench("cpu_fp", base_address=1 << 27))
        assert fame.thread(0).repetitions >= 3
        assert fame.thread(1).repetitions >= 3

    def test_faster_thread_reexecutes_more(self, config, bench):
        # Figure 1 of the paper: while the slow benchmark completes its
        # quota, the fast one keeps re-executing.  cpu_int and
        # lng_chain_cpuint have comparable repetition lengths but a
        # large IPC gap.
        runner = FameRunner(config, min_repetitions=3)
        fame = runner.run_pair(
            bench("cpu_int"),
            bench("lng_chain_cpuint", base_address=1 << 27))
        assert fame.thread(0).repetitions > fame.thread(1).repetitions

    def test_incomplete_repetition_discarded(self, config, bench):
        runner = FameRunner(config, min_repetitions=3)
        fame = runner.run_single(bench("cpu_int"))
        tr = fame.thread(0)
        # The FAME window closes at the last complete repetition.
        assert tr.accounted_cycles == tr.rep_end_times[-1]
        assert tr.accounted_cycles <= fame.cycles

    def test_cycle_cap_reported(self, config, bench):
        runner = FameRunner(config, min_repetitions=50,
                            max_cycles=20_000)
        fame = runner.run_single(bench("ldint_mem"))
        assert fame.capped
        assert fame.converged == (False,)

    def test_total_ipc_is_sum(self, config, bench):
        runner = FameRunner(config, min_repetitions=3)
        fame = runner.run_pair(bench("cpu_int"),
                               bench("cpu_fp", base_address=1 << 27))
        assert fame.total_ipc == pytest.approx(
            fame.thread(0).ipc + fame.thread(1).ipc)

    def test_parameter_validation(self, config):
        with pytest.raises(ValueError):
            FameRunner(config, min_repetitions=0)
        with pytest.raises(ValueError):
            FameRunner(config, min_repetitions=5, max_repetitions=3)

    @pytest.mark.parametrize("engine", ["array", "object"])
    def test_last_steady_state_is_false(self, config, bench, engine):
        """No run is telescoped; span tracers still read the flag."""
        cfg = config.replace(engine=engine)
        runner = FameRunner(cfg, min_repetitions=3)
        runner.run_single(bench("cpu_int"))
        assert runner.last_steady_state is False

    def test_deterministic_measurements(self, config, bench):
        runner = FameRunner(config, min_repetitions=3)
        a = runner.run_single(bench("cpu_int")).thread(0).ipc
        b = runner.run_single(bench("cpu_int")).thread(0).ipc
        assert a == b
