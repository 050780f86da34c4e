"""Tests for the OS-scheduler layer: jobs, policies, dispatch loop."""

from __future__ import annotations

import pytest

from repro.chip import Chip, ChipConfig
from repro.experiments import ExperimentContext
from repro.experiments.base import PROBE_RUNNER, PairMetrics, ThreadMetrics
from repro.experiments.chip import chip_cell
from repro.experiments.parallel import PoolBackend
from repro.fame import FameRunner
from repro.microbench import make_microbenchmark
from repro.sched import (
    BoundedSource,
    Job,
    OsScheduler,
    RoundPlan,
    make_allocation_policy,
)
from repro.simcache import SimCache


# ----------------------------------------------------------------------
# Jobs and bounded sources
# ----------------------------------------------------------------------


class TestJobs:
    def test_job_validation(self):
        with pytest.raises(ValueError):
            Job("", 4)
        with pytest.raises(ValueError):
            Job("cpu_int", 0)

    def test_bounded_source_ends_at_quota(self, config):
        src = BoundedSource(make_microbenchmark("cpu_int", config), 2)
        assert src.name == "cpu_int"
        assert len(src.repetition(0)) > 0
        assert len(src.repetition(1)) > 0
        assert src.repetition(2) == ()

    def test_bounded_source_rejects_zero_quota(self, config):
        with pytest.raises(ValueError):
            BoundedSource(make_microbenchmark("cpu_int", config), 0)

    def test_round_plan_arity(self):
        with pytest.raises(ValueError):
            RoundPlan(jobs=(), priorities=(4, 4), reason="x")


# ----------------------------------------------------------------------
# Allocation policies (with stub probes: no simulation needed)
# ----------------------------------------------------------------------


class StubProbes:
    """Deterministic probe data: compute pairs 'friend', memory clash.

    Pair IPC is the sum of per-job solo IPCs, scaled down when both
    jobs are memory-bound; per-rep cycles stretch accordingly.  Like
    a probe context, :meth:`pair` returns :class:`PairMetrics`.
    """

    SOLO = {"cpu_a": (1.0, 1000.0), "cpu_b": (0.9, 1100.0),
            "mem_a": (0.2, 5000.0), "mem_b": (0.15, 5200.0)}

    def pair(self, a, b, priorities):
        (ipc_a, rep_a), (ipc_b, rep_b) = self.SOLO[a], self.SOLO[b]
        clash = 2.0 if (a.startswith("mem") and b.startswith("mem")) \
            else 1.0
        boost = 1.0 + 0.05 * (priorities[0] - priorities[1])
        return PairMetrics(
            priorities=priorities,
            primary=ThreadMetrics(a, priorities[0], ipc_a / clash * boost,
                                  rep_a * clash / boost, 4),
            secondary=ThreadMetrics(b, priorities[1],
                                    ipc_b / clash / boost,
                                    rep_b * clash * boost, 4),
            cycles=0)


JOBS = [Job("cpu_a", 4), Job("mem_a", 4), Job("cpu_b", 4),
        Job("mem_b", 4)]


class TestPolicies:
    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown allocation"):
            make_allocation_policy("nope")

    def test_round_robin_pairs_in_queue_order(self):
        plans = make_allocation_policy("round_robin").plan(list(JOBS))
        assert [tuple(j.name for j in p.jobs) for p in plans] == [
            ("cpu_a", "mem_a"), ("cpu_b", "mem_b")]
        assert all(p.priorities == (4, 4) for p in plans)

    def test_round_robin_single_tail(self):
        plans = make_allocation_policy("round_robin").plan(
            list(JOBS) + [Job("cpu_a", 2)])
        assert len(plans) == 3
        assert len(plans[-1].jobs) == 1
        assert plans[-1].priorities == (4, 0)

    def test_symbiosis_pairs_best_friends(self):
        plans = make_allocation_policy("symbiosis").plan(
            list(JOBS), StubProbes())
        pairs = [frozenset(j.name for j in p.jobs) for p in plans]
        # Greedy max pair IPC: the two compute jobs first, leaving the
        # memory jobs together (the stub penalizes mem+mem IPC, but
        # cpu+cpu is still the global best first pick).
        assert frozenset(("cpu_a", "cpu_b")) in pairs
        assert frozenset(("mem_a", "mem_b")) in pairs

    def test_symbiosis_requires_sampler(self):
        with pytest.raises(ValueError, match="sampler"):
            make_allocation_policy("symbiosis").plan(list(JOBS))

    def test_priority_aware_balances_with_priorities(self):
        from repro.sched import PROBE_LADDER
        plans = make_allocation_policy("priority_aware").plan(
            list(JOBS), StubProbes())
        by_pair = {frozenset(j.name for j in p.jobs): p.priorities
                   for p in plans}
        assert all(p in PROBE_LADDER for p in by_pair.values())
        # The cpu pair is asymmetric (1000 vs 1100 cycles/rep): boosting
        # the slower job's priority shrinks the round makespan, so the
        # policy departs from neutral (4, 4) there.
        assert by_pair[frozenset(("cpu_a", "cpu_b"))] == (4, 5)
        # The stub makes any boost lengthen the mem pair's slower job:
        # neutral stays optimal.
        assert by_pair[frozenset(("mem_a", "mem_b"))] == (4, 4)

    def test_background_consolidation(self):
        jobs = [Job("cpu_a", 4), Job("cpu_b", 4),
                Job("mem_a", 4, background=True),
                Job("mem_b", 4, background=True)]
        plans = make_allocation_policy("background").plan(jobs)
        assert all(p.priorities == (6, 1) for p in plans)
        for p in plans:
            assert not p.jobs[0].background
            assert p.jobs[1].background

    def test_background_without_bg_jobs_degenerates(self):
        plans = make_allocation_policy("background").plan(list(JOBS))
        assert all(p.priorities == (4, 4) for p in plans)

    @pytest.mark.parametrize("policy", ["round_robin", "symbiosis",
                                        "priority_aware", "background"])
    def test_every_job_scheduled_exactly_once(self, policy):
        jobs = list(JOBS) + [Job("cpu_a", 2), Job("mem_b", 3,
                                                  background=True)]
        plans = make_allocation_policy(policy).plan(
            jobs, StubProbes())
        scheduled = [j for p in plans for j in p.jobs]
        assert sorted(id(j) for j in scheduled) == sorted(
            id(j) for j in jobs)


# ----------------------------------------------------------------------
# The dispatch loop
# ----------------------------------------------------------------------


class TestScheduler:
    def test_empty_queue_rejected(self, config):
        chip = Chip(ChipConfig(core=config))
        sched = OsScheduler(chip, make_allocation_policy("round_robin"))
        with pytest.raises(ValueError):
            sched.run([])

    def test_bad_governor_policy_rejected(self, config):
        chip = Chip(ChipConfig(core=config))
        with pytest.raises(ValueError, match="chip governor"):
            OsScheduler(chip, make_allocation_policy("round_robin"),
                        governor="transparent")

    def test_six_jobs_three_rounds(self, config):
        """More plans than cores: cores are reused across rounds."""
        jobs = [Job("cpu_int", 2), Job("ldint_l2", 2)] * 3
        chip = Chip(ChipConfig(core=config))
        sched = OsScheduler(chip, make_allocation_policy("round_robin"))
        res = sched.run(jobs)
        assert not res.capped
        assert len(res.jobs) == 6
        assert all(r.repetitions == 2 for r in res.jobs)
        assert {r.core_id for r in res.jobs} == {0, 1}
        assert max(r.round for r in res.jobs) >= 1
        dispatches = [d for d in res.decisions if d.action == "dispatch"]
        completes = [d for d in res.decisions if d.action == "complete"]
        assert len(dispatches) == len(completes) == 3
        # Later rounds start at the chip time the core freed up.
        assert any(d.cycle > 0 for d in dispatches)
        assert res.makespan > 0
        assert res.throughput > 0

    def test_exact_end_cycles(self, config):
        """Job end cycles come from repetition records, not quanta."""
        chip = Chip(ChipConfig(core=config))
        sched = OsScheduler(chip, make_allocation_policy("round_robin"),
                            quantum=4096)
        res = sched.run([Job("cpu_int", 3), Job("ldint_l2", 3)])
        for run in res.jobs:
            assert run.end_cycle % 4096 != 0   # not quantum-aligned
            assert run.end_cycle <= res.stepped_cycles
        assert res.makespan == max(r.end_cycle for r in res.jobs)

    def test_cap_reports_partial_runs(self, config):
        chip = Chip(ChipConfig(core=config))
        sched = OsScheduler(chip, make_allocation_policy("round_robin"),
                            quantum=512, max_cycles=512)
        res = sched.run([Job("ldint_mem", 50), Job("ldint_mem", 50)])
        assert res.capped
        assert any(d.action == "capped" for d in res.decisions)
        assert all(r.repetitions < 50 for r in res.jobs)

    def test_governed_round(self, config):
        jobs = [Job("cpu_int", 4), Job("ldint_mem", 4)]
        chip = Chip(ChipConfig(core=config))
        sched = OsScheduler(chip, make_allocation_policy("round_robin"),
                            governor="ipc_balance", governor_epoch=200)
        res = sched.run(jobs)
        assert sum(r.governor_changes for r in res.jobs) > 0
        assert all(r.final_priority is not None for r in res.jobs)

    def test_counters_aggregate(self, config):
        chip = Chip(ChipConfig(core=config))
        sched = OsScheduler(chip, make_allocation_policy("round_robin"))
        res = sched.run([Job("cpu_int", 2), Job("ldint_l2", 2),
                         Job("cpu_int", 2), Job("ldint_l2", 2)])
        chip_totals = dict(res.counters)
        assert chip_totals["PM_INST_CMPL"] > 0
        per_core = [dict(c) for c in res.core_counters]
        assert sum(c["PM_INST_CMPL"] for c in per_core) == \
            chip_totals["PM_INST_CMPL"]
        assert len(res.bus) == 2


# ----------------------------------------------------------------------
# Chip probes: pair cells of a bare, memoised probe context
# ----------------------------------------------------------------------


class TestProbeContext:
    def test_probes_are_bare_private_pair_cells(self, config, tmp_path,
                                                monkeypatch):
        cache = SimCache(tmp_path)
        parent = ExperimentContext(
            config=config, min_repetitions=3, maiv=0.01,
            max_cycles=300_000, pmu=True, pmu_sample=1024,
            governor="ipc_balance", chip_quota=1, simcache=cache,
            backend=PoolBackend(2))
        probes = parent.probe_context()
        assert probes is parent.probe_context()
        assert (probes.min_repetitions, probes.maiv, probes.max_cycles) == (
            PROBE_RUNNER["min_repetitions"], PROBE_RUNNER["maiv"],
            PROBE_RUNNER["max_cycles"]) == (2, 0.02, 400_000)
        assert probes.config == parent.config
        assert not probes.pmu and probes.pmu_sample == 0
        assert probes.governor is None
        assert probes.simcache is None and probes.backend is None

        parent.cell(chip_cell("spec", "priority_aware", 2, 1))
        assert probes.cached_runs() > 0
        assert parent.cached_runs() == 1
        assert parent.pmu_reports() == []
        assert cache.stores == 1

        runs = []
        run_pair = FameRunner.run_pair

        def counting(self, *args, **kwargs):
            runs.append(args)
            return run_pair(self, *args, **kwargs)

        monkeypatch.setattr(FameRunner, "run_pair", counting)
        before = probes.cached_runs()
        res = parent.cell(chip_cell("spec", "symbiosis", 2, 1))
        assert res.jobs
        assert runs == []
        assert probes.cached_runs() == before
        assert parent.cached_runs() == 2
        assert cache.stores == 2


# ----------------------------------------------------------------------
# Option plumbing: bad combinations fail at construction time
# ----------------------------------------------------------------------


class TestContextValidation:
    def test_unknown_governor(self, config):
        with pytest.raises(ValueError, match="unknown governor"):
            ExperimentContext(config=config, governor="nope")

    def test_unknown_chip_governor(self, config):
        with pytest.raises(ValueError, match="chip governor"):
            ExperimentContext(config=config, chip_governor="pipeline")

    def test_bad_chip_cores(self, config):
        with pytest.raises(ValueError, match="chip_cores"):
            ExperimentContext(config=config, chip_cores=0)

    def test_pmu_sample_without_pmu(self, config):
        with pytest.raises(ValueError, match="pmu_sample"):
            ExperimentContext(config=config, pmu_sample=1024)

    def test_negative_epoch(self, config):
        with pytest.raises(ValueError, match="governor_epoch"):
            ExperimentContext(config=config, governor_epoch=-1)

    def test_valid_combinations_accepted(self, config):
        ExperimentContext(config=config, governor="ipc_balance",
                          governor_epoch=500)
        ExperimentContext(config=config, chip_governor="static",
                          governor_epoch=500)
        # Epoch without a context-wide policy: governed_cell's use.
        ExperimentContext(config=config, governor_epoch=500)
        ExperimentContext(config=config, pmu=True, pmu_sample=1024)


class TestCliValidation:
    @pytest.mark.parametrize("argv,fragment", [
        (["chip", "--governor", "ipc_balance"], "--chip-governor"),
        (["table3", "--chip-governor", "static"], "'chip'"),
        (["chip", "--chip-governor", "transparent"], "chip governor"),
        (["chip", "--chip-cores", "0"], "--chip-cores"),
        (["chip", "--chip-quota", "0"], "--chip-quota"),
        (["table3", "--governor", "nope"], "unknown governor"),
        (["table3", "--pmu-sample", "512"], "--pmu-sample"),
        (["table3", "--governor-epoch", "500"], "--governor-epoch"),
        (["pmu", "--secondary", "none", "--governor", "ipc_balance"],
         "SMT2"),
    ])
    def test_bad_combinations_exit_2(self, argv, fragment, capsys):
        from repro.cli import main
        assert main(argv) == 2
        assert fragment in capsys.readouterr().err
