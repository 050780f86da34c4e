"""Tests for the case-study workloads: FFT, LU, SPEC models, pipeline."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.isa import OpClass
from repro.workloads import (
    AppProfile,
    FFTTraceProgram,
    LUTraceProgram,
    SoftwarePipeline,
    SyntheticApp,
    bit_reverse_permutation,
    fft_reference,
    lu_reference,
    lu_unpack,
    make_spec_workload,
)


class TestFFTReference:
    @pytest.mark.parametrize("n", [2, 4, 16, 64, 256])
    def test_matches_numpy(self, n):
        rng = np.random.default_rng(n)
        values = [complex(a, b) for a, b in
                  zip(rng.normal(size=n), rng.normal(size=n))]
        ours = fft_reference(values)
        assert np.allclose(ours, np.fft.fft(values))

    def test_impulse_transform_is_flat(self):
        out = fft_reference([1 + 0j] + [0j] * 7)
        assert np.allclose(out, np.ones(8))

    def test_linearity(self):
        a = [complex(i, -i) for i in range(8)]
        b = [complex(2 * i, 1) for i in range(8)]
        lhs = fft_reference([x + y for x, y in zip(a, b)])
        rhs = [x + y for x, y in
               zip(fft_reference(a), fft_reference(b))]
        assert np.allclose(lhs, rhs)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            fft_reference([1j] * 6)

    def test_bit_reverse_permutation(self):
        assert bit_reverse_permutation(8) == [0, 4, 2, 6, 1, 5, 3, 7]
        assert bit_reverse_permutation(1) == [0]
        perm = bit_reverse_permutation(64)
        assert sorted(perm) == list(range(64))
        with pytest.raises(ValueError):
            bit_reverse_permutation(12)


class TestLUReference:
    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(6, 6)) + 6 * np.eye(6)
        lu = lu_reference(m.tolist())
        lower, upper = lu_unpack(lu)
        assert np.allclose(np.array(lower) @ np.array(upper), m)

    def test_unit_lower_diagonal(self):
        m = (np.eye(4) * 4 + np.ones((4, 4))).tolist()
        lower, _ = lu_unpack(lu_reference(m))
        assert all(lower[i][i] == 1.0 for i in range(4))

    def test_zero_pivot_raises(self):
        with pytest.raises(ZeroDivisionError):
            lu_reference([[0.0, 1.0], [1.0, 1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            lu_reference([[1.0, 2.0]])


class TestFFTTraceProgram:
    def test_trace_size_scales_n_log_n(self, config):
        small = len(FFTTraceProgram(32, config).trace())
        big = len(FFTTraceProgram(128, config).trace())
        # n log n ratio: (128*7)/(32*5) = 5.6
        assert 4.0 < big / small < 7.0

    def test_butterfly_count(self, config):
        prog = FFTTraceProgram(64, config)
        trace = prog.trace()
        fp_ops = sum(1 for i in trace if i.op is OpClass.FP)
        # 10 FP ops per butterfly, (n/2) log2 n butterflies.
        assert fp_ops == 10 * 32 * 6

    def test_fp_heavy_mix(self, config):
        trace = FFTTraceProgram(64, config).trace()
        mix = trace.mix()
        assert mix[OpClass.FP] > mix.get(OpClass.FX, 0)
        assert mix[OpClass.LOAD] > 0 and mix[OpClass.STORE] > 0

    def test_invalid_n(self, config):
        with pytest.raises(ValueError):
            FFTTraceProgram(48, config)
        with pytest.raises(ValueError):
            FFTTraceProgram(1, config)

    def test_repetition_cached(self, config):
        prog = FFTTraceProgram(32, config)
        assert prog.repetition(0) is prog.repetition(1)

    def test_trace_method(self, config):
        prog = FFTTraceProgram(32, config)
        assert len(prog.trace()) == len(prog.repetition(0))


class TestLUTraceProgram:
    def test_update_count_matches_algorithm(self, config):
        m = 6
        prog = LUTraceProgram(m, config)
        stores = sum(1 for i in prog.trace()
                     if i.op is OpClass.STORE)
        # One store per multiplier + one per inner update.
        expected = sum((m - k - 1) + (m - k - 1) ** 2 for k in range(m))
        assert stores == expected

    def test_size_scales_cubically(self, config):
        small = len(LUTraceProgram(4, config).trace())
        big = len(LUTraceProgram(8, config).trace())
        assert big / small > 4.0

    def test_dimension_validated(self, config):
        with pytest.raises(ValueError):
            LUTraceProgram(1, config)


class TestSyntheticApp:
    def test_profile_validation(self):
        with pytest.raises(ValueError):
            AppProfile(name="x", blocks=0)
        with pytest.raises(ValueError):
            AppProfile(name="x", chain_density=1.5)
        with pytest.raises(ValueError):
            AppProfile(name="x", level_mix=(0.5, 0.4, 0.4))

    def test_fp_profile_uses_fp_ops(self, config):
        app = SyntheticApp(AppProfile(name="x", use_fp=True), config)
        assert app.trace().mix().get(OpClass.FP, 0) > 0

    def test_level_mix_changes_addresses(self, config):
        mostly_l1 = SyntheticApp(AppProfile(
            name="a", level_mix=(1.0, 0.0, 0.0)), config)
        mostly_mem = SyntheticApp(AppProfile(
            name="b", level_mix=(0.0, 0.0, 1.0)), config)
        span_l1 = max(i.addr for i in mostly_l1.trace() if i.addr >= 0)
        span_mem = max(i.addr for i in mostly_mem.trace() if i.addr >= 0)
        assert span_mem > span_l1

    def test_known_spec_models_exist(self, config):
        for name in ("h264ref", "mcf", "applu", "equake"):
            app = make_spec_workload(name, config)
            assert len(app.trace()) > 100

    def test_unknown_spec_rejected(self, config):
        with pytest.raises(ValueError):
            make_spec_workload("gcc", config)

    def test_spec_ipc_contrast(self, measured, config, runner):
        # The case-study pairs need a high-IPC thread and a
        # memory-bound one; verify the contrast holds in ST mode.
        from repro.workloads import make_spec_workload as mk
        h264 = runner.run_single(mk("h264ref", config)).thread(0).ipc
        mcf = runner.run_single(mk("mcf", config)).thread(0).ipc
        applu = runner.run_single(mk("applu", config)).thread(0).ipc
        equake = runner.run_single(mk("equake", config)).thread(0).ipc
        assert h264 > 4 * mcf
        assert applu > 2 * equake


class TestSoftwarePipeline:
    @pytest.fixture(scope="class")
    def pipeline(self, config):
        return SoftwarePipeline(config=config)

    def test_st_times_ratio(self, pipeline):
        fft_st, lu_st = pipeline.single_thread_times()
        assert fft_st > 3 * lu_st  # FFT is the long stage

    def test_consumer_waits_for_producer(self, pipeline):
        run = pipeline.run(priorities=(4, 4), iterations=6)
        assert run.iterations_measured >= 3
        # Iteration time is set by the longest stage.
        assert run.iteration_cycles >= run.consumer_rep_cycles * 0.9

    def test_smt_overlap_beats_single_thread(self, pipeline):
        fft_st, lu_st = pipeline.single_thread_times()
        run = pipeline.run(priorities=(4, 4), iterations=6)
        assert run.iteration_cycles < fft_st + lu_st

    def test_overprioritizing_inverts(self, pipeline):
        balanced = pipeline.run(priorities=(6, 4), iterations=6)
        inverted = pipeline.run(priorities=(6, 3), iterations=6)
        assert inverted.iteration_cycles > balanced.iteration_cycles
        # At (6,3) LU becomes the bottleneck.
        assert inverted.consumer_rep_cycles > \
            inverted.producer_rep_cycles * 0.9

    def test_result_seconds_conversion(self, pipeline, config):
        run = pipeline.run(priorities=(4, 4), iterations=6)
        fft_s, lu_s, iter_s = run.seconds(config)
        assert iter_s == pytest.approx(
            run.iteration_cycles / config.clock_hz)

    def test_run_leaves_no_core_cycle(self, config, monkeypatch):
        """The core a pipeline builds dies with the pipeline, without a
        gen-2 GC (nothing the core holds may refer back to it)."""
        from repro.workloads import pipeline as pipeline_mod
        make = pipeline_mod.make_core
        built = []

        def capture(cfg):
            core = make(cfg)
            built.append(weakref.ref(core))
            return core

        monkeypatch.setattr(pipeline_mod, "make_core", capture)
        gc.disable()
        try:
            SoftwarePipeline(config=config).run(iterations=4)
            assert built and built[0]() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("engine", ["array", "object"])
    def test_reused_core_matches_fresh(self, config, engine):
        """Consecutive runs reload one core: each equals a fresh
        pipeline's run, static or governed, at several priority pairs;
        on the array engine a repeated run binds no kernels."""
        from repro.governor import Governor, GovernorConfig, PipelinePolicy
        cfg = dataclasses.replace(config, engine=engine)
        gcfg = GovernorConfig(epoch=2048)

        def run(pipe, prio, governed):
            if governed:
                return pipe.run(prio, iterations=6, warmup=2,
                                governor=Governor(gcfg, PipelinePolicy(gcfg)))
            return pipe.run(prio, iterations=4, warmup=1)

        pipe = SoftwarePipeline(config=cfg)
        cases = [((4, 4), False), ((6, 3), False), ((2, 5), True),
                 ((5, 4), True), ((4, 4), False)]
        retuned = 0
        for prio, governed in cases:
            reused = run(pipe, prio, governed)
            assert reused == run(SoftwarePipeline(config=cfg), prio, governed)
            retuned += sum(d.applied for d in reused.decisions)
        assert retuned  # the governed runs move priorities mid-run
        core = pipe._core
        if engine == "array":
            bound = [dict(lists) for lists in core._kernel_lists]
            assert all(bound)
            run(pipe, (4, 4), False)
            assert pipe._core is core
            for before, after in zip(bound, core._kernel_lists):
                assert after.keys() == before.keys()
                assert all(after[f] is kernels
                           for f, kernels in before.items())

    def test_parameter_validation(self, config, pipeline):
        with pytest.raises(ValueError):
            SoftwarePipeline(config=config, buffer_depth=0)
        with pytest.raises(ValueError):
            pipeline.run(iterations=2, warmup=2)
