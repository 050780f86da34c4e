"""Unit tests of the prefetch subsystem.

Covers the validated :class:`PrefetchConfig` (bounds, wire
normalisation, the default-off fingerprint guarantee), the
:class:`StreamPrefetcher` engine against a stub memory hierarchy
(training, confirmation, fill issue, the useless filter, the
content-determined stream victim, the in-flight cap and the run-time
knobs), the patched kernel's ``/sys/kernel/smt_prefetch`` files, and
the ``prefetch_adapt`` policy's registration and validation.  The
cross-engine guarantees live in
``test_prefetch_differential.py``; end-to-end behaviour in the
``prefetch`` experiment's claims.
"""

from __future__ import annotations

import pytest

from repro.config import CoreConfig
from repro.core import SMTCore
from repro.governor import GovernorConfig
from repro.governor.policies import POLICIES, make_policy
from repro.isa import FixedTraceSource, TraceBuilder
from repro.prefetch import (
    MAX_DEGREE,
    MAX_DEPTH,
    MAX_STREAMS,
    PrefetchConfig,
    StreamPrefetcher,
)
from repro.prefetch.engine import INFLIGHT_CAP
from repro.syskernel import PatchedKernel, SysFSError

LINE = 128


# -- PrefetchConfig -----------------------------------------------------


class TestPrefetchConfig:
    def test_default_is_fully_off(self):
        cfg = PrefetchConfig()
        assert cfg.enabled == (False, False)
        assert not cfg.enabled_any

    @pytest.mark.parametrize("kwargs", [
        {"depth": 0}, {"depth": MAX_DEPTH + 1},
        {"degree": 0}, {"degree": MAX_DEGREE + 1},
        {"depth": 2, "degree": 4},          # degree > depth
        {"streams": 0}, {"streams": MAX_STREAMS + 1},
        {"stride_matches": 0},
        {"enabled": (True,)}, {"enabled": (True, False, True)},
    ])
    def test_rejects_invalid_knobs(self, kwargs):
        with pytest.raises(ValueError):
            PrefetchConfig(**kwargs)

    def test_wire_normalisation(self):
        """JSON delivers the enables as a list of 0/1."""
        cfg = PrefetchConfig(enabled=[1, 0])
        assert cfg.enabled == (True, False)
        assert cfg.enabled_any

    def test_default_off_fingerprint_is_pre_prefetch(self):
        """A disabled prefetcher never touches the machine, so any
        default-off geometry collapses onto the no-prefetcher hash."""
        base = CoreConfig().fingerprint()
        assert CoreConfig().replace(
            prefetch=PrefetchConfig(streams=4)).fingerprint() == base
        assert CoreConfig().replace(
            prefetch=PrefetchConfig(depth=16)).fingerprint() == base
        on = CoreConfig().replace(prefetch=PrefetchConfig(
            enabled=(True, True)))
        assert on.fingerprint() != base


# -- StreamPrefetcher against a stub hierarchy --------------------------


class _StubCache:
    def __init__(self):
        self.lines = set()

    def probe(self, addr):
        return addr // LINE in self.lines


class _StubLmq:
    def __init__(self):
        self.fills = []

    def acquire(self, want, now, thread_id, duration):
        return want

    def fill(self, complete):
        self.fills.append(complete)


class _StubDram:
    def access(self, start, now, thread_id):
        return start + 100


class _StubHier:
    def __init__(self):
        self.l2 = _StubCache()
        self.l3 = _StubCache()
        self.lmq = _StubLmq()
        self.dram = _StubDram()
        self.chip_port = None


def _pf(**kwargs) -> tuple[StreamPrefetcher, _StubHier]:
    config = PrefetchConfig(enabled=(True, True), **kwargs)
    return StreamPrefetcher(config, LINE, 100), _StubHier()


def _miss(pf, hier, line, tid=0, now=0):
    pf.observe(hier, line * LINE, now, now, tid)


class TestStreamPrefetcher:
    def test_trains_then_issues_on_confirmation(self):
        pf, hier = _pf(depth=4, degree=2, stride_matches=2)
        _miss(pf, hier, 10)         # first miss: no prior, no signal
        _miss(pf, hier, 11)         # allocates stream (stride 1)
        assert pf.stats.allocs[0] == 1
        assert pf.stats.issues[0] == 0
        _miss(pf, hier, 12)         # confirms: issue `degree` fills
        assert pf.stats.issues[0] == 2
        assert set(pf._inflight[0]) == {13, 14}

    def test_same_line_remiss_is_no_signal(self):
        pf, hier = _pf()
        _miss(pf, hier, 10)
        _miss(pf, hier, 10)
        _miss(pf, hier, 10)
        assert pf.stats.allocs[0] == 0

    def test_consume_pops_and_account_classifies(self):
        pf, hier = _pf(stride_matches=1)
        _miss(pf, hier, 10)
        _miss(pf, hier, 11)         # stride_matches=1: issues at once
        assert pf._inflight[0]
        line = next(iter(pf._inflight[0]))
        ready = pf.consume(line * LINE, 0)
        assert ready >= 0
        assert line not in pf._inflight[0]
        assert pf.consume(line * LINE, 0) == -1   # popped
        pf.account(0, late=False)
        pf.account(0, late=True)
        assert pf.stats.hits[0] == 1 and pf.stats.late[0] == 1

    def test_cached_below_l1_counts_useless(self):
        pf, hier = _pf(depth=2, degree=2, stride_matches=1)
        hier.l2.lines = {12, 13}    # fill targets already in the L2
        _miss(pf, hier, 10)
        _miss(pf, hier, 11)
        assert pf.stats.issues[0] == 0
        assert pf.stats.useless[0] == 2
        assert not pf._inflight[0]

    def test_victim_is_least_established_stream(self):
        pf, hier = _pf(streams=2, stride_matches=2, depth=2, degree=1)
        # Stream A (stride 1) confirmed twice: count saturates at 2.
        for line in (10, 11, 12):
            _miss(pf, hier, line)
        # Stream B (stride 8) allocated from the jump 12 -> 20, then a
        # jump to 100 allocates stream C: B (count 1) is the victim,
        # A (count 2) survives.
        _miss(pf, hier, 20)
        assert len(pf._streams[0]) == 2
        _miss(pf, hier, 100)
        strides = sorted(e[1] for e in pf._streams[0])
        assert strides == [1, 100 - 20]

    def test_inflight_cap_drops_oldest_as_useless(self):
        pf, hier = _pf(depth=MAX_DEPTH, degree=MAX_DEGREE,
                       stride_matches=1)
        for line in range(0, 200):
            _miss(pf, hier, line)
        assert len(pf._inflight[0]) <= INFLIGHT_CAP
        assert pf.stats.useless[0] > 0

    def test_threads_are_independent(self):
        pf, hier = _pf(stride_matches=1)
        _miss(pf, hier, 10, tid=0)
        _miss(pf, hier, 11, tid=0)
        assert pf.stats.issues[0] > 0
        assert pf.stats.issues[1] == 0
        assert not pf._inflight[1]

    def test_disabled_thread_observes_nothing(self):
        config = PrefetchConfig(enabled=(True, False))
        pf = StreamPrefetcher(config, LINE, 100)
        assert pf.on == [True, False]

    def test_set_enable_off_drops_inflight_as_useless(self):
        pf, hier = _pf(stride_matches=1, depth=4, degree=4)
        _miss(pf, hier, 10)
        _miss(pf, hier, 11)
        inflight = len(pf._inflight[0])
        assert inflight > 0
        before = pf.stats.useless[0]
        pf.set_enable(0, False)
        assert pf.stats.useless[0] == before + inflight
        assert not pf._inflight[0]
        assert not pf._streams[0]

    def test_runtime_knob_validation(self):
        pf, _ = _pf()
        with pytest.raises(ValueError):
            pf.set_depth(0, 0)
        with pytest.raises(ValueError):
            pf.set_depth(0, MAX_DEPTH + 1)
        with pytest.raises(ValueError):
            pf.set_degree(0, MAX_DEGREE + 1)


# -- the smt_prefetch sysfs files ---------------------------------------


def _fx_source(name="fx"):
    b = TraceBuilder()
    for i in range(64):
        b.fx(2 + i % 8)
    return FixedTraceSource(b.build(name))


def _installed_kernel(config):
    core = SMTCore(config)
    core.load([_fx_source("a"), _fx_source("b")], priorities=(4, 4))
    kernel = PatchedKernel()
    kernel.install(core)
    return core, kernel


class TestPrefetchSysfs:
    def test_read_defaults(self, config):
        _, kernel = _installed_kernel(config)
        base = f"{PatchedKernel.PREFETCH_SYSFS_DIR}/thread0"
        assert kernel.sysfs.read(f"{base}/enable") == "0"
        assert kernel.sysfs.read(f"{base}/depth") == "4"
        assert kernel.sysfs.read(f"{base}/degree") == "2"

    def test_writes_reach_the_engine(self, config):
        core, kernel = _installed_kernel(config)
        pf = core.hierarchy.prefetcher
        base = f"{PatchedKernel.PREFETCH_SYSFS_DIR}/thread1"
        kernel.sysfs.write(f"{base}/enable", "1")
        kernel.sysfs.write(f"{base}/depth", "16")
        kernel.sysfs.write(f"{base}/degree", "4")
        assert pf.on[1] and pf.depth[1] == 16 and pf.degree[1] == 4
        assert kernel.sysfs.read(f"{base}/enable") == "1"
        # Thread 0 untouched.
        assert not pf.on[0] and pf.depth[0] == 4

    @pytest.mark.parametrize("knob,value", [
        ("enable", "maybe"), ("enable", "2"),
        ("depth", "0"), ("depth", str(MAX_DEPTH + 1)), ("depth", "x"),
        ("degree", "0"), ("degree", str(MAX_DEGREE + 1)),
    ])
    def test_rejects_bad_writes_without_side_effects(self, config,
                                                     knob, value):
        core, kernel = _installed_kernel(config)
        pf = core.hierarchy.prefetcher
        before = (list(pf.on), list(pf.depth), list(pf.degree))
        path = f"{PatchedKernel.PREFETCH_SYSFS_DIR}/thread0/{knob}"
        with pytest.raises(SysFSError):
            kernel.sysfs.write(path, value)
        assert (list(pf.on), list(pf.depth), list(pf.degree)) == before


# -- the prefetch_adapt policy ------------------------------------------


class TestPrefetchAdaptRegistration:
    def test_registered(self):
        assert "prefetch_adapt" in POLICIES

    def test_factory_validates_starting_point(self):
        config = GovernorConfig()
        policy = make_policy("prefetch_adapt", config, depth=8, degree=2)
        assert policy.name == "prefetch_adapt"
        with pytest.raises(ValueError):
            make_policy("prefetch_adapt", config, depth=0)
        with pytest.raises(ValueError):
            make_policy("prefetch_adapt", config, depth=2, degree=4)
