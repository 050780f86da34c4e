"""Structural configuration of the simulated POWER5 core.

All physical parameters of the machine live here -- widths, queue
sizes, cache geometry, latencies, and balancer thresholds.  Experiments
never tune per-benchmark constants; they only select a configuration.

Two presets are provided:

- :meth:`POWER5.default` -- geometry close to the real chip
  (32 KiB L1D, 1.875 MiB L2, 36 MiB L3, 20-entry GCT, ...).
- :meth:`POWER5.small` -- identical latencies, widths and policies but
  scaled-down cache capacities.  Micro-benchmarks size their working
  sets from the configuration, so the small preset reproduces the same
  hit/miss behaviour orders of magnitude faster.  It is the preset used
  by the test-suite and the benchmark harness.
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing
from dataclasses import dataclass, field

from repro.prefetch.config import PrefetchConfig


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int
    line_bytes: int
    associativity: int
    latency: int  # cycles, load-to-use on a hit at this level

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0:
            raise ValueError("cache size and line size must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ValueError(
                f"cache of {self.size_bytes} B is not divisible into "
                f"{self.associativity}-way sets of {self.line_bytes} B lines")

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass(frozen=True)
class TLBConfig:
    """Geometry of the translation lookaside buffer."""

    entries: int = 1024
    associativity: int = 4
    page_bytes: int = 4096
    miss_penalty: int = 80  # cycles added to the access on a TLB miss


@dataclass(frozen=True)
class MemoryConfig:
    """DRAM timing and the shared load-miss queue (LMQ)."""

    dram_latency: int = 230     # cycles, row access
    # Minimum cycles between DRAM data transfers.  Models the per-core
    # share of memory bandwidth including bank/queue conflicts; two
    # co-scheduled memory-bound threads saturate it (paper section 5.1:
    # mem-vs-mem pairs interfere and respond to priorities).
    dram_bus_gap: int = 100
    lmq_entries: int = 8        # outstanding L1 misses, shared by threads


@dataclass(frozen=True)
class BranchConfig:
    """Branch history table and redirect costs."""

    bht_entries: int = 16384
    mispredict_penalty: int = 6  # redirect cycles after resolve


@dataclass(frozen=True)
class BalancerConfig:
    """POWER5 dynamic hardware resource balancing (paper section 3.1).

    Three mechanisms, each independently switchable for ablation:

    - *stall*: when one thread holds more than ``gct_stall_threshold``
      GCT groups, its decode stalls until it drains below the threshold.
      The threshold is high (18 of 20): POWER5 tolerates considerable
      imbalance before intervening, which is why a slow-retiring
      dependency-chain thread still crushes a high-IPC sibling at equal
      priorities (Table 3 of the paper: ldint_l1 falls 2.29 -> 0.42
      against lng_chain_cpuint).
    - *flush*: when a thread holds ``gct_flush_threshold`` GCT entries
      while itself blocked on a long-latency miss, its youngest groups
      are squashed down to ``gct_flush_target`` and re-decoded later
      (``flush_penalty`` redirect cycles).  This is the defence against
      memory-bound GCT hogs: it keeps cpu_int near full speed next to
      ldint_mem (paper: 0.88 vs ST 1.14) while doing nothing about
      miss-free chain threads.
    - *throttle*: a thread whose L2-miss count in the monitoring window
      exceeds ``l2_miss_threshold`` has its decode duty-cycle reduced to
      one group every ``throttle_interval`` owned slots.
    """

    enabled: bool = True
    stall_enabled: bool = True
    flush_enabled: bool = True
    throttle_enabled: bool = True
    gct_stall_threshold: int = 18      # groups held by one thread
    gct_flush_threshold: int = 12      # groups held while miss-blocked
    gct_flush_target: int = 8          # squash down to this many groups
    flush_penalty: int = 12            # cycles to refill after a flush
    l2_miss_threshold: int = 2         # misses within the window
    window_cycles: int = 256           # monitoring window
    throttle_interval: int = 8         # decode 1 of every N owned slots


@dataclass(frozen=True)
class CoreConfig:
    """Complete configuration of the two-way SMT core."""

    # Front end
    decode_width: int = 5          # max instructions per group
    retire_groups_per_cycle: int = 1  # per thread
    gct_groups: int = 20           # shared global completion table
    break_group_on_long_dep: bool = True  # split groups at deps on
    # in-group loads/multiplies/FP ops (no intra-group forwarding of
    # long-latency results), the main determinant of decode efficiency
    branch_ends_group: bool = True
    low_power_decode_interval: int = 32  # (1,1) mode: 1 decode / N cycles

    # Simulation engine.  ``"array"`` (the default) precompiles each
    # trace into per-group kernels and runs the inlined decode/issue/
    # retire loop of :class:`repro.core.ArraySMTCore`; ``"object"`` is
    # the reference loop that walks per-instruction tuples through
    # ``SMTCore._decode_slot``.  The object engine steps one cycle at
    # a time; the array engine also credits quiet spans (no group can
    # dispatch, retire or flush) in closed form.
    # The switch never changes simulated behaviour -- both engines are
    # bit-identical on every counter -- so it is excluded from the
    # fingerprint and the object engine stays available as the
    # differential reference.
    engine: str = "array"

    # Execution resources (units are fully pipelined, 1 op/cycle each)
    num_fxu: int = 2
    num_lsu: int = 2
    num_fpu: int = 2
    num_bxu: int = 1

    # Latencies (cycles)
    fx_latency: int = 2   # dependent back-to-back FX latency (POWER4/5)
    fx_mul_latency: int = 5
    fp_latency: int = 6
    store_latency: int = 1
    branch_latency: int = 1
    decode_to_issue: int = 4       # front-end depth between decode and issue

    # Memory system
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=32 * 1024, line_bytes=128, associativity=4, latency=2))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=1920 * 1024, line_bytes=128, associativity=10, latency=13))
    l3: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=36 * 1024 * 1024, line_bytes=256, associativity=12,
        latency=87))
    tlb: TLBConfig = field(default_factory=TLBConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    branch: BranchConfig = field(default_factory=BranchConfig)
    balancer: BalancerConfig = field(default_factory=BalancerConfig)
    # Software-controlled stream/stride prefetcher (default: off on
    # both threads, in which case it never influences simulation).
    prefetch: PrefetchConfig = field(default_factory=PrefetchConfig)

    # Nominal clock, used only to report simulated cycles as seconds.
    clock_hz: float = 1.65e9

    def __post_init__(self) -> None:
        if self.engine not in ("array", "object"):
            raise ValueError(
                f"unknown engine {self.engine!r}: use 'array' or 'object'")

    def replace(self, **changes) -> "CoreConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_dict(cls, data: dict) -> "CoreConfig":
        """Rebuild a config from its :func:`dataclasses.asdict` form.

        Nested blocks are rebuilt by their declared field types; an
        unknown or malformed field raises ``TypeError``.
        """
        hints = typing.get_type_hints(cls)
        return cls(**{
            name: (hints[name](**value)
                   if dataclasses.is_dataclass(hints.get(name)) else value)
            for name, value in data.items()})

    def seconds(self, cycles: float) -> float:
        """Convert a cycle count to nominal wall-clock seconds."""
        return cycles / self.clock_hz

    def fingerprint(self) -> str:
        """Stable short hash over every configuration field.

        Used as a cache key for memoised trace construction and to tag
        benchmark records: two configurations with equal fields always
        share a fingerprint, and any field change produces a new one.
        The simulation-engine switch (``engine``) is excluded -- it
        never changes simulated behaviour, only how the step loop
        advances time, so results cached under one engine stay valid
        (and shared) under the other.  A fully disabled
        prefetcher is excluded for the same reason: it never trains,
        issues or counts, so every ``enabled=(False, False)`` variant
        collapses onto the hash of a machine with no prefetcher at all
        (keeping caches from before the subsystem existed valid).
        """
        # The canonical text keeps the ``fast_forward=True`` field of a
        # retired engine switch, so fingerprints stay what they were:
        # benchmark records are only compared under equal fingerprints.
        canonical = repr(dataclasses.replace(self, engine="array")).replace(
            ", engine=", ", fast_forward=True, engine=", 1)
        if not self.prefetch.enabled_any:
            canonical = canonical.replace(
                f", prefetch={self.prefetch!r}", "", 1)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


class POWER5:
    """Factory for the provided machine presets."""

    @staticmethod
    def default() -> CoreConfig:
        """Geometry close to the real POWER5 chip."""
        return CoreConfig()

    @staticmethod
    def small() -> CoreConfig:
        """Same policies/latencies, scaled-down capacities (fast preset).

        Cache capacities shrink by ~16x; micro-benchmarks derive their
        working-set sizes from the configuration, so hit/miss behaviour
        per level is preserved while simulated footprints stay small.
        """
        return CoreConfig(
            l1d=CacheConfig(size_bytes=4 * 1024, line_bytes=128,
                            associativity=4, latency=2),
            l2=CacheConfig(size_bytes=64 * 1024, line_bytes=128,
                           associativity=8, latency=13),
            l3=CacheConfig(size_bytes=512 * 1024, line_bytes=256,
                           associativity=8, latency=87),
            tlb=TLBConfig(entries=256),
            branch=BranchConfig(bht_entries=2048),
        )
