"""Validated per-event energy configuration.

``EnergyConfig`` prices each emulated PMU event in picojoules at the
45nm reference node, plus a static/leakage power floor.  Converting a
:class:`repro.pmu.CounterBank` into joules is then a dot product over
``EVENT_NAMES`` -- a pure function of counters and cycle counts, which
is what makes energy reports exact (bit-identical) under the object
and array engines: any engine that produces the same counters
produces the same energy.

The default weights follow the shape of published per-structure
energy breakdowns (dispatch/rename dominated front end, FP issue >
fixed-point issue, a steep L1 < L2 < L3 < DRAM traffic gradient) and
sum, for the microbenchmarks here, to a dynamic power in the same
~1-7 W band Lumos's 45nm ``CORE_PARAMS`` table spans
(DYNAMIC_POWER_BASE 6.14 W, STATIC_POWER_BASE 1.058 W).  Absolute
accuracy is not the point -- relative ordering across priority pairs,
nodes and frequencies is, and that is set by the counter ratios the
simulator already reproduces.

Pure cycle/duration events (stall cycles, wait cycles, slot-loss
tallies) carry weight 0: the energy of an idle-but-clocked cycle is
the static power's job, and pricing both would double count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pmu.events import EVENT_NAMES
from repro.energy.scaling import TechNode, dvfs_voltage_frac, tech_node

#: Reference-node (45nm) energy per event occurrence, picojoules.
#: Events absent here (cycle/stall/duration counters) cost 0 pJ.
DEFAULT_WEIGHTS: tuple[tuple[str, float], ...] = (
    # Front end: dispatch/decode slots.
    ("PM_INST_DISP", 250.0),
    ("PM_INST_CMPL", 150.0),
    ("PM_GRP_DISP", 100.0),
    ("PM_SLOT_GRANT", 30.0),
    # Functional-unit issues.
    ("PM_FXU_ISSUE", 220.0),
    ("PM_LSU_ISSUE", 280.0),
    ("PM_FPU_ISSUE", 420.0),
    ("PM_BXU_ISSUE", 160.0),
    # Memory hierarchy traffic (per access, steeply graded).
    ("PM_LD_L1_HIT", 280.0),
    ("PM_LD_L2_HIT", 1100.0),
    ("PM_LD_L3_HIT", 3200.0),
    ("PM_LD_MEM", 3200.0),
    ("PM_DRAM_ACCESS", 15000.0),
    ("PM_ST_CMPL", 320.0),
    ("PM_TLB_MISS", 800.0),
    ("PM_LMQ_ACQ", 90.0),
    # Prefetch engine overheads.  The fills' bus/DRAM traffic is
    # already priced through PM_DRAM_ACCESS (prefetch fills increment
    # it like demand misses), so these weights cover only the engine
    # itself: stream-table allocation, issue-queue slots, and the
    # wasted tag probes/buffer churn of useless fills.  All three
    # count zero with the prefetcher off, keeping existing energy
    # reports bit-identical.
    ("PM_PREF_ALLOC", 40.0),
    ("PM_PREF_ISSUE", 120.0),
    ("PM_PREF_USELESS", 60.0),
    # Speculation / balance-flush waste.
    ("PM_BR_MPRED", 500.0),
    ("PM_BAL_FLUSH", 400.0),
    ("PM_BAL_FLUSH_INST", 120.0),
    # Priority writes (sysfs/or-nop path).
    ("PM_PRIO_CHANGE", 50.0),
)

#: Leakage power of one core at 45nm nominal voltage, watts
#: (Lumos CORE_PARAMS STATIC_POWER_BASE).
DEFAULT_STATIC_POWER_W = 1.058


@dataclass(frozen=True)
class EnergyConfig:
    """Energy model parameters: weights at 45nm + operating point.

    ``node`` and ``freq_frac`` select the operating point; the derived
    properties fold the tech-node table and DVFS voltage model into
    effective per-event scaling, static power and clock so that
    callers never touch the scaling tables directly.
    """

    node: int = 45
    freq_frac: float = 1.0
    weights: tuple[tuple[str, float], ...] = DEFAULT_WEIGHTS
    static_power_w: float = DEFAULT_STATIC_POWER_W
    base_clock_ghz: float = 1.65

    def __post_init__(self) -> None:
        tech_node(self.node)  # raises on unsupported node
        dvfs_voltage_frac(self.freq_frac)  # raises outside (0, 1]
        if self.static_power_w < 0:
            raise ValueError(
                f"static_power_w must be >= 0, got {self.static_power_w}")
        if self.base_clock_ghz <= 0:
            raise ValueError(
                f"base_clock_ghz must be > 0, got {self.base_clock_ghz}")
        known = set(EVENT_NAMES)
        seen: set[str] = set()
        for name, pj in self.weights:
            if name not in known:
                raise ValueError(f"unknown PMU event in weights: {name!r}")
            if name in seen:
                raise ValueError(f"duplicate weight for event {name!r}")
            if pj < 0:
                raise ValueError(
                    f"negative energy weight for {name!r}: {pj}")
            seen.add(name)

    # -- derived operating point ------------------------------------

    @property
    def tech(self) -> TechNode:
        return tech_node(self.node)

    @property
    def voltage_frac(self) -> float:
        """Supply voltage as a fraction of the node's nominal Vdd."""
        return dvfs_voltage_frac(self.freq_frac)

    @property
    def frequency_ghz(self) -> float:
        """Effective clock: base x node frequency scale x DVFS."""
        return self.base_clock_ghz * self.tech.freq_scale * self.freq_frac

    @property
    def dynamic_scale(self) -> float:
        """Multiplier on the 45nm pJ weights (node shrink x V^2)."""
        v = self.voltage_frac
        return self.tech.dynamic_scale * v * v

    @property
    def static_power(self) -> float:
        """Effective leakage power, watts (node x V)."""
        return self.static_power_w * self.tech.static_scale * self.voltage_frac

    def weight_map(self) -> dict[str, float]:
        """Event name -> reference pJ, for lookup while summing."""
        return dict(self.weights)

    def fingerprint(self) -> tuple:
        """Stable identity for cache keys / cell parameters."""
        return (
            "energy",
            self.node,
            round(self.freq_frac, 12),
            self.weights,
            self.static_power_w,
            self.base_clock_ghz,
        )

