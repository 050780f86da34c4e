"""Closed-loop priority governor: PMU-guided online SMT retuning.

The paper characterizes *static* priority assignments and explicitly
motivates software that exploits them dynamically -- an OS or runtime
picking priorities to balance a pipeline, maximize throughput, or run
a transparent background thread.  This subsystem is that runtime for
the simulated core: it samples the emulated PMU at a configurable
epoch (a periodic core hook), hands the epoch deltas to a pluggable
policy, and actuates the policy's priority choices through the
*software* interface (the patched kernel's ``/sys`` files), so
governor actions are subject to exactly the kernel priority semantics
the paper describes and are themselves visible as ``PM_PRIO_CHANGE``
events.

- :class:`GovernorConfig` -- epoch/hysteresis/cooldown/bounds knobs,
  validated at construction.
- :class:`Governor` -- the control loop; one instance per measurement.
- :class:`GovernorDecision` -- one frozen per-epoch decision record
  (cycle, observed IPCs, chosen priorities, reason).
- :mod:`repro.governor.policies` -- the policy framework and the
  seven shipped policies (static, IPC-balance, throughput-max,
  transparent, pipeline, energy-budget, prefetch-adapt).

Determinism: the epoch hook rides the existing periodic-hook
machinery, which both simulation engines honour exactly (hooks fire
at their exact cycle), and every policy is a pure
function of its observations, so a governed run is bit-identical
between the object and array engines and across worker processes.
The differential test-suite asserts this.
"""

from repro.governor.config import GovernorConfig
from repro.governor.governor import (
    EpochObservation,
    Governor,
    GovernorDecision,
)
from repro.governor.policies import (
    POLICIES,
    EnergyBudgetPolicy,
    IpcBalancePolicy,
    PipelinePolicy,
    Policy,
    PrefetchAdaptPolicy,
    StaticPolicy,
    ThroughputMaxPolicy,
    TransparentPolicy,
    make_policy,
)

__all__ = [
    "GovernorConfig",
    "Governor",
    "GovernorDecision",
    "EpochObservation",
    "Policy",
    "StaticPolicy",
    "IpcBalancePolicy",
    "ThroughputMaxPolicy",
    "TransparentPolicy",
    "PipelinePolicy",
    "EnergyBudgetPolicy",
    "PrefetchAdaptPolicy",
    "POLICIES",
    "make_policy",
]
