"""JSON wire protocol of the simulation service.

Three kinds of payload cross the wire, and measurement *values* are
deliberately not one of them:

- **specs** -- every :class:`~repro.experiments.base.ExperimentContext`
  parameter a cell's value is a function of (the machine configuration
  and the runner/instrumentation knobs), as plain JSON.  The server
  rebuilds an equivalent context from the spec, so server-side cache
  keys are computed by exactly the code path a local run uses.
- **cell keys** -- the ``("single", ...)`` / ``("pair", ...)`` tuples
  of the experiment layer, encoded as nested JSON arrays.  Decoding
  turns arrays back into tuples recursively, and JSON round-trips
  Python ints, strings and floats exactly, so a key survives the wire
  bit-for-bit (the keys embed floats, e.g. the transparent governor's
  ``st_ipc`` parameter).
- **digests** -- the simcache entry names under which workers persist
  results.  Clients resolve digests from the shared cache directory or
  fetch the raw pickled ``(key, value)`` entry over ``/entry`` and
  verify the pickled key against their own locally computed cache key,
  so a mis-configured or version-skewed server can never silently hand
  back the wrong cell.

Every submission carries a version handshake (protocol, trace schema,
result format); the server rejects mismatches up front with HTTP 409,
mirroring the worker-pool handshake of
:mod:`repro.experiments.parallel`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.config.power5 import (
    BalancerConfig,
    BranchConfig,
    CacheConfig,
    CoreConfig,
    MemoryConfig,
    TLBConfig,
)
from repro.prefetch.config import PrefetchConfig

#: Version of the request/response shapes described above.  Bump on
#: any incompatible change; mismatched peers are refused at submit.
#: v2: specs carry the energy operating point (energy_node,
#: energy_freq) -- a v1 peer would silently drop the governed
#: energy_budget cells' context.
#: v3: configs carry the prefetch knob block -- a v2 peer would
#: silently simulate prefetch-enabled specs with the prefetcher off.
#: v4: configs no longer carry the retired fast-forward engine switch
#: -- a v3 peer's config would fail to decode instead of meeting the
#: version check.
PROTOCOL_VERSION = 4

#: Context parameters that ride in a spec, in addition to the machine
#: configuration.  Everything :meth:`ExperimentContext._simcache_key`
#: consumes must be here -- a missing knob would make server-side keys
#: silently diverge from client-side ones.
SPEC_FIELDS = (
    "min_repetitions",
    "maiv",
    "max_cycles",
    "pmu",
    "pmu_sample",
    "governor",
    "governor_epoch",
    "chip_cores",
    "chip_quota",
    "chip_governor",
    "energy_node",
    "energy_freq",
)

#: Nested dataclasses of :class:`CoreConfig`, decoded by field name.
_CONFIG_NESTED = (
    ("l1d", CacheConfig),
    ("l2", CacheConfig),
    ("l3", CacheConfig),
    ("tlb", TLBConfig),
    ("memory", MemoryConfig),
    ("branch", BranchConfig),
    ("balancer", BalancerConfig),
    ("prefetch", PrefetchConfig),
)


def encode_cell(key: tuple) -> list:
    """A cell key as nested JSON arrays (tuples become lists)."""
    return _encode(key)


def _encode(obj):
    if isinstance(obj, (tuple, list)):
        return [_encode(item) for item in obj]
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    raise TypeError(
        f"cell key component {obj!r} ({type(obj).__name__}) is not "
        f"wire-encodable")


def decode_cell(obj) -> tuple:
    """The inverse of :func:`encode_cell` (lists become tuples)."""
    if isinstance(obj, list):
        return tuple(decode_cell(item) for item in obj)
    return obj


def context_spec(ctx) -> dict:
    """The wire spec of an :class:`ExperimentContext`.

    The engine switch rides along inside the config, so the server
    simulates on the client's engine.  It is not part of the simcache
    key: both engines produce bit-identical results.
    """
    spec = {name: getattr(ctx, name) for name in SPEC_FIELDS}
    spec["config"] = dataclasses.asdict(ctx.config)
    return spec


def decode_config(data: dict) -> CoreConfig:
    """Rebuild a :class:`CoreConfig` from its ``asdict`` form."""
    data = dict(data)
    for name, cls in _CONFIG_NESTED:
        data[name] = cls(**data[name])
    return CoreConfig(**data)


def build_context(spec: dict, simcache=None, jobs: int = 1):
    """An :class:`ExperimentContext` equivalent to the spec's sender.

    Raises ``ValueError``/``TypeError``/``KeyError`` on malformed
    specs; the server maps those to HTTP 400.
    """
    from repro.experiments.base import ExperimentContext
    kwargs = {name: spec[name] for name in SPEC_FIELDS}
    return ExperimentContext(config=decode_config(spec["config"]),
                             simcache=simcache, jobs=jobs, **kwargs)


def spec_fingerprint(spec: dict) -> str:
    """Stable short hash of a spec (worker/server context memo key)."""
    canonical = json.dumps(spec, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def handshake() -> dict:
    """The version triple every submission carries."""
    from repro.simcache import RESULT_VERSION
    from repro.workloads.tracecache import SCHEMA_VERSION
    return {"protocol": PROTOCOL_VERSION,
            "schema": SCHEMA_VERSION,
            "result": RESULT_VERSION}


def check_handshake(payload: dict) -> str | None:
    """An error message when the peer's versions mismatch, else None."""
    ours = handshake()
    for name, version in ours.items():
        theirs = payload.get(name)
        if theirs != version:
            return (f"{name} version mismatch: client v{theirs}, "
                    f"server v{version}")
    return None
