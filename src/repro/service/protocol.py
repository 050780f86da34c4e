"""JSON wire protocol of the simulation service.

Three kinds of payload cross the wire, and measurement *values* are
deliberately not one of them:

- **specs** -- :meth:`ExperimentContext.spec
  <repro.experiments.base.ExperimentContext.spec>`: every context
  parameter a cell's value is a function of (the machine configuration
  and the runner/instrumentation knobs), as plain JSON.  The server
  rebuilds an equivalent context with ``ExperimentContext.from_spec``,
  which refuses malformed specs (HTTP 400), so server-side cache keys
  are computed by exactly the code path a local run uses.
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
through the same :func:`repro.simcache.check_versions` a local worker
pool runs.
"""

from __future__ import annotations

import hashlib
import json

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


def spec_fingerprint(spec: dict) -> str:
    """Stable short hash of a spec (worker/server context memo key)."""
    canonical = json.dumps(spec, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def handshake() -> dict:
    """The version triple every submission carries."""
    from repro.simcache import versions
    return {"protocol": PROTOCOL_VERSION, **versions()}
