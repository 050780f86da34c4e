"""Simulation-as-a-service: the distributed sweep fabric.

A job server (:mod:`repro.service.server`, ``power5-repro serve``)
accepts measurement-cell plans over a JSON/HTTP protocol
(:mod:`repro.service.protocol`), dedupes them against the persistent
simcache *and* against cells already in flight (single-flight: N
clients submitting overlapping sweeps compute each unique cell once),
and dispatches the remainder to a warm persistent worker pool
(:mod:`repro.service.workers`).  Workers write results straight into
the shared simcache and report only digests, so measurement values
never ride the worker pipe; clients (:mod:`repro.service.client`,
``--backend URL`` on any experiment) resolve the digests from the
shared cache or fetch the pickled entries over HTTP.  Results are
byte-identical to a local serial run -- asserted by the differential
tests -- so the backend is pure transport, never semantics.
"""

from repro.service.client import ServiceBackend, ServiceClient, ServiceError
from repro.service.protocol import PROTOCOL_VERSION, decode_cell, encode_cell
from repro.service.server import ServerConfig, ServiceHandle, ServiceServer, serve

__all__ = [
    "PROTOCOL_VERSION",
    "ServerConfig",
    "ServiceBackend",
    "ServiceClient",
    "ServiceError",
    "ServiceHandle",
    "ServiceServer",
    "decode_cell",
    "encode_cell",
    "serve",
]
