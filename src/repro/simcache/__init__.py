"""Persistent simulation result cache (see :mod:`repro.simcache.store`)."""

from repro.simcache.store import (
    RESULT_VERSION,
    SimCache,
    check_versions,
    default_cache_dir,
    versions,
    workload_fingerprint,
)

__all__ = [
    "RESULT_VERSION",
    "SimCache",
    "check_versions",
    "default_cache_dir",
    "versions",
    "workload_fingerprint",
]
