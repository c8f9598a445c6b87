"""The explanation runtime: execution backends and shared-state sessions.

This package separates COMET's *workload* (the anchor search and its
cost-model queries) from its *execution substrate*:

* :mod:`repro.runtime.backend` — where batches of independent work run
  (:class:`SerialBackend`, :class:`ProcessBackend`), and :func:`blocking`,
  which frees a service dispatcher's execution slot while a process-pool
  batch runs,
* :mod:`repro.runtime.session` — :class:`ExplanationSession`, which owns the
  state shared across one explanation run: the cache wrapper and the
  execution backend (background populations live for one search),
* :mod:`repro.runtime.pool` — :class:`SessionPool`, a leased LRU pool of
  warm sessions keyed by (model, microarch), shared by the explanation
  service's dispatcher fleet and library callers alike.

``ExplanationSession`` and ``SessionPool`` are imported lazily (PEP 562):
the session layer sits on top of :mod:`repro.explain`, which itself builds
on models that import this package for backend support.
"""

from repro.runtime.backend import (
    BackendSource,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    available_backends,
    blocking,
    resolve_backend,
)

__all__ = [
    "BackendSource",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "available_backends",
    "resolve_backend",
    "blocking",
    "ExplanationSession",
    "SessionStats",
    "SessionPool",
    "PoolStats",
]

_LAZY_SESSION = ("ExplanationSession", "SessionStats")
_LAZY_POOL = ("SessionPool", "PoolStats")


def __getattr__(name):
    if name in _LAZY_SESSION:
        from repro.runtime import session

        return getattr(session, name)
    if name in _LAZY_POOL:
        from repro.runtime import pool

        return getattr(pool, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
