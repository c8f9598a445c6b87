"""The explanation runtime: execution backends and shared-state sessions.

This package separates COMET's *workload* (the anchor search and its
cost-model queries) from its *execution substrate*:

* :mod:`repro.runtime.backend` — where batches of independent work run
  (:class:`SerialBackend`, :class:`ProcessBackend`),
* :mod:`repro.runtime.session` — :class:`ExplanationSession`, which owns the
  state shared across one explanation run: the cache wrapper and the
  execution backend (background populations live for one search),
* :mod:`repro.runtime.pool` — :class:`SessionPool`, a leased LRU pool of
  warm sessions keyed by (model, microarch), shared by the explanation
  service's dispatcher fleet and library callers alike,
* :mod:`repro.runtime.turn` — :class:`ExecutionTurn`, which the
  service's dispatchers take one at a time through their :class:`Turn`
  handles, and :func:`blocking`, which gives a turn up for a wait outside
  the interpreter.

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
    resolve_backend,
)
from repro.runtime.turn import ExecutionTurn, Turn, blocking

__all__ = [
    "BackendSource",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "available_backends",
    "resolve_backend",
    "ExecutionTurn",
    "Turn",
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
