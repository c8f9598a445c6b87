"""Fixture guards shared by the service suite.

Several fixtures in this directory park requests on in-process
synchronisation primitives — a ``threading.Event`` gate the test opens, a
backend handle held for a later SIGKILL.  Those only work when the session
backend runs model queries in the test's own address space: a
:class:`~repro.runtime.backend.ProcessBackend` would ship a *copy* of the
gate to its workers, and the test would hang forever waiting on an Event
nobody can set.  The gated fixtures therefore pin ``backend="serial"`` no
matter what ``REPRO_BACKEND`` says; the guard below turns that pin into an
explicit, reported skip instead of a silent hang should it ever be dropped.
"""

import pytest

from repro.runtime.backend import ProcessBackend, resolve_backend


def require_in_process_backend(backend="serial"):
    """Skip — with the reason in the report — if ``backend`` is a process backend.

    Call this from a fixture body (the test's own thread), not from inside a
    ``session_factory``: factories run on dispatcher threads, where a
    ``pytest.skip`` would surface as a request *failure* instead of a skip.
    Returns ``backend`` unchanged so call sites can pin and guard in one
    expression.
    """
    probe = resolve_backend(backend)
    try:
        if isinstance(probe, ProcessBackend):
            pytest.skip(
                f"backend {probe.name!r} does not run model queries in the "
                "test process; an in-process gate Event would never open"
            )
    finally:
        probe.close()
    return backend
