"""The explanation service: a warm, request/response serving layer.

The library's one-shot API pays the full setup cost — model construction,
cache warm-up, backend pool spin-up — on every call.
This package keeps all of that *resident*: an
:class:`~repro.service.core.ExplanationService` leases long-lived
:class:`~repro.runtime.session.ExplanationSession` instances from a shared
:class:`~repro.runtime.pool.SessionPool` (LRU per (model, microarch)) and
serves explanation requests against them with submit/poll/result semantics,
a bounded request queue for backpressure, and a graceful shutdown that
drains in-flight work before the backends are released.

Requests are executed by the :class:`~repro.service.scheduler.Scheduler` —
N dispatcher threads that claim keys from one shared round-robin ready
list, with per-key mutual exclusion, admission control and one execution
turn they take in order — so distinct (model, microarch) keys take turns,
overlapping only while a dispatcher waits outside the interpreter, and
every single request still produces the bit-for-bit seeded result of
serial submission.

The JSON-lines wire protocol (the codec in :mod:`repro.service.protocol`) is
one conversation (:class:`~repro.service.transport.Conversation`) spoken
over two transports: stdin/stdout (:func:`serve_stream` behind ``repro
serve``, the default) and TCP (:class:`~repro.service.transport.SocketServer`
behind ``repro serve --port``, driven by
:class:`~repro.service.client.ServiceClient`); ``repro route`` speaks it
on stdio over a fleet (:func:`~repro.service.router.route_stream`).  Besides
explanation requests it answers a ``stats`` op (queue depth, pool occupancy,
per-dispatcher and failure counters), surfaced client-side as
:meth:`ServiceClient.stats`, and a ``cancel`` op
(:meth:`ServiceClient.cancel`) that cancels a still-outstanding request the
moment the server reads it.  Requests may carry a server-side ``deadline``
(seconds from admission), enforced while queued and cooperatively between
KL-LUCB rounds while running; the failure surface is typed —
:class:`~repro.utils.errors.ServiceTimeoutError` (the *caller's* wait
expired; the result stays collectable),
:class:`~repro.utils.errors.RequestCancelledError` and
:class:`~repro.utils.errors.DeadlineExceededError`.

See ``docs/architecture.md`` ("The service layer" and "Failure modes &
recovery") for the ownership and recovery rules.
"""

from repro.runtime.pool import PoolStats, SessionPool
from repro.service.batching import FusionCounters, FusionStats, run_fused_group
from repro.service.client import RetryPolicy, ServiceClient
from repro.service.core import (
    ExplanationRequest,
    ExplanationService,
    RequestStatus,
    ServiceResult,
    ServiceStats,
)
from repro.service.protocol import (
    ServiceOp,
    request_from_dict,
    request_from_line,
    result_to_dict,
    stats_to_dict,
)
from repro.service.router import (
    HashRing,
    Router,
    aggregate_node_stats,
    parse_nodes,
    route_stream,
    routing_key,
    stable_key_hash,
)
from repro.service.scheduler import DispatcherStats, Scheduler, SchedulerStats
from repro.service.transport import SocketServer, serve_stream
from repro.utils.cancellation import CancelToken
from repro.utils.errors import (
    DeadlineExceededError,
    QueueFullError,
    RequestCancelledError,
    ServiceClosedError,
    ServiceError,
    ServiceTimeoutError,
)

__all__ = [
    "CancelToken",
    "DeadlineExceededError",
    "DispatcherStats",
    "ExplanationRequest",
    "ExplanationService",
    "FusionCounters",
    "FusionStats",
    "HashRing",
    "PoolStats",
    "QueueFullError",
    "RequestCancelledError",
    "RequestStatus",
    "RetryPolicy",
    "Router",
    "Scheduler",
    "SchedulerStats",
    "ServiceClient",
    "ServiceClosedError",
    "ServiceError",
    "ServiceOp",
    "ServiceResult",
    "ServiceStats",
    "ServiceTimeoutError",
    "SessionPool",
    "SocketServer",
    "aggregate_node_stats",
    "parse_nodes",
    "request_from_dict",
    "request_from_line",
    "result_to_dict",
    "route_stream",
    "routing_key",
    "run_fused_group",
    "serve_stream",
    "stable_key_hash",
    "stats_to_dict",
]
