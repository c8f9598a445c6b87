"""The warm-session explanation service.

:class:`ExplanationService` turns the explanation library into a servable
system: requests go into an admission-controlled scheduler, a fleet of
dispatcher threads executes them against long-lived, per-model
:class:`~repro.runtime.session.ExplanationSession` instances (warm query
cache, resident execution backend) leased from a shared
:class:`~repro.runtime.pool.SessionPool`, and clients collect results
with submit/poll/result semantics or the synchronous
:meth:`ExplanationService.explain` convenience wrapper.

Design decisions worth knowing:

* **Dispatchers that share one ready list and one execution slot.**  The
  :class:`~repro.service.scheduler.Scheduler` queues every request under
  its session key — ``(model, microarch)`` — and its dispatchers claim
  keys from one shared ready list; it never runs two requests of one key
  concurrently, so N concurrent clients sharing a warm session get exactly
  the seeded results serial submission would produce.  Distinct keys take
  turns: a dispatcher claims only while no execution holds the
  scheduler's one slot and holds it while it runs the request, and keys
  overlap only while an execution waits on process-backend workers, which
  frees the slot.
  ``dispatchers=1`` (the default) is the original single-threaded service
  and stays the behavioral oracle in tests.  Parallelism lives *inside* a
  request: each explanation fans its query batches out through the
  session's backend, and fleet requests additionally shard their block list
  across backend workers (see ``ExplanationSession.explain_many``).
* **Bounded queue.**  ``max_queue`` caps buffered requests across the whole
  dispatcher fleet; a blocking :meth:`submit` applies backpressure to
  producers, a non-blocking one raises
  :class:`~repro.utils.errors.QueueFullError` so callers can shed load
  instead of buffering without limit.  Within the bound, queued keys
  round-robin on the one ready list, so one hot model cannot starve the
  rest.
* **Ownership.**  The service owns its session pool, which owns the
  sessions it builds (and closes them); each session owns the backend it
  resolved (and closes it).  Nothing else closes anything: callers that
  hand the service a ``session_factory`` producing sessions over
  caller-owned backends keep those backends open across :meth:`close`, per
  the session's own ownership rules.

Seeded results are bit-for-bit identical to calling
:class:`~repro.explain.explainer.CometExplainer` directly: single-block
requests run ``session.explain(block, rng=seed)`` and multi-block requests
run ``session.explain_many(blocks, rng=seed)``, both of which are pinned
against the one-shot API by the runtime's parity tests — under any
dispatcher count, which the service's parity tests pin against the
single-dispatcher oracle.  With continuous batching on, a request's blocks
run through ``session.explain_rounds`` with the same integer seeds instead
(see :mod:`repro.service.batching`), pinned against the
unfused service by the fused parity tests.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.bb.block import BasicBlock
from repro.cache.store import (
    CacheStats,
    ResultCache,
    ResultCacheSource,
    resolve_result_cache,
)
from repro.explain.config import ExplainerConfig
from repro.explain.explanation import Explanation
from repro.runtime.pool import PoolStats, SessionFactory, SessionPool
from repro.runtime.session import ExplanationSession, SessionStats
from repro.service.batching import (
    MAX_FUSED_REQUESTS,
    FusedEntry,
    FusionCounters,
    FusionStats,
    run_fused_group,
)
from repro.service.scheduler import DispatcherStats, Scheduler
from repro.utils.cancellation import CancelToken
from repro.utils.errors import (
    DeadlineExceededError,
    QueueFullError,
    RequestCancelledError,
    ServiceClosedError,
    ServiceError,
    ServiceTimeoutError,
)

class RequestStatus(Enum):
    """Lifecycle of one request inside the service."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def finished(self) -> bool:
        return self in (RequestStatus.DONE, RequestStatus.FAILED, RequestStatus.CANCELLED)


@dataclass(frozen=True)
class ExplanationRequest:
    """One unit of service work: explain some blocks under one seed.

    ``model``/``uarch`` default to the service's configured model; ``shards``
    is forwarded to ``explain_many`` for multi-block requests (``"auto"``,
    the default, = one shard per process-backend worker; ``None``, or any
    count on a one-worker backend such as the serial one, = the sequential
    loop).  Under continuous batching ``shards`` is not used: a multi-block
    request's blocks run one after another in its fused group.
    """

    blocks: Tuple[BasicBlock, ...]
    seed: int = 0
    model: Optional[str] = None
    uarch: Optional[str] = None
    shards: Union[int, str, None] = "auto"
    #: Server-side budget in seconds, counted from admission.  A request
    #: whose deadline lapses while queued fails fast without touching a
    #: session; one that lapses mid-run stops cooperatively at the next
    #: KL-LUCB round boundary.  ``None`` inherits the service default.
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ServiceError("an explanation request needs at least one block")
        # A bool is an int: True would run as seed 1, one shard, a 1 s
        # deadline.  The wire decoder refuses all three the same way.
        if isinstance(self.seed, bool) or self.seed < 0:
            raise ServiceError(
                f"request seed must be a non-negative integer, got {self.seed!r}"
            )
        if self.deadline is not None and (
            isinstance(self.deadline, bool) or not self.deadline > 0  # NaN too
        ):
            raise ServiceError(
                f"request deadline must be positive seconds, got {self.deadline!r}"
            )
        # A non-string key would fail later, outside the in-band failure
        # path (an unhashable one inside the scheduler).
        for name in ("model", "uarch"):
            value = getattr(self, name)
            if not (value is None or isinstance(value, str)):
                raise ServiceError(
                    f"request {name} must be a string or None, got {value!r}"
                )
        # Checked here, not by the sharded path alone: a fused service never
        # plans shards, and it must reject what the unfused one rejects.
        shards = self.shards
        if not (
            shards is None
            or (isinstance(shards, int) and not isinstance(shards, bool))
            or (isinstance(shards, str) and shards.strip().lower() == "auto")
        ):
            raise ServiceError(
                f"shards must be an integer, 'auto' or None, got {shards!r}"
            )


@dataclass(frozen=True)
class ServiceResult:
    """The outcome of one request (inspect ``status`` before ``explanations``)."""

    request_id: str
    status: RequestStatus
    explanations: Tuple[Explanation, ...]
    error: Optional[str]
    model: str
    uarch: str
    seconds: float

    @property
    def ok(self) -> bool:
        return self.status is RequestStatus.DONE


@dataclass(frozen=True)
class ServiceStats:
    """Service-level accounting, snapshot via :meth:`ExplanationService.stats`."""

    submitted: int
    served: int
    failed: int
    cancelled: int
    queue_depth: int
    sessions: Tuple[Tuple[str, str], ...]
    session_stats: Dict[Tuple[str, str], SessionStats] = field(default_factory=dict)
    dispatchers: int = 1
    in_flight: int = 0
    dispatcher_stats: Tuple[DispatcherStats, ...] = ()
    pool: Optional[PoolStats] = None
    #: Failure/resilience accounting: server-side deadline expirations
    #: (queued fail-fast and mid-run alike), plus worker-supervision
    #: counters aggregated over every warm session.
    deadline_expired: int = 0
    worker_restarts: int = 0
    worker_retries: int = 0
    worker_fallbacks: int = 0
    #: Continuous-batching counters (fused ticks, occupancy, shared hits);
    #: always present, with ``enabled=False`` when the service runs unfused.
    fusion: Optional[FusionStats] = None
    #: Requests absorbed into an already-running same-key fused group
    #: instead of waiting for their own scheduler claim.
    absorbed: int = 0
    #: Result-cache counters (per-tier hits/misses/evictions/bytes) for the
    #: service-wide memoization store; ``None`` when memoization is off.
    result_cache: Optional[CacheStats] = None

    def describe(self) -> str:
        resilience = ""
        if self.deadline_expired or self.worker_restarts:
            resilience = (
                f", {self.deadline_expired} deadlines expired, "
                f"{self.worker_restarts} worker restarts"
            )
        fused = ""
        if self.fusion is not None and self.fusion.enabled:
            fused = f", {self.fusion.describe()}, {self.absorbed} absorbed"
        memo = ""
        if self.result_cache is not None:
            memo = f", {self.result_cache.describe()}"
        return (
            f"{self.served}/{self.submitted} requests served "
            f"({self.failed} failed, {self.cancelled} cancelled), "
            f"{self.queue_depth} queued, "
            f"{len(self.sessions)} warm sessions, "
            f"{self.dispatchers} dispatchers{resilience}{fused}{memo}"
        )


class _Ticket:
    """Mutable per-request state shared between clients and dispatchers."""

    __slots__ = ("request_id", "request", "status", "result", "done", "token")

    def __init__(
        self, request_id: str, request: ExplanationRequest, token: CancelToken
    ) -> None:
        self.request_id = request_id
        self.request = request
        self.status = RequestStatus.QUEUED
        self.result: Optional[ServiceResult] = None
        self.done = threading.Event()
        #: The request's cancel/deadline token, threaded into the session's
        #: KL-LUCB loops while the request runs.
        self.token = token


class ExplanationService:
    """Serve explanation requests from warm, per-model sessions.

    Parameters
    ----------
    model / uarch:
        Defaults applied to requests that do not name a model.
    config:
        Explanation hyperparameters shared by every session the service
        builds (per-request configs would defeat session warm-up).
    backend / workers:
        Execution substrate forwarded to each session (a short name, or
        ``None`` for the serial backend).  Each session resolves — and
        owns — its own backend instance.
    dispatchers:
        How many dispatcher threads serve the queue.  Requests are routed
        by session key: one key never runs concurrently with itself, so any
        dispatcher count preserves per-request seeded results bit-for-bit.
        One request runs at a time; distinct (model, uarch) keys overlap
        only while one waits on process-backend workers.
    max_queue:
        Bound on buffered requests (backpressure surface).
    max_sessions:
        How many per-model sessions stay warm at once; the least recently
        used idle session is closed when the pool overflows.
    default_deadline:
        Server-side deadline (seconds from admission) applied to requests
        that do not carry their own; ``None`` (the default) leaves requests
        unbounded.  A request's explicit ``deadline`` always wins.
    continuous_batching:
        Fuse concurrent same-key requests into shared ``predict_batch``
        ticks.  Fused results are bit-for-bit identical to the unfused
        oracle — each search keeps its own seeded stream and background
        population — fusion only changes how many requests one warm model
        invocation serves.
    max_fused_requests:
        How many requests one fused tick group may hold at once.
    result_cache:
        Whole-explanation memoization shared by every session the service
        builds: a :class:`~repro.cache.ResultCache` instance (caller-owned),
        a path to open a disk-backed store at (service-owned, closed with
        the service), ``True`` for a service-owned memory-only cache, or
        ``None``/``False`` for none.  Hits serve the stored explanation
        verbatim — bit-for-bit what the computation would produce, since the
        service already runs every request history-free — and retire
        without a search (under fusion, without consuming a KL-LUCB round).
    session_factory:
        Override how sessions are built (tests inject toy models here).  The
        default routes through :func:`repro.models.registry.build_session`.

    Use as a context manager (or call :meth:`close`) so queued requests are
    drained and pooled workers released deterministically::

        with ExplanationService(model="uica", backend="process", dispatchers=4) as service:
            explanations = service.explain([block], seed=0)
    """

    def __init__(
        self,
        *,
        model: str = "crude",
        uarch: str = "hsw",
        config: Optional[ExplainerConfig] = None,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
        dispatchers: int = 1,
        max_queue: int = 64,
        max_sessions: int = 4,
        cache_entries: int = 100_000,
        session_factory: Optional[SessionFactory] = None,
        default_deadline: Optional[float] = None,
        continuous_batching: bool = False,
        max_fused_requests: int = MAX_FUSED_REQUESTS,
        result_cache: ResultCacheSource = None,
    ) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if default_deadline is not None and not default_deadline > 0:  # NaN too
            raise ValueError("default_deadline must be positive seconds")
        if dispatchers < 1:
            raise ValueError("dispatchers must be >= 1")
        if max_fused_requests < 1:
            raise ValueError("max_fused_requests must be >= 1")
        self.default_model = model
        self.default_uarch = uarch
        self.default_deadline = default_deadline
        self.config = config or ExplainerConfig()
        self.dispatchers = dispatchers
        self.continuous_batching = continuous_batching
        self.max_fused_requests = max_fused_requests
        self._fusion_counters = FusionCounters()
        self.max_queue = max_queue
        self.max_sessions = max_sessions
        self._backend = backend
        self._workers = workers
        self._cache_entries = cache_entries
        self._result_cache, self._owns_result_cache = resolve_result_cache(result_cache)
        self._pool = SessionPool(
            session_factory or self._build_session, max_sessions=max_sessions
        )
        self._tickets: Dict[str, _Ticket] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._scheduler: Optional[Scheduler] = None
        self._closed = False
        self._close_done = threading.Event()
        self._submitted = 0
        self._served = 0
        self._failed = 0
        self._cancelled = 0
        self._deadline_expired = 0

    # ------------------------------------------------------------- lifecycle

    def start(self) -> "ExplanationService":
        """Start the dispatcher fleet.  Idempotent; implied by ``submit``."""
        with self._lock:
            # The closed check must live under the lock: a start racing
            # close() past an unlocked check would build a fresh dispatcher
            # fleet on a service whose close already ran — and leak it.
            if self._closed:
                raise ServiceClosedError("this explanation service has been closed")
            if self._scheduler is None:
                self._scheduler = Scheduler(
                    self._execute,
                    dispatchers=self.dispatchers,
                    max_queue=self.max_queue,
                )
        return self

    @property
    def closed(self) -> bool:
        return self._closed

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every submitted request has finished.

        Returns ``False`` if ``timeout`` (seconds) elapsed first.  Draining a
        service that never started (or is already idle) returns immediately.
        """
        scheduler = self._scheduler
        if scheduler is None:
            return True
        return scheduler.drain(timeout)

    def close(self, *, drain: bool = True) -> None:
        """Shut the service down.  Idempotent (and safe to race).

        With ``drain`` (the default) all queued requests finish first; with
        ``drain=False`` queued-but-unstarted requests are cancelled (their
        tickets resolve with :attr:`RequestStatus.CANCELLED`) and only
        in-flight requests complete.  Either way every warm session — and
        therefore every backend a session owns — is closed before returning,
        so no pooled workers outlive the service.  A concurrent second
        ``close`` simply waits until the first one has finished.
        """
        with self._lock:
            first = not self._closed
            self._closed = True  # reject new submissions immediately
        if not first:
            self._close_done.wait()
            return
        try:
            scheduler = self._scheduler
            if scheduler is not None:
                if drain:
                    scheduler.drain()
                # Dispatchers still drain anything that raced past the
                # closed check above; with cancel=True the backlog comes
                # back to us to resolve instead.
                for ticket in scheduler.close(cancel=not drain):
                    self._cancel_ticket(ticket)
            self._pool.close()
            if self._owns_result_cache and self._result_cache is not None:
                self._result_cache.close()
        finally:
            self._close_done.set()

    def _cancel_ticket(self, ticket: "_Ticket") -> None:
        self._resolve(
            ticket,
            ServiceResult(
                request_id=ticket.request_id,
                status=RequestStatus.CANCELLED,
                explanations=(),
                error="service closed before the request ran",
                model=ticket.request.model or self.default_model,
                uarch=ticket.request.uarch or self.default_uarch,
                seconds=0.0,
            ),
        )

    def __enter__(self) -> "ExplanationService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------------- submit

    def _request_key(self, request: ExplanationRequest) -> Tuple[str, str]:
        """The session key a request routes (and serializes) on."""
        return (
            request.model or self.default_model,
            request.uarch or self.default_uarch,
        )

    def submit(
        self,
        request: Union[ExplanationRequest, BasicBlock, Sequence[BasicBlock]],
        *,
        seed: int = 0,
        model: Optional[str] = None,
        uarch: Optional[str] = None,
        shards: Union[int, str, None] = "auto",
        deadline: Optional[float] = None,
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> str:
        """Enqueue a request and return its id (collect via :meth:`result`).

        Accepts a prepared :class:`ExplanationRequest`, a single
        :class:`~repro.bb.block.BasicBlock`, or a sequence of blocks (the
        keyword arguments then describe the request).  When the bounded queue
        is full, a blocking submit waits (``timeout`` seconds, or forever)
        and a non-blocking one raises
        :class:`~repro.utils.errors.QueueFullError` immediately.  Submitting
        to a closed service raises
        :class:`~repro.utils.errors.ServiceClosedError`.

        ``deadline`` is the request's server-side budget in seconds, counted
        from admission (``None`` inherits the service default): a request
        still queued when it lapses fails fast without touching a session,
        and a running one stops cooperatively at the next KL-LUCB round.
        """
        if self._closed:
            raise ServiceClosedError("this explanation service has been closed")
        if not isinstance(request, ExplanationRequest):
            blocks = (request,) if isinstance(request, BasicBlock) else tuple(request)
            request = ExplanationRequest(
                blocks=blocks,
                seed=seed,
                model=model,
                uarch=uarch,
                shards=shards,
                deadline=deadline,
            )
        self.start()
        scheduler = self._scheduler
        assert scheduler is not None
        request_id = f"req-{next(self._ids)}"
        budget = request.deadline if request.deadline is not None else self.default_deadline
        ticket = _Ticket(
            request_id, request, CancelToken.with_timeout(budget, name=request_id)
        )
        with self._lock:
            self._tickets[ticket.request_id] = ticket
            self._submitted += 1
        try:
            scheduler.submit(
                self._request_key(request), ticket, block=block, timeout=timeout
            )
        except BaseException as error:
            # The ticket never entered the queue: drop it, whatever the
            # scheduler raised.
            with self._lock:
                del self._tickets[ticket.request_id]
                self._submitted -= 1
            if isinstance(error, ServiceClosedError):
                # close() won the race between our closed-check and the
                # scheduler put.
                raise ServiceClosedError(
                    "this explanation service has been closed"
                ) from None
            # A QueueFullError's message already distinguishes "full right
            # now" from "stayed full for your whole timeout"; re-raise it.
            raise
        return ticket.request_id

    def poll(self, request_id: str) -> RequestStatus:
        """The current status of a submitted request."""
        ticket = self._tickets.get(request_id)
        if ticket is None:
            raise ServiceError(f"unknown request id {request_id!r}")
        return ticket.status

    def result(self, request_id: str, timeout: Optional[float] = None) -> ServiceResult:
        """Wait for — and consume — one request's result.

        The ticket is released once collected, so a long-running service does
        not accumulate per-request state; asking twice raises.  A ``timeout``
        (seconds) elapsing raises :class:`~repro.utils.errors.ServiceError`
        and leaves the ticket collectable.
        """
        ticket = self._tickets.get(request_id)
        if ticket is None:
            raise ServiceError(f"unknown request id {request_id!r}")
        if not ticket.done.wait(timeout):
            raise ServiceTimeoutError(
                f"request {request_id!r} did not finish in {timeout}s"
            )
        with self._lock:
            self._tickets.pop(request_id, None)
        assert ticket.result is not None
        return ticket.result

    def cancel(self, request_id: str) -> bool:
        """Cancel a submitted request (idempotent; unknown ids raise).

        Returns ``True`` when the cancellation can still take effect — the
        request was withdrawn from the queue (its ticket resolves
        :attr:`RequestStatus.CANCELLED` immediately) or is running and will
        stop at its next KL-LUCB round boundary — and ``False`` when the
        request had already finished.  Either way the ticket stays
        collectable via :meth:`result`, and the request's dispatcher and
        session key are freed for the next request the moment it stops.
        """
        ticket = self._tickets.get(request_id)
        if ticket is None:
            raise ServiceError(f"unknown request id {request_id!r}")
        if ticket.done.is_set():
            return False
        # Setting the token first closes the claim race: a dispatcher that
        # dequeues the ticket after a failed withdraw still sees the token
        # at its first round boundary.
        ticket.token.cancel("cancelled by client")
        scheduler = self._scheduler
        if scheduler is not None and scheduler.withdraw(
            self._request_key(ticket.request), ticket
        ):
            self._resolve(
                ticket,
                ServiceResult(
                    request_id=ticket.request_id,
                    status=RequestStatus.CANCELLED,
                    explanations=(),
                    error="request cancelled before it ran",
                    model=ticket.request.model or self.default_model,
                    uarch=ticket.request.uarch or self.default_uarch,
                    seconds=0.0,
                ),
            )
        return True

    def explain(
        self,
        blocks: Union[BasicBlock, Sequence[BasicBlock]],
        *,
        seed: int = 0,
        model: Optional[str] = None,
        uarch: Optional[str] = None,
        shards: Union[int, str, None] = "auto",
        timeout: Optional[float] = None,
    ) -> List[Explanation]:
        """Synchronous convenience: submit, wait, unwrap (raises on failure)."""
        request_id = self.submit(
            blocks, seed=seed, model=model, uarch=uarch, shards=shards, timeout=timeout
        )
        result = self.result(request_id, timeout=timeout)
        if not result.ok:
            raise ServiceError(
                f"request {request_id} {result.status.value}: {result.error}"
            )
        return list(result.explanations)

    # ------------------------------------------------------------ dispatcher

    def _execute(self, ticket: _Ticket) -> None:
        """Run one claimed request on a dispatcher thread.

        The scheduler guarantees per-key mutual exclusion and holds the
        execution slot around this call, so this request has its session to
        itself for the duration; the pool lease pins the session against an
        eviction triggered by another key while this one blocks.
        With continuous batching on, the claimed request seeds a fused tick
        group that also serves — and keeps absorbing — other outstanding
        requests of the same key (see :mod:`repro.service.batching`).
        """
        if self.continuous_batching:
            self._execute_fused(ticket)
        else:
            self._execute_single(ticket)

    def _execute_single(self, ticket: _Ticket) -> None:
        """The unfused execution path — the service's behavioral oracle."""
        with self._lock:
            # Skip tickets already resolved (cancelled by a racing close or
            # a queue withdraw); claiming RUNNING under the lock means a
            # concurrent _resolve cannot interleave between the check and
            # the status write.
            if ticket.done.is_set():
                return
            ticket.status = RequestStatus.RUNNING
        request = ticket.request
        start = time.perf_counter()
        try:
            # Fail fast before leasing anything: a request whose deadline
            # lapsed (or that was cancelled) while queued must not spend a
            # warm session computing an answer nobody will read.
            ticket.token.check()
            with self._pool.leased(*self._request_key(request)) as session:
                if len(request.blocks) == 1:
                    # Matches CometExplainer.explain(block, rng=seed) exactly:
                    # the seed drives the search directly, no stream spawning.
                    explanations = (
                        session.explain(
                            request.blocks[0], rng=request.seed, cancel=ticket.token
                        ),
                    )
                else:
                    explanations = session.explain_many(
                        request.blocks,
                        rng=request.seed,
                        shards=request.shards,
                        cancel=ticket.token,
                    )
        except Exception as error:  # noqa: BLE001 - reported to the client
            self._settle(ticket, start, error=error)
            return
        self._settle(ticket, start, explanations)

    def _execute_fused(self, primary: _Ticket) -> None:
        """Run one claimed request as the seed of a fused tick group.

        Still one key, one thread: the scheduler's mutual exclusion holds,
        but between fused ticks the group absorbs newly queued same-key
        requests (``claim_extra``) so concurrent users share each warm
        cost-model invocation.  Every member request resolves through its
        own callbacks — results, cancellation and deadline expiry stay
        per-request — and absorbed members release their scheduler
        accounting (``extra_done``) exactly once when they retire.
        """
        key = self._request_key(primary.request)
        scheduler = self._scheduler
        assert scheduler is not None
        members: List[Tuple[_Ticket, FusedEntry]] = []

        def claim(ticket: _Ticket, absorbed: bool) -> Optional[FusedEntry]:
            """Mark a ticket RUNNING, or drop one a racing cancel resolved."""
            with self._lock:
                if ticket.done.is_set():
                    if absorbed:
                        scheduler.extra_done(key)
                    return None
                ticket.status = RequestStatus.RUNNING
            start = time.perf_counter()

            def settle(
                explanations: Sequence[Explanation] = (),
                error: Optional[BaseException] = None,
            ) -> None:
                self._settle(ticket, start, explanations, error)
                if absorbed:
                    scheduler.extra_done(key)

            entry = FusedEntry(
                blocks=ticket.request.blocks,
                seed=ticket.request.seed,
                token=ticket.token,
                finish=settle,
                fail=lambda error: settle(error=error),
            )
            members.append((ticket, entry))
            return entry

        def absorb(limit: int) -> List[FusedEntry]:
            entries = []
            for ticket in scheduler.claim_extra(key, limit):
                entry = claim(ticket, absorbed=True)
                if entry is not None:
                    entries.append(entry)
            return entries

        primary_entry = claim(primary, absorbed=False)
        if primary_entry is None:
            return
        try:
            # Fail fast before leasing, as the unfused path does: a lease
            # builds the key's session and may evict a warm one.
            primary.token.check()
            with self._pool.leased(*key) as session:
                run_fused_group(
                    session,
                    [primary_entry],
                    absorb=absorb,
                    max_fused_requests=self.max_fused_requests,
                    counters=self._fusion_counters,
                )
        except Exception as error:  # noqa: BLE001 - group-level failure
            # The check, the lease or the group machinery failed before the
            # batcher could retire everyone: retire whoever is still open.
            for ticket, entry in members:
                if not ticket.done.is_set():
                    entry.fail(error)

    def _settle(
        self,
        ticket: _Ticket,
        start: float,
        explanations: Sequence[Explanation] = (),
        error: Optional[BaseException] = None,
    ) -> None:
        """Resolve a running ticket: done with ``explanations``, or retired
        by ``error`` — cancelled by a cancellation, failed by anything else
        (a deadline expiry counts in ``deadline_expired``)."""
        model_name, uarch = self._request_key(ticket.request)
        if error is None:
            status = RequestStatus.DONE
        elif isinstance(error, RequestCancelledError):
            status = RequestStatus.CANCELLED
        else:
            status = RequestStatus.FAILED
        self._resolve(
            ticket,
            ServiceResult(
                request_id=ticket.request_id,
                status=status,
                explanations=tuple(explanations),
                error=None if error is None else f"{type(error).__name__}: {error}",
                model=model_name,
                uarch=uarch,
                seconds=time.perf_counter() - start,
            ),
            deadline_expired=isinstance(error, DeadlineExceededError),
        )

    def _resolve(
        self,
        ticket: _Ticket,
        result: ServiceResult,
        *,
        deadline_expired: bool = False,
    ) -> None:
        """Publish a ticket's outcome exactly once (later resolvers lose)."""
        with self._lock:
            if ticket.done.is_set():
                return
            ticket.result = result
            ticket.status = result.status
            if result.status is RequestStatus.DONE:
                self._served += 1
            elif result.status is RequestStatus.FAILED:
                self._failed += 1
                if deadline_expired:
                    self._deadline_expired += 1
            else:
                self._cancelled += 1
            ticket.done.set()

    # -------------------------------------------------------------- sessions

    @property
    def pool(self) -> SessionPool:
        """The service's session pool (shared with library callers)."""
        return self._pool

    @property
    def result_cache(self) -> Optional[ResultCache]:
        """The service-wide memoization store (``None`` when disabled)."""
        return self._result_cache

    def _build_session(self, model_name: str, uarch: str) -> ExplanationSession:
        from repro.models.registry import build_session

        return build_session(
            model_name,
            uarch,
            config=self.config,
            backend=self._backend,
            workers=self._workers,
            cache_entries=self._cache_entries,
            # One shared store across every (model, uarch) session: the
            # fingerprint carries the model identity, so entries never
            # collide and all sessions benefit from each other's warmth.
            result_cache=self._result_cache,
        )

    # ----------------------------------------------------------------- stats

    def stats(self) -> ServiceStats:
        """Accounting snapshot: request counters, scheduler queue/flight
        depth, per-dispatcher counters, pool occupancy and per-session stats."""
        with self._lock:
            submitted, served = self._submitted, self._served
            failed, cancelled = self._failed, self._cancelled
            deadline_expired = self._deadline_expired
            scheduler = self._scheduler
        scheduler_stats = scheduler.stats() if scheduler is not None else None
        keys, pool_stats, session_stats = self._pool.snapshot()
        return ServiceStats(
            submitted=submitted,
            served=served,
            failed=failed,
            cancelled=cancelled,
            queue_depth=scheduler_stats.queue_depth if scheduler_stats else 0,
            sessions=keys,
            session_stats=session_stats,
            dispatchers=self.dispatchers,
            in_flight=scheduler_stats.in_flight if scheduler_stats else 0,
            dispatcher_stats=(
                scheduler_stats.dispatcher_stats if scheduler_stats else ()
            ),
            pool=pool_stats,
            deadline_expired=deadline_expired,
            worker_restarts=sum(s.worker_restarts for s in session_stats.values()),
            worker_retries=sum(s.worker_retries for s in session_stats.values()),
            worker_fallbacks=sum(s.worker_fallbacks for s in session_stats.values()),
            fusion=self._fusion_counters.snapshot(
                enabled=self.continuous_batching,
                max_fused_requests=self.max_fused_requests,
            ),
            absorbed=scheduler_stats.absorbed if scheduler_stats else 0,
            result_cache=(
                self._result_cache.stats()
                if self._result_cache is not None and not self._result_cache.closed
                else None
            ),
        )
