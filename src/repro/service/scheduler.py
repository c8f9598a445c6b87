"""The multi-dispatcher scheduler behind the explanation service.

One dispatcher thread was the service's original concurrency story: strict
submission order on one thread made determinism trivial.  This module runs
N dispatchers without giving up the determinism contract, by making the
session key — ``(model, microarch)`` — the unit of mutual exclusion, while
one execution runs at a time:

* **One ready list.**  New work for a key is queued under the key, and the
  key joins the back of the scheduler's one list of ready keys, which every
  dispatcher claims from.  No key belongs to a dispatcher: whichever
  dispatcher is free claims the key at the head of the list.
* **One execution slot.**  A dispatcher claims only while no execution
  holds the scheduler's one slot, and holds the slot while it executes the
  claimed item (one request, or the fused group it seeds), so at most one
  dispatcher runs in-process search work at a time.  The search is pure
  Python, so two dispatchers running it at once only trade the interpreter
  lock — the same work at a higher cost per unit.  Keys overlap only while
  an execution waits outside the interpreter inside
  :func:`~repro.runtime.backend.blocking` (a process-backend batch), which
  frees the slot meanwhile; coming back, the execution retakes the slot
  before any new claim.
* **Per-key mutual exclusion.**  A key is *ready* (claimable) only while no
  request of that key is in flight; claiming a key takes exactly one queued
  request and marks the key in flight until that request finishes.  Two
  requests of one key therefore never run concurrently — which is what
  keeps warm-session results bit-for-bit equal to serial submission: each
  request runs alone on its session, which keeps no population between
  calls, and drives the search from its own seed, so neither thread
  placement nor arrival order can leak into a result.
* **Absorption.**  Per-key mutual exclusion means same-key work *parks*
  behind the in-flight request: the key is off the ready list, so no other
  dispatcher can claim it.  A fused executor (the service's continuous
  batcher) instead calls :meth:`claim_extra` between ticks to absorb newly
  queued same-key work into its own running group: the work joins the next
  fused tick on the thread already holding the key instead of waiting for
  the whole flight to end.  Each absorbed item is accounted like a claimed
  one (admission slot released on absorb, ``extra_done`` per item on
  finish), and execution stays single-threaded per key.
* **Per-key fairness.**  A claim takes one request, then the key goes to
  the back of the ready list.  Keys round-robin across the whole fleet: a
  hot model with a deep backlog cannot starve other models.  Nothing is
  claimed before it may run, so backlogged keys run in list order whichever
  dispatcher claims them, as on a single dispatcher.
* **Admission control.**  One global bound caps queued-but-unclaimed work
  across all dispatchers.  Blocking submits wait for space (backpressure),
  non-blocking ones raise :class:`~repro.utils.errors.QueueFullError`.

The scheduler is generic over its work items: the service hands it opaque
tickets plus an ``execute`` callable and keeps all request semantics
(status, results, failure capture) to itself.  ``dispatchers=1`` degrades
to a single worker thread over the same code path — the behavioral oracle
the multi-dispatcher configurations are pinned against in tests.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.runtime.backend import blocking_hook
from repro.utils.errors import QueueFullError, ServiceClosedError

#: Runs one claimed work item; must not raise (the service catches and
#: converts failures into failed results itself).
Executor = Callable[[Any], None]


@dataclass(frozen=True)
class DispatcherStats:
    """One dispatcher thread's counters."""

    index: int
    executed: int
    busy: bool

    def describe(self) -> str:
        state = "busy" if self.busy else "idle"
        return f"dispatcher {self.index}: {self.executed} executed, {state}"


@dataclass(frozen=True)
class SchedulerStats:
    """Queue/flight snapshot across the dispatcher fleet."""

    dispatchers: int
    queue_depth: int
    in_flight: int
    keys: int
    dispatcher_stats: Tuple[DispatcherStats, ...]
    #: Items pulled into an already-running same-key group via
    #: :meth:`Scheduler.claim_extra` (continuous batching) instead of
    #: waiting for their own claim.
    absorbed: int = 0


class _KeyState:
    """One session key's backlog and flight state."""

    __slots__ = ("queue", "inflight", "ready")

    def __init__(self) -> None:
        self.queue: Deque[Any] = deque()
        self.inflight = False   # a request of this key is executing
        self.ready = False      # the key sits on the ready list


class Scheduler:
    """N dispatcher threads over per-key work queues and one ready list.

    Parameters
    ----------
    execute:
        Called (on a dispatcher thread, holding the execution slot) with
        each claimed item.  Items of one key are executed one at a time,
        FIFO; distinct keys take turns, and overlap only while an execution
        waits inside :func:`~repro.runtime.backend.blocking`.
    dispatchers:
        Worker thread count.  ``1`` reproduces the single-dispatcher
        service exactly (modulo cross-key fairness, which cannot change
        results).
    max_queue:
        Global bound on queued-but-unclaimed items (admission control).
    """

    def __init__(
        self,
        execute: Executor,
        *,
        dispatchers: int = 1,
        max_queue: int = 64,
    ) -> None:
        if dispatchers < 1:
            raise ValueError("dispatchers must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self._execute = execute
        self.dispatchers = dispatchers
        self.max_queue = max_queue
        self._lock = threading.Lock()
        #: Dispatchers, and executions waiting to retake the slot, sleep
        #: here; submit, finish and a freed slot notify it.
        self._work = threading.Condition(self._lock)
        #: Blocking submitters wait here; claims notify it.
        self._space = threading.Condition(self._lock)
        #: drain() waits here; the last finishing item notifies it.
        self._idle = threading.Condition(self._lock)
        self._keys: Dict[Hashable, _KeyState] = {}
        #: Claimable keys, oldest first; every dispatcher claims the head.
        self._ready: Deque[Hashable] = deque()
        self._queued = 0     # admission-controlled backlog
        self._pending = 0    # queued + in flight (drain waits on zero)
        self._executed = [0] * dispatchers
        self._busy = [False] * dispatchers
        self._absorbed = 0
        #: The one execution slot: held from a claim until its item finishes,
        #: except while the execution waits inside ``blocking()``.
        self._running = False
        #: Executions back from ``blocking()`` waiting to retake the slot; no
        #: dispatcher claims while one waits.
        self._returning = 0
        self._stop = False
        self._threads = [
            threading.Thread(
                target=self._run, args=(index,),
                name=f"repro-dispatcher-{index}", daemon=True,
            )
            for index in range(dispatchers)
        ]
        for thread in self._threads:
            thread.start()

    # ---------------------------------------------------------------- submit

    def submit(
        self,
        key: Hashable,
        item: Any,
        *,
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> None:
        """Queue ``item`` under ``key``.

        Raises :class:`QueueFullError` when the global bound is hit and the
        submit is non-blocking (or the blocking wait times out), and
        :class:`ServiceClosedError` once the scheduler is closing.
        """
        with self._space:
            if self._stop:
                raise ServiceClosedError("the scheduler has been closed")
            if self._queued >= self.max_queue:
                if not block:
                    raise QueueFullError(
                        f"request queue is full ({self.max_queue} requests); "
                        f"retry, raise max_queue, or use a blocking submit"
                    )
                if not self._space.wait_for(
                    lambda: self._stop or self._queued < self.max_queue,
                    timeout,
                ):
                    raise QueueFullError(
                        f"request queue stayed full ({self.max_queue} "
                        f"requests) for {timeout}s"
                    )
                if self._stop:
                    raise ServiceClosedError("the scheduler has been closed")
            state = self._keys.get(key)
            if state is None:
                state = self._keys[key] = _KeyState()
            state.queue.append(item)
            self._queued += 1
            self._pending += 1
            self._mark_ready_locked(key, state)

    def _mark_ready_locked(self, key: Hashable, state: _KeyState) -> None:
        """Put a key at the back of the ready list if it is claimable."""
        if state.queue and not state.inflight and not state.ready:
            state.ready = True
            self._ready.append(key)
            self._work.notify_all()

    def withdraw(self, key: Hashable, item: Any) -> bool:
        """Remove one still-queued item (``False`` if already claimed).

        The cancellation fast path: a withdrawn item never reaches a
        dispatcher, its queue slot is released to blocking submitters, and
        an emptied key is delisted so it cannot wake a dispatcher for
        nothing.  Items already claimed (in flight) are left alone — their
        cancellation happens cooperatively inside ``execute``.
        """
        with self._lock:
            state = self._keys.get(key)
            if state is None:
                return False
            try:
                state.queue.remove(item)
            except ValueError:
                return False
            self._queued -= 1
            self._pending -= 1
            self._space.notify_all()
            if not state.queue and state.ready:
                state.ready = False
                self._ready.remove(key)
            if not state.queue and not state.inflight:
                self._keys.pop(key, None)
            if self._pending == 0:
                self._idle.notify_all()
            return True

    # ------------------------------------------------------------ dispatchers

    def _claim_locked(self) -> Optional[Tuple[Hashable, _KeyState, Any]]:
        """Take the execution slot and one item of the key at the head of
        the ready list, if the slot is free and no execution waits for it."""
        if not self._ready or self._running or self._returning:
            return None
        self._running = True
        key = self._ready.popleft()
        state = self._keys[key]
        state.ready = False
        state.inflight = True
        item = state.queue.popleft()
        self._queued -= 1
        self._space.notify_all()
        return key, state, item

    def claim_extra(self, key: Hashable, limit: int) -> List[Any]:
        """Absorb up to ``limit`` queued items of a key currently in flight.

        Called by a fused executor *while it holds the key* (between ticks),
        so the items it receives still execute one key at a time, on the one
        thread already running the key — per-key mutual exclusion is
        relaxed by absorption rather than by concurrent claims.  Each item's
        admission slot is released immediately; the caller must report every
        absorbed item finished via :meth:`extra_done` (the primary claimed
        item stays accounted by the dispatcher loop as usual).  Returns an
        empty list when the key is not in flight or has no backlog.
        """
        if limit <= 0:
            return []
        with self._lock:
            state = self._keys.get(key)
            if state is None or not state.inflight:
                return []
            items: List[Any] = []
            while state.queue and len(items) < limit:
                items.append(state.queue.popleft())
            if items:
                self._queued -= len(items)
                self._absorbed += len(items)
                self._space.notify_all()
            return items

    def extra_done(self, key: Hashable) -> None:
        """Report one absorbed item finished (pairs with :meth:`claim_extra`)."""
        with self._lock:
            self._pending -= 1
            if self._pending == 0:
                self._idle.notify_all()

    @contextmanager
    def _released(self) -> Iterator[None]:
        """Free the execution slot for the body, then retake it ahead of
        any new claim (each dispatcher's ``blocking()`` hook)."""
        with self._work:
            self._running = False
            self._work.notify_all()
        try:
            yield
        finally:
            with self._work:
                self._returning += 1
                self._work.wait_for(lambda: not self._running)
                self._returning -= 1
                self._running = True

    def _run(self, me: int) -> None:
        blocking_hook.release = self._released
        while True:
            with self._work:
                claimed = self._claim_locked()
                while claimed is None:
                    if self._stop and not self._ready:
                        return  # nothing left to claim: drained
                    self._work.wait()
                    claimed = self._claim_locked()
                self._busy[me] = True
            key, state, item = claimed
            try:
                self._execute(item)
            finally:
                with self._lock:
                    self._running = False
                    self._work.notify_all()
                    self._busy[me] = False
                    self._executed[me] += 1
                    state.inflight = False
                    self._pending -= 1
                    if state.queue:
                        # Back of the ready list: keys round-robin.
                        self._mark_ready_locked(key, state)
                    else:
                        # Keep the key space bounded: an idle, empty key is
                        # rebuilt on its next submission.
                        self._keys.pop(key, None)
                    if self._pending == 0:
                        self._idle.notify_all()

    # ------------------------------------------------------------- lifecycle

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until no work is queued or in flight (``False`` on timeout)."""
        with self._idle:
            return self._idle.wait_for(lambda: self._pending == 0, timeout)

    def close(self, *, cancel: bool = False) -> List[Any]:
        """Stop the dispatcher fleet.  Idempotent.

        With ``cancel=False`` dispatchers finish every queued item before
        exiting; with ``cancel=True`` queued items are withdrawn and
        returned to the caller (to resolve as cancelled) and only in-flight
        items complete.  Blocking submitters are woken with
        :class:`ServiceClosedError` either way.
        """
        cancelled: List[Any] = []
        with self._lock:
            self._stop = True
            if cancel:
                for key in list(self._keys):
                    state = self._keys[key]
                    cancelled.extend(state.queue)
                    state.queue.clear()
                    state.ready = False
                    if not state.inflight:
                        self._keys.pop(key)
                self._ready.clear()
                self._queued -= len(cancelled)
                self._pending -= len(cancelled)
                if self._pending == 0:
                    self._idle.notify_all()
            self._work.notify_all()
            self._space.notify_all()
        for thread in self._threads:
            thread.join()
        return cancelled

    # ----------------------------------------------------------------- stats

    def stats(self) -> SchedulerStats:
        """Snapshot of queue depth, flight count and per-dispatcher counters."""
        with self._lock:
            return SchedulerStats(
                dispatchers=self.dispatchers,
                queue_depth=self._queued,
                in_flight=self._pending - self._queued,
                keys=len(self._keys),
                dispatcher_stats=tuple(
                    DispatcherStats(
                        index=index,
                        executed=self._executed[index],
                        busy=self._busy[index],
                    )
                    for index in range(self.dispatchers)
                ),
                absorbed=self._absorbed,
            )
