"""Execution turns: one thread at a time runs in-process search work.

The search is pure-Python Γ, KL-LUCB and coverage work, so two threads
that both run it only trade the interpreter lock: the work stays the same
and every unit of it costs more (context switches, cold caches).  The
service's dispatchers therefore take turns.  They share one
:class:`ExecutionTurn`, and each holds it through its own :class:`Turn`
while it executes a claimed item.  :func:`blocking` gives the calling
thread's turn up for a wait outside the interpreter (a process-pool
batch, a session another thread is building) and takes it back
afterwards, so another dispatcher runs meanwhile.  A thread that holds no
turn — every library caller — passes through :func:`blocking` untouched.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Deque, Iterator

#: ``turn``: the :class:`Turn` the current thread holds, if any.
_current = threading.local()


class ExecutionTurn:
    """A lock that threads take one at a time, in the order they ask.

    A release hands the turn straight to the longest-waiting thread, so a
    thread that gives the turn up and asks again at once queues behind
    every thread already waiting instead of taking it back ahead of them.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._held = False
        #: One locked lock per waiting thread, oldest first; a release
        #: unlocks the oldest, which hands that thread the turn.
        self._waiters: Deque[threading.Lock] = deque()

    def take(self) -> float:
        """Take the turn; returns the seconds spent waiting for it."""
        with self._mutex:
            if not self._held:
                self._held = True
                return 0.0
            waiter = threading.Lock()
            waiter.acquire()
            self._waiters.append(waiter)
        start = time.perf_counter()
        waiter.acquire()
        return time.perf_counter() - start

    def give(self) -> None:
        """Give the turn up: to the longest waiter, or to nobody."""
        with self._mutex:
            if self._waiters:
                self._waiters.popleft().release()
            else:
                self._held = False


class Turn:
    """One thread's handle on a shared :class:`ExecutionTurn`.

    ``with turn:`` takes the turn for the body and makes this handle the
    calling thread's turn, which :func:`blocking` inside the body gives up
    and takes back.  ``waited`` sums the seconds spent waiting for the
    turn, on entry and after each :func:`blocking`.
    """

    __slots__ = ("_shared", "waited")

    def __init__(self, shared: ExecutionTurn) -> None:
        self._shared = shared
        self.waited = 0.0

    def _take(self) -> None:
        self.waited += self._shared.take()

    def __enter__(self) -> "Turn":
        self._take()
        _current.turn = self
        return self

    def __exit__(self, *exc_info) -> None:
        _current.turn = None
        self._shared.give()


@contextmanager
def blocking() -> Iterator[None]:
    """Give up the calling thread's turn, if it holds one, for the body.

    Wrap only waits that need no interpreter time (a blocking call into
    other processes, an event another thread sets): the turn is taken
    back, behind every thread already waiting for it, before the caller
    goes on.  Nested uses are no-ops.  Never enter it holding a lock that
    another turn holder may take: that holder would wait for the lock
    while holding the turn this caller needs back.
    """
    turn = getattr(_current, "turn", None)
    if turn is None:
        yield
        return
    _current.turn = None
    turn._shared.give()
    try:
        yield
    finally:
        turn._take()
        _current.turn = turn
