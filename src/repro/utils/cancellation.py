"""Cooperative cancellation and deadlines for long-running requests.

An explanation is thousands of cost-model queries spread over many KL-LUCB
refinement rounds — seconds to minutes of work that, once started, the
serving stack previously had no way to stop: a client giving up on
``result(timeout=...)`` left the server burning a dispatcher and its warm
session on an answer nobody would read.

:class:`CancelToken` is the one object that threads through every layer —
``ExplanationService.submit(deadline=...)`` → scheduler ticket → dispatcher
→ ``ExplanationSession`` → :class:`~repro.explain.anchors.AnchorSearch` →
:class:`~repro.explain.precision.PrecisionEstimator` — and is *checked*, not
enforced: the search calls :meth:`CancelToken.check` between refinement
rounds (the natural unit of work between two batched model queries) and the
token raises :class:`~repro.utils.errors.RequestCancelledError` or
:class:`~repro.utils.errors.DeadlineExceededError` when the request should
stop.  Cooperative checking is what keeps cancellation determinism-safe: a
token that never fires never touches the random stream, so seeded results
are bit-for-bit unchanged by the plumbing.

Deadlines are absolute :func:`time.monotonic` instants (wall-clock jumps
must not expire requests); build one from a relative budget with
:meth:`CancelToken.with_timeout`.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.utils.errors import DeadlineExceededError, RequestCancelledError


class CancelToken:
    """A thread-safe cancel/deadline flag shared by one request's layers.

    Parameters
    ----------
    deadline:
        Absolute :func:`time.monotonic` instant after which the token is
        expired (``None`` = no deadline).
    name:
        Optional label (the service uses the request id) quoted in the
        errors the token raises, so a client can see *which* request died.

    The producer side (service, client plumbing) calls :meth:`cancel`; the
    consumer side (search loops) calls :meth:`check` at round boundaries.
    Both directions are idempotent and lock-protected; a token can only ever
    move from live to finished, never back.
    """

    __slots__ = ("_deadline", "_name", "_cancelled", "_reason", "_lock")

    def __init__(
        self, deadline: Optional[float] = None, *, name: Optional[str] = None
    ) -> None:
        self._deadline = deadline
        self._name = name
        self._cancelled = False
        self._reason: Optional[str] = None
        self._lock = threading.Lock()

    @classmethod
    def with_timeout(
        cls, seconds: Optional[float], *, name: Optional[str] = None
    ) -> "CancelToken":
        """A token expiring ``seconds`` from now (``None`` = never)."""
        if seconds is None:
            return cls(name=name)
        if not seconds > 0:  # NaN too
            raise ValueError(f"deadline must be positive, got {seconds!r}")
        return cls(deadline=time.monotonic() + seconds, name=name)

    # ---------------------------------------------------------------- produce

    def cancel(self, reason: str = "request cancelled") -> None:
        """Mark the token cancelled.  Idempotent (the first reason wins)."""
        with self._lock:
            if not self._cancelled:
                self._cancelled = True
                self._reason = reason

    # ---------------------------------------------------------------- consume

    @property
    def name(self) -> Optional[str]:
        return self._name

    @property
    def cancelled(self) -> bool:
        """Explicitly cancelled (deadline expiry is :attr:`expired`)."""
        return self._cancelled

    @property
    def reason(self) -> Optional[str]:
        return self._reason

    @property
    def deadline(self) -> Optional[float]:
        """The absolute monotonic deadline (``None`` = no deadline)."""
        return self._deadline

    @property
    def expired(self) -> bool:
        return self._deadline is not None and time.monotonic() >= self._deadline

    @property
    def finished(self) -> bool:
        """Cancelled or expired — the request should stop either way."""
        return self._cancelled or self.expired

    def remaining(self) -> Optional[float]:
        """Seconds left until the deadline (``None`` = unbounded, 0 floor)."""
        if self._deadline is None:
            return None
        return max(self._deadline - time.monotonic(), 0.0)

    def check(self) -> None:
        """Raise if the request should stop; free otherwise.

        Raises :class:`RequestCancelledError` for explicit cancellation
        (checked first: a client that cancelled should see its own reason
        even if the deadline also lapsed while the request sat queued) and
        :class:`DeadlineExceededError` for deadline expiry.
        """
        if self._cancelled:
            label = f"request {self._name}" if self._name else "request"
            raise RequestCancelledError(f"{label} cancelled: {self._reason}")
        if self.expired:
            label = f"request {self._name}" if self._name else "request"
            raise DeadlineExceededError(
                f"{label} exceeded its deadline before completing"
            )
