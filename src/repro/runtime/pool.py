"""A leased LRU pool of warm :class:`ExplanationSession` instances.

The explanation service originally kept its per-(model, microarch) sessions
in a private ``OrderedDict`` inside the dispatcher loop — workable with one
dispatcher, where "in use" and "being dispatched" were the same thing.  With
several dispatchers leasing sessions concurrently, eviction needs real
bookkeeping: the least-recently-used session must only be *closed* once
nobody is running a request on it.  :class:`SessionPool` owns exactly that:

* **lease / release.**  :meth:`lease` returns the warm session for a key,
  building it through the pool's factory on a miss, and pins it against
  eviction until the matching :meth:`release` (or use the
  :meth:`leased` context manager).  Leases are counted, so concurrent
  callers of one key are fine — though callers that need *result*
  determinism must still serialize their use of a session themselves (the
  scheduler's per-key mutual exclusion does this for the service).
* **LRU with deferred eviction.**  The pool keeps at most ``max_sessions``
  sessions; overflow evicts the least recently leased *idle* session.  A
  session that is still leased is marked for eviction and closed by the
  final release instead — the pool may transiently hold more than
  ``max_sessions`` entries rather than ever closing a session under a
  running request.
* **Occupancy stats.**  :meth:`stats` snapshots size, live leases, build /
  hit / eviction counters; :meth:`session_stats` relays the per-session
  accounting the service's ``stats`` op reports.

The pool owns every session it builds and closes them on :meth:`close`;
sessions are built outside the pool lock (construction can cost seconds for
simulator models) with per-key placeholders so concurrent leases of one key
build once and share.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.runtime.session import ExplanationSession, SessionStats
from repro.utils.errors import BackendError

#: Builds the session serving one (model, microarch) pair.
SessionFactory = Callable[[str, str], ExplanationSession]

#: The pool's key space: (model name, microarchitecture name).
SessionKey = Tuple[str, str]


@dataclass(frozen=True)
class PoolStats:
    """Occupancy snapshot of one :class:`SessionPool`."""

    sessions: int
    max_sessions: int
    leased: int
    builds: int
    hits: int
    evictions: int

    @property
    def occupancy(self) -> float:
        """Resident sessions as a fraction of capacity (may exceed 1.0
        transiently while evicted-but-leased sessions finish)."""
        return self.sessions / self.max_sessions

    def describe(self) -> str:
        return (
            f"{self.sessions}/{self.max_sessions} sessions resident "
            f"({self.leased} leased), {self.builds} built, "
            f"{self.hits} warm hits, {self.evictions} evicted"
        )


class _Entry:
    """One pooled session plus its lease bookkeeping."""

    __slots__ = ("session", "leases", "evicted", "built")

    def __init__(self) -> None:
        self.session: Optional[ExplanationSession] = None
        self.leases = 0
        self.evicted = False
        #: Set once ``session`` is populated (or the build failed and the
        #: entry was removed); later leases of a key being built wait here.
        self.built = threading.Event()


class SessionPool:
    """LRU pool of per-(model, microarch) sessions with counted leases.

    Parameters
    ----------
    factory:
        Builds the session for one key; called outside the pool lock.
    max_sessions:
        How many sessions stay warm; the least recently leased idle session
        is closed when the pool overflows (leased sessions are closed by
        their final release instead).

    Use standalone over the registry, or through the explanation service::

        with SessionPool.from_registry(config=config, backend="process") as pool:
            with pool.leased("uica", "hsw") as session:
                explanation = session.explain(block, rng=0)
    """

    def __init__(self, factory: SessionFactory, *, max_sessions: int = 4) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self._factory = factory
        self.max_sessions = max_sessions
        self._entries: "OrderedDict[SessionKey, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        self._closed = False
        self._builds = 0
        self._hits = 0
        self._evictions = 0

    @classmethod
    def from_registry(cls, *, max_sessions: int = 4, **session_kwargs) -> "SessionPool":
        """A pool whose sessions come from :func:`repro.models.registry.build_session`
        (``session_kwargs``: ``config``/``backend``/``workers``/``cache_entries``...)."""
        from repro.models.registry import build_session

        def factory(model_name: str, uarch: str) -> ExplanationSession:
            return build_session(model_name, uarch, **session_kwargs)

        return cls(factory, max_sessions=max_sessions)

    # ------------------------------------------------------------ lease/release

    def lease(self, model: str, uarch: str) -> ExplanationSession:
        """The warm session for ``(model, uarch)``, pinned until released.

        Builds through the factory on a miss; a build failure propagates to
        every caller waiting on that key and leaves the pool unchanged.
        """
        key = (model, uarch)
        hit: Optional[ExplanationSession] = None
        evicted_now: List[ExplanationSession] = []
        while True:
            with self._lock:
                if self._closed:
                    raise BackendError("this session pool has been closed")
                entry = self._entries.get(key)
                if entry is None:
                    entry = _Entry()
                    entry.leases = 1
                    self._entries[key] = entry
                    break  # we build it, below
                if entry.built.is_set():
                    self._hits += 1
                    entry.leases += 1
                    self._entries.move_to_end(key)
                    if entry.evicted:
                        # A deferred eviction being leased again is hot, not
                        # doomed: resurrect it (the mark never completed, so
                        # un-count it) and pick another victim instead.
                        entry.evicted = False
                        self._evictions -= 1
                        self._evict_overflow_locked(evicted_now)
                    hit = entry.session
                    assert hit is not None
                    break
            # Another caller is building this key; wait outside the lock and
            # retry (the entry vanishes again if that build failed).
            entry.built.wait()
        if hit is not None:
            for old in evicted_now:
                old.close()
            return hit
        try:
            session = self._factory(model, uarch)
        except BaseException:
            with self._lock:
                self._entries.pop(key, None)
            entry.built.set()  # wake waiters; they retry and rebuild
            raise
        evicted: List[ExplanationSession] = []
        with self._lock:
            closed = self._closed
            if closed:
                # close() ran mid-build and could not see this session yet;
                # nothing may escape a closed pool.
                self._entries.pop(key, None)
            else:
                entry.session = session
                self._builds += 1
                self._evict_overflow_locked(evicted)
        entry.built.set()
        if closed:
            session.close()
            raise BackendError("this session pool has been closed")
        for old in evicted:
            old.close()
        return session

    def release(self, model: str, uarch: str) -> None:
        """Drop one lease on ``(model, uarch)`` (closes it if evicted + idle)."""
        key = (model, uarch)
        to_close: Optional[ExplanationSession] = None
        evicted: List[ExplanationSession] = []
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.leases < 1:
                if self._closed:
                    return  # close() already released everything; harmless
                raise BackendError(f"session {key!r} is not leased from this pool")
            entry.leases -= 1
            if entry.evicted and entry.leases == 0:
                # Deferred eviction: the pool overflowed while this session
                # was running a request; the final release closes it.
                self._entries.pop(key, None)
                to_close = entry.session
            else:
                self._evict_overflow_locked(evicted)
        if to_close is not None:
            to_close.close()
        for old in evicted:
            old.close()

    @contextmanager
    def leased(self, model: str, uarch: str) -> Iterator[ExplanationSession]:
        """Context-managed :meth:`lease` / :meth:`release` pair."""
        session = self.lease(model, uarch)
        try:
            yield session
        finally:
            self.release(model, uarch)

    def _evict_overflow_locked(self, evicted: List[ExplanationSession]) -> None:
        """Shrink back to capacity, least recently leased first.

        Idle sessions are popped for the caller to close outside the lock;
        leased ones are only *marked* — their final release closes them.
        Marked entries are logically gone already and do not count against
        capacity (counting them would evict their replacements next).
        """
        over = (
            sum(1 for e in self._entries.values() if not e.evicted)
            - self.max_sessions
        )
        if over <= 0:
            return
        for key in list(self._entries):
            if over <= 0:
                break
            entry = self._entries[key]
            if entry.evicted or not entry.built.is_set():
                continue
            if entry.leases == 0:
                self._entries.pop(key)
                if entry.session is not None:
                    evicted.append(entry.session)
                self._evictions += 1
                over -= 1
            else:
                entry.evicted = True
                self._evictions += 1
                over -= 1

    # ----------------------------------------------------------------- stats

    def stats(self) -> PoolStats:
        """Occupancy snapshot (sessions resident, leases live, counters)."""
        with self._lock:
            return self._stats_locked()

    def _stats_locked(self) -> PoolStats:
        return PoolStats(
            sessions=len(self._entries),
            max_sessions=self.max_sessions,
            leased=sum(1 for e in self._entries.values() if e.leases > 0),
            builds=self._builds,
            hits=self._hits,
            evictions=self._evictions,
        )

    def snapshot(
        self,
    ) -> Tuple[Tuple[SessionKey, ...], PoolStats, Dict[SessionKey, SessionStats]]:
        """Keys, occupancy and per-session stats from *one* lock hold.

        Composing :meth:`keys`/:meth:`stats`/:meth:`session_stats` takes
        three separate locks, so a racing build or eviction could make the
        pieces disagree (a key listed with no matching occupancy count);
        capacity-accounting consumers — the service's ``stats`` op — read
        this consistent view instead.
        """
        with self._lock:
            keys = tuple(self._entries)
            stats = self._stats_locked()
            sessions = {
                key: entry.session
                for key, entry in self._entries.items()
                if entry.session is not None
            }
        session_stats = {
            key: session.stats()
            for key, session in sessions.items()
            if not session.closed
        }
        return keys, stats, session_stats

    def session_stats(self) -> Dict[SessionKey, SessionStats]:
        """Per-session accounting for every live, built session."""
        with self._lock:
            sessions = {
                key: entry.session
                for key, entry in self._entries.items()
                if entry.session is not None
            }
        return {
            key: session.stats()
            for key, session in sessions.items()
            if not session.closed
        }

    def keys(self) -> Tuple[SessionKey, ...]:
        """The resident session keys, least recently leased first."""
        with self._lock:
            return tuple(self._entries)

    # ------------------------------------------------------------- lifecycle

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close every pooled session.  Idempotent.

        Idle sessions close immediately.  A session under a live lease is
        never closed mid-request — it is marked like a deferred eviction
        and its final :meth:`release` closes it — so a library caller
        sharing the pool cannot have a running explanation killed under it
        (the service itself joins its dispatchers before closing the pool,
        so its leases are already gone).  A straggling release after close
        is harmless.
        """
        to_close: List[ExplanationSession] = []
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for key in list(self._entries):
                entry = self._entries[key]
                if entry.leases == 0:
                    self._entries.pop(key)
                    if entry.session is not None:
                        to_close.append(entry.session)
                else:
                    entry.evicted = True
        for session in to_close:
            session.close()

    def __enter__(self) -> "SessionPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
