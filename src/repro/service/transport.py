"""Every front end of the explanation service: one conversation, two transports.

:mod:`repro.service.protocol` is the wire *format* (the codec).  This module
holds the protocol's *conversation* and every transport that carries it:

* :class:`Conversation` — one client's side of the protocol.  It decodes a
  line, acts on it at once (submits a request, or cancels a ``cancel`` op's
  target) and answers every line in submission order: results, failures,
  ``stats`` snapshots and cancel acknowledgements alike.  It talks to a
  small *target*: :class:`ServiceTarget` over one in-process
  :class:`~repro.service.core.ExplanationService`, or
  :class:`~repro.service.router.FleetTarget` over a routed fleet.
* :func:`pump` — the stdio front end: one thread reads lines into a
  conversation and writes its answers as they come due.
  :func:`serve_stream` (``repro serve`` without ``--port``) is the pump
  over a service.
* :class:`SocketServer` — the TCP front end (``repro serve --port``):

```
client sockets ──▶ per-connection reader threads ──submit──▶ service queue
      ▲                                                          │
      └── per-connection writer threads ◀── result(ticket) ◀─────┘
```

* **One conversation per connection.**  The reader thread feeds lines to
  :meth:`Conversation.read` (the service's bounded queue throttles a
  connection that outpaces the dispatcher); the writer thread sends what
  :meth:`Conversation.answer` returns.  A connection therefore answers in
  exactly the order stdio does, while connections interleave freely
  through the shared dispatchers.
* **Connection-scoped error isolation.**  Undecodable bytes, oversized
  lines, submission failures and mid-request disconnects are handled inside
  the offending connection — in-band ``failed`` responses while the socket
  lives, silent ticket cleanup once it is gone.  Nothing a client sends (or
  stops sending) can take down the server or another connection.
* **Bounded admission.**  ``max_connections`` caps concurrent clients; a
  connection over the cap is answered with one in-band error line and
  closed.  ``max_line_bytes`` caps a single request line; overlong lines
  are discarded (never buffered whole) and answered in-band.
* **Graceful drain.**  :meth:`SocketServer.close` stops accepting, lets
  every submitted request finish and flush, then closes the sockets;
  ``drain=False`` drops connections immediately but still consumes their
  tickets so the service leaks no per-request state.  The CLI wires
  SIGTERM/SIGINT to this.

The conversation calls the codec (:func:`request_from_line`,
:func:`result_to_dict`, :func:`stats_to_dict`) through this module's
globals, where the benchmark's layer tracer (``perfbench/layer_trace.py``)
patches it.  Every front end *borrows* its service; the caller that built
it closes it (after closing the server).
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
import time
from collections import deque
from typing import Deque, Dict, Iterable, Optional, Set, TextIO, Tuple

from repro.service.core import ExplanationRequest, ExplanationService
from repro.service.protocol import (
    ServiceOp,
    request_from_line,
    result_to_dict,
    stats_to_dict,
)
from repro.utils.errors import ReproError, ServiceError

#: Reader sentinels (distinct from any line payload).
_EOF = object()
_TIMEOUT = object()
_OVERSIZED = object()


def _failure(client_id: Optional[str], message: str) -> Dict[str, object]:
    """The in-band answer to a line that could not be served."""
    return {"id": client_id, "status": "failed", "error": message}


class ServiceTarget:
    """A conversation's target: one in-process service (borrowed)."""

    def __init__(self, service: ExplanationService) -> None:
        self.service = service

    def submit(self, request: ExplanationRequest) -> str:
        return self.service.submit(request)

    def finished(self, ticket: str) -> bool:
        return self.service.poll(ticket).finished

    def result(self, ticket: str, client_id: Optional[str]) -> Dict[str, object]:
        return result_to_dict(self.service.result(ticket), client_id)

    def cancel(self, ticket: str) -> bool:
        return self.service.cancel(ticket)

    def stats(self, client_id: Optional[str]) -> Dict[str, object]:
        return stats_to_dict(self.service.stats(), client_id)


class Conversation:
    """One client's JSON-lines conversation with a target.

    :meth:`read` decodes a line and acts on it at once: it submits a
    request, or cancels the request a ``cancel`` op names (which may be
    queued or running *right now*, so that cannot wait).  :meth:`answer`
    answers every line in submission order — results, failures, ``stats``
    snapshots (taken when their turn comes) and cancel acknowledgements
    alike — so a slow request delays the answers after it but never
    reorders them.

    A target has five methods: ``submit(request)`` returns a ticket,
    ``finished(ticket)`` says whether its result is ready,
    ``result(ticket, client_id)`` and ``stats(client_id)`` build answer
    payloads, and ``cancel(ticket)`` reports whether a cancellation can
    still take effect.  One thread may :meth:`read` while another
    :meth:`answer`\\ s.
    """

    def __init__(self, target) -> None:
        self.target = target
        #: Explanation requests answered.  Ops and failed lines are not
        #: counted, so the total agrees with the service's own ``served``.
        self.served = 0
        #: Owed answers in submission order: ``(client id, ticket,
        #: payload)``.  A ticket waits on the target; without one the
        #: payload was built at read time (a failure or a cancel
        #: acknowledgement), or is ``None`` for a ``stats`` op.
        self._owed: Deque[Tuple[Optional[str], object, Optional[dict]]] = deque()
        self._local = 0
        #: Outstanding client id → ticket: the requests a ``cancel`` op can
        #: name.  Entries leave as their answers go, so a reused client id
        #: always names its latest outstanding request.
        self._tickets: Dict[str, object] = {}
        self._ended = False
        self._changed = threading.Condition()

    @property
    def owed(self) -> int:
        """Lines read but not answered yet."""
        return len(self._owed)

    @property
    def owed_locally(self) -> int:
        """The owed answers that wait on no ticket (failures and ops).

        They never pass through the target's bounded queue, so a transport
        that must bound a connection's memory bounds these.
        """
        return self._local

    def read(self, line: str) -> None:
        """Decode one line and act on it; its answer joins the queue."""
        if not line.strip():
            return
        try:
            client_id, request = request_from_line(line)
        except ReproError as error:
            self.fail(str(error), getattr(error, "client_id", None))
            return
        if isinstance(request, ServiceOp):
            if request.op == "cancel":
                self._owe(client_id, None, self._cancel(client_id, request.target))
            else:
                self._owe(client_id, None, None)
            return
        try:
            ticket = self.target.submit(request)
        except ReproError as error:
            self.fail(str(error), client_id)
            return
        self._owe(client_id, ticket, None)

    def fail(self, message: str, client_id: Optional[str] = None) -> None:
        """Owe an in-band failure for a line that cannot be served."""
        self._owe(client_id, None, _failure(client_id, message))

    def end(self) -> None:
        """No more lines will be read; wakes a blocked :meth:`answer`."""
        with self._changed:
            self._ended = True
            self._changed.notify_all()

    def answer(self, block: bool = True) -> Optional[str]:
        """The answer line owed to the oldest unanswered line.

        Blocks until that answer is ready — and, while nothing is owed,
        until another line is read or :meth:`end` is called.  Returns
        ``None`` once nothing is owed and reading has ended; with
        ``block=False``, also when nothing is owed or the oldest request is
        still running.
        """
        with self._changed:
            while not self._owed:
                if self._ended or not block:
                    return None
                self._changed.wait()
            client_id, ticket, payload = self._owed[0]
        if ticket is not None:
            if not block and not self.target.finished(ticket):
                return None
            payload = self.target.result(ticket, client_id)
        elif payload is None:
            payload = self.target.stats(client_id)
        with self._changed:
            self._owed.popleft()
            if ticket is None:
                self._local -= 1
            else:
                self.served += 1
                if client_id is not None and self._tickets.get(client_id) == ticket:
                    del self._tickets[client_id]
        return json.dumps(payload)

    def _owe(
        self, client_id: Optional[str], ticket: object, payload: Optional[dict]
    ) -> None:
        with self._changed:
            if ticket is None:
                self._local += 1
            elif client_id is not None:
                self._tickets[client_id] = ticket
            self._owed.append((client_id, ticket, payload))
            self._changed.notify_all()

    def _cancel(self, client_id: Optional[str], named: str) -> Dict[str, object]:
        """Cancel the request whose client id is ``named``, now, and build
        the op's acknowledgement.

        An unknown name (never submitted, bare-text, or already answered)
        fails in-band without touching the target.  ``cancelled`` reports
        whether the cancellation could still take effect (the named
        request's own answer shows ``cancelled``/``failed`` accordingly).
        """
        with self._changed:
            ticket = self._tickets.get(named)
        if ticket is None:
            return {
                "id": client_id,
                "status": "failed",
                "op": "cancel",
                "target": named,
                "error": (
                    f"unknown cancel target {named!r} "
                    f"(never submitted, or already answered)"
                ),
            }
        try:
            effective = self.target.cancel(ticket)
        except ServiceError:
            effective = False  # finished and collected between lookup and cancel
        return {
            "id": client_id,
            "status": "done",
            "op": "cancel",
            "target": named,
            "cancelled": bool(effective),
        }


def pump(
    conversation: Conversation,
    lines: Iterable[str],
    out: TextIO,
    max_pending: int = 1024,
) -> int:
    """Run ``conversation`` over a line iterator and a text stream.

    Each line is acted on as it is read, and answers are written in
    submission order, each flushed as soon as it is due, so pipelined
    clients stream results.  Past ``max_pending`` owed answers the pump
    stops reading until the backlog drains (pure backpressure — nothing is
    dropped).  Returns the count of explanation requests answered.
    """

    def write(block: bool) -> None:
        while conversation.owed:
            line = conversation.answer(block)
            if line is None:
                return
            out.write(line + "\n")
            out.flush()

    for line in lines:
        conversation.read(line)
        write(block=conversation.owed >= max_pending)
    write(block=True)
    return conversation.served


def serve_stream(
    service: ExplanationService,
    lines: Iterable[str],
    out: TextIO,
    max_pending: int = 1024,
) -> int:
    """Serve a request stream from ``service``; returns the served count.

    The stdio front end of ``repro serve``: :func:`pump` over a
    :class:`Conversation` with the service.  The caller keeps ownership of
    ``service`` (and closes it).
    """
    return pump(Conversation(ServiceTarget(service)), lines, out, max_pending)


class _LineReader:
    """Buffered line reading over a raw socket with a hard line-length cap.

    ``socket.makefile`` is documented to require a blocking socket, and it
    buffers without bound; this reader supports idle timeouts (surfaced as
    :data:`_TIMEOUT`) and discards — rather than accumulates — lines longer
    than ``max_line_bytes`` (surfaced as :data:`_OVERSIZED` once the line
    finally ends).  EOF with a half-written line pending simply reports EOF:
    the line never completed, so there is no request to answer.

    The idle timeout is enforced with a read-side selector only — never via
    ``settimeout``, which would also bound the *writer's* ``sendall`` on the
    shared socket and could corrupt a response stream to a slow-reading
    client with a mid-send timeout.  ``selectors.DefaultSelector`` (epoll on
    Linux) is used instead of ``select.select`` so file descriptors beyond
    ``FD_SETSIZE`` work in high-fd processes.
    """

    def __init__(
        self,
        sock: socket.socket,
        max_line_bytes: int,
        idle_timeout: Optional[float] = None,
    ) -> None:
        self._sock = sock
        self._max_line_bytes = max_line_bytes
        self._idle_timeout = idle_timeout
        self._selector: Optional[selectors.BaseSelector] = None
        if idle_timeout is not None:
            self._selector = selectors.DefaultSelector()
            self._selector.register(sock, selectors.EVENT_READ)
        self._buffer = bytearray()
        self._discarding = False
        self._eof = False

    def readline(self):
        """The next complete line (bytes), or a sentinel."""
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line = bytes(self._buffer[:newline])
                del self._buffer[: newline + 1]
                if self._discarding:
                    # The tail of an overlong line; report it once, now that
                    # we know where it ended.
                    self._discarding = False
                    return _OVERSIZED
                if len(line) > self._max_line_bytes:
                    # The whole overlong line arrived in one recv, so it was
                    # never streamed through the discard path above.
                    return _OVERSIZED
                return line
            if self._discarding:
                # Drop the buffered middle of an overlong line.
                self._buffer.clear()
            elif len(self._buffer) > self._max_line_bytes:
                self._discarding = True
                self._buffer.clear()
            if self._eof:
                return _EOF
            try:
                if self._selector is not None:
                    if not self._selector.select(self._idle_timeout):
                        return _TIMEOUT
                chunk = self._sock.recv(65536)
            except (OSError, ValueError):
                # ValueError: selector on a socket already closed under us.
                chunk = b""
            if not chunk:
                self._eof = True
                if self._buffer and not self._discarding:
                    # Half-written final line: it never completed, so there
                    # is nothing to answer — but do not loop forever on it.
                    self._buffer.clear()
                return _EOF
            self._buffer.extend(chunk)

    def close(self) -> None:
        """Release the selector's file descriptor (the socket stays open)."""
        if self._selector is not None:
            self._selector.close()
            self._selector = None


class _Connection:
    """One client connection: a conversation read by one thread and
    answered by another over one socket."""

    def __init__(self, server: "SocketServer", sock: socket.socket, peer) -> None:
        self.server = server
        self.sock = sock
        self.conversation = Conversation(ServiceTarget(server.service))
        self._send_failed = False
        name = f"repro-socket-{peer[0]}:{peer[1]}"
        self._reader = threading.Thread(
            target=self._read_loop, name=f"{name}-reader", daemon=True
        )
        self._writer = threading.Thread(
            target=self._write_loop, name=f"{name}-writer", daemon=True
        )

    def start(self) -> None:
        self._reader.start()
        self._writer.start()

    def _send_line(self, payload: str) -> None:
        """Best-effort send; after the first failure the connection only
        drains (tickets must still be consumed to free service state)."""
        if self._send_failed:
            return
        try:
            self.sock.sendall(payload.encode("utf-8") + b"\n")
        except OSError:
            self._send_failed = True

    def _read_loop(self) -> None:
        conversation = self.conversation
        reader = None
        try:
            reader = _LineReader(
                self.sock, self.server.max_line_bytes, self.server.idle_timeout
            )
            while not self.server.closing:
                if conversation.owed_locally >= self.server.max_pending_responses:
                    # The writer owes this client more connection-local
                    # answers (failures/ops) than any sane pipelining
                    # window.  Explanation requests are backpressured by
                    # the service queue and do not count here — a
                    # legitimately deep explanation pipeline must not be
                    # disconnected — but a client flooding ops/errors is
                    # abusing the protocol: hang up rather than buffer
                    # without limit.
                    break
                item = reader.readline()
                if item is _EOF:
                    break
                if item is _TIMEOUT:
                    if conversation.owed == 0:
                        # Idle past the deadline with nothing owed: hang up.
                        break
                    continue
                if item is _OVERSIZED:
                    conversation.fail(
                        f"request line exceeds {self.server.max_line_bytes} "
                        f"bytes and was discarded"
                    )
                    continue
                try:
                    line = item.decode("utf-8")
                except UnicodeDecodeError as error:
                    conversation.fail(f"request line is not UTF-8: {error}")
                    continue
                conversation.read(line)
        except Exception:  # noqa: BLE001 - isolation: never kill the server
            pass
        finally:
            if reader is not None:
                reader.close()
            conversation.end()

    def _write_loop(self) -> None:
        try:
            # answer() blocks on the oldest owed answer, which is exactly
            # what keeps responses in per-connection submission order.
            while True:
                line = self.conversation.answer()
                if line is None:
                    break
                self._send_line(line)
        except Exception:  # noqa: BLE001 - isolation: never kill the server
            pass
        finally:
            self._shutdown_socket()
            self.server._forget(self)

    def _shutdown_socket(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass

    # ------------------------------------------------------------- lifecycle

    def interrupt(self) -> None:
        """Unblock the reader (used by server close): half-close the read
        side so a blocked ``recv`` returns EOF and the writer drains."""
        try:
            self.sock.shutdown(socket.SHUT_RD)
        except OSError:
            pass

    def abort(self) -> None:
        """Tear the socket down now; the writer still consumes its tickets."""
        self._send_failed = True
        self._shutdown_socket()

    def join(self, timeout: Optional[float]) -> None:
        self._reader.join(timeout)
        self._writer.join(timeout)


class SocketServer:
    """Serve the JSON-lines explanation protocol over TCP.

    Parameters
    ----------
    service:
        The (started or startable) :class:`ExplanationService` every
        connection shares.  Borrowed, never closed — close the server first,
        then the service.
    host / port:
        Bind address.  ``port=0`` picks an ephemeral port; read it back from
        :attr:`address` (tests and the benchmark do).
    max_connections:
        Concurrent-client cap; connections over it get one in-band error
        line and are closed.
    idle_timeout:
        Seconds a connection may sit with no traffic *and* no response owed
        before the server hangs up (``None`` = never).
    max_line_bytes:
        Hard cap on one request line; longer lines are discarded as they
        stream in and answered with an in-band error.
    max_pending_responses:
        Hard cap on *connection-local* responses owed to one connection.
        Explanation requests are backpressured by the service's bounded
        queue and are exempt (a deep but legitimate explanation pipeline
        is never disconnected), but error and ``stats`` responses are
        answered connection-locally — a client pipelining those past any
        reasonable window is abusing the protocol and is hung up on, so
        per-connection memory stays bounded.

    Use as a context manager, or pair :meth:`start` with :meth:`close`::

        with ExplanationService(model="crude") as service:
            with SocketServer(service, port=0) as server:
                host, port = server.address
                ...  # point ServiceClient(host, port) at it
    """

    def __init__(
        self,
        service: ExplanationService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int = 8,
        idle_timeout: Optional[float] = None,
        max_line_bytes: int = 1 << 20,
        max_pending_responses: int = 1024,
    ) -> None:
        if not 0 <= port <= 65535:
            raise ServiceError(f"port must be in 0-65535, got {port}")
        if max_connections < 1:
            raise ServiceError("max_connections must be >= 1")
        if max_line_bytes < 2:
            raise ServiceError("max_line_bytes must be >= 2")
        if idle_timeout is not None and idle_timeout <= 0:
            raise ServiceError("idle_timeout must be positive (or None)")
        if max_pending_responses < 1:
            raise ServiceError("max_pending_responses must be >= 1")
        self.service = service
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.idle_timeout = idle_timeout
        self.max_line_bytes = max_line_bytes
        self.max_pending_responses = max_pending_responses
        self.closing = False
        self._listener: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None
        self._connections: Set[_Connection] = set()
        self._conn_lock = threading.Lock()
        self._closed_event = threading.Event()
        self._started = False

    # ------------------------------------------------------------- lifecycle

    def start(self) -> Tuple[str, int]:
        """Bind, listen and start accepting; returns the bound address."""
        if self._started:
            raise ServiceError("this socket server has already been started")
        self._started = True
        self.service.start()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            listener.listen(self.max_connections * 2)
        except (OSError, OverflowError) as error:
            listener.close()
            raise ServiceError(
                f"cannot listen on {self.host}:{self.port}: {error}"
            ) from error
        self._listener = listener
        self.host, self.port = listener.getsockname()[:2]
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="repro-socket-acceptor", daemon=True
        )
        self._acceptor.start()
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (meaningful after :meth:`start`)."""
        return (self.host, self.port)

    @property
    def connections(self) -> int:
        """How many client connections are currently live."""
        with self._conn_lock:
            return len(self._connections)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the server is closed (the CLI parks here).

        Returns ``False`` if ``timeout`` (seconds) elapsed first.
        """
        return self._closed_event.wait(timeout)

    def close(self, *, drain: bool = True, timeout: Optional[float] = 30.0) -> None:
        """Stop accepting and shut every connection down.  Idempotent.

        With ``drain`` (the default) each connection's submitted requests
        finish and their responses flush before its socket closes; with
        ``drain=False`` sockets drop immediately (pending tickets are still
        consumed internally, so the service retains no per-request state).
        ``timeout`` bounds the per-phase waits so a wedged client cannot
        hold shutdown hostage.
        """
        if self.closing:
            self._closed_event.wait(timeout)
            return
        self.closing = True
        if self._listener is not None:
            # Closing an fd does not wake a thread blocked in accept() (on
            # Linux the syscall just keeps waiting); shutdown() does.  Where
            # shutdown on a listener is rejected (ENOTCONN on some
            # platforms), fall back to a self-connection, which the accept
            # loop answers with a shutting-down refusal.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                try:
                    socket.create_connection(self.address, timeout=0.5).close()
                except OSError:
                    pass
            try:
                self._listener.close()
            except OSError:
                pass
        if self._acceptor is not None:
            self._acceptor.join(timeout)
        with self._conn_lock:
            connections = list(self._connections)
        for connection in connections:
            if drain:
                connection.interrupt()
            else:
                connection.abort()
        for connection in connections:
            connection.join(timeout)
        self._closed_event.set()

    def __enter__(self) -> "SocketServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------------------- acceptor

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self.closing:
            try:
                sock, peer = self._listener.accept()
            except OSError:
                if self.closing:
                    return  # listener closed (server shutting down)
                # Transient accept failure (ECONNABORTED, fd pressure from
                # an abusive reconnect flood): back off briefly and keep
                # accepting — one bad moment must not turn into a server
                # that looks alive but refuses every future client.
                time.sleep(0.05)
                continue
            if self.closing:
                self._refuse(sock, "server is shutting down")
                continue
            with self._conn_lock:
                at_capacity = len(self._connections) >= self.max_connections
            if at_capacity:
                self._refuse(
                    sock,
                    f"server at capacity ({self.max_connections} connections); "
                    f"retry later",
                )
                continue
            connection = _Connection(self, sock, peer)
            with self._conn_lock:
                self._connections.add(connection)
            connection.start()

    @staticmethod
    def _refuse(sock: socket.socket, message: str) -> None:
        """One in-band error line, then hang up (best effort)."""
        try:
            line = json.dumps(_failure(None, message))
            sock.sendall(line.encode("utf-8") + b"\n")
        except OSError:
            pass
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def _forget(self, connection: _Connection) -> None:
        with self._conn_lock:
            self._connections.discard(connection)
