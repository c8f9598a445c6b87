"""Fault injection against the socket front-end: the server must not die.

Each scenario attacks one trust boundary — a client that vanishes
mid-request, a half-written line, a payload bomb, a model that throws — and
then proves the same three things: the server process is still serving, an
unrelated well-behaved client gets correct answers, and whatever could be
reported was reported in-band rather than by tearing anything down.
"""

import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.explain.config import ExplainerConfig
from repro.models.analytical import AnalyticalCostModel
from repro.models.base import CostModel
from repro.runtime.backend import BackendRetryPolicy, ProcessBackend
from repro.runtime.session import ExplanationSession
from repro.service import (
    ExplanationService,
    RequestStatus,
    RetryPolicy,
    ServiceClient,
    SocketServer,
)
from repro.utils.errors import (
    ModelError,
    ServiceError,
    ServiceTimeoutError,
)

from tests.conftest import FAST_CONFIG, explanation_dict_fingerprint


def _probe(server, text="div rcx; add rax, rbx", seed=9):
    """One well-behaved request proving the server still serves correctly."""
    with ServiceClient(*server.address, timeout=60) as client:
        payloads = client.explain(text, seed=seed)
    assert payloads and payloads[0]["prediction"] > 0
    return payloads


def _wait_connections(server, count, timeout=10.0):
    deadline = time.monotonic() + timeout
    while server.connections != count:
        assert time.monotonic() < deadline, (
            f"server never reached {count} connections ({server.connections} live)"
        )
        time.sleep(0.01)


@pytest.fixture
def served():
    with ExplanationService(model="crude", config=FAST_CONFIG) as service:
        with SocketServer(service, port=0, max_line_bytes=4096) as server:
            yield service, server


class TestClientDisconnects:
    def test_disconnect_with_request_in_flight(self, served):
        service, server = served
        sock = socket.create_connection(server.address, timeout=10)
        sock.sendall(b'{"id": "doomed", "block": "div rcx; add rax, rbx"}\n')
        sock.close()  # gone before the answer exists
        # The orphaned request still runs to completion and its ticket is
        # consumed (no leak), then the connection unwinds fully.
        assert service.drain(timeout=60)
        _wait_connections(server, 0)
        assert not service._tickets
        _probe(server)

    def test_disconnect_mid_line(self, served):
        service, server = served
        sock = socket.create_connection(server.address, timeout=10)
        sock.sendall(b'{"id": "half", "block": "div rc')  # no newline, ever
        sock.close()
        _wait_connections(server, 0)
        _probe(server)
        assert service.stats().failed == 0  # nothing was even submitted

    def test_abrupt_reset_while_others_are_served(self, served, tiny_blocks):
        _, server = served
        victims = []
        for _ in range(3):
            sock = socket.create_connection(server.address, timeout=10)
            sock.sendall(b'{"id": "v", "block": "div rcx"}\n')
            # RST instead of FIN: linger 0 makes close() send a hard reset.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                __import__("struct").pack("ii", 1, 0),
            )
            victims.append(sock)
        for sock in victims:
            sock.close()
        _wait_connections(server, 0)
        _probe(server)


class TestMalformedInput:
    def test_half_written_then_completed_line_fails_in_band(self, served):
        _, server = served
        sock = socket.create_connection(server.address, timeout=10)
        lines = sock.makefile("r", encoding="utf-8")
        sock.sendall(b'{"id": "x", "bl')
        time.sleep(0.05)  # force the split across reads
        sock.sendall(b"ock\": broken}\n")
        response = json.loads(lines.readline())
        assert response["status"] == "failed"
        # The same connection keeps working afterwards.
        sock.sendall(b'{"id": "y", "block": "div rcx"}\n')
        assert json.loads(lines.readline())["status"] == "done"
        sock.close()

    def test_non_integer_seed_fails_in_band(self, served):
        """A ValueError-shaped payload must come back as a ServiceError line,
        not escape the protocol layer (which would kill a stdio stream and
        silently drop a socket connection)."""
        _, server = served
        sock = socket.create_connection(server.address, timeout=10)
        lines = sock.makefile("r", encoding="utf-8")
        for payload in (
            b'{"id": "s1", "block": "div rcx", "seed": "abc"}\n',
            b'{"id": "s2", "block": "div rcx", "seed": null}\n',
            b'{"id": "s3", "block": "div rcx", "shards": {}}\n',
        ):
            sock.sendall(payload)
        responses = [json.loads(lines.readline()) for _ in range(3)]
        assert [r["status"] for r in responses] == ["failed"] * 3
        assert [r["id"] for r in responses] == ["s1", "s2", "s3"]
        sock.sendall(b'{"id": "ok", "block": "div rcx"}\n')
        assert json.loads(lines.readline())["status"] == "done"
        sock.close()

    def test_non_integer_seed_fails_in_band_on_stdio_too(self):
        """The stdio loop survives the same payloads (serve_stream only
        catches ReproError, so the coercion must raise inside that family)."""
        import io

        from repro.service import ExplanationService, serve_stream

        lines = [
            '{"id": "s1", "block": "div rcx", "seed": "abc"}',
            '{"id": "ok", "block": "add rax, rbx", "seed": 1}',
        ]
        out = io.StringIO()
        with ExplanationService(model="crude", config=FAST_CONFIG) as service:
            served = serve_stream(service, lines, out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert served == 1
        assert [r["status"] for r in responses] == ["failed", "done"]
        assert "seed" in responses[0]["error"]

    def test_non_utf8_bytes_fail_in_band(self, served):
        _, server = served
        sock = socket.create_connection(server.address, timeout=10)
        lines = sock.makefile("r", encoding="utf-8")
        sock.sendall(b"\xff\xfe\x80garbage\n")
        response = json.loads(lines.readline())
        assert response["status"] == "failed"
        assert "UTF-8" in response["error"]
        sock.close()

    def test_oversized_payload_reported_and_discarded(self, served):
        _, server = served
        sock = socket.create_connection(server.address, timeout=10)
        lines = sock.makefile("r", encoding="utf-8")
        # 1 MiB of junk against a 4 KiB line cap, then a good request.
        sock.sendall(b'{"id": "bomb", "block": "' + b"A" * (1 << 20) + b'"}\n')
        sock.sendall(b'{"id": "good", "block": "div rcx"}\n')
        bomb = json.loads(lines.readline())
        assert bomb["status"] == "failed"
        assert "exceeds" in bomb["error"]
        good = json.loads(lines.readline())
        assert good["id"] == "good"
        assert good["status"] == "done"
        sock.close()

    def test_oversized_client_request_resolves_instead_of_hanging(self, served):
        """The server discards an overlong line before it can read the
        client's correlation id, so the error comes back id-less; the
        client must attribute it by submission order — a waiter that hangs
        forever would be a livelock, not fault isolation."""
        _, server = served
        giant = "add rax, rbx; " * 1000  # ~14 KB against the 4 KB line cap
        with ServiceClient(*server.address) as client:
            big_id = client.submit(giant, seed=0)
            ok_id = client.submit("div rcx", seed=0)
            big = client.result(big_id, timeout=60)
            assert big["status"] == "failed"
            assert "exceeds" in big["error"]
            assert client.result(ok_id, timeout=60)["status"] == "done"

    def test_oversized_payload_never_buffers_whole_line(self, served):
        """The cap bounds memory: a 64 MiB line streams through a reader
        whose buffer stays under one recv chunk past the cap."""
        _, server = served
        sock = socket.create_connection(server.address, timeout=10)
        lines = sock.makefile("r", encoding="utf-8")
        chunk = b"B" * (1 << 16)
        for _ in range(1024):  # 64 MiB total, no newline until the end
            sock.sendall(chunk)
        sock.sendall(b"\n")
        assert json.loads(lines.readline())["status"] == "failed"
        sock.close()


class _ExplodingModel(CostModel):
    """Predicts fine until it meets a ``div`` — then throws mid-search."""

    name = "exploding"

    def _predict(self, block) -> float:
        if any(inst.mnemonic == "div" for inst in block.instructions):
            raise ModelError("simulated model crash on div")
        return float(block.num_instructions)


class TestModelFailures:
    @pytest.fixture
    def exploding_served(self):
        def factory(name, uarch):
            return ExplanationSession(_ExplodingModel(), FAST_CONFIG)

        with ExplanationService(
            model="exploding", config=FAST_CONFIG, session_factory=factory
        ) as service:
            with SocketServer(service, port=0) as server:
                yield service, server

    def test_raising_predict_fails_in_band_and_server_survives(
        self, exploding_served
    ):
        service, server = exploding_served
        with ServiceClient(*server.address, timeout=60) as client:
            # The poisoned block: the model raises mid-anchor-search.
            boom = client.result(client.submit("div rcx; add rax, rbx", seed=0))
            assert boom["status"] == "failed"
            assert "simulated model crash" in boom["error"]
            # The same warm session keeps serving blocks the model accepts.
            fine = client.result(client.submit("add rax, rbx; mov rdx, rcx", seed=0))
            assert fine["status"] == "done"
            assert fine["explanations"][0]["prediction"] == 2.0
        stats = service.stats()
        assert stats.failed == 1
        assert stats.served >= 1

    def test_failure_isolated_from_concurrent_client(self, exploding_served):
        _, server = exploding_served
        with ServiceClient(*server.address, timeout=60) as bad_client:
            with ServiceClient(*server.address, timeout=60) as good_client:
                bad_id = bad_client.submit("div rcx; add rax, rbx", seed=1)
                good_id = good_client.submit("add rax, rbx; mov rdx, rcx", seed=1)
                assert bad_client.result(bad_id)["status"] == "failed"
                assert good_client.result(good_id)["status"] == "done"


class _GateModel(CostModel):
    """Every prediction blocks until the test opens the gate.

    Lets tests park a request deterministically *inside* its first KL-LUCB
    round — no sleeps, no timing races — while later requests queue behind
    it on the same session key.
    """

    name = "gated"

    def __init__(self, gate: threading.Event) -> None:
        super().__init__("hsw")
        self._gate = gate

    def _predict(self, block) -> float:
        self._gate.wait()
        return float(block.num_instructions)


@pytest.fixture
def gated_service():
    """A single-dispatcher service over a gate-controlled model.

    Yields ``(service, gate)`` with the gate initially closed: the first
    submitted request runs until its first model query and parks there.
    """
    gate = threading.Event()

    def factory(name, uarch):
        # Serial: the gate Event must stay in the test's process.
        return ExplanationSession(_GateModel(gate), FAST_CONFIG, backend="serial")

    with ExplanationService(
        model="gated", config=FAST_CONFIG, session_factory=factory, dispatchers=1
    ) as service:
        yield service, gate
        gate.set()  # never leave a dispatcher parked at teardown


def _wait_running(service, request_id, timeout=10.0):
    deadline = time.monotonic() + timeout
    while service.poll(request_id) is not RequestStatus.RUNNING:
        assert time.monotonic() < deadline, f"{request_id} never started running"
        time.sleep(0.005)


class TestDeadlines:
    def test_deadline_expires_while_queued(self, gated_service, tiny_block):
        """A queued request whose budget lapses fails fast at dequeue —
        without touching a session — and frees its key for the next one."""
        service, gate = gated_service
        blocker = service.submit(tiny_block, seed=0)
        victim = service.submit(tiny_block, seed=1, deadline=0.05)
        time.sleep(0.1)  # the victim's budget lapses while it sits queued
        gate.set()
        result = service.result(victim, timeout=30)
        assert result.status is RequestStatus.FAILED
        assert "DeadlineExceededError" in result.error
        assert service.result(blocker, timeout=30).status is RequestStatus.DONE
        # The key is free: a fresh request on it completes normally.
        follow_up = service.submit(tiny_block, seed=2)
        assert service.result(follow_up, timeout=30).status is RequestStatus.DONE
        stats = service.stats()
        assert stats.deadline_expired == 1
        assert "1 deadlines expired" in stats.describe()

    @pytest.mark.parametrize("fused", [False, True], ids=["unfused", "fused"])
    def test_deadline_lapsed_in_queue_builds_no_session(self, tiny_block, fused):
        """Fail-fast happens before the lease, so the expired request's key
        gets no session (under ``max_sessions`` pressure a build could evict
        a warm one)."""
        gate = threading.Event()
        built = []

        def factory(name, uarch):
            built.append(uarch)
            return ExplanationSession(_GateModel(gate), FAST_CONFIG, backend="serial")

        with ExplanationService(
            model="gated",
            config=FAST_CONFIG,
            session_factory=factory,
            dispatchers=1,
            continuous_batching=fused,
        ) as service:
            blocker = service.submit(tiny_block, seed=0, uarch="hsw")
            victim = service.submit(tiny_block, seed=1, uarch="skl", deadline=0.05)
            time.sleep(0.1)  # the victim's budget lapses while it sits queued
            gate.set()
            assert service.result(blocker, timeout=30).status is RequestStatus.DONE
            result = service.result(victim, timeout=30)
            assert service.stats().deadline_expired == 1
        assert result.status is RequestStatus.FAILED
        assert "DeadlineExceededError" in result.error
        assert built == ["hsw"]

    def test_deadline_expires_mid_run(self, gated_service, tiny_block):
        """A budget lapsing mid-search stops the request cooperatively at
        the next KL-LUCB round boundary."""
        service, gate = gated_service
        request_id = service.submit(tiny_block, seed=0, deadline=0.05)
        _wait_running(service, request_id)
        time.sleep(0.1)  # expire while parked inside the first query batch
        gate.set()
        result = service.result(request_id, timeout=30)
        assert result.status is RequestStatus.FAILED
        assert "DeadlineExceededError" in result.error
        follow_up = service.submit(tiny_block, seed=1)
        assert service.result(follow_up, timeout=30).status is RequestStatus.DONE
        assert service.stats().deadline_expired == 1

    def test_default_deadline_applies_and_explicit_wins(self, tiny_block):
        gate = threading.Event()

        def factory(name, uarch):
            return ExplanationSession(_GateModel(gate), FAST_CONFIG, backend="serial")

        with ExplanationService(
            model="gated",
            config=FAST_CONFIG,
            session_factory=factory,
            dispatchers=1,
            default_deadline=0.05,
        ) as service:
            # The blocker overrides the tight service default and survives.
            blocker = service.submit(tiny_block, seed=0, deadline=60.0)
            victim = service.submit(tiny_block, seed=1)  # inherits 0.05s
            time.sleep(0.1)
            gate.set()
            assert service.result(blocker, timeout=30).status is RequestStatus.DONE
            result = service.result(victim, timeout=30)
            assert result.status is RequestStatus.FAILED
            assert "DeadlineExceededError" in result.error

    def test_non_positive_deadline_rejected_at_submit(self, tiny_block):
        with ExplanationService(model="crude", config=FAST_CONFIG) as service:
            with pytest.raises(ServiceError, match="deadline must be positive"):
                service.submit(tiny_block, deadline=0.0)
            with pytest.raises(ValueError, match="default_deadline"):
                ExplanationService(model="crude", default_deadline=-1.0)


class TestCancellation:
    def test_cancel_queued_request_frees_without_running(
        self, gated_service, tiny_block
    ):
        service, gate = gated_service
        blocker = service.submit(tiny_block, seed=0)
        victim = service.submit(tiny_block, seed=1)
        assert service.cancel(victim) is True
        # Resolved immediately — no need to open the gate first.
        result = service.result(victim, timeout=30)
        assert result.status is RequestStatus.CANCELLED
        assert "before it ran" in result.error
        gate.set()
        assert service.result(blocker, timeout=30).status is RequestStatus.DONE
        assert service.stats().cancelled == 1

    def test_cancel_mid_kl_lucb_stops_at_round_boundary(
        self, gated_service, tiny_block
    ):
        """Cancelling a *running* request stops it cooperatively and frees
        its dispatcher and key for the next request."""
        service, gate = gated_service
        request_id = service.submit(tiny_block, seed=0)
        _wait_running(service, request_id)
        assert service.cancel(request_id) is True  # still cancellable
        gate.set()  # the parked batch completes; the next round check raises
        result = service.result(request_id, timeout=30)
        assert result.status is RequestStatus.CANCELLED
        assert "RequestCancelledError" in result.error
        follow_up = service.submit(tiny_block, seed=1)
        assert service.result(follow_up, timeout=30).status is RequestStatus.DONE
        assert service.stats().cancelled == 1

    def test_cancel_finished_request_returns_false(self, tiny_block):
        with ExplanationService(model="crude", config=FAST_CONFIG) as service:
            request_id = service.submit(tiny_block, seed=0)
            assert service.drain(timeout=60)
            assert service.cancel(request_id) is False
            # The normal result stands.
            assert service.result(request_id, timeout=30).status is RequestStatus.DONE

    def test_cancel_unknown_request_raises(self):
        with ExplanationService(model="crude", config=FAST_CONFIG) as service:
            with pytest.raises(ServiceError, match="unknown request id"):
                service.cancel("req-999")

    def test_cancel_is_idempotent(self, gated_service, tiny_block):
        service, gate = gated_service
        blocker = service.submit(tiny_block, seed=0)
        victim = service.submit(tiny_block, seed=1)
        assert service.cancel(victim) is True
        assert service.cancel(victim) is False  # already resolved
        gate.set()
        assert service.result(victim, timeout=30).status is RequestStatus.CANCELLED
        assert service.result(blocker, timeout=30).status is RequestStatus.DONE


class TestWireCancelAndDeadline:
    """The cancel op and deadlines over the TCP transport."""

    @pytest.fixture
    def gated_server(self, gated_service):
        service, gate = gated_service
        with SocketServer(service, port=0) as server:
            yield service, server, gate

    def test_cancel_op_cancels_a_queued_request(self, gated_server):
        service, server, gate = gated_server
        # Responses flush in per-connection submission order, so the cancel
        # ack cannot arrive before the parked blocker answers; open the gate
        # the moment the cancellation lands server-side (it acts at read
        # time, while the blocker is still parked).
        def open_when_cancelled():
            deadline = time.monotonic() + 30.0
            while service.stats().cancelled < 1:
                assert time.monotonic() < deadline, "cancel never landed"
                time.sleep(0.005)
            gate.set()

        opener = threading.Thread(target=open_when_cancelled)
        opener.start()
        try:
            with ServiceClient(*server.address, timeout=60) as client:
                blocker = client.submit("add rax, rbx", seed=0)
                victim = client.submit("mov rdx, rcx", seed=1)
                assert client.cancel(victim) is True
                victim_response = client.result(victim, timeout=30)
                assert victim_response["status"] == "cancelled"
                assert client.result(blocker, timeout=30)["status"] == "done"
        finally:
            gate.set()
            opener.join()

    def test_cancel_op_unknown_target_fails_in_band(self, gated_server):
        _, server, gate = gated_server
        gate.set()
        with ServiceClient(*server.address, timeout=60) as client:
            with pytest.raises(ServiceError, match="unknown cancel target"):
                client.cancel("never-submitted")
            # The connection is still healthy afterwards.
            assert client.result(client.submit("div rcx", seed=0))["status"] == "done"

    def test_wire_deadline_expires_while_queued(self, gated_server):
        _, server, gate = gated_server
        with ServiceClient(*server.address, timeout=60) as client:
            blocker = client.submit("add rax, rbx", seed=0)
            victim = client.submit("mov rdx, rcx", seed=1, deadline=0.05)
            time.sleep(0.1)
            gate.set()
            victim_response = client.result(victim, timeout=30)
            assert victim_response["status"] == "failed"
            assert "DeadlineExceededError" in victim_response["error"]
            assert client.result(blocker, timeout=30)["status"] == "done"
            assert client.stats()["resilience"]["deadline_expired"] == 1

    def test_stdio_cancel_op_round_trip(self):
        """The stdio loop speaks the same cancel op: acts at read time,
        acknowledged in submission order, unknown targets fail in-band."""
        import io

        from repro.service import serve_stream

        lines = [
            '{"id": "a", "block": "add rax, rbx", "seed": 1}',
            '{"op": "cancel", "id": "c1", "target": "a"}',
            '{"op": "cancel", "id": "c2", "target": "ghost"}',
        ]
        out = io.StringIO()
        with ExplanationService(model="crude", config=FAST_CONFIG) as service:
            serve_stream(service, lines, out)
        responses = {r["id"]: r for r in map(json.loads, out.getvalue().splitlines())}
        assert responses["a"]["status"] == "cancelled"
        assert responses["c1"]["status"] == "done"
        assert responses["c1"]["cancelled"] is True
        assert responses["c2"]["status"] == "failed"
        assert "unknown cancel target" in responses["c2"]["error"]

    def test_stdio_deadline_field_round_trip(self):
        import io

        from repro.service import serve_stream

        lines = [
            '{"id": "ok", "block": "add rax, rbx", "deadline": 60.0}',
            '{"id": "bad", "block": "add rax, rbx", "deadline": "soon"}',
        ]
        out = io.StringIO()
        with ExplanationService(model="crude", config=FAST_CONFIG) as service:
            serve_stream(service, lines, out)
        responses = {r["id"]: r for r in map(json.loads, out.getvalue().splitlines())}
        assert responses["ok"]["status"] == "done"
        assert responses["bad"]["status"] == "failed"
        assert "deadline" in responses["bad"]["error"]


class TestWorkerDeathThroughTheService:
    """SIGKILL the process-backend workers under a serving stack."""

    @pytest.fixture
    def process_served(self):
        holder = {}

        def factory(name, uarch):
            backend = ProcessBackend(
                2, retry=BackendRetryPolicy(backoff=0.0, max_backoff=0.0)
            )
            holder["backend"] = backend
            return ExplanationSession(
                AnalyticalCostModel("hsw"), FAST_CONFIG, backend=backend
            )

        # Worker death only matters on the backend sharding path; fused
        # execution answers rounds inline through the model and would never
        # warm the pool this test SIGKILLs.
        with ExplanationService(
            model="crude",
            config=FAST_CONFIG,
            session_factory=factory,
            continuous_batching=False,
        ) as service:
            with SocketServer(service, port=0) as server:
                yield service, server, holder
        if "backend" in holder:
            holder["backend"].close()

    def _kill_workers(self, backend):
        pool = backend._pool
        assert pool is not None, "pool must be warm before the kill"
        for pid in list(pool._processes):
            os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        for process in list(pool._processes.values()):
            process.join(max(deadline - time.monotonic(), 0.1))

    def test_sigkilled_workers_recover_bit_for_bit(self, process_served, block_fleet):
        service, server, holder = process_served
        fleet = list(block_fleet[:6])
        with ServiceClient(*server.address, timeout=120) as client:
            before = client.explain(fleet, seed=3)
            self._kill_workers(holder["backend"])
            after = client.explain(fleet, seed=3)
            assert [explanation_dict_fingerprint(p) for p in after] == [
                explanation_dict_fingerprint(p) for p in before
            ]
            resilience = client.stats()["resilience"]
        assert resilience["worker_restarts"] >= 1
        assert resilience["worker_retries"] >= 1
        stats = service.stats()
        assert stats.worker_restarts >= 1
        assert "worker restarts" in stats.describe()


class TestClientResilience:
    def test_retry_policy_delay_and_validation(self):
        policy = RetryPolicy(attempts=3, backoff=0.1, max_backoff=0.35)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(2) == pytest.approx(0.35)
        with pytest.raises(ValueError):
            RetryPolicy(attempts=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-0.1)

    def test_result_timeout_raises_service_timeout_error(self):
        with ExplanationService(model="crude", config=FAST_CONFIG) as service:
            with SocketServer(service, port=0) as server:
                with ServiceClient(*server.address) as client:
                    request_id = client.submit("div rcx; add rax, rbx", seed=0)
                    with pytest.raises(ServiceTimeoutError, match="did not answer"):
                        client.result(request_id, timeout=0.000001)
                    # The response stays collectable after the caller's wait
                    # expired.
                    assert client.result(request_id, timeout=60)["status"] == "done"

    def test_client_reconnects_and_resubmits_after_connection_loss(self, served):
        """A severed TCP connection fails in-flight waiters but the next
        request dials fresh and succeeds — no manual reconnect needed."""
        _, server = served
        client = ServiceClient(
            *server.address, timeout=60, retry=RetryPolicy(attempts=3, backoff=0.01)
        )
        try:
            client.connect()
            assert client.explain("div rcx", seed=0)
            client._sock.shutdown(socket.SHUT_RDWR)  # sever underneath
            time.sleep(0.05)
            assert client.explain("add rax, rbx", seed=1)
        finally:
            client.close()

    def test_connect_retries_before_giving_up(self):
        # Nothing listens on this port: connect() must retry per policy and
        # then surface the original OSError, not hang or wrap it beyond
        # recognition.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()  # now guaranteed unused
        client = ServiceClient(
            host, port, retry=RetryPolicy(attempts=1, backoff=0.01)
        )
        with pytest.raises(OSError):
            client.connect()


class TestServerStaysUpUnderMixedAbuse:
    def test_every_fault_in_one_session(self, served):
        """All scenarios back to back against one server, then a clean run."""
        service, server = served
        # 1: disconnect mid-request
        sock = socket.create_connection(server.address, timeout=10)
        sock.sendall(b'{"id": "gone", "block": "div rcx"}\n')
        sock.close()
        # 2: half-written line then disconnect
        sock = socket.create_connection(server.address, timeout=10)
        sock.sendall(b'{"half": ')
        sock.close()
        # 3: garbage + oversize + good request interleaved
        sock = socket.create_connection(server.address, timeout=10)
        lines = sock.makefile("r", encoding="utf-8")
        sock.sendall(b"not json at all{{{\n")
        sock.sendall(b"C" * 9000 + b"\n")
        sock.sendall(b'{"id": "ok", "block": "add rax, rbx"}\n')
        statuses = [json.loads(lines.readline())["status"] for _ in range(3)]
        assert statuses == ["failed", "failed", "done"]
        lines.close()  # makefile keeps the fd alive; close it to send FIN
        sock.close()
        assert service.drain(timeout=60)
        _wait_connections(server, 0)
        _probe(server)
        assert not service.closed
