"""The TCP front-end: SocketServer + ServiceClient over a shared service.

The contract under test: the socket transport is *transparent* — a client
talking TCP gets byte-identical protocol behaviour to one piping JSON lines
through stdin/stdout (per-connection submission-order responses, in-band
failures), and the seeded explanation payloads are bit-for-bit what the
direct, in-process :class:`CometExplainer` produces, no matter how many
clients hammer the server at once.
"""

import itertools
import json
import socket
import sys
import threading
import time

import pytest

from repro.explain.explainer import CometExplainer
from repro.models.analytical import AnalyticalCostModel
from repro.models.base import CachedCostModel
from repro.reporting.export import explanation_to_dict
from repro.service import ExplanationService, ServiceClient, SocketServer
from repro.service.transport import (
    _EOF,
    _OVERSIZED,
    _TIMEOUT,
    Conversation,
    _LineReader,
)
from repro.utils.errors import ServiceError

from tests.conftest import FAST_CONFIG, explanation_dict_fingerprint


@pytest.fixture
def served():
    """A started service + socket server on an ephemeral loopback port."""
    with ExplanationService(model="crude", config=FAST_CONFIG) as service:
        with SocketServer(service, port=0) as server:
            yield service, server


def _raw_connect(server, timeout=30.0):
    sock = socket.create_connection(server.address, timeout=timeout)
    return sock, sock.makefile("r", encoding="utf-8")


class TestLineReader:
    def _pair(self, max_line_bytes=64, idle_timeout=None):
        left, right = socket.socketpair()
        return left, _LineReader(right, max_line_bytes, idle_timeout), right

    def test_lines_split_across_chunks(self):
        left, reader, right = self._pair()
        left.sendall(b"hello ")
        left.sendall(b"world\nsecond")
        assert reader.readline() == b"hello world"
        left.sendall(b" line\n")
        assert reader.readline() == b"second line"
        left.close()
        assert reader.readline() is _EOF
        right.close()

    def test_oversized_line_is_discarded_not_buffered(self):
        left, reader, right = self._pair(max_line_bytes=16)
        left.sendall(b"x" * 4096 + b"\nafter\n")
        assert reader.readline() is _OVERSIZED
        assert reader.readline() == b"after"
        left.close()
        right.close()

    def test_half_written_line_at_eof_reports_eof(self):
        left, reader, right = self._pair()
        left.sendall(b'{"id": "x", "bl')
        left.close()
        assert reader.readline() is _EOF
        assert reader.readline() is _EOF  # stable, no spin
        right.close()

    def test_timeout_surfaces_without_losing_buffer(self):
        left, reader, right = self._pair(idle_timeout=0.05)
        left.sendall(b"partial")
        assert reader.readline() is _TIMEOUT
        left.sendall(b" done\n")
        assert reader.readline() == b"partial done"
        left.close()
        right.close()


class _InstantTarget:
    """A conversation target whose every request is already finished."""

    def __init__(self):
        self._tickets = itertools.count()

    def submit(self, request):
        return next(self._tickets)

    def finished(self, ticket):
        return True

    def result(self, ticket, client_id):
        return {"id": client_id, "status": "done"}

    def cancel(self, ticket):
        return True

    def stats(self, client_id):
        return {"id": client_id, "status": "done", "op": "stats"}


class TestConversation:
    def test_reader_and_answerer_threads_lose_no_update(self):
        """A TCP connection reads on one thread and answers on another.
        Under a tiny switch interval, four conversations (eight threads)
        still answer every line once, in order, and their owed, local and
        cancel-target bookkeeping all return to zero."""
        lines, expected = [], []
        for index in range(200):
            lines += [
                json.dumps({"id": f"r{index}", "block": "div rcx"}),
                json.dumps({"id": f"s{index}", "op": "stats"}),
                json.dumps({"id": f"c{index}", "op": "cancel", "target": f"r{index}"}),
                "{broken",
            ]
            expected += [f"r{index}", f"s{index}", f"c{index}", None]
        conversations = [Conversation(_InstantTarget()) for _ in range(4)]
        answered = [[] for _ in conversations]

        def read(conversation):
            for line in lines:
                conversation.read(line)
            conversation.end()

        def answer(conversation, into):
            while (line := conversation.answer()) is not None:
                into.append(json.loads(line)["id"])

        threads = [
            threading.Thread(target=read, args=(conversation,))
            for conversation in conversations
        ] + [
            threading.Thread(target=answer, args=(conversation, into))
            for conversation, into in zip(conversations, answered)
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        for conversation, into in zip(conversations, answered):
            assert into == expected
            assert (conversation.served, conversation.owed) == (200, 0)
            assert conversation.owed_locally == 0
            assert not conversation._tickets


class TestSocketRoundTrip:
    def test_single_block_request(self, served, tiny_blocks):
        _, server = served
        with ServiceClient(*server.address) as client:
            response = client.result(
                client.submit(tiny_blocks[0], seed=5), timeout=60
            )
        assert response["status"] == "done"
        direct = CometExplainer(
            CachedCostModel(AnalyticalCostModel("hsw")), FAST_CONFIG
        ).explain(tiny_blocks[0], rng=5)
        assert explanation_dict_fingerprint(
            response["explanations"][0]
        ) == explanation_dict_fingerprint(explanation_to_dict(direct))

    def test_bare_text_line_sugar(self, served):
        _, server = served
        sock, lines = _raw_connect(server)
        sock.sendall(b"div rcx; add rax, rbx\n")
        response = json.loads(lines.readline())
        assert response["status"] == "done"
        assert response["id"] is None
        sock.close()

    def test_responses_in_submission_order_per_connection(self, served, tiny_blocks):
        _, server = served
        with ServiceClient(*server.address) as client:
            ids = [client.submit(block, seed=index) for index, block in enumerate(tiny_blocks)]
            # Collect out of submission order on purpose; correlation ids
            # still route each response to its request.
            responses = {rid: client.result(rid, timeout=60) for rid in reversed(ids)}
        assert all(responses[rid]["status"] == "done" for rid in ids)
        # And on the raw wire the three lines arrived in submission order:
        # their echoed ids are c1, c2, c3.
        assert [responses[rid]["id"] for rid in ids] == ["c1", "c2", "c3"]

    def test_malformed_json_fails_in_band_and_connection_survives(self, served):
        _, server = served
        sock, lines = _raw_connect(server)
        sock.sendall(b'{"id": "bad", not json}\n')
        response = json.loads(lines.readline())
        assert response["status"] == "failed"
        assert "JSON" in response["error"]
        sock.sendall(b'{"id": "ok", "block": "div rcx"}\n')
        response = json.loads(lines.readline())
        assert response == {**response, "id": "ok", "status": "done"}
        sock.close()

    def test_poll_before_and_after_arrival(self, served, tiny_blocks):
        _, server = served
        with ServiceClient(*server.address) as client:
            request_id = client.submit(tiny_blocks[0], seed=0)
            deadline = time.monotonic() + 60
            while client.poll(request_id) is None:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert client.poll(request_id)["status"] == "done"
            assert client.result(request_id, timeout=1)["status"] == "done"
            with pytest.raises(ServiceError):
                client.poll(request_id)  # consumed

    def test_client_timeout_leaves_result_collectable(self, served, tiny_blocks):
        _, server = served
        with ServiceClient(*server.address) as client:
            request_id = client.submit(tiny_blocks[0], seed=1)
            with pytest.raises(ServiceError):
                client.result(request_id, timeout=0.0)
            assert client.result(request_id, timeout=60)["status"] == "done"


class TestStatsOp:
    def test_stats_round_trip_over_tcp(self, served, tiny_blocks):
        """The acceptance pin: a ``stats`` op answered through ServiceClient."""
        service, server = served
        with ServiceClient(*server.address, timeout=60) as client:
            client.explain(tiny_blocks[0], seed=0)
            stats = client.stats()
        local = service.stats()
        assert stats["served"] == local.served == 1
        assert stats["dispatchers"] == local.dispatchers
        assert stats["queue_depth"] == 0
        assert [tuple(key) for key in stats["sessions"]] == list(local.sessions)
        assert stats["pool"]["sessions"] == 1
        assert stats["pool"]["max_sessions"] == 4
        assert sum(d["executed"] for d in stats["dispatcher_stats"]) == 1

    def test_stats_keeps_submission_order(self, served, tiny_blocks):
        _, server = served
        with ServiceClient(*server.address, timeout=60) as client:
            explain_id = client.submit(tiny_blocks[0], seed=0)
            stats_id = client._post({"op": "stats"})
            stats_response = client.result(stats_id, timeout=60)
            # The stats answer waited behind the explanation, so the
            # snapshot already accounts for it.
            assert stats_response["stats"]["served"] >= 1
            assert client.result(explain_id, timeout=60)["status"] == "done"

    def test_raw_stats_line(self, served):
        _, server = served
        sock, lines = _raw_connect(server)
        sock.sendall(b'{"id": "s", "op": "stats"}\n')
        response = json.loads(lines.readline())
        assert response["id"] == "s"
        assert response["op"] == "stats"
        assert response["stats"]["dispatchers"] >= 1
        sock.close()

    def test_unknown_op_fails_in_band(self, served):
        _, server = served
        sock, lines = _raw_connect(server)
        sock.sendall(b'{"id": "s", "op": "nope"}\n')
        response = json.loads(lines.readline())
        assert response["status"] == "failed"
        assert "unknown op" in response["error"]
        sock.close()


class TestClientDeadlinesAndFailures:
    """The ServiceClient under deadlines and a dying server: expiry leaves
    results collectable, mid-wait closure raises instead of hanging, and a
    closed client stays closed."""

    @staticmethod
    def _gated_service(gate):
        from repro.models.base import CachedCostModel, CallableCostModel
        from repro.runtime.session import ExplanationSession

        def predict(block):
            gate.wait(timeout=30)
            return float(block.num_instructions)

        def factory(model_name, uarch):
            return ExplanationSession(
                CachedCostModel(CallableCostModel(predict, name=model_name)),
                FAST_CONFIG,
                backend="serial",
            )

        return ExplanationService(config=FAST_CONFIG, session_factory=factory)

    def test_result_deadline_expiry_then_collectable(self, tiny_blocks):
        gate = threading.Event()
        with self._gated_service(gate) as service:
            with SocketServer(service, port=0) as server:
                with ServiceClient(*server.address) as client:
                    request_id = client.submit(tiny_blocks[0], seed=0)
                    with pytest.raises(ServiceError) as excinfo:
                        client.result(request_id, timeout=0.2)
                    assert "did not answer" in str(excinfo.value)
                    gate.set()
                    # The expiry consumed nothing: the response arrives.
                    assert client.result(request_id, timeout=60)["status"] == "done"

    def test_default_timeout_applies_and_overrides(self, tiny_blocks):
        gate = threading.Event()
        with self._gated_service(gate) as service:
            with SocketServer(service, port=0) as server:
                with ServiceClient(*server.address, timeout=0.2) as client:
                    request_id = client.submit(tiny_blocks[0], seed=0)
                    with pytest.raises(ServiceError):
                        client.result(request_id)  # constructor default: 0.2s
                    gate.set()
                    assert (
                        client.result(request_id, timeout=60)["status"] == "done"
                    )  # per-call override beats the default

    def test_server_closing_mid_wait_raises_not_hangs(self, tiny_blocks):
        gate = threading.Event()
        service = self._gated_service(gate)
        server = SocketServer(service, port=0)
        server.start()
        try:
            client = ServiceClient(*server.address).connect()
            request_id = client.submit(tiny_blocks[0], seed=0)
            failures = []

            def waiter():
                try:
                    client.result(request_id, timeout=60)
                except ServiceError as error:
                    failures.append(str(error))

            thread = threading.Thread(target=waiter)
            thread.start()
            time.sleep(0.1)  # let the waiter block on the pending response
            # Drop the socket under the client.  The close itself drains the
            # orphaned ticket, which needs the gate — so close in the
            # background and open the gate once the waiter has failed.
            closer = threading.Thread(target=lambda: server.close(drain=False))
            closer.start()
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert len(failures) == 1
            assert "closed" in failures[0] or "gone" in failures[0]
            gate.set()
            closer.join(timeout=60)
            assert not closer.is_alive()
            client.close()
        finally:
            gate.set()
            server.close()
            service.close()

    def test_submit_after_server_death_raises_cleanly(self, fast_config, tiny_blocks):
        service = ExplanationService(model="crude", config=fast_config)
        server = SocketServer(service, port=0)
        server.start()
        client = ServiceClient(*server.address).connect()
        try:
            assert client.explain(tiny_blocks[0], seed=0, timeout=60)
            server.close(drain=False)
            # The dead-connection report may take a send or two to propagate
            # (the OS buffers the first write); soon submit must raise.
            deadline = time.monotonic() + 10
            while True:
                try:
                    client.submit(tiny_blocks[0], seed=1)
                except ServiceError:
                    break
                assert time.monotonic() < deadline, (
                    "submit kept succeeding after server death"
                )
                time.sleep(0.01)
        finally:
            client.close()
            server.close()
            service.close()

    def test_concurrent_first_submits_share_one_connection(
        self, served, tiny_blocks
    ):
        """Racing the implicit connect: all threads must share one socket
        (a duplicate connection would leak a server slot and split the
        per-connection response order).

        The client contract permits a losing dial that is closed on the
        spot, so the server may briefly see a second connection before its
        handler reaps the EOF — the invariant is that the count *settles*
        to one, not that it never exceeds one."""
        _, server = served
        client = ServiceClient(*server.address)
        try:
            barrier = threading.Barrier(4)
            ids, errors = [], []
            ids_lock = threading.Lock()

            def racer():
                try:
                    barrier.wait(timeout=10)
                    request_id = client.submit(tiny_blocks[0], seed=0)
                    with ids_lock:
                        ids.append(request_id)
                except Exception as error:  # surfaced to the main thread
                    errors.append(error)

            threads = [threading.Thread(target=racer) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors
            assert len(ids) == len(set(ids)) == 4
            for request_id in ids:
                assert client.result(request_id, timeout=60)["status"] == "done"
            deadline = time.monotonic() + 10.0
            while server.connections > 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.connections == 1
        finally:
            client.close()

    def test_unserializable_payload_leaves_no_phantom_request(
        self, served, tiny_blocks
    ):
        """A submit whose payload cannot be JSON-encoded must raise before
        registering anything: a phantom _order entry would swallow the next
        id-less server response."""
        _, server = served
        with ServiceClient(*server.address) as client:
            with pytest.raises(TypeError):
                client.submit(tiny_blocks[0], seed=0, shards={1, 2})  # a set
            assert not client._order and not client._events
            # The connection still works and ordering is intact.
            assert client.explain(tiny_blocks[0], seed=0, timeout=60)

    def test_reconnect_after_close_raises(self, served, tiny_blocks):
        _, server = served
        client = ServiceClient(*server.address).connect()
        assert client.explain(tiny_blocks[0], seed=0, timeout=60)
        client.close()
        with pytest.raises(ServiceError) as excinfo:
            client.connect()
        assert "closed" in str(excinfo.value)
        with pytest.raises(ServiceError):
            client.submit(tiny_blocks[0])
        with pytest.raises(ServiceError):
            client.stats()
        # close() stays idempotent after the refused reconnect.
        client.close()


class TestServerLimits:
    def test_max_connections_refused_in_band(self, fast_config):
        with ExplanationService(model="crude", config=fast_config) as service:
            with SocketServer(service, port=0, max_connections=2) as server:
                keep = [_raw_connect(server) for _ in range(2)]
                # Wait until both connections are registered (accept loop).
                deadline = time.monotonic() + 10
                while server.connections < 2 and time.monotonic() < deadline:
                    time.sleep(0.01)
                extra_sock, extra_lines = _raw_connect(server)
                refusal = json.loads(extra_lines.readline())
                assert refusal["status"] == "failed"
                assert "capacity" in refusal["error"]
                assert extra_lines.readline() == ""  # then hung up
                extra_sock.close()
                # The capped connections still work.
                sock, lines = keep[0]
                sock.sendall(b'{"id": "r", "block": "div rcx"}\n')
                assert json.loads(lines.readline())["status"] == "done"
                for sock, _ in keep:
                    sock.close()

    def test_idle_timeout_closes_quiet_connections(self, fast_config):
        with ExplanationService(model="crude", config=fast_config) as service:
            with SocketServer(service, port=0, idle_timeout=0.2) as server:
                sock, lines = _raw_connect(server)
                assert lines.readline() == ""  # server hung up on the idler
                sock.close()
                # A busy connection within the window is unaffected.
                sock, lines = _raw_connect(server)
                sock.sendall(b'{"id": "r", "block": "div rcx"}\n')
                assert json.loads(lines.readline())["status"] == "done"
                sock.close()

    def test_double_start_rejected(self, fast_config):
        with ExplanationService(model="crude", config=fast_config) as service:
            with SocketServer(service, port=0) as server:
                with pytest.raises(ServiceError):
                    server.start()

    def test_invalid_parameters_rejected(self, fast_config):
        with ExplanationService(model="crude", config=fast_config) as service:
            with pytest.raises(ServiceError):
                SocketServer(service, max_connections=0)
            with pytest.raises(ServiceError):
                SocketServer(service, idle_timeout=0.0)
            with pytest.raises(ServiceError):
                SocketServer(service, max_line_bytes=1)
            with pytest.raises(ServiceError):
                SocketServer(service, max_pending_responses=0)

    @pytest.mark.parametrize("port", [70000, 65536, -1])
    def test_port_out_of_range_rejected(self, fast_config, port):
        with ExplanationService(model="crude", config=fast_config) as service:
            with pytest.raises(ServiceError, match="port"):
                SocketServer(service, port=port)

    def test_port_in_use_raises_and_closes_the_listener(
        self, fast_config, monkeypatch
    ):
        created = []

        class RecordingSocket(socket.socket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            port = taken.getsockname()[1]
            with ExplanationService(model="crude", config=fast_config) as service:
                server = SocketServer(service, port=port)
                monkeypatch.setattr(socket, "socket", RecordingSocket)
                with pytest.raises(ServiceError, match=f"127.0.0.1:{port}"):
                    server.start()
                monkeypatch.undo()
        assert len(created) == 1 and created[0].fileno() == -1  # closed

    def test_deep_explanation_pipeline_is_not_capped(self, fast_config, tiny_blocks):
        """Only connection-local (op/error) responses count against the
        pending cap: a legitimate explanation pipeline deeper than the cap
        must be served completely."""
        with ExplanationService(model="crude", config=fast_config) as service:
            with SocketServer(service, port=0, max_pending_responses=2) as server:
                with ServiceClient(*server.address, timeout=120) as client:
                    ids = [
                        client.submit(tiny_blocks[index % len(tiny_blocks)], seed=index)
                        for index in range(6)  # 3x the cap
                    ]
                    for request_id in ids:
                        assert client.result(request_id, timeout=120)["status"] == "done"

    def test_op_flood_past_pending_cap_hangs_up(self, fast_config):
        """Ops bypass the service queue, so the per-connection pending cap
        is what bounds a stats/error pipelining flood.  The writer is
        pinned behind a gated explanation until the reader has hung up, so
        the flood cannot drain meanwhile."""
        gate = threading.Event()
        service = TestClientDeadlinesAndFailures._gated_service(gate)
        server = SocketServer(service, port=0, max_pending_responses=8)
        try:
            service.start()
            server.start()
            sock, lines = _raw_connect(server)
            sock.sendall(b'{"id": "slow", "block": "div rcx"}\n')
            deadline = time.monotonic() + 30
            while service.stats().submitted < 1:  # writer now owes "slow"
                assert time.monotonic() < deadline
                time.sleep(0.01)
            for _ in range(64):  # well past the cap of 8
                sock.sendall(b'{"op": "stats"}\n')
            # Opening the gate earlier lets the writer drain stats answers
            # while the reader still reads, so it reads past the cap.
            reader = "repro-socket-{}:{}-reader".format(*sock.getsockname()[:2])
            while any(t.name == reader for t in threading.enumerate()):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            gate.set()  # release the writer; it drains what was accepted
            answered = 0
            while lines.readline():
                answered += 1
            # "slow" plus at most cap stats answers, then hang-up — not 65.
            assert 1 <= answered <= 9, answered
            sock.close()
            # The server itself survives: a fresh connection works.
            sock, lines = _raw_connect(server)
            sock.sendall(b'{"id": "r", "block": "div rcx"}\n')
            assert json.loads(lines.readline())["status"] == "done"
            sock.close()
        finally:
            gate.set()
            server.close()
            service.close()


class TestGracefulShutdown:
    def test_close_drains_pending_responses(self, fast_config, tiny_blocks):
        service = ExplanationService(model="crude", config=fast_config)
        server = SocketServer(service, port=0)
        server.start()
        try:
            with ServiceClient(*server.address) as client:
                ids = [client.submit(block, seed=2) for block in tiny_blocks]
                # Drain covers requests the server has *ingested*; wait until
                # the reader has submitted all three before pulling the plug
                # (bytes still in the socket buffer are legitimately dropped).
                deadline = time.monotonic() + 30
                while service.stats().submitted < len(ids):
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                closer = threading.Thread(target=server.close)
                closer.start()
                # Every already-submitted request is answered before the
                # socket goes away.
                for request_id in ids:
                    assert client.result(request_id, timeout=60)["status"] == "done"
                closer.join(timeout=60)
                assert not closer.is_alive()
            assert server.wait(timeout=1)
        finally:
            server.close()
            service.close()

    def test_abrupt_close_consumes_tickets(self, fast_config, tiny_blocks):
        """drain=False drops sockets, but the service leaks no ticket state."""
        service = ExplanationService(model="crude", config=fast_config)
        server = SocketServer(service, port=0)
        server.start()
        try:
            client = ServiceClient(*server.address).connect()
            for block in tiny_blocks:
                client.submit(block, seed=3)
            server.close(drain=False)
            client.close()
            assert service.drain(timeout=60)
            # All tickets were consumed by the connection's writer: nothing
            # is left pending inside the service.
            assert not service._tickets
        finally:
            server.close()
            service.close()

    def test_connections_refused_after_close(self, fast_config):
        with ExplanationService(model="crude", config=fast_config) as service:
            server = SocketServer(service, port=0)
            server.start()
            server.close()
            with pytest.raises(OSError):
                socket.create_connection(server.address, timeout=2)


class TestServeCliSocket:
    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.port is None  # stdin/stdout stays the default transport
        assert args.host == "127.0.0.1"
        assert args.max_connections == 8
        assert args.idle_timeout is None

    def test_requests_file_and_port_are_mutually_exclusive(self, tmp_path, capsys):
        from repro.cli import main

        requests_file = tmp_path / "reqs.jsonl"
        requests_file.write_text('{"block": "div rcx"}\n')
        code = main(["serve", "--requests", str(requests_file), "--port", "0"])
        assert code == 2
        assert "one or the other" in capsys.readouterr().err

    def test_serve_port_sigterm_drains(self, tmp_path):
        """``repro serve --port`` serves TCP and SIGTERM drains gracefully."""
        import os
        import signal
        import subprocess
        import sys

        env = dict(os.environ, PYTHONPATH="src")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--model", "crude", "--port", "0",
                "--epsilon", "0.2", "--relative-epsilon", "0.0",
                "--coverage-samples", "80", "--max-precision-samples", "40",
            ],
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = process.stderr.readline()
            assert "serving on" in banner, banner
            host, port = banner.split()[2].rsplit(":", 1)
            with ServiceClient(host, int(port), timeout=60) as client:
                payloads = client.explain("div rcx; add rax, rbx", seed=1)
                assert payloads and payloads[0]["features"]
                process.send_signal(signal.SIGTERM)
                assert process.wait(timeout=60) == 0
            remainder = process.stderr.read()
            assert "drained" in remainder
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)


def _stress_expectations(fast_config, tiny_blocks):
    """The serial, direct, in-process fingerprints every client must see."""
    workload = [(block, seed) for seed, block in enumerate(tiny_blocks)]
    direct_model = CachedCostModel(AnalyticalCostModel("hsw"))
    expected_single = {
        (block.key(), seed): explanation_dict_fingerprint(
            explanation_to_dict(
                CometExplainer(direct_model, fast_config).explain(block, rng=seed)
            )
        )
        for block, seed in workload
    }
    expected_fleet = [
        explanation_dict_fingerprint(explanation_to_dict(explanation))
        for explanation in CometExplainer(
            CachedCostModel(AnalyticalCostModel("hsw")), fast_config
        ).explain_many(tiny_blocks, rng=77)
    ]
    return workload, expected_single, expected_fleet


def _run_eight_clients(service, tiny_blocks, workload, expected_single, expected_fleet):
    """8 concurrent TCP clients over one server; returns (errors, mismatches)."""
    with SocketServer(service, port=0, max_connections=8) as server:
        errors = []
        mismatches = []
        barrier = threading.Barrier(8)

        def client_run(index):
            try:
                with ServiceClient(*server.address) as client:
                    barrier.wait(timeout=30)
                    ids = [
                        (block.key(), seed, client.submit(block, seed=seed))
                        for block, seed in workload
                    ]
                    fleet_id = client.submit(tiny_blocks, seed=77)
                    for key, seed, request_id in ids:
                        response = client.result(request_id, timeout=120)
                        assert response["status"] == "done", response
                        got = explanation_dict_fingerprint(
                            response["explanations"][0]
                        )
                        if got != expected_single[(key, seed)]:
                            mismatches.append((index, key, seed))
                    fleet = client.result(fleet_id, timeout=120)
                    assert fleet["status"] == "done", fleet
                    got_fleet = [
                        explanation_dict_fingerprint(payload)
                        for payload in fleet["explanations"]
                    ]
                    if got_fleet != expected_fleet:
                        mismatches.append((index, "fleet"))
            except Exception as error:  # surfaced to the main thread
                errors.append((index, error))

        threads = [
            threading.Thread(target=client_run, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not any(thread.is_alive() for thread in threads)
    return errors, mismatches


class TestMultiClientStress:
    @pytest.mark.parametrize("dispatchers", [1, 4])
    def test_eight_concurrent_clients_match_serial_direct_explainer(
        self, fast_config, tiny_blocks, dispatchers
    ):
        """The acceptance bar: 8 TCP clients, one warm server, same fleet.

        Every client submits the same seeded fleet — each block as a
        single-block request plus the whole list as one fleet request — and
        every client's payloads must be bit-for-bit the serial, direct,
        in-process explanations.  Nothing about racing seven other sockets
        may leak into the result — under the single-dispatcher oracle
        configuration and the 4-dispatcher fleet alike.
        """
        workload, expected_single, expected_fleet = _stress_expectations(
            fast_config, tiny_blocks
        )
        with ExplanationService(
            model="crude", config=fast_config, dispatchers=dispatchers
        ) as service:
            errors, mismatches = _run_eight_clients(
                service, tiny_blocks, workload, expected_single, expected_fleet
            )
            stats = service.stats()

        assert not errors
        assert not mismatches
        assert stats.served == 8 * (len(workload) + 1)
        assert stats.failed == 0

    @pytest.mark.parametrize("continuous_batching", [False, True])
    @pytest.mark.parametrize(
        "cache_state", ["disabled", "cold", "warm", "warm-restart"]
    )
    def test_eight_clients_cache_state_matrix(
        self, fast_config, tiny_blocks, tmp_path, cache_state, continuous_batching
    ):
        """The stress bar again, across every result-cache temperature.

        Eight racing clients see bit-for-bit the direct serial payloads
        whether the result cache is off, empty, warmed in-process, or
        warmed by a *previous* service sharing the same on-disk store —
        and whether requests retire through the continuous batcher (where
        a hit consumes no KL-LUCB round) or the plain path.  With 8
        clients repeating one workload, the cache-enabled arms must also
        actually hit.
        """
        workload, expected_single, expected_fleet = _stress_expectations(
            fast_config, tiny_blocks
        )
        path = tmp_path / "stress.cache"
        result_cache = False if cache_state == "disabled" else str(path)
        if cache_state == "warm-restart":
            # A previous service life fills the store, then fully closes:
            # only the disk tier carries the warmth across.
            with ExplanationService(
                model="crude", config=fast_config, result_cache=str(path)
            ) as warmer:
                for block, seed in workload:
                    warmer.explain(block, seed=seed)
                warmer.explain(tiny_blocks, seed=77)
        warm_requests = 0
        with ExplanationService(
            model="crude",
            config=fast_config,
            dispatchers=4,
            continuous_batching=continuous_batching,
            result_cache=result_cache,
        ) as service:
            if cache_state == "warm":
                for block, seed in workload:
                    service.explain(block, seed=seed)
                service.explain(tiny_blocks, seed=77)
                warm_requests = len(workload) + 1
            errors, mismatches = _run_eight_clients(
                service, tiny_blocks, workload, expected_single, expected_fleet
            )
            stats = service.stats()

        assert not errors
        assert not mismatches
        assert stats.served == 8 * (len(workload) + 1) + warm_requests
        assert stats.failed == 0
        if cache_state == "disabled":
            assert stats.result_cache is None
        else:
            assert stats.result_cache is not None
            # Eight repeats of one workload: all but the first computation
            # of each distinct request must be served from the cache.
            assert stats.result_cache.hits > 0
            if cache_state == "warm-restart":
                assert stats.result_cache.disk is not None
                assert stats.result_cache.disk.hits > 0
