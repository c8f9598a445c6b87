"""One protocol, three front ends.

``repro serve`` on stdio (:func:`serve_stream`), ``repro serve --port``
(one :class:`SocketServer` connection) and ``repro route``
(:func:`route_stream` over a fleet) all speak the JSON-lines protocol
through one conversation.  The contract under test: the same mixed line
stream gets the same answers from each, one per line, in submission order —
a slow request delays the failures and ops read after it but is never
overtaken by them.
"""

import io
import json
import socket

from repro.service import (
    ExplanationService,
    Router,
    SocketServer,
    route_stream,
    serve_stream,
)

from tests.conftest import FAST_CONFIG

#: A multi-block request: slow enough that the lines after it are read
#: (and could be answered) long before it finishes.
SLOW_BLOCKS = [
    "mov rax, qword ptr [rsi]; imul rax, rcx; add rdx, rax; div rcx; "
    "mov qword ptr [rdi], rdx; add rsi, 8; add rdi, 8",
    "xor edx, edx; div rcx; imul rax, rbx; add rax, rdx; mov rbx, rax",
    "add rcx, rax; mov rdx, rcx; pop rbx; imul rdx, rbx; sub rcx, rdx",
]

LINES = [
    json.dumps({"id": "slow", "blocks": SLOW_BLOCKS, "seed": 3}),
    "{not json",
    json.dumps({"id": "mixed", "op": "stats", "block": "div rcx"}),
    json.dumps({"id": "c", "op": "cancel", "target": "nobody"}),
    "add rax, rbx; div rcx",
    json.dumps({"id": "s", "op": "stats"}),
]

#: ``(id, status, op)`` per line, in submission order.
EXPECTED = [
    ("slow", "done", None),
    (None, "failed", None),
    ("mixed", "failed", None),
    ("c", "failed", "cancel"),
    (None, "done", None),
    ("s", "done", "stats"),
]


def _service():
    return ExplanationService(model="crude", config=FAST_CONFIG)


def _via_stdio():
    out = io.StringIO()
    with _service() as service:
        serve_stream(service, LINES, out)
    return out.getvalue().splitlines()


def _via_tcp():
    with _service() as service, SocketServer(service, port=0) as server:
        with socket.create_connection(server.address, timeout=120) as sock:
            sock.sendall("".join(line + "\n" for line in LINES).encode("utf-8"))
            with sock.makefile("r", encoding="utf-8") as answers:
                return [answers.readline() for _ in LINES]


def _via_route():
    out = io.StringIO()
    with _service() as service, SocketServer(service, port=0) as server:
        host, port = server.address
        with Router(f"{host}:{port}", timeout=120) as router:
            route_stream(router, LINES, out)
    return out.getvalue().splitlines()


def test_every_front_end_answers_in_submission_order():
    sequences = {}
    for name, front_end in (
        ("stdio", _via_stdio),
        ("tcp", _via_tcp),
        ("route", _via_route),
    ):
        answers = [json.loads(line) for line in front_end()]
        sequences[name] = [
            (answer["id"], answer["status"], answer.get("op")) for answer in answers
        ]
    assert sequences == {"stdio": EXPECTED, "tcp": EXPECTED, "route": EXPECTED}
