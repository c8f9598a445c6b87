"""The service's wire format: JSON-lines requests in, JSON-lines results out.

This module is the codec only: :func:`request_from_line` and
:func:`request_from_dict` decode requests, :func:`result_to_dict` and
:func:`stats_to_dict` encode answers.  The conversation that uses them —
act on each line as it is read, answer in submission order — lives with
every transport that carries it (stdio, TCP and the fleet router) in
:mod:`repro.service.transport`.  One request per line::

    {"id": "r1", "block": "add rcx, rax; mov rdx, rcx; pop rbx", "seed": 0}
    {"id": "r2", "blocks": ["div rcx", "add rax, rbx"], "model": "uica"}
    {"id": "r3", "op": "stats"}       # introspection, answered in-band
    add rcx, rax; mov rdx, rcx        # bare text is sugar for {"block": ...}

and one response line per request, in submission order::

    {"id": "r1", "status": "done", "model": "crude", "uarch": "hsw",
     "seconds": 0.41, "explanations": [{...}, ...]}

``id`` is the client's correlation key (echoed verbatim; the service's own
request id is returned as ``request_id``).  Failures come back in-band with
``"status": "failed"`` and an ``error`` string — the stream keeps serving.

Besides explanation requests the protocol carries *operations*:
``{"op": "stats"}`` answers with the service's accounting snapshot (queue
depth, pool occupancy, per-dispatcher counters, failure/resilience and
continuous-batching/fusion counters; see :func:`stats_to_dict`), and
``{"op": "cancel", "target": "r1"}`` cancels the caller's
still-outstanding request whose client id is ``target`` — the cancellation
*acts* the moment the op line is read (a queued request is withdrawn, a
running one stops at its next KL-LUCB round), while the op's own response
is answered in the same submission order as every other response.
Explanation requests may carry
``"deadline"``: a server-side budget in seconds from admission.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.bb.block import BasicBlock
from repro.reporting.export import explanation_to_dict
from repro.service.core import (
    ExplanationRequest,
    RequestStatus,
    ServiceResult,
    ServiceStats,
)
from repro.utils.errors import ReproError, ServiceError

#: Operation names the protocol understands besides explanation requests.
KNOWN_OPS = ("stats", "cancel")

#: Every field an explanation request may carry on the wire (the schema
#: :func:`request_from_dict` reads).  The op/request mixing guard checks
#: against this same set, so adding a field here keeps both in step.
REQUEST_FIELDS = frozenset(
    {"block", "blocks", "seed", "model", "uarch", "shards", "deadline"}
)


@dataclass(frozen=True)
class ServiceOp:
    """A non-explanation protocol request (``{"op": "stats"}`` or
    ``{"op": "cancel", "target": <client id>}``)."""

    op: str
    target: Optional[str] = None

    def __post_init__(self) -> None:
        if self.op not in KNOWN_OPS:
            raise ServiceError(
                f"unknown op {self.op!r}; known ops: {', '.join(KNOWN_OPS)}"
            )
        if self.op == "cancel" and not self.target:
            raise ServiceError(
                "a cancel op needs a 'target' (the client id of the request "
                "to cancel)"
            )


def _as_int(name: str, value: object, expected: str) -> int:
    """``int(value)``, or a :class:`ServiceError` naming the field.

    Booleans and fractional numbers are refused first: ``int()`` reads
    ``true`` as 1 and truncates ``1.7`` to 1, so the request would run as a
    different one instead of failing.  The error must be a ServiceError:
    anything else would escape the in-band failure path and kill the stdio
    stream (or silently drop a socket connection) on one malformed request.
    """
    invalid = f"'{name}' must be {expected}, got {value!r}"
    if isinstance(value, bool) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ServiceError(invalid)
    try:
        return int(value)  # type: ignore[arg-type]
    except (TypeError, ValueError) as error:
        raise ServiceError(invalid) from error


def request_from_dict(payload: Dict[str, object]) -> ExplanationRequest:
    """Build an :class:`ExplanationRequest` from one decoded JSON object."""
    if "block" in payload and "blocks" in payload:
        raise ServiceError("request has both 'block' and 'blocks'")
    if "block" in payload:
        texts = [str(payload["block"])]
    elif "blocks" in payload:
        blocks_field = payload["blocks"]
        if not isinstance(blocks_field, (list, tuple)):
            raise ServiceError("'blocks' must be a list of block texts")
        texts = [str(text) for text in blocks_field]
    else:
        raise ServiceError("request needs a 'block' or 'blocks' field")
    blocks = tuple(
        BasicBlock.from_text(text.replace(";", "\n")) for text in texts
    )
    # Absent means the fleet default ("auto"); an explicit JSON null opts a
    # request out of sharding (the sequential loop).
    shards = payload.get("shards", "auto")
    if shards is not None and not isinstance(shards, str):
        shards = _as_int("shards", shards, "an integer, 'auto' or null")
    seed = _as_int("seed", payload.get("seed", 0), "an integer")
    deadline = payload.get("deadline")
    if deadline is not None:
        invalid = f"'deadline' must be positive seconds, got {deadline!r}"
        if isinstance(deadline, bool):  # float() reads true as 1 s
            raise ServiceError(invalid)
        try:
            deadline = float(deadline)  # type: ignore[arg-type]
        except (TypeError, ValueError) as error:
            raise ServiceError(invalid) from error
    return ExplanationRequest(
        blocks=blocks,
        seed=seed,
        model=payload.get("model"),  # type: ignore[arg-type]
        uarch=payload.get("uarch"),  # type: ignore[arg-type]
        shards=shards,  # type: ignore[arg-type]
        deadline=deadline,  # type: ignore[arg-type]
    )


def request_from_line(
    line: str,
) -> Tuple[Optional[str], Union[ExplanationRequest, ServiceOp]]:
    """Decode one protocol line into ``(client id, request-or-op)``.

    Lines starting with ``{`` are JSON requests; anything else is treated as
    bare block text (instructions separated by ``;`` or the line is one
    instruction), with no client id.  A JSON object carrying an ``op`` field
    decodes to a :class:`ServiceOp` instead of an explanation request.
    """
    stripped = line.strip()
    if not stripped:
        raise ServiceError("empty request line")
    if stripped.startswith("["):
        raise ServiceError("request line must decode to a JSON object")
    if stripped.startswith("{"):
        try:
            payload = json.loads(stripped)
        except json.JSONDecodeError as error:
            raise ServiceError(f"request line is not valid JSON: {error}") from error
        if not isinstance(payload, dict):
            raise ServiceError("request line must decode to a JSON object")
        raw_id = payload.get("id")
        client_id = None if raw_id is None else str(raw_id)
        try:
            if "op" in payload:
                mixed = sorted(REQUEST_FIELDS & payload.keys())
                if mixed:
                    # Answering the op would silently drop the explanation
                    # payload; surface the client bug instead.
                    raise ServiceError(
                        f"an op request cannot carry explanation fields "
                        f"({', '.join(mixed)})"
                    )
                raw_target = payload.get("target")
                target = None if raw_target is None else str(raw_target)
                return client_id, ServiceOp(str(payload["op"]), target=target)
            return client_id, request_from_dict(payload)
        except ReproError as error:
            # Tag the failure with the client's correlation id so the error
            # response still routes back to the right request.
            error.client_id = client_id  # type: ignore[attr-defined]
            raise
    return None, request_from_dict({"block": stripped})


def result_to_dict(
    result: ServiceResult, client_id: Optional[str] = None
) -> Dict[str, object]:
    """A JSON-safe dictionary for one service result."""
    payload: Dict[str, object] = {
        "id": client_id,
        "request_id": result.request_id,
        "status": result.status.value,
        "model": result.model,
        "uarch": result.uarch,
        "seconds": round(result.seconds, 4),
    }
    if result.status is RequestStatus.DONE:
        payload["explanations"] = [
            explanation_to_dict(explanation) for explanation in result.explanations
        ]
    else:
        payload["error"] = result.error
    return payload


def _tier_to_dict(tier) -> Dict[str, object]:
    return {
        "hits": tier.hits,
        "misses": tier.misses,
        "stores": tier.stores,
        "evictions": tier.evictions,
        "corrupt": tier.corrupt,
        "entries": tier.entries,
        "bytes": tier.bytes,
    }


def stats_to_dict(
    stats: ServiceStats, client_id: Optional[str] = None
) -> Dict[str, object]:
    """The wire response for a ``stats`` op: queue depth, pool occupancy and
    per-dispatcher counters, JSON-safe."""
    pool = stats.pool
    return {
        "id": client_id,
        "status": "done",
        "op": "stats",
        "stats": {
            "submitted": stats.submitted,
            "served": stats.served,
            "failed": stats.failed,
            "cancelled": stats.cancelled,
            "queue_depth": stats.queue_depth,
            "in_flight": stats.in_flight,
            "dispatchers": stats.dispatchers,
            "resilience": {
                "deadline_expired": stats.deadline_expired,
                "worker_restarts": stats.worker_restarts,
                "worker_retries": stats.worker_retries,
                "worker_fallbacks": stats.worker_fallbacks,
            },
            "fusion": None
            if stats.fusion is None
            else {
                "enabled": stats.fusion.enabled,
                "max_fused_requests": stats.fusion.max_fused_requests,
                "ticks": stats.fusion.ticks,
                "rounds_fused": stats.fusion.rounds_fused,
                "requests_fused": stats.fusion.requests_fused,
                "shared_hits": stats.fusion.shared_hits,
                "mean_occupancy": round(stats.fusion.mean_occupancy, 4),
                "occupancy": {
                    str(occupancy): ticks
                    for occupancy, ticks in stats.fusion.occupancy
                },
                "absorbed": stats.absorbed,
            },
            "result_cache": None
            if stats.result_cache is None
            else {
                "path": stats.result_cache.path,
                "hits": stats.result_cache.hits,
                "lookups": stats.result_cache.lookups,
                "hit_rate": round(stats.result_cache.hit_rate, 4),
                "memory": _tier_to_dict(stats.result_cache.memory),
                "disk": None
                if stats.result_cache.disk is None
                else _tier_to_dict(stats.result_cache.disk),
            },
            "dispatcher_stats": [
                {
                    "index": d.index,
                    "executed": d.executed,
                    # Always 0 (one ready list); perfbench/serve.py reads it.
                    "stolen": 0,
                    "busy": d.busy,
                    "turn_wait_s": round(d.turn_wait_s, 6),
                }
                for d in stats.dispatcher_stats
            ],
            "pool": None
            if pool is None
            else {
                "sessions": pool.sessions,
                "max_sessions": pool.max_sessions,
                "leased": pool.leased,
                "occupancy": round(pool.occupancy, 4),
                "builds": pool.builds,
                "hits": pool.hits,
                "evictions": pool.evictions,
            },
            "sessions": [list(key) for key in stats.sessions],
        },
    }
