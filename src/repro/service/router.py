"""Consistent-hash routing across a fleet of explanation-service nodes.

One :class:`~repro.service.transport.SocketServer` is one process: its warm
sessions, its query LRU and its result cache all live behind one port.  To
scale past one process without giving up warmth, requests must keep landing
on the node that already holds their state.  This module places each key
on a fleet node by a stable CRC-32 hash (:func:`stable_key_hash`), with the
consistent-hashing property a plain modulo lacks: **removing a node remaps
only the keys that node owned** — every other key keeps its placement, so a
fleet resize invalidates one node's warmth, not the whole fleet's.

Three layers:

* :class:`HashRing` — the placement structure.  Each node contributes
  ``replicas`` points on a 32-bit ring (CRC-32 of ``"node#i"``); a key is
  owned by the first point clockwise of its own hash.  Pure data, no I/O.
* :class:`Router` — a client-side front over N ``host:port`` nodes.  It
  mirrors the :class:`~repro.service.client.ServiceClient` surface
  (``submit``/``poll``/``result``/``explain``/``cancel``/``stats``) but
  routes every request by its :func:`routing_key` — ``(model, uarch,
  block keys)``, the same identity the result-cache fingerprint hashes —
  and aggregates ``stats`` fleet-wide (counters summed, result-cache tiers
  merged, per-node snapshots preserved).
* :func:`route_stream` — the stdio front end behind ``repro route``: the
  same :class:`~repro.service.transport.Conversation` as
  :func:`~repro.service.transport.serve_stream` (submission-order answers,
  in-band failures, ``stats``/``cancel`` ops), with :class:`FleetTarget`
  as its target instead of one in-process service.

Determinism contract: a node answers a routed request exactly as it would
answer the same request submitted directly — routing chooses *where*, never
*what*.  The router parity tests pin an N-node fleet byte-identical to a
single node (modulo ``num_queries``, which counts uncached inner-model
work and is warmth-dependent by design).
"""

from __future__ import annotations

import bisect
import itertools
import threading
import zlib
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
    Union,
)

from repro.bb.block import BasicBlock
from repro.service.client import BlockSource, RetryPolicy, ServiceClient
from repro.service.core import ExplanationRequest
from repro.service.transport import Conversation, pump
from repro.utils.errors import ServiceError

_UNSET = object()

__all__ = [
    "HashRing",
    "Router",
    "aggregate_node_stats",
    "parse_nodes",
    "route_stream",
    "routing_key",
    "stable_key_hash",
]


def stable_key_hash(key: object) -> int:
    """A stable, seedless 32-bit hash of ``key`` (CRC-32 of its ``repr``).

    The hash ring places both its nodes' points and its keys with this one
    function: it is reproducible across runs, processes and hosts
    (``hash()`` is randomized per process), so every placement derived from
    it is too.
    """
    return zlib.crc32(repr(key).encode("utf-8"))


def parse_nodes(spec: Union[str, Sequence[str]]) -> List[str]:
    """Normalise a fleet spec into a list of ``"host:port"`` node names.

    Accepts the CLI form (one comma-separated string) or any sequence of
    node strings; validates that every node carries a numeric port.
    """
    if isinstance(spec, str):
        parts = [part.strip() for part in spec.split(",")]
    else:
        parts = [str(part).strip() for part in spec]
    nodes = [part for part in parts if part]
    if not nodes:
        raise ServiceError("no nodes given; expected host:port[,host:port...]")
    for node in nodes:
        parse_node(node)
    if len(set(nodes)) != len(nodes):
        raise ServiceError(f"duplicate nodes in {nodes!r}")
    return nodes


def parse_node(node: str) -> Tuple[str, int]:
    """Split one ``"host:port"`` node name into ``(host, port)``."""
    host, separator, port_text = node.rpartition(":")
    if not separator or not host:
        raise ServiceError(f"node {node!r} is not of the form host:port")
    try:
        port = int(port_text)
    except ValueError as error:
        raise ServiceError(f"node {node!r} has a non-numeric port") from error
    if not 0 < port < 65536:
        raise ServiceError(f"node {node!r} has an out-of-range port")
    return host, port


def routing_key(
    blocks: BlockSource,
    model: Optional[str] = None,
    uarch: Optional[str] = None,
) -> Tuple[str, str, Tuple[str, ...]]:
    """The placement identity of one request.

    Built from the same components the result-cache fingerprint hashes —
    the model, the micro-architecture and the blocks' canonical keys — so
    repeats of a request (the warm-hit case) land on the node whose caches
    already hold it.  The seed is deliberately *excluded*: different seeds
    of one block still share the node's query LRU.  Inline text and parsed
    :class:`~repro.bb.block.BasicBlock` objects produce the same key
    (text is parsed to its canonical block first).
    """
    if isinstance(blocks, (str, BasicBlock)):
        sources: Sequence[Union[str, BasicBlock]] = [blocks]
    else:
        sources = list(blocks)
    keys = tuple(
        repr(
            (
                block
                if isinstance(block, BasicBlock)
                else BasicBlock.from_text(str(block).replace(";", "\n"))
            ).key()
        )
        for block in sources
    )
    return (str(model or ""), str(uarch or ""), keys)


class HashRing:
    """A consistent-hash ring of named nodes.

    Each node contributes ``replicas`` points — ``stable_key_hash("node#i")``
    — on the 32-bit ring; :meth:`node_for` walks clockwise from the key's
    own hash to the first point.  Replicas smooth the load split; the ring
    property (only a removed node's keys remap) holds at any replica count.
    Ties between points of different nodes break on the node name, so the
    ring is fully deterministic.
    """

    def __init__(self, nodes: Iterable[str] = (), *, replicas: int = 64) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self._nodes: List[str] = []
        #: Sorted ``(point, node)`` pairs; bisect finds the successor point.
        self._points: List[Tuple[int, str]] = []
        for node in nodes:
            self.add(node)

    # ---------------------------------------------------------------- members

    @property
    def nodes(self) -> Tuple[str, ...]:
        """The member nodes, in insertion order."""
        return tuple(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: object) -> bool:
        return node in self._nodes

    def add(self, node: str) -> None:
        """Add a node (``replicas`` ring points).  Duplicate adds raise."""
        name = str(node)
        if name in self._nodes:
            raise ValueError(f"node {name!r} is already on the ring")
        self._nodes.append(name)
        for replica in range(self.replicas):
            point = stable_key_hash(f"{name}#{replica}")
            bisect.insort(self._points, (point, name))

    def remove(self, node: str) -> None:
        """Remove a node.  Only keys it owned remap — to their next point
        clockwise — which is the whole reason this is a ring and not a
        modulo."""
        name = str(node)
        if name not in self._nodes:
            raise ValueError(f"node {name!r} is not on the ring")
        self._nodes.remove(name)
        self._points = [pair for pair in self._points if pair[1] != name]

    # ----------------------------------------------------------------- lookup

    def node_for(self, key: object) -> str:
        """The node that owns ``key``."""
        if not self._points:
            raise ServiceError("the hash ring has no nodes")
        point = stable_key_hash(key)
        # Successor point clockwise; (point,) sorts before any (point, node)
        # pair, so a key that lands exactly on a point maps to that point.
        index = bisect.bisect_left(self._points, (point,))
        if index == len(self._points):
            index = 0
        return self._points[index][1]


def _sum_numeric(payloads: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Key-union sum of numeric fields across dicts (non-numeric skipped)."""
    total: Dict[str, object] = {}
    for payload in payloads:
        for key, value in payload.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            total[key] = total.get(key, 0) + value
    return total


def _merge_result_cache(
    payloads: Sequence[Optional[Dict[str, object]]]
) -> Optional[Dict[str, object]]:
    present = [payload for payload in payloads if payload is not None]
    if not present:
        return None
    memory = _sum_numeric([dict(p.get("memory") or {}) for p in present])
    disks = [dict(p["disk"]) for p in present if p.get("disk") is not None]  # type: ignore[arg-type]
    hits = sum(int(p.get("hits") or 0) for p in present)
    lookups = sum(int(p.get("lookups") or 0) for p in present)
    return {
        "path": sorted({str(p["path"]) for p in present if p.get("path")}),
        "hits": hits,
        "lookups": lookups,
        "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
        "memory": memory,
        "disk": _sum_numeric(disks) if disks else None,
    }


def _merge_fusion(
    payloads: Sequence[Optional[Dict[str, object]]]
) -> Optional[Dict[str, object]]:
    present = [payload for payload in payloads if payload is not None]
    if not present:
        return None
    merged = _sum_numeric(present)
    merged["enabled"] = any(bool(p.get("enabled")) for p in present)
    merged["max_fused_requests"] = max(
        int(p.get("max_fused_requests") or 0) for p in present
    )
    ticks = sum(int(p.get("ticks") or 0) for p in present)
    weighted = sum(
        float(p.get("mean_occupancy") or 0.0) * int(p.get("ticks") or 0)
        for p in present
    )
    merged["mean_occupancy"] = round(weighted / ticks, 4) if ticks else 0.0
    merged["occupancy"] = _sum_numeric(
        [dict(p.get("occupancy") or {}) for p in present]
    )
    return merged


def aggregate_node_stats(per_node: Dict[str, dict]) -> Dict[str, object]:
    """Fold per-node ``stats`` payloads into one fleet-wide snapshot.

    Counters (requests, queue depths, resilience, fusion, result-cache
    tiers) sum across the fleet; derived rates (``hit_rate``,
    ``mean_occupancy``) are recomputed from the summed numerators, never
    averaged.  The untouched per-node payloads ride along under
    ``"per_node"`` so nothing is lost to the fold.
    """
    snapshots = [per_node[node] for node in sorted(per_node)]
    aggregated: Dict[str, object] = {
        "nodes": sorted(per_node),
    }
    for field in (
        "submitted",
        "served",
        "failed",
        "cancelled",
        "queue_depth",
        "in_flight",
        "dispatchers",
    ):
        aggregated[field] = sum(int(s.get(field) or 0) for s in snapshots)
    aggregated["resilience"] = _sum_numeric(
        [dict(s.get("resilience") or {}) for s in snapshots]
    )
    aggregated["fusion"] = _merge_fusion([s.get("fusion") for s in snapshots])
    aggregated["result_cache"] = _merge_result_cache(
        [s.get("result_cache") for s in snapshots]
    )
    aggregated["per_node"] = {node: per_node[node] for node in sorted(per_node)}
    return aggregated


class Router:
    """Route requests across a fleet of service nodes by consistent hash.

    Mirrors the :class:`~repro.service.client.ServiceClient` surface, with
    the client's correlation ids replaced by router-level handles (two
    nodes' clients both count ``c1, c2, ...`` — the router must namespace
    them).  Per-node clients are dialled lazily on first use, so building a
    router is free and a node nothing routes to is never contacted.

    Thread-safe the way the underlying client is: submissions serialise on
    the router's lock only long enough to pick a node and register the
    handle; the wire work happens on the node client.
    """

    def __init__(
        self,
        nodes: Union[str, Sequence[str]],
        *,
        replicas: int = 64,
        timeout: Optional[float] = None,
        connect_timeout: float = 10.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.ring = HashRing(parse_nodes(nodes), replicas=replicas)
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.retry = retry
        self._lock = threading.Lock()
        self._clients: Dict[str, ServiceClient] = {}
        self._ids = itertools.count(1)
        #: Router handle → (node, that node's correlation id).
        self._handles: Dict[str, Tuple[str, str]] = {}
        self._closed = False

    # -------------------------------------------------------------- lifecycle

    def __enter__(self) -> "Router":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close every dialled node client.  Idempotent."""
        with self._lock:
            self._closed = True
            clients, self._clients = list(self._clients.values()), {}
        for client in clients:
            client.close()

    def client_for(self, node: str) -> ServiceClient:
        """The (lazily dialled) client for one node name."""
        with self._lock:
            if self._closed:
                raise ServiceError("this router has been closed")
            client = self._clients.get(node)
            if client is None:
                host, port = parse_node(node)
                client = ServiceClient(
                    host,
                    port,
                    timeout=self.timeout,
                    connect_timeout=self.connect_timeout,
                    retry=self.retry,
                )
                self._clients[node] = client
        return client

    # ---------------------------------------------------------------- routing

    def node_for(
        self,
        blocks: BlockSource,
        *,
        model: Optional[str] = None,
        uarch: Optional[str] = None,
    ) -> str:
        """The node that owns one request's :func:`routing_key`."""
        return self.ring.node_for(routing_key(blocks, model, uarch))

    def node_of(self, handle: str) -> str:
        """The node an outstanding handle was routed to."""
        with self._lock:
            entry = self._handles.get(handle)
        if entry is None:
            raise ServiceError(f"unknown request handle {handle!r}")
        return entry[0]

    def _resolve(self, handle: str) -> Tuple[ServiceClient, str]:
        with self._lock:
            entry = self._handles.get(handle)
        if entry is None:
            raise ServiceError(f"unknown request handle {handle!r}")
        node, request_id = entry
        return self.client_for(node), request_id

    # ------------------------------------------------------- client mirroring

    def submit(
        self,
        blocks: BlockSource,
        *,
        seed: int = 0,
        model: Optional[str] = None,
        uarch: Optional[str] = None,
        shards=_UNSET,
        deadline: Optional[float] = None,
    ) -> str:
        """Route one request to its owning node; returns a router handle."""
        node = self.node_for(blocks, model=model, uarch=uarch)
        client = self.client_for(node)
        kwargs: Dict[str, object] = {}
        if shards is not _UNSET:
            kwargs["shards"] = shards
        request_id = client.submit(
            blocks, seed=seed, model=model, uarch=uarch, deadline=deadline, **kwargs
        )
        handle = f"r{next(self._ids)}"
        with self._lock:
            self._handles[handle] = (node, request_id)
        return handle

    def poll(self, handle: str) -> Optional[dict]:
        """The response for ``handle`` if it has arrived, else ``None``."""
        client, request_id = self._resolve(handle)
        return client.poll(request_id)

    def result(self, handle: str, timeout: Optional[float] = _UNSET) -> dict:
        """Wait for — and consume — one routed response object."""
        client, request_id = self._resolve(handle)
        kwargs = {} if timeout is _UNSET else {"timeout": timeout}
        response = client.result(request_id, **kwargs)
        with self._lock:
            self._handles.pop(handle, None)
        return response

    def explain(
        self,
        blocks: BlockSource,
        *,
        seed: int = 0,
        model: Optional[str] = None,
        uarch: Optional[str] = None,
        shards=_UNSET,
        deadline: Optional[float] = None,
        timeout: Optional[float] = _UNSET,
    ) -> List[dict]:
        """Synchronous convenience: route, submit, wait, unwrap."""
        node = self.node_for(blocks, model=model, uarch=uarch)
        client = self.client_for(node)
        kwargs: Dict[str, object] = {}
        if shards is not _UNSET:
            kwargs["shards"] = shards
        if timeout is not _UNSET:
            kwargs["timeout"] = timeout
        return client.explain(
            blocks, seed=seed, model=model, uarch=uarch, deadline=deadline, **kwargs
        )

    def cancel(self, handle: str, *, timeout: Optional[float] = _UNSET) -> bool:
        """Cancel an outstanding routed request on its owning node."""
        client, request_id = self._resolve(handle)
        kwargs = {} if timeout is _UNSET else {"timeout": timeout}
        return client.cancel(request_id, **kwargs)

    def stats(self, *, timeout: Optional[float] = _UNSET) -> Dict[str, object]:
        """One fleet-wide snapshot: every ring node's ``stats`` op, folded
        by :func:`aggregate_node_stats` (per-node payloads preserved under
        ``"per_node"``)."""
        kwargs = {} if timeout is _UNSET else {"timeout": timeout}
        per_node = {
            node: self.client_for(node).stats(**kwargs) for node in self.ring.nodes
        }
        return aggregate_node_stats(per_node)


class FleetTarget:
    """A conversation's target: a routed fleet (borrowed).

    Submits go to each request's owning node, every result is stamped with
    the node that served it, and ``stats`` answers for the whole fleet.
    """

    def __init__(self, router: Router) -> None:
        self.router = router

    def submit(self, request: ExplanationRequest) -> str:
        return self.router.submit(
            [block.text for block in request.blocks],
            seed=request.seed,
            model=request.model,
            uarch=request.uarch,
            shards=request.shards,
            deadline=request.deadline,
        )

    def finished(self, handle: str) -> bool:
        return self.router.poll(handle) is not None

    def result(self, handle: str, client_id: Optional[str]) -> Dict[str, object]:
        node = self.router.node_of(handle)
        try:
            payload = dict(self.router.result(handle))
        except ServiceError as error:
            payload = {"status": "failed", "error": str(error)}
        # The node's own correlation id is router-internal; the stream's
        # contract echoes the *caller's* id.
        payload["id"] = client_id
        payload["node"] = node
        return payload

    def cancel(self, handle: str) -> bool:
        return self.router.cancel(handle)

    def stats(self, client_id: Optional[str]) -> Dict[str, object]:
        return {
            "id": client_id,
            "status": "done",
            "op": "stats",
            "stats": self.router.stats(),
        }


def route_stream(
    router: Router,
    lines: Iterable[str],
    out: TextIO,
    max_pending: int = 1024,
) -> int:
    """Pump a JSON-lines request stream through a routed fleet.

    The same conversation as :func:`~repro.service.transport.serve_stream`,
    with the fleet as its target: requests are routed and submitted as they
    are read, every line is answered in submission order (each result
    stamped with the node that served it), a ``stats`` op answers with the
    fleet-aggregated snapshot when its turn comes, and a ``cancel`` op acts
    on the owning node the moment its line is read.  Returns the count of
    explanation requests answered.
    """
    return pump(Conversation(FleetTarget(router)), lines, out, max_pending)
