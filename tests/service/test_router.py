"""The consistent-hash ring and the fleet router.

Two contracts under test.  The *ring* contract is structural: placement is
deterministic (CRC-32, no process-randomized ``hash()``), and removing a
node remaps only the keys that node owned.  The *router* contract is the
determinism parity bar every serving layer in this repo answers to: an
N-node fleet serves byte-identical explanation payloads to a single node —
routing chooses where a request runs, never what it computes.
"""

import io
import json

import pytest

from repro.bb.block import BasicBlock
from repro.explain.explainer import CometExplainer
from repro.models.analytical import AnalyticalCostModel
from repro.models.base import CachedCostModel
from repro.reporting.export import explanation_to_dict
from repro.service import (
    ExplanationService,
    HashRing,
    Router,
    SocketServer,
    aggregate_node_stats,
    parse_nodes,
    route_stream,
    routing_key,
    stable_key_hash,
)
from repro.service.router import parse_node
from repro.utils.errors import ServiceError

from tests.conftest import FAST_CONFIG, explanation_dict_fingerprint


class TestStableKeyHash:
    def test_deterministic_and_repr_based(self):
        assert stable_key_hash(("crude", "hsw")) == stable_key_hash(("crude", "hsw"))
        assert stable_key_hash("a") != stable_key_hash("b")


class TestParseNodes:
    def test_comma_separated_and_sequence_forms(self):
        assert parse_nodes("a:1,b:2") == ["a:1", "b:2"]
        assert parse_nodes(["a:1", "b:2"]) == ["a:1", "b:2"]
        assert parse_nodes(" a:1 , b:2 ") == ["a:1", "b:2"]

    def test_rejects_malformed_specs(self):
        with pytest.raises(ServiceError):
            parse_nodes("")
        with pytest.raises(ServiceError):
            parse_nodes("no-port")
        with pytest.raises(ServiceError):
            parse_nodes("host:notaport")
        with pytest.raises(ServiceError):
            parse_nodes("host:99999")
        with pytest.raises(ServiceError):
            parse_nodes("a:1,a:1")

    def test_parse_node_splits_host_and_port(self):
        assert parse_node("127.0.0.1:7421") == ("127.0.0.1", 7421)


class TestHashRing:
    def test_placement_is_deterministic(self):
        ring_a = HashRing(["a:1", "b:2", "c:3"])
        ring_b = HashRing(["a:1", "b:2", "c:3"])
        keys = [f"key-{i}" for i in range(100)]
        assert [ring_a.node_for(k) for k in keys] == [
            ring_b.node_for(k) for k in keys
        ]

    def test_all_nodes_receive_keys(self):
        ring = HashRing(["a:1", "b:2", "c:3"], replicas=64)
        owners = {ring.node_for(f"key-{i}") for i in range(300)}
        assert owners == {"a:1", "b:2", "c:3"}

    def test_removal_remaps_only_the_removed_nodes_keys(self):
        """The consistent-hashing property — the reason this is a ring and
        not the scheduler's modulo: shrinking the fleet invalidates one
        node's warmth, not everyone's."""
        ring = HashRing(["a:1", "b:2", "c:3", "d:4"], replicas=64)
        keys = [f"key-{i}" for i in range(500)]
        before = {key: ring.node_for(key) for key in keys}
        ring.remove("b:2")
        after = {key: ring.node_for(key) for key in keys}
        for key in keys:
            if before[key] == "b:2":
                assert after[key] != "b:2"
            else:
                assert after[key] == before[key], "non-owned key remapped"

    def test_addition_only_steals_keys_for_the_new_node(self):
        ring = HashRing(["a:1", "b:2"], replicas=64)
        keys = [f"key-{i}" for i in range(500)]
        before = {key: ring.node_for(key) for key in keys}
        ring.add("c:3")
        after = {key: ring.node_for(key) for key in keys}
        for key in keys:
            if after[key] != before[key]:
                assert after[key] == "c:3"

    def test_membership_api(self):
        ring = HashRing(["a:1"])
        assert "a:1" in ring and len(ring) == 1
        with pytest.raises(ValueError):
            ring.add("a:1")
        with pytest.raises(ValueError):
            ring.remove("zz:9")
        ring.remove("a:1")
        with pytest.raises(ServiceError):
            ring.node_for("anything")

    def test_replicas_validated(self):
        with pytest.raises(ValueError):
            HashRing(replicas=0)


class TestRoutingKey:
    def test_text_and_parsed_block_share_a_key(self):
        text = "add rcx, rax; mov rdx, rcx"
        block = BasicBlock.from_text(text.replace(";", "\n"))
        assert routing_key(text) == routing_key(block)
        assert routing_key([text]) == routing_key([block])

    def test_model_uarch_and_blocks_reach_the_key(self):
        base = routing_key("div rcx", "crude", "hsw")
        assert routing_key("add rax, rbx", "crude", "hsw") != base
        assert routing_key("div rcx", "uica", "hsw") != base
        assert routing_key("div rcx", "crude", "skl") != base

    def test_seed_is_deliberately_excluded(self):
        """Different seeds of one block share a node (and its query LRU);
        the routing key has no seed component at all."""
        assert routing_key("div rcx") == routing_key("div rcx")


@pytest.fixture
def fleet():
    """Three warm services behind sockets + the single-node oracle."""
    services = []
    servers = []
    for _ in range(3):
        service = ExplanationService(model="crude", config=FAST_CONFIG)
        server = SocketServer(service, port=0)
        server.start()
        services.append(service)
        servers.append(server)
    nodes = [f"{s.address[0]}:{s.address[1]}" for s in servers]
    try:
        yield nodes, services
    finally:
        for server in servers:
            server.close()
        for service in services:
            service.close()


class TestRouterParity:
    def test_fleet_byte_identical_to_direct_serial_oracle(self, fleet, block_fleet):
        """Requests spread over 3 nodes produce exactly the serial direct
        explanations — and the spread is real (more than one node serves)."""
        nodes, services = fleet
        direct = CachedCostModel(AnalyticalCostModel("hsw"))
        with Router(",".join(nodes), timeout=120) as router:
            # Node names carry ephemeral ports, so block ownership varies
            # from run to run: take at least 8 blocks, and more until their
            # owners span two nodes.
            workload = []
            owners = set()
            for seed, block in enumerate(block_fleet):
                if len(workload) >= 8 and len(owners) > 1:
                    break
                workload.append((block, seed))
                owners.add(router.ring.node_for(routing_key(block)))
            assert len(owners) > 1, "block_fleet never spread across the ring"
            for block, seed in workload:
                expected = explanation_dict_fingerprint(
                    explanation_to_dict(
                        CometExplainer(direct, FAST_CONFIG).explain(block, rng=seed)
                    )
                )
                payloads = router.explain(block, seed=seed)
                assert explanation_dict_fingerprint(payloads[0]) == expected
            stats = router.stats()
        assert stats["served"] == len(workload)
        assert stats["failed"] == 0
        serving_nodes = {
            node
            for node, snapshot in stats["per_node"].items()
            if snapshot["served"] > 0
        }
        assert serving_nodes == owners

    def test_repeat_requests_pin_to_one_node(self, fleet):
        nodes, _ = fleet
        with Router(",".join(nodes)) as router:
            owners = {router.node_for("div rcx; add rax, rbx") for _ in range(5)}
            assert len(owners) == 1

    def test_submit_poll_result_and_cancel_roundtrip(self, fleet):
        nodes, _ = fleet
        with Router(",".join(nodes), timeout=120) as router:
            handle = router.submit("div rcx; add rax, rbx", seed=3)
            assert router.node_of(handle) in nodes
            response = router.result(handle)
            assert response["status"] == "done"
            with pytest.raises(ServiceError):
                router.result(handle)  # consumed
            with pytest.raises(ServiceError):
                router.node_of("r999")

    def test_fleet_stats_aggregate_result_cache_tiers(self, tmp_path):
        """Each node's cache counters flow into one fleet snapshot."""
        services, servers = [], []
        for index in range(2):
            service = ExplanationService(
                model="crude",
                config=FAST_CONFIG,
                result_cache=str(tmp_path / f"node-{index}.cache"),
            )
            server = SocketServer(service, port=0)
            server.start()
            services.append(service)
            servers.append(server)
        nodes = ",".join(f"{s.address[0]}:{s.address[1]}" for s in servers)
        try:
            with Router(nodes, timeout=120) as router:
                for _ in range(2):  # second pass hits every node it lands on
                    router.explain("div rcx; add rax, rbx", seed=1)
                    router.explain("mov rdx, rcx; pop rbx", seed=2)
                stats = router.stats()
        finally:
            for server in servers:
                server.close()
            for service in services:
                service.close()
        cache = stats["result_cache"]
        assert cache is not None
        assert cache["lookups"] >= 4
        assert cache["hits"] >= 2
        assert cache["hit_rate"] > 0
        assert len(cache["path"]) >= 1


class TestAggregateNodeStats:
    def test_dispatcher_stats_ride_along_per_node(self):
        def node(*executed):
            return {
                "served": sum(executed),
                "dispatchers": len(executed),
                "dispatcher_stats": [
                    {"index": index, "executed": count, "stolen": 0, "busy": False}
                    for index, count in enumerate(executed)
                ],
            }

        merged = aggregate_node_stats(
            {"a:1": node(2, 3), "b:2": node(4), "c:3": {"served": 0}}
        )
        assert (merged["served"], merged["dispatchers"]) == (9, 3)
        assert "dispatcher_stats" not in merged
        assert merged["per_node"]["a:1"]["dispatcher_stats"][1]["executed"] == 3


class TestRouteStream:
    def test_stream_parity_and_ops(self, fleet, tiny_blocks):
        nodes, _ = fleet
        direct = CachedCostModel(AnalyticalCostModel("hsw"))
        block = tiny_blocks[0]
        expected = explanation_dict_fingerprint(
            explanation_to_dict(
                CometExplainer(direct, FAST_CONFIG).explain(block, rng=5)
            )
        )
        lines = [
            json.dumps({"id": "r1", "block": block.text, "seed": 5}),
            json.dumps({"id": "s1", "op": "stats"}),
            json.dumps({"id": "c1", "op": "cancel", "target": "never-seen"}),
            "not json at all {{{",
        ]
        out = io.StringIO()
        with Router(",".join(nodes), timeout=120) as router:
            served = route_stream(router, lines, out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        by_id = {response.get("id"): response for response in responses}
        assert served == 1
        assert by_id["r1"]["status"] == "done"
        assert by_id["r1"]["node"] in nodes
        assert explanation_dict_fingerprint(
            by_id["r1"]["explanations"][0]
        ) == expected
        assert by_id["s1"]["op"] == "stats"
        assert "per_node" in by_id["s1"]["stats"]
        assert by_id["c1"]["status"] == "failed"
        # the undecodable line failed in-band; the stream kept serving
        assert sum(1 for r in responses if r.get("status") == "failed") == 2

    def test_responses_keep_submission_order(self, fleet, tiny_blocks):
        nodes, _ = fleet
        lines = [
            json.dumps({"id": f"r{index}", "block": block.text, "seed": index})
            for index, block in enumerate(tiny_blocks)
        ]
        out = io.StringIO()
        with Router(",".join(nodes), timeout=120) as router:
            served = route_stream(router, lines, out)
        ids = [json.loads(line)["id"] for line in out.getvalue().splitlines()]
        assert served == len(tiny_blocks)
        assert ids == [f"r{index}" for index in range(len(tiny_blocks))]
