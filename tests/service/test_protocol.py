"""Tests for the JSON-lines wire protocol and the ``repro serve`` loop."""

import io
import json

import pytest

from repro.bb.block import BasicBlock
from repro.service import (
    ExplanationService,
    ServiceOp,
    request_from_dict,
    request_from_line,
    result_to_dict,
    serve_stream,
    stats_to_dict,
)
from repro.service.core import RequestStatus, ServiceResult
from repro.utils.errors import ServiceError


class TestRequestDecoding:
    def test_single_block_with_semicolons(self):
        request = request_from_dict({"block": "add rcx, rax; mov rdx, rcx"})
        assert len(request.blocks) == 1
        assert request.blocks[0].num_instructions == 2
        assert request.seed == 0

    def test_blocks_list_and_options(self):
        request = request_from_dict(
            {
                "blocks": ["div rcx", "add rax, rbx"],
                "seed": 7,
                "model": "uica",
                "uarch": "skl",
                "shards": "auto",
            }
        )
        assert len(request.blocks) == 2
        assert (request.seed, request.model, request.uarch) == (7, "uica", "skl")
        assert request.shards == "auto"

    def test_integer_shards(self):
        assert request_from_dict({"block": "div rcx", "shards": 3}).shards == 3

    @pytest.mark.parametrize("shards", ["lots", "", "2", [2]])
    def test_invalid_shards_rejected(self, shards):
        with pytest.raises(ServiceError, match="shards"):
            request_from_dict({"blocks": ["div rcx", "add rax, rbx"], "shards": shards})

    @pytest.mark.parametrize("seed", [-1, "-5"])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ServiceError, match="seed"):
            request_from_dict({"block": "div rcx", "seed": seed})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("seed", 1.7),
            ("seed", True),
            ("seed", False),
            ("seed", float("inf")),
            ("shards", 2.5),
            ("shards", True),
            ("deadline", True),
            ("deadline", float("nan")),
        ],
    )
    def test_booleans_and_fractions_rejected_not_truncated(self, field, value):
        with pytest.raises(ServiceError, match=field):
            request_from_dict({"blocks": ["div rcx", "add rax, rbx"], field: value})

    def test_integral_numbers_decode(self):
        request = request_from_dict(
            {"block": "div rcx", "seed": 2.0, "shards": 3.0, "deadline": 1}
        )
        assert (request.seed, request.shards, request.deadline) == (2, 3, 1.0)

    def test_block_and_blocks_together_rejected(self):
        with pytest.raises(ServiceError):
            request_from_dict({"block": "div rcx", "blocks": ["div rcx"]})

    def test_missing_blocks_rejected(self):
        with pytest.raises(ServiceError):
            request_from_dict({"seed": 1})

    def test_json_line(self):
        client_id, request = request_from_line('{"id": 5, "block": "div rcx"}')
        assert client_id == "5"
        assert len(request.blocks) == 1

    def test_bare_text_line(self):
        client_id, request = request_from_line("add rcx, rax; pop rbx\n")
        assert client_id is None
        assert request.blocks[0].num_instructions == 2

    def test_invalid_json_rejected_with_client_id_tagged(self):
        with pytest.raises(ServiceError):
            request_from_line("{not json")
        with pytest.raises(ServiceError) as excinfo:
            request_from_line('{"id": "r9", "seed": 1}')
        assert excinfo.value.client_id == "r9"

    def test_non_object_json_rejected(self):
        with pytest.raises(ServiceError):
            request_from_line("[1, 2, 3]")

    def test_empty_line_rejected(self):
        with pytest.raises(ServiceError):
            request_from_line("   ")

    def test_stats_op_line(self):
        client_id, request = request_from_line('{"id": "s1", "op": "stats"}')
        assert client_id == "s1"
        assert isinstance(request, ServiceOp)
        assert request.op == "stats"

    def test_unknown_op_rejected_with_client_id_tagged(self):
        with pytest.raises(ServiceError) as excinfo:
            request_from_line('{"id": "s2", "op": "frobnicate"}')
        assert "unknown op" in str(excinfo.value)
        assert excinfo.value.client_id == "s2"

    def test_op_mixed_with_explanation_fields_rejected(self):
        with pytest.raises(ServiceError) as excinfo:
            request_from_line('{"id": "s3", "op": "stats", "block": "div rcx", "seed": 3}')
        assert "cannot carry explanation fields" in str(excinfo.value)
        assert "block" in str(excinfo.value) and "seed" in str(excinfo.value)
        assert excinfo.value.client_id == "s3"


class TestResultEncoding:
    def test_failed_result_carries_error(self):
        result = ServiceResult(
            request_id="req-1",
            status=RequestStatus.FAILED,
            explanations=(),
            error="boom",
            model="crude",
            uarch="hsw",
            seconds=0.25,
        )
        payload = result_to_dict(result, "client-7")
        assert payload["id"] == "client-7"
        assert payload["status"] == "failed"
        assert payload["error"] == "boom"
        assert "explanations" not in payload


class TestServeStream:
    def _serve(self, lines, fast_config, **service_kwargs):
        out = io.StringIO()
        with ExplanationService(
            model="crude", config=fast_config, **service_kwargs
        ) as service:
            served = serve_stream(service, lines, out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        return served, responses

    def test_requests_answered_in_submission_order(self, fast_config):
        lines = [
            '{"id": "a", "block": "add rcx, rax; mov rdx, rcx; pop rbx", "seed": 0}',
            "",  # blank lines are skipped
            '{"id": "b", "block": "div rcx", "seed": 1}',
            "xor edx, edx; div rcx",
        ]
        served, responses = self._serve(lines, fast_config)
        assert served == 3
        assert [r["id"] for r in responses] == ["a", "b", None]
        for response in responses:
            assert response["status"] == "done"
            assert len(response["explanations"]) == 1
            assert response["model"] == "crude"

    def test_explanations_serialize_the_result_payload(self, fast_config):
        _, responses = self._serve(['{"block": "div rcx", "seed": 3}'], fast_config)
        explanation = responses[0]["explanations"][0]
        assert explanation["block"] == ["div rcx"]
        assert "precision" in explanation and "coverage" in explanation
        assert isinstance(explanation["features"], list)

    def test_bad_lines_fail_in_band_and_stream_continues(self, fast_config):
        lines = [
            "{broken json",
            '{"id": "x", "seed": 2}',  # no block
            '{"id": "y", "block": "not actual asm ???"}',  # parse failure
            '{"id": "ok", "block": "div rcx"}',
        ]
        served, responses = self._serve(lines, fast_config)
        assert served == 1
        by_id = {r["id"]: r for r in responses}
        assert by_id[None]["status"] == "failed"  # broken json
        assert by_id["x"]["status"] == "failed"
        assert "block" in by_id["x"]["error"]
        assert by_id["y"]["status"] == "failed"
        assert "cannot parse" in by_id["y"]["error"]
        assert by_id["ok"]["status"] == "done"

    def test_invalid_shards_fail_in_band_fused_or_not(self, fast_config):
        # Rejected at admission, so the answer cannot depend on whether the
        # service would have planned shards (unfused) or ignored them (fused).
        lines = [
            '{"id": "bad", "blocks": ["add rax, rbx", "mov rcx, rdx"], "shards": "lots"}',
            '{"id": "ok", "block": "div rcx"}',
        ]
        for fused in (False, True):
            served, responses = self._serve(
                lines, fast_config, continuous_batching=fused
            )
            by_id = {r["id"]: r for r in responses}
            assert served == 1
            assert by_id["bad"]["status"] == "failed"
            assert "shards" in by_id["bad"]["error"]
            assert by_id["ok"]["status"] == "done"

    def test_negative_seed_fails_in_band_fused_or_not(self, fast_config):
        # Rejected at admission: numpy would only refuse it mid-run.
        lines = [
            '{"id": "bad", "block": "div rcx", "seed": -1}',
            '{"id": "ok", "block": "div rcx", "seed": 1}',
        ]
        for fused in (False, True):
            served, responses = self._serve(
                lines, fast_config, continuous_batching=fused
            )
            by_id = {r["id"]: r for r in responses}
            assert served == 1
            assert by_id["bad"]["status"] == "failed"
            assert "seed" in by_id["bad"]["error"]
            assert by_id["ok"]["status"] == "done"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("seed", "1.7"),
            ("seed", "true"),
            ("shards", "2.5"),
            ("shards", "true"),
            ("shards", "-Infinity"),
            ("deadline", "true"),
            ("deadline", "NaN"),
            ("seed", "Infinity"),  # int() raised OverflowError, ending the stream
        ],
    )
    def test_booleans_and_fractions_fail_in_band(self, fast_config, field, value):
        # int()/float() would run these as seed 1, 2 or 1 shards, or a 1 s
        # deadline: a different request from the one sent.
        lines = [
            f'{{"id": "bad", "blocks": ["div rcx", "add rax, rbx"], "{field}": {value}}}',
            '{"id": "ok", "block": "div rcx", "seed": 1}',
        ]
        served, responses = self._serve(lines, fast_config)
        by_id = {r["id"]: r for r in responses}
        assert served == 1
        assert by_id["bad"]["status"] == "failed"
        assert field in by_id["bad"]["error"]
        assert by_id["ok"]["status"] == "done"

    def test_multi_block_request_roundtrip(self, fast_config):
        lines = ['{"id": "fleet", "blocks": ["div rcx", "add rax, rbx"], "seed": 2}']
        served, responses = self._serve(lines, fast_config)
        assert served == 1
        assert len(responses[0]["explanations"]) == 2

    def test_stats_op_answered_in_submission_order(self, fast_config):
        lines = [
            '{"id": "a", "block": "div rcx", "seed": 0}',
            '{"id": "s", "op": "stats"}',
            '{"id": "b", "block": "add rax, rbx", "seed": 1}',
        ]
        served, responses = self._serve(lines, fast_config, dispatchers=2)
        # Ops are answered but not counted as served requests (the stream's
        # served total agrees with the service's own accounting).
        assert served == 2
        assert [r["id"] for r in responses] == ["a", "s", "b"]
        stats_response = responses[1]
        assert stats_response["status"] == "done"
        assert stats_response["op"] == "stats"
        stats = stats_response["stats"]
        # The snapshot is taken when its turn to answer comes: request "a"
        # has been served by then.
        assert stats["served"] >= 1
        assert stats["dispatchers"] == 2
        assert len(stats["dispatcher_stats"]) == 2
        assert all(d["turn_wait_s"] >= 0.0 for d in stats["dispatcher_stats"])
        assert stats["pool"]["sessions"] == 1
        assert stats["sessions"] == [["crude", "hsw"]]

    def test_pending_backlog_is_bounded_by_backpressure(self, fast_config):
        """An op flood on stdio stalls reading (flush) instead of buffering
        without limit — and every op is still answered, in order."""
        lines = ['{"id": "e", "block": "div rcx", "seed": 0}'] + [
            f'{{"id": "s{index}", "op": "stats"}}' for index in range(10)
        ]
        out = io.StringIO()
        with ExplanationService(model="crude", config=fast_config) as service:
            served = serve_stream(service, lines, out, max_pending=3)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert served == 1  # ops are not counted as served requests
        assert [r["id"] for r in responses] == ["e"] + [f"s{i}" for i in range(10)]
        assert all(r["status"] == "done" for r in responses)

    def test_stats_to_dict_is_json_safe(self, fast_config):
        with ExplanationService(model="crude", config=fast_config) as service:
            service.explain(BasicBlock.from_text("div rcx"))
            payload = stats_to_dict(service.stats(), "c9")
        decoded = json.loads(json.dumps(payload))
        assert decoded["id"] == "c9"
        assert decoded["stats"]["submitted"] == 1
        assert decoded["stats"]["pool"]["builds"] == 1

    def test_stats_resilience_fields(self, fast_config):
        """The service runs no checkpointed calls, so the wire carries only
        the counters it can move."""
        with ExplanationService(model="crude", config=fast_config) as service:
            resilience = stats_to_dict(service.stats(), "c9")["stats"]["resilience"]
        assert sorted(resilience) == [
            "deadline_expired",
            "worker_fallbacks",
            "worker_restarts",
            "worker_retries",
        ]


class TestServeCli:
    def test_serve_subcommand_reads_request_file(self, tmp_path, capsys):
        from repro.cli import main

        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"id": "r1", "block": "add rcx, rax; mov rdx, rcx; pop rbx"}\n'
            "div rcx; add rax, rbx\n"
        )
        code = main(
            [
                "serve",
                "--model",
                "crude",
                "--requests",
                str(requests),
                "--coverage-samples",
                "80",
                "--max-precision-samples",
                "40",
                "--max-queue",
                "4",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        responses = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["id"] for r in responses] == ["r1", None]
        assert all(r["status"] == "done" for r in responses)
        assert "served 2 requests" in captured.err

    def test_serve_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.max_queue == 64
        assert args.max_sessions == 4
        assert args.requests is None
        assert args.backend == "serial"
