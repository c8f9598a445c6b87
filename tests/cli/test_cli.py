"""Tests for the ``python -m repro`` command-line interface."""

import json
import socket

import pytest

from repro.cli import build_parser, main
from repro.data.bhive import BHiveDataset


BLOCK_INLINE = "add rcx, rax; mov rdx, rcx; pop rbx"


@pytest.fixture()
def block_file(tmp_path):
    path = tmp_path / "block.s"
    path.write_text("add rcx, rax\nmov rdx, rcx\npop rbx\n")
    return path


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["predict", "--model", "nonsense"])


class TestPredict:
    def test_inline_block(self, capsys):
        assert main(["predict", "--model", "crude", "--block", BLOCK_INLINE]) == 0
        out = capsys.readouterr().out
        assert "cycles/iteration" in out

    def test_block_file(self, block_file, capsys):
        assert main(["predict", "--model", "uica", "--block-file", str(block_file)]) == 0
        assert "uica" in capsys.readouterr().out

    def test_missing_block_is_a_cli_error(self, capsys):
        assert main(["predict", "--model", "crude"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_assembly_is_a_cli_error(self, capsys):
        assert main(["predict", "--model", "crude", "--block", "not actual asm ???"]) == 2
        assert "error:" in capsys.readouterr().err


class TestFeaturesAndSpace:
    def test_features_lists_all_kinds(self, capsys):
        assert main(["features", "--block", BLOCK_INLINE]) == 0
        out = capsys.readouterr().out
        assert "inst" in out
        assert "num_instrs" in out

    def test_space_reports_log_sizes(self, block_file, capsys):
        assert main(["space", "--block-file", str(block_file)]) == 0
        out = capsys.readouterr().out
        assert "instructions" in out


class TestPerturb:
    def test_generates_requested_number_of_perturbations(self, capsys):
        assert (
            main(["perturb", "--block", BLOCK_INLINE, "--count", "4", "--seed", "1"]) == 0
        )
        out = capsys.readouterr().out
        assert out.count("# perturbation") == 4

    def test_preserve_count_keeps_block_length(self, capsys):
        assert (
            main(
                [
                    "perturb",
                    "--block",
                    BLOCK_INLINE,
                    "--count",
                    "5",
                    "--preserve-count",
                    "--seed",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        samples = [s for s in out.split("# perturbation")[1:]]
        for sample in samples:
            lines = [l for l in sample.splitlines() if l.strip() and not l.strip().isdigit()]
            assert len(lines) == 3

    def test_preserve_instruction_keeps_that_instruction(self, capsys):
        assert (
            main(
                [
                    "perturb",
                    "--block",
                    BLOCK_INLINE,
                    "--count",
                    "5",
                    "--preserve-instruction",
                    "1",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        samples = out.split("# perturbation")[1:]
        for sample in samples:
            assert "add rcx, rax" in sample

    def test_out_of_range_preserve_index_is_an_error(self, capsys):
        assert (
            main(
                [
                    "perturb",
                    "--block",
                    BLOCK_INLINE,
                    "--preserve-instruction",
                    "9",
                ]
            )
            == 2
        )
        assert "outside the block" in capsys.readouterr().err


class TestExplain:
    def test_text_output(self, capsys):
        code = main(
            [
                "explain",
                "--model",
                "crude",
                "--block",
                BLOCK_INLINE,
                "--epsilon",
                "0.25",
                "--relative-epsilon",
                "0.0",
                "--coverage-samples",
                "60",
                "--max-precision-samples",
                "40",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "prediction" in out.lower() or "Explanation" in out

    def test_json_output_is_parseable(self, capsys):
        code = main(
            [
                "explain",
                "--model",
                "crude",
                "--block",
                BLOCK_INLINE,
                "--epsilon",
                "0.25",
                "--relative-epsilon",
                "0.0",
                "--coverage-samples",
                "60",
                "--max-precision-samples",
                "40",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"].startswith("crude")
        assert isinstance(payload["features"], list)

    @pytest.mark.parametrize(
        "command",
        [
            ["explain", "--model", "crude", "--block", BLOCK_INLINE],
            ["serve", "--model", "crude"],
        ],
        ids=["explain", "serve"],
    )
    @pytest.mark.parametrize(
        "flag,value,field",
        [
            ("--delta", "1.5", "delta"),
            ("--epsilon", "-1", "epsilon"),
            ("--coverage-samples", "0", "coverage_samples"),
            ("--max-precision-samples", "5", "max_precision_samples"),
        ],
    )
    def test_out_of_range_explainer_flag_is_a_cli_error(
        self, capsys, command, flag, value, field
    ):
        assert main(command + [flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,field",
        [
            (["serve", "--dispatchers", "0"], "dispatchers"),
            (["serve", "--max-queue", "0"], "max_queue"),
            (["serve", "--max-sessions", "0"], "max_sessions"),
            (["serve", "--max-fused-requests", "0"], "max_fused_requests"),
            (["serve", "--request-timeout", "0"], "default_deadline"),
            (["route", "--nodes", "127.0.0.1:9", "--replicas", "0"], "replicas"),
        ],
        ids=[
            "dispatchers",
            "max-queue",
            "max-sessions",
            "max-fused-requests",
            "request-timeout",
            "replicas",
        ],
    )
    def test_out_of_range_service_flag_is_a_cli_error(self, capsys, argv, field):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_out_of_range_port_is_a_cli_error(self, capsys, port):
        assert main(["serve", "--model", "crude", "--port", port]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"got {port}" in err
        assert "Traceback" not in err

    def test_port_in_use_is_a_cli_error(self, capsys):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            port = taken.getsockname()[1]
            assert main(["serve", "--model", "crude", "--port", str(port)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot listen on 127.0.0.1:{port}")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["explain", "--model", "crude", "--block", "div rcx"],
            ["serve", "--model", "crude"],
        ],
        ids=["explain", "serve"],
    )
    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_process_workers_below_one_is_a_cli_error(self, capsys, argv, workers):
        assert main(argv + ["--backend", "process", "--workers", workers]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid backend setting:") and "workers" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["explain", "--model", "crude", "--block", "div rcx"],
            ["perturb", "--block", "div rcx"],
            ["optimize", "--model", "crude", "--block", "div rcx"],
            ["dataset", "--size", "2", "--output", "{tmp}/d.json"],
        ],
        ids=["explain", "perturb", "optimize", "dataset"],
    )
    def test_negative_seed_is_a_cli_error(self, capsys, tmp_path, argv):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main(argv + ["--seed", "-1"]) == 2
        assert not (tmp_path / "d.json").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: invalid seed -1")
        assert "Traceback" not in err


class TestExplainFleet:
    _FAST = [
        "--epsilon", "0.25", "--relative-epsilon", "0.0",
        "--coverage-samples", "60", "--max-precision-samples", "40",
    ]

    @pytest.fixture
    def fleet_file(self, tmp_path):
        path = tmp_path / "fleet.txt"
        path.write_text(
            "# comment lines and blanks are skipped\n"
            "\n"
            "add rcx, rax; mov rdx, rcx\n"
            "xor edx, edx; div rcx\n"
        )
        return path

    def test_blocks_file_explains_every_block(self, fleet_file, capsys):
        code = main(
            ["explain", "--model", "crude", "--blocks-file", str(fleet_file),
             "--json", *self._FAST]
        )
        assert code == 0
        payloads = json.loads(capsys.readouterr().out)
        assert len(payloads) == 2
        assert all(p["model"].startswith("crude") for p in payloads)

    def test_checkpointed_rerun_is_a_pure_replay(self, fleet_file, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        argv = [
            "explain", "--model", "crude", "--blocks-file", str(fleet_file),
            "--checkpoint", str(journal), "--json", "--seed", "3", *self._FAST,
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        first = json.loads(captured.out)
        assert "0 of 2 blocks recovered" in captured.err
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == first  # bit-for-bit replay
        assert "2 of 2 blocks recovered" in captured.err

    def test_checkpoint_without_blocks_file_is_a_cli_error(self, tmp_path, capsys):
        code = main(
            ["explain", "--model", "crude", "--block", BLOCK_INLINE,
             "--checkpoint", str(tmp_path / "run.jsonl")]
        )
        assert code == 2
        assert "--blocks-file" in capsys.readouterr().err

    def test_empty_fleet_is_a_cli_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing here\n")
        code = main(
            ["explain", "--model", "crude", "--blocks-file", str(empty)]
        )
        assert code == 2
        assert "no blocks" in capsys.readouterr().err


class TestServeFlags:
    def test_request_timeout_flag_parses(self):
        args = build_parser().parse_args(
            ["serve", "--model", "crude", "--request-timeout", "30"]
        )
        assert args.request_timeout == 30.0

    def test_request_timeout_defaults_to_none(self):
        args = build_parser().parse_args(["serve", "--model", "crude"])
        assert args.request_timeout is None

    def test_continuous_batching_flag_parses(self):
        args = build_parser().parse_args(
            ["serve", "--model", "crude", "--continuous-batching",
             "--max-fused-requests", "4"]
        )
        assert args.continuous_batching is True
        assert args.max_fused_requests == 4

    def test_serving_defaults(self):
        args = build_parser().parse_args(["serve", "--model", "crude"])
        assert args.continuous_batching is False
        assert args.dispatchers == 1
        assert args.result_cache is None
        assert args.max_fused_requests == 8

    def test_served_batch_runs_fused(self, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"id": "a", "block": "add rcx, rax", "seed": 1}\n'
            '{"id": "b", "block": "add rcx, rax", "seed": 2}\n'
        )
        code = main(
            ["serve", "--model", "crude", "--requests", str(requests),
             "--continuous-batching",
             "--coverage-samples", "60", "--max-precision-samples", "40"]
        )
        assert code == 0
        captured = capsys.readouterr()
        statuses = [json.loads(line)["status"] for line in captured.out.splitlines()]
        assert statuses == ["done", "done"]
        assert "fused ticks" in captured.err

    def test_served_batch_honours_request_timeout(self, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text('{"id": "a", "block": "add rcx, rax", "seed": 1}\n')
        code = main(
            ["serve", "--model", "crude", "--requests", str(requests),
             "--request-timeout", "60",
             "--coverage-samples", "60", "--max-precision-samples", "40"]
        )
        assert code == 0
        captured = capsys.readouterr()
        response = json.loads(captured.out.splitlines()[0])
        assert response["status"] == "done"


class TestOptimize:
    def test_optimize_reports_costs(self, capsys):
        code = main(
            [
                "optimize",
                "--model",
                "crude",
                "--block",
                "mov ecx, edx; xor edx, edx; div rcx; imul rax, rcx",
                "--steps",
                "10",
                "--unguided",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Predicted cost" in out


class TestBackendFlags:
    def test_serial_is_the_default_backend(self):
        args = build_parser().parse_args(
            ["explain", "--block", BLOCK_INLINE]
        )
        assert args.backend == "serial"
        assert args.workers is None

    def test_dataset_accepts_backend_flags(self):
        args = build_parser().parse_args(
            ["dataset", "--output", "x.json", "--backend", "process", "--workers", "2"]
        )
        assert args.backend == "process"
        assert args.workers == 2

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["explain", "--block", BLOCK_INLINE, "--backend", "quantum"]
            )

    @pytest.mark.parametrize(
        "command",
        [["explain", "--block", BLOCK_INLINE], ["serve"], ["dataset", "--output", "x.json"]],
        ids=["explain", "serve", "dataset"],
    )
    def test_thread_backend_rejected(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(command + ["--backend", "thread"])
        assert excinfo.value.code == 2
        error = capsys.readouterr().err
        assert "invalid choice" in error and "'thread'" in error

    def test_explain_runs_on_process_backend(self, capsys):
        code = main(
            [
                "explain",
                "--model",
                "crude",
                "--block",
                BLOCK_INLINE,
                "--epsilon",
                "0.25",
                "--relative-epsilon",
                "0.0",
                "--coverage-samples",
                "60",
                "--max-precision-samples",
                "40",
                "--backend",
                "process",
                "--workers",
                "2",
            ]
        )
        assert code == 0
        assert "Explanation" in capsys.readouterr().out

    def test_explain_backend_does_not_change_the_explanation(self, capsys):
        base_args = [
            "explain",
            "--model",
            "crude",
            "--block",
            BLOCK_INLINE,
            "--epsilon",
            "0.25",
            "--relative-epsilon",
            "0.0",
            "--coverage-samples",
            "60",
            "--max-precision-samples",
            "40",
            "--seed",
            "3",
            "--json",
        ]
        assert main(base_args) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(base_args + ["--backend", "process", "--workers", "2"]) == 0
        process = json.loads(capsys.readouterr().out)
        assert serial == process


class TestDataset:
    def test_dataset_synthesis_round_trips(self, tmp_path, capsys):
        output = tmp_path / "dataset.json"
        code = main(
            [
                "dataset",
                "--size",
                "12",
                "--min-instructions",
                "3",
                "--max-instructions",
                "6",
                "--uarchs",
                "hsw",
                "--seed",
                "4",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        assert output.exists()
        loaded = BHiveDataset.load(output)
        assert len(loaded) >= 12
        assert "wrote" in capsys.readouterr().out
