"""The benchmark's own tests.

    python -m pytest perfbench/selftest.py -q

Kept out of the repository's default test collection (the file name does
not match ``test_*.py``) because the smoke runs take a minute and start
servers.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import metrics  # noqa: E402
import serve  # noqa: E402
from layer_trace import ENTRY_POINTS, Tracer, self_times, summarize  # noqa: E402
from run import WORKLOADS  # noqa: E402


def _span(span_id, parent, layer, start, end, rows=0, aux=0, root=None):
    return (span_id, parent, layer, root, start, end, rows, aux)


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        _span(1, None, "root", 0.0, 10.0),
        _span(2, 1, "anchors", 1.0, 4.0),
        _span(3, 2, "perturb", 2.0, 3.0, rows=12),
        _span(4, 1, "model.cache", 5.0, 9.0, rows=12, aux=3),
        _span(5, 4, "model.kernel", 6.0, 8.5, rows=9),
    ]
    own = self_times(spans)
    assert own == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 1.5, 5: 2.5})
    summary = summarize(spans)
    assert summary["top_level_s"] == pytest.approx(10.0)
    assert summary["attributed_s"] == pytest.approx(7.0)
    assert summary["roots"] == 1
    assert summary["layers"]["model.cache"]["aux"] == 3
    values, table = metrics.layer_metrics(
        summary, ops=1, fallback_frac=0.0, overhead_frac=0.0, measured_per_s=0.1
    )
    assert values["trace.unattributed_frac"] == pytest.approx(0.3)
    assert values["model.cache_hit_rate"] == pytest.approx(0.25)
    assert values["perturb.us_per_row"] == pytest.approx(1e6 / 12)
    # The cost model's terms add up to the attributed self time.
    assert sum(row[3] for row in table) == pytest.approx(7000.0)
    assert values["tput.predicted_per_s"] == pytest.approx(1 / 7.0)


def test_self_time_clips_children_to_their_parent():
    spans = [_span(1, None, "root", 0.0, 1.0), _span(2, 1, "perturb", 0.5, 1.5)]
    assert self_times(spans)[1] == pytest.approx(0.5)


def test_missing_entry_point_is_skipped():
    tracer = Tracer().install(
        [
            ("repro.perturb.sampler", "PerturbationSampler.no_such_method", "perturb", "call", None),
            ("repro.no_such_module", "f", "perturb", "call", None),
        ]
    )
    tracer.uninstall()
    assert tracer.installed == []
    assert len(tracer.skipped) == 2


def test_every_entry_point_exists():
    tracer = Tracer().install()
    tracer.uninstall()
    assert tracer.skipped == [], "renamed entry points: update layer_trace.ENTRY_POINTS"
    assert len(tracer.installed) == len(ENTRY_POINTS)


def _layer_calls(tracer):
    return {name: entry["spans"] for name, entry in summarize(tracer.spans)["layers"].items()}


def test_corpus_layers_record_calls():
    """Fails when a layer a corpus workload claims to exercise goes silent."""
    session = corpus.set_up()
    block = corpus.synthesize_corpus(8)[6]
    with session, Tracer() as tracer:
        corpus.explain_loop(session, [block], seed=1)
    calls = _layer_calls(tracer)
    assert {layer: calls.get(layer, 0) for layer in corpus.LAYERS if not calls.get(layer)} == {}
    assert calls["root"] == 1


def test_service_layers_record_calls(tmp_path):
    """Fails when a layer serve-mixed claims to exercise goes silent."""
    from repro.service import ExplanationService, ServiceClient, SocketServer

    block = next(serve.request_stream(1)).block
    with Tracer() as tracer:
        with ExplanationService(
            model="crude",
            config=serve.cli_config(),
            continuous_batching=True,
            result_cache=str(tmp_path / "results.cache"),
        ) as service, SocketServer(service, port=0) as server:
            with ServiceClient(*server.address, timeout=60) as client:
                first = client.explain(block, seed=3)
                again = client.explain(block, seed=3)
    assert first == again
    calls = _layer_calls(tracer)
    assert {layer: calls.get(layer, 0) for layer in serve.LAYERS if not calls.get(layer)} == {}


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER


def _run(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            seconds,
            "--trace",
            str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run fails cleanly."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run(tmp_path, "corpus-analytical", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
