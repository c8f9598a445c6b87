"""The ``serve-mixed`` workload: ``repro serve`` over TCP, as a child process.

The server runs ``serve --model crude --port 0 --dispatchers 2
--continuous-batching --result-cache <tmp>`` with the command line's default
explanation config.  One ``ServiceClient`` connection drives it as a closed
loop with a fixed window of 8 outstanding requests: a new request is sent
only when the oldest answer arrives.  The request stream mixes

* first sightings of a (block, seed, uarch) item — result-cache writes;
* exact repeats of an item answered earlier — result-cache reads;
* two seeds per block, sent back to back — they fuse into shared ticks and
  share query-cache entries;
* two uarch keys (``hsw``, ``skl``) — they spread across the dispatchers.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.bb.block import BasicBlock
from repro.cli import build_parser
from repro.data.synthesis import BlockSynthesizer
from repro.explain.config import ExplainerConfig
from repro.models.base import CachedCostModel
from repro.models.registry import build_cost_model
from repro.reporting.export import explanation_to_dict
from repro.runtime.session import ExplanationSession
from repro.service import ServiceClient

import checks
import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

UARCHS = ("hsw", "skl")
WINDOW = 8
SEEDS_PER_BLOCK = 2
REPEAT_FRACTION = 0.5
#: New items come from a fixed pool: blocks synthesized from a constant seed
#: (sizes cycling through this range), each with fixed explanation seeds.
#: The workload seed drives the traffic: the uarch order and which items
#: repeat.  An item's explanation cost varies a lot with its seed, so
#: seeded items made a run's work, not the code, the largest difference
#: between seeds.  Under the default config such blocks explain in tens of
#: milliseconds.
POOL_SEED = 0
MIN_SIZE, MAX_SIZE = 4, 7
#: Identical measured passes per run, each on a freshly launched server.
#: Throughput takes the fastest pass chunk by chunk: the host has slow
#: spells of seconds to tens of seconds, and five passes spread over the
#: run get around most of them.  Latency percentiles are over every request
#: of every pass.
PASSES = 5
#: Completions per chunk when taking the fastest pass's time chunk by chunk.
CHUNK = 50
#: The work of a run is fixed by ``--seconds`` alone, so that it does not
#: change with the host's speed: a pass sends ``seconds × NOMINAL_RATE /
#: passes`` requests, rounded to whole chunks.  The rate is about what the
#: 2-CPU host this was tuned on manages, launches included.
NOMINAL_RATE = 55.0
#: No pass starts once this many times ``--seconds`` have gone by, so a much
#: slower program still ends in time (with fewer passes).
OVERRUN = 2.5
#: Request latency percentile reported as ``latency_tail_ms``.  At
#: ``--seconds 45`` a run holds 2,500 latency samples, so 25 lie beyond it.
TAIL_PERCENTILE = 99
#: Distinct answered items compared against a direct uncached, unfused
#: ExplanationSession, and certified anchors re-scored on fresh samples.
REFERENCE_CHECKS = 12
HELDOUT_ANCHORS = 24
HELDOUT_SAMPLES = 200
WARMUP_BLOCK = "mov ecx, edx\nxor edx, edx\ndiv rcx"
START_TIMEOUT = 60.0
RESULT_TIMEOUT = 120.0

#: Layers serve-mixed exercises (the trace must see them all).
LAYERS = (
    "perturb",
    "model.cache",
    "model.kernel",
    "precision",
    "coverage",
    "anchors",
    "result_cache.get",
    "result_cache.put",
    "transport.codec",
)


@dataclass(frozen=True)
class Item:
    """One distinct unit of work: explain ``block`` with ``seed`` on ``uarch``."""

    number: int
    block: BasicBlock
    seed: int
    uarch: str


@dataclass(frozen=True)
class Record:
    """One answered request: latency and completion time are in seconds,
    the latter from the start of the pass."""

    item: Item
    response: dict
    latency: float
    done_at: float


def cli_config() -> ExplainerConfig:
    """The explanation config ``repro serve`` builds from its defaults."""
    args = build_parser().parse_args(["serve", "--model", "crude"])
    return ExplainerConfig(
        epsilon=args.epsilon,
        relative_epsilon=args.relative_epsilon,
        delta=args.delta,
        coverage_samples=args.coverage_samples,
        max_precision_samples=args.max_precision_samples,
    )


def request_stream(seed: int) -> Iterator[Item]:
    """The seeded request stream (endless).

    A repeat is drawn only from items first sent at least ``WINDOW``
    positions earlier; in a closed loop of that window they have been
    answered, so a repeat is a result-cache read, never a duplicate in
    flight.  Repeats make up ``REPEAT_FRACTION`` of the stream as soon as
    that many are eligible, so every run does the same number of first
    sightings.
    """
    rng = np.random.default_rng([seed, 2])
    synthesizer = BlockSynthesizer(rng=POOL_SEED)
    pool_rng = np.random.default_rng([POOL_SEED, 2])
    span = MAX_SIZE - MIN_SIZE + 1
    fresh: deque = deque()
    seen: List[Tuple[int, Item]] = []
    eligible = 0
    blocks = 0
    repeats = 0
    position = 0
    while True:
        while eligible < len(seen) and seen[eligible][0] <= position - WINDOW:
            eligible += 1
        if eligible and repeats < REPEAT_FRACTION * position:
            item = seen[int(rng.integers(eligible))][1]
            repeats += 1
        else:
            if not fresh:
                block = synthesizer.generate(MIN_SIZE + blocks % span, rng=pool_rng)
                block = BasicBlock.from_text(block.text)  # as the server parses it
                blocks += 1
                item_seeds = pool_rng.integers(0, 2**31 - 1, (len(UARCHS), SEEDS_PER_BLOCK))
                for u in rng.permutation(len(UARCHS)):
                    for item_seed in item_seeds[u]:
                        fresh.append(Item(len(seen) + len(fresh), block, int(item_seed), UARCHS[u]))
            item = fresh.popleft()
            seen.append((position, item))
        yield item
        position += 1


class ServerProcess:
    """A ``repro serve`` child on an ephemeral port, in a scratch directory."""

    def __init__(self, workdir: Path, summary_path: Optional[Path] = None) -> None:
        self.log_path = workdir / "server.log"
        argv = [
            "serve",
            "--model",
            "crude",
            "--port",
            "0",
            "--dispatchers",
            "2",
            "--continuous-batching",
            "--result-cache",
            str(workdir / "results.cache"),
        ]
        if summary_path is None:
            command = [sys.executable, "-m", "repro", *argv]
        else:
            command = [sys.executable, str(HERE / "serve_child.py"), str(summary_path), "--", *argv]
        env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                command,
                cwd=ROOT,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=log,
            )
        try:
            self.address = self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self) -> Tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            text = self.log_path.read_text(errors="replace")
            match = re.search(r"serving on (\S+):(\d+)", text)
            if match:
                return match.group(1), int(match.group(2))
            if self.process.poll() is not None:
                raise RuntimeError(f"repro serve exited early:\n{text[-2000:]}")
            time.sleep(0.01)
        raise RuntimeError("repro serve did not start listening in time")

    def peak_rss_mb(self) -> float:
        return metrics.process_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def warm_up(client: ServiceClient) -> None:
    for uarch in UARCHS:
        client.explain(WARMUP_BLOCK, seed=0, uarch=uarch, timeout=RESULT_TIMEOUT)


def launch(workdir: Path, summary_path: Optional[Path] = None):
    """Start a server, connect and warm it up: the serve workload's setup."""
    workdir.mkdir()
    server = ServerProcess(workdir, summary_path)
    try:
        client = ServiceClient(*server.address, timeout=RESULT_TIMEOUT).connect()
        try:
            warm_up(client)
        except BaseException:
            client.close()
            raise
    except BaseException:
        server.stop()
        raise
    return server, client


def requests_per_pass(seconds: float, passes: int) -> int:
    """Requests per pass for a run of ``seconds`` made of ``passes`` passes."""
    return CHUNK * max(1, round(seconds * NOMINAL_RATE / passes / CHUNK))


def drive(client, stream, count: int) -> List[Record]:
    """Closed loop with ``WINDOW`` requests outstanding: send ``count``
    requests, then drain."""
    outstanding: deque = deque()
    records: List[Record] = []
    start = time.perf_counter()
    while True:
        while len(outstanding) < WINDOW and len(records) + len(outstanding) < count:
            item = next(stream)
            sent_at = time.perf_counter()
            request_id = client.submit(item.block, seed=item.seed, uarch=item.uarch)
            outstanding.append((request_id, item, sent_at))
        if not outstanding:
            return records
        request_id, item, sent_at = outstanding.popleft()
        response = client.result(request_id, timeout=RESULT_TIMEOUT)
        now = time.perf_counter()
        records.append(Record(item, response, now - sent_at, now - start))


def measured_pass(workdir, seed, count, summary_path=None):
    """Launch (timed as setup), drive one pass, read stats and peak RSS, stop."""
    began = time.perf_counter()
    server, client = launch(workdir, summary_path)
    setup = time.perf_counter() - began
    try:
        records = drive(client, request_stream(seed), count)
        stats = client.stats()
        peak_rss = server.peak_rss_mb()
    finally:
        client.close()
        server.stop()
    return setup, records, stats, peak_rss


def _answer(record: Record) -> Optional[dict]:
    response = record.response
    if response.get("status") == "done" and response.get("explanations"):
        return response["explanations"][0]
    return None


def _response_failures(records, threshold, failures) -> None:
    """Structural checks on every response; repeats equal first answers."""
    first: Dict[int, dict] = {}
    for index, record in enumerate(records):
        problem = checks.response_problem(record.response, record.item.block, threshold)
        if problem is None:
            answer = checks.comparable(_answer(record))
            if first.setdefault(record.item.number, answer) != answer:
                problem = "repeat answered differently from its first sighting"
        if problem is not None:
            failures.setdefault(index, problem)


def _parity_failures(expected, got, label, failures) -> None:
    """Two passes over the same requests must answer alike."""
    for index, (left, right) in enumerate(zip(expected, got)):
        a, b = _answer(left), _answer(right)
        if a is not None and b is not None and checks.comparable(a) != checks.comparable(b):
            failures.setdefault(index, f"{label} answered differently")


def _first_sightings(records) -> List[Tuple[int, Item, dict]]:
    seen = set()
    distinct = []
    for index, record in enumerate(records):
        answer = _answer(record)
        if record.item.number not in seen and answer is not None:
            seen.add(record.item.number)
            distinct.append((index, record.item, answer))
    return distinct


def _reference_failures(records, seed, config, failures) -> None:
    """A seeded sample of answers must equal a direct uncached, unfused
    ExplanationSession for the same (block, seed, uarch)."""
    distinct = _first_sightings(records)
    rng = np.random.default_rng([seed, 3])
    picks = rng.choice(len(distinct), size=min(REFERENCE_CHECKS, len(distinct)), replace=False)
    for pick in sorted(int(p) for p in picks):
        index, item, answer = distinct[pick]
        model = build_cost_model("crude", item.uarch, cached=False)
        with ExplanationSession(model, config, backend="serial") as session:
            expected = explanation_to_dict(session.explain(item.block, rng=item.seed))
        if checks.comparable(expected) != checks.comparable(answer):
            failures.setdefault(index, "differs from a direct uncached, unfused session")


def _heldout_mean(records, seed, config, failures) -> float:
    """Mean held-out precision of a seeded sample of certified answers
    (answers that failed a check are left out)."""
    certified = [
        entry
        for entry in _first_sightings(records)
        if entry[2]["meets_threshold"] and entry[0] not in failures
    ]
    rng = np.random.default_rng([seed, 4])
    picks = rng.choice(len(certified), size=min(HELDOUT_ANCHORS, len(certified)), replace=False)
    models = {u: CachedCostModel(build_cost_model("crude", u, cached=False)) for u in UARCHS}
    scores = []
    for pick in sorted(int(p) for p in picks):
        _index, item, answer = certified[pick]
        scores.append(
            checks.heldout_precision(
                models[item.uarch],
                item.block,
                checks.features_from_dicts(item.block, answer["features"]),
                answer["prediction"],
                answer["epsilon"],
                config.perturbation,
                seed=item.seed + 7_777_777,
                samples=HELDOUT_SAMPLES,
            )
        )
    return metrics.mean(scores)


def _chunk_times(records: List[Record]) -> List[float]:
    """Wall time of each run of ``CHUNK`` consecutive completions."""
    ends = [records[i].done_at for i in range(CHUNK - 1, len(records), CHUNK)]
    if len(records) % CHUNK:
        ends.append(records[-1].done_at)
    return [end - start for start, end in zip([0.0] + ends, ends)]


def run(seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    config = cli_config()
    scratch = Path(tempfile.mkdtemp(prefix="serve-", dir=out_dir))
    try:
        if trace:
            return _run_traced(seed, seconds, scratch, config, out_dir)
        return _run_untraced(seed, seconds, scratch, config)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run_untraced(seed, seconds, scratch, config) -> dict:
    """``PASSES`` passes sending the same requests, each on a freshly
    launched server.  Throughput takes the fastest pass chunk by chunk, which
    filters out periods when the host runs slow; latency percentiles are over
    every request of every pass.  Each pass's launch is one setup sample.
    """
    threshold = config.precision_threshold
    count = requests_per_pass(seconds, PASSES)
    setups, passes, peaks, failures = [], [], [], {}
    stats: dict = {}
    began_run = time.perf_counter()
    for number in range(PASSES):
        if passes and time.perf_counter() - began_run > OVERRUN * seconds:
            break
        setup, records, pass_stats, peak = measured_pass(scratch / f"pass{number}", seed, count)
        setups.append(setup)
        passes.append(records)
        peaks.append(peak)
        if number == 0:
            stats = pass_stats
        else:
            _parity_failures(passes[0], records, f"pass {number + 1}", failures)

    records = passes[0]
    _response_failures(records, threshold, failures)
    _reference_failures(records, seed, config, failures)
    answers = [a for a in map(_answer, records) if a is not None]
    # Repeats are answered from the result cache; the work is in the first
    # sightings.
    first = _first_sightings(records)
    latencies = [r.latency for p in passes for r in p]
    busy = sum(min(column) for column in zip(*map(_chunk_times, passes)))
    nonempty = [a["coverage"] for a in answers if a["features"]]
    ops = len(records)
    cache = stats.get("result_cache") or {}
    values = {
        "setup_s": metrics.median(setups),
        "expl_per_s": len(answers) / busy,
        "latency_p50_ms": 1000.0 * metrics.percentile(latencies, 50),
        "latency_tail_ms": 1000.0 * metrics.percentile(latencies, TAIL_PERCENTILE),
        "success_frac": 1.0 - len(failures) / ops,
        "model_queries_per_expl": metrics.mean([a["num_queries"] for _, _, a in first]),
        "precision_mean": metrics.mean([a["precision"] for a in answers]),
        "certified_frac": metrics.mean([float(a["meets_threshold"]) for a in answers]),
        "heldout_precision_mean": _heldout_mean(records, seed, config, failures),
        "coverage_mean": metrics.mean(nonempty),
        "peak_rss_mb": max(peaks),
    }
    lines = [
        f"{ops} requests x {len(passes)} passes (pass times "
        + ", ".join(f"{p[-1].done_at:.2f}" for p in passes)
        + f" s) over one connection, window {WINDOW}; latency percentiles over "
        f"all {len(latencies)} samples of all passes; "
        f"setup launches the server {len(setups)}x",
        f"req_per_s {ops / busy:.3f}; req_latency_p50_ms {values['latency_p50_ms']:.2f}; "
        f"req_latency_p{TAIL_PERCENTILE}_ms {values['latency_tail_ms']:.2f}; "
        f"result-cache hit rate {cache.get('hit_rate', 0.0):.3f}; "
        f"coverage over {len(nonempty)} non-empty anchors; "
        f"failed_frac {len(failures) / ops:.4f}; peak_rss_mb is the server's",
    ]
    lines += [f"FAILED request {index}: {problem}" for index, problem in sorted(failures.items())]
    return {
        "ops": ops,
        "attempted": ops,
        "failed": len(failures),
        "metrics": values,
        "lines": lines,
    }


def _service_layers(records: List[Record], stats) -> Dict[str, float]:
    """Per-layer metrics read off the responses and the ``stats`` op."""
    exec_ms = [1000.0 * r.response["seconds"] for r in records]
    wait_ms = [1000.0 * r.latency - exec_time for r, exec_time in zip(records, exec_ms)]
    fusion = stats.get("fusion") or {}
    dispatchers = stats.get("dispatcher_stats") or []
    executed = [d["executed"] for d in dispatchers]
    ops = len(records)
    served = stats.get("served") or 1
    return {
        "service.exec_ms_p50": metrics.percentile(exec_ms, 50),
        "service.exec_ms_p99": metrics.percentile(exec_ms, 99),
        "service.wait_ms_p50": metrics.percentile(wait_ms, 50),
        "service.wait_ms_p99": metrics.percentile(wait_ms, 99),
        "batching.mean_rounds_per_tick": float(fusion.get("mean_occupancy", 0.0)),
        "batching.ticks_per_op": fusion.get("ticks", 0) / ops,
        "batching.calls_saved_per_op": (fusion.get("rounds_fused", 0) - fusion.get("ticks", 0)) / ops,
        "scheduler.stolen_frac": sum(d["stolen"] for d in dispatchers) / served,
        "scheduler.exec_balance": min(executed) / max(executed) if executed and max(executed) else 0.0,
        "result_cache.hit_rate": float((stats.get("result_cache") or {}).get("hit_rate", 0.0)),
    }


def _run_traced(seed, seconds, scratch, config, out_dir) -> dict:
    """An untraced server, then a traced server (launched through
    ``serve_child.py``) answering the same requests."""
    ops = requests_per_pass(seconds, 2)
    _, baseline, stats, _ = measured_pass(scratch / "plain", seed, ops)
    summary_path = out_dir / f"trace-serve-mixed-seed{seed}.json"
    _, traced, _, _ = measured_pass(scratch / "traced", seed, ops, summary_path)
    summary = json.loads(summary_path.read_text())

    failures: Dict[int, str] = {}
    _response_failures(traced, config.precision_threshold, failures)
    _parity_failures(baseline, traced, "traced pass", failures)
    silent = [layer for layer in LAYERS if not summary["layers"].get(layer, {}).get("spans")]
    perturbations = summary["perturbations"]
    plain = baseline[-1].done_at
    values, table = metrics.layer_metrics(
        summary,
        ops,
        fallback_frac=summary["perturb_fallbacks"] / perturbations if perturbations else 0.0,
        overhead_frac=traced[-1].done_at / plain - 1.0,
        measured_per_s=ops / plain,
    )
    values.update(_service_layers(baseline, stats))
    lines = [
        f"traced {ops} requests ({summary['spans']} spans); untraced pass "
        f"{plain:.2f} s, traced pass {traced[-1].done_at:.2f} s",
        f"skipped entry points: {', '.join(summary['skipped']) or 'none'}",
    ]
    lines += metrics.describe_cost_model(table, values)
    lines += [f"FAILED request {index}: {problem}" for index, problem in sorted(failures.items())]
    lines += [f"FAILED layer {layer} recorded no calls" for layer in silent]
    return {
        "ops": ops,
        "attempted": ops + len(LAYERS),
        "failed": len(failures) + len(silent),
        "metrics": values,
        "lines": lines,
    }
