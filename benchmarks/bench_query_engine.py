"""Throughput benchmark of the batched query engine.

Measures the end-to-end explanation pipeline in two configurations:

* **sequential** — the pre-batching engine: one ``model.predict`` call per
  perturbed block and the scalar reference implementation of Γ
  (``PerturbationConfig(vectorized=False)``),
* **batched** — the batched query engine: every precision-refinement round
  routes all its perturbed blocks through a single ``predict_batch`` call,
  Γ runs its vectorized fast path, and the cache wrapper dedupes batches.

Reported per mode: wall-clock time, explanations/sec, real model queries,
queries/sec and the cache hit rate.  A raw model-level microbenchmark
(``predict_many`` vs ``predict_batch`` on a fixed perturbation set) is
included so the model-side speedup is visible independently of the sampler.

Run standalone (writes ``BENCH_query_engine.json`` at the repository root):

    PYTHONPATH=src python benchmarks/bench_query_engine.py
    PYTHONPATH=src python benchmarks/bench_query_engine.py --quick --model crude
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import os

from repro.data.synthesis import BlockSynthesizer
from repro.explain.config import ExplainerConfig
from repro.explain.explainer import CometExplainer
from repro.models.base import CachedCostModel
from repro.models.registry import build_cost_model
from repro.perturb.config import PerturbationConfig
from repro.runtime.backend import available_backends
from repro.runtime.session import ExplanationSession

#: Report sections, in run (and report) order.  ``core`` is the
#: sequential/batched/microbench trio the report is named after; the rest
#: are independently selectable with ``--only``/``--skip``, and a partial
#: run merges its sections into an existing report file instead of
#: clobbering the sections it did not run.
SECTIONS = (
    "core",
    "matrix",
    "service",
    "socket",
    "dispatchers",
    "continuous_batching",
    "result_cache",
    "resilience",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--model", default="crude", help="cost model short name")
    parser.add_argument("--microarch", default="hsw")
    parser.add_argument("--blocks", type=int, default=12, help="number of blocks to explain")
    parser.add_argument("--min-size", type=int, default=4, help="smallest block (instructions)")
    parser.add_argument("--max-size", type=int, default=14, help="largest block (instructions)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--quick", action="store_true", help="tiny configuration for CI smoke runs"
    )
    parser.add_argument(
        "--matrix-model",
        default="uica",
        help="simulator-backed model for the backend matrix",
    )
    parser.add_argument(
        "--matrix-workers",
        type=int,
        default=None,
        help="worker count for the process backend (default: CPU count)",
    )
    parser.add_argument(
        "--matrix-blocks",
        type=int,
        default=6,
        help="number of blocks explained per backend in the matrix",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        choices=SECTIONS,
        default=None,
        metavar="SECTION",
        help="run only these sections (default: all); a partial run merges "
        f"into an existing report file. Sections: {', '.join(SECTIONS)}",
    )
    parser.add_argument(
        "--skip",
        nargs="+",
        choices=SECTIONS,
        default=[],
        metavar="SECTION",
        help="sections to leave out (applied after --only)",
    )
    parser.add_argument(
        "--service-repeats",
        type=int,
        default=4,
        help="how many times each block is requested in the service benchmark "
        "(a serving workload re-sees hot blocks)",
    )
    parser.add_argument(
        "--dispatcher-counts",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        help="dispatcher fleet sizes measured in the scheduler matrix",
    )
    parser.add_argument(
        "--dispatcher-repeats",
        type=int,
        default=2,
        help="how many times each (block, uarch) pair is requested per "
        "dispatcher count",
    )
    parser.add_argument(
        "--fused-outstanding",
        type=int,
        nargs="+",
        default=[1, 2, 4, 8],
        help="concurrently outstanding same-key requests measured in the "
        "continuous-batching benchmark",
    )
    parser.add_argument(
        "--fused-repeats",
        type=int,
        default=12,
        help="how many seeds each block is requested under per "
        "continuous-batching run",
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_query_engine.json"),
        help="where to write the JSON report",
    )
    return parser.parse_args(argv)


def build_model(args) -> CachedCostModel:
    return CachedCostModel(build_cost_model(args.model, args.microarch, cached=False))


def explainer_config(batched: bool) -> ExplainerConfig:
    return ExplainerConfig(
        epsilon=0.2,
        relative_epsilon=0.0,
        batch_queries=batched,
        perturbation=PerturbationConfig(vectorized=batched),
    )


def run_mode(args, blocks, batched: bool) -> dict:
    model = build_model(args)
    explainer = CometExplainer(model, explainer_config(batched), rng=args.seed)
    start = time.perf_counter()
    explanations = explainer.explain_many(blocks, rng=args.seed)
    elapsed = time.perf_counter() - start
    queries = model.query_count  # real inner-model evaluations
    lookups = model.hits + model.misses
    return {
        "mode": "batched" if batched else "sequential",
        "blocks": len(blocks),
        "seconds": round(elapsed, 4),
        "explanations_per_sec": round(len(blocks) / elapsed, 4),
        "model_queries": queries,
        "queries_per_sec": round(queries / elapsed, 1),
        "cache_lookups": lookups,
        "cache_hit_rate": round(model.hit_rate, 4),
        "mean_precision": round(
            sum(e.precision for e in explanations) / len(explanations), 4
        ),
        "anchors_meeting_threshold": sum(e.meets_threshold for e in explanations),
    }


def run_model_microbench(args, blocks) -> dict:
    """predict_many vs predict_batch on a fixed set of perturbed blocks."""
    from repro.perturb.sampler import PerturbationSampler

    per_block = 40 if args.quick else 200
    queries = []
    for block in blocks:
        sampler = PerturbationSampler(block, rng=args.seed)
        queries.extend(sampler.sample_unconstrained(per_block))

    sequential_model = build_model(args).inner
    start = time.perf_counter()
    sequential_values = sequential_model.predict_many(queries)
    sequential_elapsed = time.perf_counter() - start

    batched_model = build_model(args).inner
    start = time.perf_counter()
    batched_values = batched_model.predict_batch(queries)
    batched_elapsed = time.perf_counter() - start

    max_abs_diff = max(
        abs(a - b) for a, b in zip(sequential_values, batched_values)
    )
    return {
        "queries": len(queries),
        "predict_many_qps": round(len(queries) / sequential_elapsed, 1),
        "predict_batch_qps": round(len(queries) / batched_elapsed, 1),
        "model_speedup": round(sequential_elapsed / batched_elapsed, 2),
        "max_abs_prediction_diff": max_abs_diff,
    }


def run_backend_matrix(args, blocks) -> dict:
    """Explanations/sec on a simulator-backed model per execution backend.

    The simulator is pure Python, so only worker processes run it on several
    cores at once: this is the experiment behind the runtime's
    ProcessBackend, with the serial backend as its baseline.  Each backend
    explains the same seeded workload through one ExplanationSession; parity
    of the results is a by-product (and is pinned separately by
    tests/explain/test_batch_parity.py).
    """
    workers = args.matrix_workers or os.cpu_count() or 1
    matrix = {
        "model": args.matrix_model,
        "workers": workers,
        "cpus": os.cpu_count() or 1,
        "blocks": len(blocks),
        "backends": {},
    }
    config = explainer_config(batched=True)
    for backend_name in available_backends():
        model = build_cost_model(args.matrix_model, args.microarch, cached=True)
        with ExplanationSession(
            model, config, backend=backend_name, workers=workers, rng=args.seed
        ) as session:
            start = time.perf_counter()
            session.explain_many(blocks, rng=args.seed)
            elapsed = time.perf_counter() - start
            stats = session.stats()
        matrix["backends"][backend_name] = {
            "seconds": round(elapsed, 4),
            "explanations_per_sec": round(len(blocks) / elapsed, 4),
            "model_queries": stats.model_queries,
            "cache_hit_rate": round(stats.cache_hit_rate, 4),
        }
    serial_rate = matrix["backends"]["serial"]["explanations_per_sec"]
    process_rate = matrix["backends"]["process"]["explanations_per_sec"]
    matrix["process_vs_serial_speedup"] = (
        round(process_rate / serial_rate, 2) if serial_rate else None
    )
    if matrix["cpus"] < 2:
        # The process backend's gain is bounded by the core count; on one
        # core it can only measure its own IPC overhead.
        matrix["note"] = (
            "single-CPU host: process fan-out has no parallelism to win, so "
            "process_vs_serial_speedup measures its IPC and pool start-up "
            "overhead"
        )
    return matrix


def run_service_bench(args, blocks) -> dict:
    """Warm-session service vs a cold session per request.

    The request stream visits each block ``--service-repeats`` times with the
    same seed (interleaved) — the serving scenario the warm session exists
    for: retries, several consumers of one report, fleet-wide hot blocks.
    A repeated request's queries all hit the resident cache, where the cold
    path rebuilds the model, session and cache from scratch every time.  The
    simulator-backed matrix model is used because its per-query cost is what
    a production cost model looks like; seeded results are identical on both
    paths (the service's determinism contract), so this measures pure
    serving overhead.
    """
    from repro.service import ExplanationService

    config = explainer_config(batched=True)
    model_name = args.matrix_model
    stream = [
        (block, args.seed)
        for _repeat in range(args.service_repeats)
        for block in blocks
    ]

    with ExplanationService(
        model=model_name, uarch=args.microarch, config=config
    ) as service:
        start = time.perf_counter()
        ids = [service.submit(block, seed=seed) for block, seed in stream]
        for request_id in ids:
            service.result(request_id)
        warm_elapsed = time.perf_counter() - start
        stats = service.stats()
        warm_hit_rate = stats.session_stats[
            (model_name, args.microarch)
        ].cache_hit_rate

    start = time.perf_counter()
    for block, seed in stream:
        with ExplanationService(
            model=model_name, uarch=args.microarch, config=config
        ) as cold:
            cold.explain(block, seed=seed)
    cold_elapsed = time.perf_counter() - start

    return {
        "model": model_name,
        "requests": len(stream),
        "distinct_blocks": len(blocks),
        "repeats_per_block": args.service_repeats,
        "warm_seconds": round(warm_elapsed, 4),
        "warm_requests_per_sec": round(len(stream) / warm_elapsed, 4),
        "warm_cache_hit_rate": round(warm_hit_rate, 4),
        "cold_seconds": round(cold_elapsed, 4),
        "cold_requests_per_sec": round(len(stream) / cold_elapsed, 4),
        "warm_vs_cold_speedup": round(cold_elapsed / warm_elapsed, 2),
    }


def run_socket_bench(args, blocks) -> dict:
    """TCP transport overhead: the same warm stream, in-process vs socket.

    Both runs drive one warm :class:`ExplanationService` with an identical
    pipelined request stream (submit everything, then collect); the socket
    run adds a loopback TCP hop, JSON serialisation of the responses and
    the per-connection reader/writer threads.  The *cheap* analytical model
    is used on purpose — under a simulator model the per-request compute
    hides the transport entirely, and this section exists to measure the
    transport.  Results are bit-identical on both paths (same service
    semantics), so the delta is pure wire overhead.
    """
    from repro.service import ExplanationService, ServiceClient, SocketServer

    config = explainer_config(batched=True)
    stream = [
        (block, args.seed)
        for _repeat in range(args.service_repeats)
        for block in blocks
    ]

    with ExplanationService(
        model="crude", uarch=args.microarch, config=config, max_queue=len(stream)
    ) as service:
        start = time.perf_counter()
        ids = [service.submit(block, seed=seed) for block, seed in stream]
        for request_id in ids:
            service.result(request_id)
        direct_elapsed = time.perf_counter() - start

    with ExplanationService(
        model="crude", uarch=args.microarch, config=config, max_queue=len(stream)
    ) as service:
        with SocketServer(service, port=0) as server:
            with ServiceClient(*server.address, timeout=600) as client:
                start = time.perf_counter()
                ids = [client.submit(block, seed=seed) for block, seed in stream]
                for request_id in ids:
                    client.result(request_id)
                socket_elapsed = time.perf_counter() - start

    overhead_ms = (socket_elapsed - direct_elapsed) * 1000.0 / len(stream)
    return {
        "model": "crude",
        "requests": len(stream),
        "direct_seconds": round(direct_elapsed, 4),
        "direct_requests_per_sec": round(len(stream) / direct_elapsed, 4),
        "socket_seconds": round(socket_elapsed, 4),
        "socket_requests_per_sec": round(len(stream) / socket_elapsed, 4),
        "socket_overhead_ms_per_request": round(overhead_ms, 3),
        "socket_vs_direct": round(socket_elapsed / direct_elapsed, 3),
    }


def run_dispatcher_matrix(args, blocks) -> dict:
    """Warm-service throughput at 1/2/4 dispatchers on a mixed-key stream.

    The stream requests every block on *both* microarchitectures (two
    session keys), repeated — the workload shape the scheduler exists for:
    same-key requests stay serialized on one dispatcher (the determinism
    contract), distinct keys spread across the fleet.  Seeded results are
    identical at every dispatcher count (pinned by the service parity
    tests), so the matrix measures pure scheduling/parallelism effect.  On
    a single-CPU host every count measures the same core plus scheduler
    overhead; the per-section ``cpus`` stamp makes that floor
    machine-detectable.
    """
    from repro.service import ExplanationService

    config = explainer_config(batched=True)
    model_name = args.matrix_model
    uarchs = ("hsw", "skl")
    stream = [
        (block, args.seed, uarch)
        for _repeat in range(args.dispatcher_repeats)
        for uarch in uarchs
        for block in blocks
    ]
    matrix = {
        "model": model_name,
        "uarchs": list(uarchs),
        "requests": len(stream),
        "distinct_blocks": len(blocks),
        "repeats": args.dispatcher_repeats,
        "dispatchers": {},
    }
    for count in args.dispatcher_counts:
        with ExplanationService(
            model=model_name,
            uarch=args.microarch,
            config=config,
            dispatchers=count,
            max_queue=len(stream),
            max_sessions=len(uarchs),
        ) as service:
            start = time.perf_counter()
            ids = [
                service.submit(block, seed=seed, uarch=uarch)
                for block, seed, uarch in stream
            ]
            for request_id in ids:
                service.result(request_id)
            elapsed = time.perf_counter() - start
            stats = service.stats()
        matrix["dispatchers"][str(count)] = {
            "seconds": round(elapsed, 4),
            "requests_per_sec": round(len(stream) / elapsed, 4),
            "executed_per_dispatcher": [
                d.executed for d in stats.dispatcher_stats
            ],
            "stolen": sum(d.stolen for d in stats.dispatcher_stats),
        }
    # "vs single" means exactly that: the baseline is the count==1 entry,
    # not whatever the caller listed first; without one the ratio is
    # meaningless and recorded as null.
    top_count = max(args.dispatcher_counts)
    top = matrix["dispatchers"][str(top_count)]["requests_per_sec"]
    single = matrix["dispatchers"].get("1")
    matrix["scaling_vs_single"] = (
        round(top / single["requests_per_sec"], 2)
        if single and single["requests_per_sec"]
        else None
    )
    if (os.cpu_count() or 1) < 2:
        matrix["note"] = (
            "single-CPU host: dispatchers time-slice one core, so the matrix "
            "measures scheduler overhead only; cross-key scaling needs "
            "multi-core hardware (bounded by min(dispatchers, distinct "
            "keys, cores))"
        )
    return matrix


def run_continuous_batching_bench(args) -> dict:
    """Fused vs unfused serving of a same-key warm request stream.

    The substrate is an Ithemal-style neural model (the paper's serving
    target): its ``predict_batch`` pays a per-invocation cost — padding,
    batch setup, the LSTM readout — before any per-block work, which is
    exactly what continuous batching amortizes.  The weights are untrained
    (the registry build needs training data; serving cost is independent
    of weight values), so the session is built inline via
    ``session_factory``.  Blocks are small hot micro-blocks and the
    KL-LUCB budget uses many small rounds (``batch_size=4``), the regime
    a production explainer cache-front faces: short loops re-explained
    under many seeds, round structure dominated by call count.

    Every configuration serves the identical stream — each block
    requested under ``--fused-repeats`` distinct seeds, all submitted up
    front so the requests are genuinely outstanding together — through a
    fresh single-dispatcher service per trial, five trials each, best
    trial reported (minimum wall-clock, the standard microbenchmark
    estimator — trial times here are fractions of a second, where
    scheduler noise only ever adds).  A fresh service per trial keeps the
    query cache identically cold every time; reusing one service would
    let the cache accumulate until later trials stop invoking the model
    at all, which is fast but measures nothing.  One throwaway serve up
    front pays process-global warmup (numpy dispatch, allocator).  The
    unfused run serves the stream one request at a time (the per-key
    mutual exclusion baseline); each fused run caps the tick group at one
    of ``--fused-outstanding`` resident requests.  Seeded results are bit-for-bit identical in every
    configuration (the fusion parity suite pins this), so the difference
    is purely how many ``predict_batch`` invocations the same KL-LUCB
    rounds cost: ``model_calls_saved`` (= rounds_fused - ticks) records
    the per-tick amortization directly.  That lever is thread-free — it
    holds on a 1-CPU host, where dispatcher fan-out cannot help.
    """
    from repro.models.ithemal import IthemalConfig, IthemalCostModel
    from repro.service import ExplanationService

    hidden_size = 448
    config = ExplainerConfig(
        epsilon=0.2,
        relative_epsilon=0.0,
        coverage_samples=40,
        min_precision_samples=8,
        max_precision_samples=300,
        batch_size=4,
        batch_queries=True,
        perturbation=PerturbationConfig(vectorized=True),
    )
    blocks = BlockSynthesizer(rng=args.seed).generate_many(
        6, min_instructions=2, max_instructions=3, rng=args.seed + 1
    )
    # Block-major: all seeds of one hot block are adjacent, so a fused tick
    # holds same-length sequences (no LSTM padding waste) — the shape of a
    # real hot-block fan-in, where many clients re-explain one block.
    stream = [
        (block, args.seed + repeat)
        for block in blocks
        for repeat in range(args.fused_repeats)
    ]

    def session_factory(model_name, uarch):
        return ExplanationSession(
            IthemalCostModel(uarch, IthemalConfig(hidden_size=hidden_size)), config
        )

    def serve_once(continuous_batching, max_fused):
        with ExplanationService(
            model="ithemal",
            uarch=args.microarch,
            config=config,
            session_factory=session_factory,
            dispatchers=1,
            continuous_batching=continuous_batching,
            max_fused_requests=max_fused,
            max_queue=len(stream),
        ) as service:
            start = time.perf_counter()
            ids = [service.submit(block, seed=seed) for block, seed in stream]
            for request_id in ids:
                service.result(request_id)
            elapsed = time.perf_counter() - start
            stats = service.stats()
        return elapsed, stats

    def serve(continuous_batching, max_fused, trials=5):
        best, stats = serve_once(continuous_batching, max_fused)
        for _ in range(trials - 1):
            elapsed, stats = serve_once(continuous_batching, max_fused)
            best = min(best, elapsed)
        return best, stats

    serve_once(False, 1)  # throwaway: process-global warmup
    unfused_elapsed, _ = serve(False, 1)
    unfused_rps = len(stream) / unfused_elapsed
    section = {
        "model": "ithemal",
        "hidden_size": hidden_size,
        "requests": len(stream),
        "distinct_blocks": len(blocks),
        "seeds_per_block": args.fused_repeats,
        "unfused_seconds": round(unfused_elapsed, 4),
        "unfused_requests_per_sec": round(unfused_rps, 4),
        "outstanding": {},
    }
    for outstanding in args.fused_outstanding:
        elapsed, stats = serve(True, outstanding)
        fusion = stats.fusion  # counters from the last trial (one stream)
        section["outstanding"][str(outstanding)] = {
            "seconds": round(elapsed, 4),
            "requests_per_sec": round(len(stream) / elapsed, 4),
            "fused_vs_unfused": round(len(stream) / elapsed / unfused_rps, 2),
            "ticks": fusion.ticks,
            "rounds_fused": fusion.rounds_fused,
            "mean_rounds_per_tick": round(fusion.mean_occupancy, 2),
            "model_calls_saved": fusion.rounds_fused - fusion.ticks,
            "shared_cache_hits": fusion.shared_hits,
            "absorbed": stats.absorbed,
        }
    return section


def run_result_cache_bench(args, blocks) -> dict:
    """The persistent result cache: disabled vs cold vs warm vs restart.

    A seeded explanation is a pure function of its fingerprint, so the
    result cache memoizes *whole explanations* — a warm hit skips the
    entire anchor search, not just inner-model queries.  The stream
    requests each block under two seeds; every configuration serves that
    identical stream twice through the simulator-backed matrix model (per
    request compute is what makes the memo worth keeping):

    * ``disabled`` — ``result_cache=False``; the second pass recomputes
      every search (only the session's query LRU is warm, so this second
      pass — not the cold first — is the honest baseline for a warm hit);
    * ``cold`` — a fresh on-disk store; first pass computes and writes
      through;
    * ``warm`` — the same service's second pass, served from tier 0;
    * ``warm_restart`` — a *new* service over the same store file, served
      from the on-disk tier (scan, CRC check, unpickle, promote).

    Results are bit-identical in every configuration (the cache-state
    parity matrix in tests/integration pins this), so the deltas are
    purely what memoization saves and what the store costs.
    """
    import tempfile

    from repro.service import ExplanationService

    config = explainer_config(batched=True)
    model_name = args.matrix_model
    stream = [
        (block, args.seed + repeat)
        for repeat in range(2)
        for block in blocks
    ]

    def serve_pass(service) -> float:
        start = time.perf_counter()
        ids = [service.submit(block, seed=seed) for block, seed in stream]
        for request_id in ids:
            service.result(request_id)
        return time.perf_counter() - start

    def rps(elapsed: float) -> float:
        return round(len(stream) / elapsed, 4)

    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "bench.cache"
        with ExplanationService(
            model=model_name,
            uarch=args.microarch,
            config=config,
            result_cache=False,
            max_queue=len(stream),
        ) as service:
            # The first pass doubles as the cold baseline: a fresh
            # session with nothing memoized, exactly what the cold cached
            # run pays *minus* the write-through — their ratio isolates
            # the store's cost.  The second pass has the query LRU warm,
            # which is what a long-lived uncached service looks like, so
            # it is the honest baseline for a warm hit.
            disabled_first_elapsed = serve_pass(service)
            disabled_elapsed = serve_pass(service)
        with ExplanationService(
            model=model_name,
            uarch=args.microarch,
            config=config,
            result_cache=str(store),
            max_queue=len(stream),
        ) as service:
            cold_elapsed = serve_pass(service)
            warm_elapsed = serve_pass(service)
            warm_stats = service.stats().result_cache
        with ExplanationService(
            model=model_name,
            uarch=args.microarch,
            config=config,
            result_cache=str(store),
            max_queue=len(stream),
        ) as service:
            restart_elapsed = serve_pass(service)
            restart_stats = service.stats().result_cache

    return {
        "model": model_name,
        "requests": len(stream),
        "distinct_blocks": len(blocks),
        "seeds_per_block": 2,
        "disabled_first_pass_seconds": round(disabled_first_elapsed, 4),
        "disabled_seconds": round(disabled_elapsed, 4),
        "disabled_requests_per_sec": rps(disabled_elapsed),
        "cold_seconds": round(cold_elapsed, 4),
        "cold_requests_per_sec": rps(cold_elapsed),
        "warm_seconds": round(warm_elapsed, 4),
        "warm_requests_per_sec": rps(warm_elapsed),
        "warm_hit_rate": round(warm_stats.hit_rate, 4),
        "warm_restart_seconds": round(restart_elapsed, 4),
        "warm_restart_requests_per_sec": rps(restart_elapsed),
        "restart_disk_hits": restart_stats.disk.hits,
        "store_bytes": warm_stats.disk.bytes,
        "warm_vs_disabled_speedup": round(disabled_elapsed / warm_elapsed, 2),
        "cold_write_through_overhead": round(
            cold_elapsed / disabled_first_elapsed, 3
        ),
    }


def run_resilience_bench(args, blocks) -> dict:
    """Price of fault tolerance: SIGKILL recovery and checkpoint replay.

    Two measurements.  First, the supervised process backend predicts the
    same batch healthy and then with every pool worker SIGKILLed — the
    recovery run pays broken-pool detection, a pool rebuild and one full
    retry, so the ratio is the worst-case stall one worker OOM-kill
    inflicts on a batch.  Second, a checkpointed ``explain_many`` runs
    fresh and then resumes over its own completed result-cache store — the
    replay ratio is what a crash-and-restart costs relative to the work the
    store saved.  Both recoveries are bit-for-bit (pinned by
    tests/runtime/test_supervision.py and test_checkpoint.py); this
    section records only their speed.
    """
    import signal
    import tempfile

    from repro.runtime.backend import BackendRetryPolicy, ProcessBackend

    workers = 2
    model = build_cost_model(args.matrix_model, args.microarch, cached=False)
    retry = BackendRetryPolicy(backoff=0.0, max_backoff=0.0)
    with ProcessBackend(workers, retry=retry) as backend:
        backend.predict_blocks(model, blocks)  # warm the pool
        start = time.perf_counter()
        healthy = backend.predict_blocks(model, blocks)
        healthy_elapsed = time.perf_counter() - start

        pool = backend._pool
        for pid in list(pool._processes):
            os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        for process in list(pool._processes.values()):
            process.join(max(deadline - time.monotonic(), 0.1))

        start = time.perf_counter()
        recovered = backend.predict_blocks(model, blocks)
        recovery_elapsed = time.perf_counter() - start
        stats = backend.worker_stats()
    if recovered != healthy:  # bit-for-bit, or the timings are meaningless
        raise RuntimeError("recovered batch diverged from the healthy batch")

    config = explainer_config(batched=True)
    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "bench.cache"
        with ExplanationSession(build_model(args), config) as session:
            start = time.perf_counter()
            session.explain_many(blocks, rng=args.seed, checkpoint=store)
            fresh_elapsed = time.perf_counter() - start
        with ExplanationSession(build_model(args), config) as session:
            start = time.perf_counter()
            session.explain_many(blocks, rng=args.seed, checkpoint=store)
            replay_elapsed = time.perf_counter() - start
            skips = session.stats().checkpoint_skips

    return {
        "model": args.matrix_model,
        "blocks": len(blocks),
        "workers": workers,
        "healthy_batch_seconds": round(healthy_elapsed, 4),
        "sigkill_recovery_seconds": round(recovery_elapsed, 4),
        "recovery_vs_healthy": round(recovery_elapsed / healthy_elapsed, 2),
        "worker_restarts": stats["restarts"],
        "batch_retries": stats["retries"],
        "checkpoint_model": args.model,
        "checkpoint_fresh_seconds": round(fresh_elapsed, 4),
        "checkpoint_replay_seconds": round(replay_elapsed, 4),
        "checkpoint_replay_speedup": round(fresh_elapsed / replay_elapsed, 2),
        "checkpoint_skips": skips,
    }


def stamp_host_cpus(report: dict) -> None:
    """Stamp the host CPU count into the report and each of its sections.

    Recorded numbers are only comparable on similar hardware — a
    single-CPU container shows IPC/scheduling floors where a multi-core
    host shows speedups.  With the count stamped per section, that
    distinction is machine-detectable instead of a prose note.
    """
    cpus = os.cpu_count() or 1
    report["host_cpus"] = cpus
    for section in report.values():
        if isinstance(section, dict):
            section["cpus"] = cpus


def main(argv=None) -> int:
    args = parse_args(argv)
    skipped = set(args.skip)
    selected = {s for s in (args.only or SECTIONS) if s not in skipped}
    if args.quick:
        args.blocks = min(args.blocks, 3)
        args.max_size = min(args.max_size, 8)
        args.matrix_blocks = min(args.matrix_blocks, 2)
        args.dispatcher_repeats = 1
        args.fused_repeats = min(args.fused_repeats, 2)

    synthesizer = BlockSynthesizer(rng=args.seed)
    blocks = synthesizer.generate_many(
        args.blocks,
        min_instructions=args.min_size,
        max_instructions=args.max_size,
        rng=args.seed + 1,
    )

    report = {
        "benchmark": "query_engine",
        "model": args.model,
        "microarch": args.microarch,
        "seed": args.seed,
        "block_sizes": [args.min_size, args.max_size],
    }

    sequential = batched = micro = speedup = None
    if "core" in selected:
        sequential = run_mode(args, blocks, batched=False)
        batched = run_mode(args, blocks, batched=True)
        micro = run_model_microbench(args, blocks)
        speedup = round(
            batched["explanations_per_sec"] / sequential["explanations_per_sec"], 2
        )
        report["sequential"] = sequential
        report["batched"] = batched
        report["explanations_per_sec_speedup"] = speedup
        report["model_microbench"] = micro

    matrix = None
    if "matrix" in selected:
        matrix_blocks = blocks[: args.matrix_blocks]
        matrix = run_backend_matrix(args, matrix_blocks)
        report["backend_matrix"] = matrix

    service = None
    if "service" in selected:
        service = run_service_bench(args, blocks[: args.matrix_blocks])
        report["service"] = service

    socket_bench = None
    if "socket" in selected:
        socket_bench = run_socket_bench(args, blocks[: args.matrix_blocks])
        report["service_socket"] = socket_bench

    dispatcher_matrix = None
    if "dispatchers" in selected:
        dispatcher_matrix = run_dispatcher_matrix(args, blocks[: args.matrix_blocks])
        report["dispatcher_matrix"] = dispatcher_matrix

    continuous = None
    if "continuous_batching" in selected:
        continuous = run_continuous_batching_bench(args)
        report["continuous_batching"] = continuous

    result_cache = None
    if "result_cache" in selected:
        result_cache = run_result_cache_bench(args, blocks[: args.matrix_blocks])
        report["result_cache"] = result_cache

    resilience = None
    if "resilience" in selected:
        resilience = run_resilience_bench(args, blocks[: args.matrix_blocks])
        report["resilience"] = resilience

    # Stamp before merging: sections kept from an earlier report keep the
    # CPU count of the host that measured them.
    stamp_host_cpus(report)
    output = Path(args.output)
    if selected != set(SECTIONS) and output.exists():
        # Partial run: keep the sections this invocation did not measure, so
        # --only re-records one section without clobbering the report.
        try:
            previous = json.loads(output.read_text())
        except (OSError, ValueError):
            previous = {}
        if isinstance(previous, dict):
            previous.update(report)
            report = previous

    output.write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"query-engine benchmark — model={args.model} blocks={len(blocks)} "
        f"sections={','.join(s for s in SECTIONS if s in selected)}"
    )
    if sequential is not None:
        for row in (sequential, batched):
            print(
                f"  {row['mode']:>10}: {row['seconds']:7.2f}s  "
                f"{row['explanations_per_sec']:7.3f} expl/s  "
                f"{row['queries_per_sec']:9.1f} q/s  "
                f"hit-rate {row['cache_hit_rate']:.2%}"
            )
        print(
            f"  speedup: {speedup:.2f}x explanations/sec  "
            f"(model-level predict_batch: {micro['model_speedup']:.2f}x)"
        )
    if matrix is not None:
        print(
            f"backend matrix — model={matrix['model']} "
            f"workers={matrix['workers']} cpus={matrix['cpus']}"
        )
        for name, row in matrix["backends"].items():
            print(
                f"  {name:>10}: {row['seconds']:7.2f}s  "
                f"{row['explanations_per_sec']:7.3f} expl/s"
            )
        print(f"  process vs serial: {matrix['process_vs_serial_speedup']}x")
    if service is not None:
        print(
            f"service — model={service['model']} {service['requests']} requests "
            f"({service['distinct_blocks']} blocks x{service['repeats_per_block']})"
        )
        print(
            f"        warm: {service['warm_seconds']:7.2f}s  "
            f"{service['warm_requests_per_sec']:7.3f} req/s  "
            f"hit-rate {service['warm_cache_hit_rate']:.2%}"
        )
        print(
            f"        cold: {service['cold_seconds']:7.2f}s  "
            f"{service['cold_requests_per_sec']:7.3f} req/s"
        )
        print(f"  warm vs cold: {service['warm_vs_cold_speedup']:.2f}x requests/sec")
    if socket_bench is not None:
        print(
            f"socket transport — {socket_bench['requests']} requests on "
            f"model={socket_bench['model']}"
        )
        print(
            f"      direct: {socket_bench['direct_seconds']:7.2f}s  "
            f"{socket_bench['direct_requests_per_sec']:7.3f} req/s"
        )
        print(
            f"      socket: {socket_bench['socket_seconds']:7.2f}s  "
            f"{socket_bench['socket_requests_per_sec']:7.3f} req/s"
        )
        print(
            f"  overhead: {socket_bench['socket_overhead_ms_per_request']:.2f} ms/request "
            f"({socket_bench['socket_vs_direct']:.3f}x elapsed)"
        )
    if dispatcher_matrix is not None:
        print(
            f"dispatcher matrix — model={dispatcher_matrix['model']} "
            f"{dispatcher_matrix['requests']} requests over "
            f"{len(dispatcher_matrix['uarchs'])} uarch keys"
        )
        for count, row in dispatcher_matrix["dispatchers"].items():
            print(
                f"  {count:>2} dispatchers: {row['seconds']:7.2f}s  "
                f"{row['requests_per_sec']:7.3f} req/s  "
                f"({row['stolen']} stolen)"
            )
        if dispatcher_matrix["scaling_vs_single"] is not None:
            print(
                f"  scaling vs single dispatcher: "
                f"{dispatcher_matrix['scaling_vs_single']}x"
            )
    if continuous is not None:
        print(
            f"continuous batching — model={continuous['model']} "
            f"{continuous['requests']} same-key requests "
            f"({continuous['distinct_blocks']} blocks x"
            f"{continuous['seeds_per_block']} seeds)"
        )
        print(
            f"     unfused: {continuous['unfused_seconds']:7.2f}s  "
            f"{continuous['unfused_requests_per_sec']:7.3f} req/s"
        )
        for outstanding, row in continuous["outstanding"].items():
            print(
                f"  {outstanding:>2} outstanding: {row['seconds']:7.2f}s  "
                f"{row['requests_per_sec']:7.3f} req/s  "
                f"({row['fused_vs_unfused']:.2f}x, "
                f"{row['mean_rounds_per_tick']:.2f} rounds/tick, "
                f"{row['model_calls_saved']} calls saved)"
            )
    if result_cache is not None:
        print(
            f"result cache — model={result_cache['model']} "
            f"{result_cache['requests']} requests "
            f"({result_cache['distinct_blocks']} blocks x"
            f"{result_cache['seeds_per_block']} seeds)"
        )
        print(
            f"      disabled: {result_cache['disabled_seconds']:7.2f}s  "
            f"{result_cache['disabled_requests_per_sec']:7.3f} req/s"
        )
        print(
            f"          cold: {result_cache['cold_seconds']:7.2f}s  "
            f"{result_cache['cold_requests_per_sec']:7.3f} req/s  "
            f"(write-through {result_cache['cold_write_through_overhead']:.3f}x)"
        )
        print(
            f"          warm: {result_cache['warm_seconds']:7.2f}s  "
            f"{result_cache['warm_requests_per_sec']:7.3f} req/s  "
            f"hit-rate {result_cache['warm_hit_rate']:.2%}"
        )
        print(
            f"       restart: {result_cache['warm_restart_seconds']:7.2f}s  "
            f"{result_cache['warm_restart_requests_per_sec']:7.3f} req/s  "
            f"({result_cache['restart_disk_hits']} disk hits)"
        )
        print(
            f"  warm vs disabled: "
            f"{result_cache['warm_vs_disabled_speedup']:.2f}x requests/sec"
        )
    if resilience is not None:
        print(
            f"resilience — model={resilience['model']} "
            f"{resilience['blocks']} blocks, {resilience['workers']} workers"
        )
        print(
            f"     healthy batch: {resilience['healthy_batch_seconds']:7.2f}s   "
            f"sigkill recovery: {resilience['sigkill_recovery_seconds']:7.2f}s  "
            f"({resilience['recovery_vs_healthy']:.2f}x, "
            f"{resilience['worker_restarts']} restarts)"
        )
        print(
            f"  checkpoint fresh: {resilience['checkpoint_fresh_seconds']:7.2f}s   "
            f"store replay: {resilience['checkpoint_replay_seconds']:7.2f}s  "
            f"({resilience['checkpoint_replay_speedup']:.2f}x, "
            f"{resilience['checkpoint_skips']} skips)"
        )
    print(f"  report written to {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
