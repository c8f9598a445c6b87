"""Command-line interface for the COMET reproduction.

The CLI exposes the public API for quick, scriptable use::

    python -m repro predict  --model uica  --block "add rcx, rax; mov rdx, rcx"
    python -m repro explain  --model uica  --block-file block.s --json
    python -m repro explain  --model uica  --blocks-file fleet.txt --checkpoint run.cache
    python -m repro features --block "add rcx, rax; mov rdx, rcx; pop rbx"
    python -m repro perturb  --block-file block.s --count 5 --preserve-count
    python -m repro space    --block-file block.s
    python -m repro optimize --model uica  --block-file block.s --steps 40
    python -m repro dataset  --size 200 --output dataset.json
    python -m repro serve    --model uica  --backend process --max-queue 128
    python -m repro serve    --model crude --port 7421 --max-connections 16
    python -m repro serve    --model crude --port 0    --dispatchers 4
    python -m repro serve    --model crude --request-timeout 120
    python -m repro serve    --model crude --port 0    --continuous-batching
    python -m repro serve    --model crude --result-cache results.cache
    python -m repro route    --nodes 127.0.0.1:7421,127.0.0.1:7422

Blocks can be passed inline with ``--block`` (instructions separated by ``;``
or newlines) or from a file with ``--block-file``.  The neural model is
excluded from the model choices here because it must be trained on a dataset
first; use the library API (see ``examples/``) for that workflow.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.bb.block import BasicBlock
from repro.bb.features import extract_features
from repro.data.bhive import BHiveDataset
from repro.explain.config import ExplainerConfig
from repro.explain.explainer import CometExplainer
from repro.guidance.optimizer import optimize_block
from repro.models.base import CachedCostModel, CostModel
from repro.models.registry import build_cost_model
from repro.perturb.algorithm import BlockPerturber
from repro.perturb.config import PerturbationConfig
from repro.perturb.space import space_report
from repro.reporting.export import explanation_to_json
from repro.runtime.backend import available_backends, resolve_backend
from repro.service.batching import MAX_FUSED_REQUESTS
from repro.uarch.microarch import available_microarchitectures
from repro.utils.errors import ReproError


#: Models constructible without training data.
_CLI_MODELS = ("crude", "uica", "port-pressure")


def _read_block(args: argparse.Namespace) -> BasicBlock:
    if getattr(args, "block", None):
        text = args.block.replace(";", "\n")
    elif getattr(args, "block_file", None):
        text = Path(args.block_file).read_text()
    else:
        raise ReproError("provide a block with --block or --block-file")
    return BasicBlock.from_text(text)


def _build_model(args: argparse.Namespace) -> CostModel:
    return build_cost_model(
        args.model,
        args.uarch,
        cached=True,
        backend=getattr(args, "backend", None),
        workers=getattr(args, "workers", None),
    )


# --------------------------------------------------------------- subcommands


def _cmd_predict(args: argparse.Namespace) -> int:
    block = _read_block(args)
    model = _build_model(args)
    prediction = model.predict(block)
    print(f"{model.name}: {prediction:.3f} cycles/iteration")
    return 0


def _explainer_config(args: argparse.Namespace) -> ExplainerConfig:
    try:
        return ExplainerConfig(
            epsilon=args.epsilon,
            relative_epsilon=args.relative_epsilon,
            delta=args.delta,
            coverage_samples=args.coverage_samples,
            max_precision_samples=args.max_precision_samples,
        )
    except ValueError as error:
        raise ReproError(f"invalid explainer setting: {error}") from error


def _check_backend(args: argparse.Namespace) -> None:
    """Reject a backend setting that cannot be built before any work
    starts (``serve`` builds its backends with its first session)."""
    try:
        resolve_backend(args.backend, args.workers).close()
    except ValueError as error:
        raise ReproError(f"invalid backend setting: {error}") from error


def _cmd_explain(args: argparse.Namespace) -> int:
    _check_backend(args)
    config = _explainer_config(args)
    if args.blocks_file:
        return _cmd_explain_fleet(args, config)
    if args.checkpoint:
        raise ReproError(
            "--checkpoint stores a fleet run; use it with --blocks-file"
        )
    block = _read_block(args)
    # The model owns the backend built by the registry; closing the model
    # releases any pooled workers before the process exits.
    with _build_model(args) as model:
        explainer = CometExplainer(model, config, rng=args.seed)
        explanation = explainer.explain(block)
    if args.json:
        print(explanation_to_json(explanation))
    else:
        print(explanation.describe())
    return 0


def _cmd_explain_fleet(args: argparse.Namespace, config: ExplainerConfig) -> int:
    """Explain a whole fleet (one block per line), optionally checkpointed.

    With ``--checkpoint`` the run is crash-safe: every explanation is stored
    in a result-cache store as it finishes, and rerunning the same command
    after an interruption skips the stored blocks and produces results
    bit-for-bit identical to an uninterrupted run.
    """
    import json as json_module

    from repro.reporting.export import explanation_to_dict
    from repro.runtime.session import ExplanationSession

    texts = [
        line.strip()
        for line in Path(args.blocks_file).read_text().splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not texts:
        raise ReproError(f"no blocks in {args.blocks_file}")
    blocks = [BasicBlock.from_text(text.replace(";", "\n")) for text in texts]
    with _build_model(args) as model:
        with ExplanationSession(model, config) as session:
            explanations = session.explain_many(
                blocks, rng=args.seed, checkpoint=args.checkpoint
            )
            stats = session.stats()
    if args.json:
        print(
            json_module.dumps(
                [explanation_to_dict(explanation) for explanation in explanations],
                indent=2,
            )
        )
    else:
        for index, explanation in enumerate(explanations):
            print(f"# block {index + 1}")
            print(explanation.describe())
            print()
    if args.checkpoint:
        print(
            f"checkpoint {args.checkpoint}: {stats.checkpoint_skips} of "
            f"{len(blocks)} blocks recovered from the store",
            file=sys.stderr,
        )
    return 0


def _cmd_features(args: argparse.Namespace) -> int:
    block = _read_block(args)
    features = extract_features(block)
    print(f"{len(features)} candidate features:")
    for feature in features:
        print(f"  [{feature.kind.value:<10}] {feature.describe()}")
    return 0


def _cmd_perturb(args: argparse.Namespace) -> int:
    block = _read_block(args)
    features = []
    all_features = extract_features(block)
    if args.preserve_count:
        features.extend(
            f for f in all_features if f.kind.value == "num_instrs"
        )
    for index in args.preserve_instruction or []:
        if not 1 <= index <= block.num_instructions:
            raise ReproError(
                f"--preserve-instruction {index} is outside the block "
                f"(1..{block.num_instructions})"
            )
        features.extend(
            f
            for f in all_features
            if f.kind.value == "inst" and getattr(f, "index", None) == index - 1
        )
    perturber = BlockPerturber(block, PerturbationConfig(), rng=args.seed)
    for sample_index in range(args.count):
        perturbed = perturber.perturb(features)
        print(f"# perturbation {sample_index + 1}")
        print(perturbed.text)
        print()
    return 0


def _cmd_space(args: argparse.Namespace) -> int:
    block = _read_block(args)
    report = space_report(block)
    print(f"block of {block.num_instructions} instructions")
    for key, value in report.items():
        print(f"  {key}: {value:.3g}")
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    block = _read_block(args)
    model = _build_model(args)
    result = optimize_block(
        model,
        block,
        guided=not args.unguided,
        steps=args.steps,
        rng=args.seed,
    )
    print(result.describe())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ExplanationService, serve_stream

    _check_backend(args)
    try:
        service = ExplanationService(
            model=args.model,
            uarch=args.uarch,
            config=_explainer_config(args),
            backend=args.backend,
            workers=args.workers,
            dispatchers=args.dispatchers,
            continuous_batching=args.continuous_batching,
            max_fused_requests=args.max_fused_requests,
            max_queue=args.max_queue,
            max_sessions=args.max_sessions,
            default_deadline=args.request_timeout,
            result_cache=args.result_cache,
        )
    except ValueError as error:
        raise ReproError(f"invalid service setting: {error}") from error
    if args.port is not None:
        if args.requests:
            service.close()
            raise ReproError(
                "--requests reads a batch from a file and --port serves TCP; "
                "use one or the other"
            )
        return _serve_socket(args, service)
    if args.requests:
        source = Path(args.requests).read_text().splitlines()
    else:
        source = sys.stdin
    try:
        served = serve_stream(service, source, sys.stdout)
        stats = service.stats()
    finally:
        service.close()
    print(f"served {served} requests — {stats.describe()}", file=sys.stderr)
    return 0


def _serve_socket(args: argparse.Namespace, service) -> int:
    """Run the TCP front-end until SIGTERM/SIGINT, then drain gracefully."""
    import signal
    import threading

    from repro.service import SocketServer

    shutdown_requested = threading.Event()

    def _request_shutdown(signum, frame):  # noqa: ARG001 - signal signature
        # Signal handlers must stay tiny: flag only; the actual drain
        # (joining connection threads, flushing responses) runs on the main
        # thread below.
        shutdown_requested.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _request_shutdown)
    try:
        # A bad port or an address in use raises ServiceError (exit 2);
        # the service still closes below.
        server = SocketServer(
            service,
            host=args.host,
            port=args.port,
            max_connections=args.max_connections,
            idle_timeout=args.idle_timeout,
        )
        host, port = server.start()
        print(f"serving on {host}:{port} (ctrl-c or SIGTERM drains)", file=sys.stderr)
        shutdown_requested.wait()
        server.close(drain=True)
        stats = service.stats()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        service.close()
    print(f"drained — {stats.describe()}", file=sys.stderr)
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    """Front a fleet of ``repro serve --port`` nodes with consistent-hash
    routing: JSON-lines in, JSON-lines out, each response stamped with the
    node that served it."""
    from repro.service import Router, route_stream

    try:
        router = Router(
            args.nodes,
            replicas=args.replicas,
            timeout=args.request_timeout,
        )
    except ValueError as error:
        raise ReproError(f"invalid router setting: {error}") from error
    if args.requests:
        source = Path(args.requests).read_text().splitlines()
    else:
        source = sys.stdin
    try:
        with router:
            routed = route_stream(router, source, sys.stdout)
            stats = router.stats()
    except OSError as error:
        raise ReproError(f"fleet unreachable: {error}") from error
    cache = stats.get("result_cache")
    cache_note = (
        ""
        if not isinstance(cache, dict)
        else f", result-cache hit rate {cache.get('hit_rate', 0.0):.0%}"
    )
    print(
        f"routed {routed} requests across {len(router.ring)} nodes — "
        f"fleet served {stats.get('served', 0)}, failed {stats.get('failed', 0)}"
        f"{cache_note}",
        file=sys.stderr,
    )
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    dataset = BHiveDataset.synthesize(
        args.size,
        min_instructions=args.min_instructions,
        max_instructions=args.max_instructions,
        microarchs=tuple(args.uarchs),
        rng=args.seed,
        backend=args.backend,
        workers=args.workers,
    )
    dataset.save(args.output)
    print(f"wrote {len(dataset)} blocks to {args.output}")
    return 0


# -------------------------------------------------------------------- parser


def _add_block_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--block", help="inline block text; instructions separated by ';' or newlines"
    )
    parser.add_argument("--block-file", help="path to a file with one instruction per line")


def _add_backend_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        default="serial",
        choices=available_backends(),
        help="execution substrate for batched model/oracle work "
        "(process escapes the GIL for simulator models)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for the process backend (default: CPU count)",
    )


def _add_explain_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epsilon", type=float, default=0.5, help="acceptance ball radius")
    parser.add_argument(
        "--relative-epsilon", type=float, default=0.1, help="relative ball component"
    )
    parser.add_argument("--delta", type=float, default=0.3, help="1 - precision threshold")
    parser.add_argument("--coverage-samples", type=int, default=400)
    parser.add_argument("--max-precision-samples", type=int, default=150)


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model", default="uica", choices=_CLI_MODELS, help="cost model to query"
    )
    parser.add_argument(
        "--uarch",
        default="hsw",
        choices=available_microarchitectures(),
        help="target micro-architecture",
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="COMET cost-model explanation framework (reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    predict = subparsers.add_parser("predict", help="predict a block's throughput")
    _add_block_arguments(predict)
    _add_model_arguments(predict)
    predict.set_defaults(func=_cmd_predict)

    explain = subparsers.add_parser("explain", help="explain a cost model's prediction")
    _add_block_arguments(explain)
    _add_model_arguments(explain)
    _add_explain_config_arguments(explain)
    explain.add_argument("--seed", type=int, default=0)
    explain.add_argument("--json", action="store_true", help="emit JSON instead of text")
    explain.add_argument(
        "--blocks-file",
        help="explain a whole fleet: a file with one block per line "
        "(instructions separated by ';'; blank and '#' lines are skipped)",
    )
    explain.add_argument(
        "--checkpoint",
        help="result-cache store for a crash-safe --blocks-file run (a file "
        "'repro serve --result-cache' can share); rerunning the same command "
        "resumes where the interrupted run stopped and yields bit-for-bit "
        "identical results",
    )
    _add_backend_arguments(explain)
    explain.set_defaults(func=_cmd_explain)

    serve = subparsers.add_parser(
        "serve",
        help="serve explanation requests from a warm session "
        "(JSON-lines on stdin/stdout)",
    )
    _add_model_arguments(serve)
    _add_explain_config_arguments(serve)
    _add_backend_arguments(serve)
    serve.add_argument(
        "--dispatchers",
        type=int,
        default=1,
        help="dispatcher threads serving the request queue (default: 1); "
        "requests are routed by (model, uarch) key, so seeded results are "
        "identical at any dispatcher count; dispatchers take turns, and "
        "distinct models overlap only while one waits on process-backend "
        "workers",
    )
    serve.add_argument(
        "--continuous-batching",
        action="store_true",
        help="fuse concurrent same-(model, uarch) requests into shared "
        "predict_batch ticks at KL-LUCB round granularity; per-request "
        "results stay bit-for-bit identical to unfused serving",
    )
    serve.add_argument(
        "--max-fused-requests",
        type=int,
        default=MAX_FUSED_REQUESTS,
        help="cap on requests resident in one fused tick group "
        f"(default: {MAX_FUSED_REQUESTS})",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="bound on buffered requests (backpressure surface)",
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=4,
        help="how many per-model warm sessions to keep resident",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        help="server-side deadline in seconds applied to every request that "
        "does not carry its own; enforced while queued and cooperatively "
        "between estimation rounds while running (default: none)",
    )
    serve.add_argument(
        "--requests",
        help="read request lines from this file instead of stdin "
        "(one JSON object or block text per line)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="serve the JSON-lines protocol over TCP on this port instead of "
        "stdin/stdout (0 picks an ephemeral port; printed to stderr)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for --port (default: loopback only)",
    )
    serve.add_argument(
        "--max-connections",
        type=int,
        default=8,
        help="concurrent TCP client cap for --port; extra connections get an "
        "in-band error and are closed",
    )
    serve.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        help="seconds a TCP connection may idle (no traffic, no response "
        "owed) before the server hangs up (default: never)",
    )
    serve.add_argument(
        "--result-cache",
        default=None,
        metavar="PATH",
        help="persist whole explanations to this on-disk store and serve "
        "repeats from it (tier-0 in-process LRU over a tier-1 append-only "
        "log; default: off)",
    )
    serve.set_defaults(func=_cmd_serve)

    route = subparsers.add_parser(
        "route",
        help="front a fleet of 'repro serve --port' nodes with "
        "consistent-hash routing (JSON-lines on stdin/stdout)",
    )
    route.add_argument(
        "--nodes",
        required=True,
        help="comma-separated fleet addresses, host:port,host:port,... "
        "(each a running 'repro serve --port' process); requests route by "
        "(model, uarch, blocks) so repeats of a request always land on the "
        "node whose caches are already warm for it",
    )
    route.add_argument(
        "--replicas",
        type=int,
        default=64,
        help="virtual points per node on the hash ring (more = smoother "
        "load split; placement stays deterministic at any count)",
    )
    route.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        help="seconds to wait for each routed response (default: forever)",
    )
    route.add_argument(
        "--requests",
        help="read request lines from this file instead of stdin "
        "(one JSON object or block text per line)",
    )
    route.set_defaults(func=_cmd_route)

    features = subparsers.add_parser("features", help="list a block's candidate features")
    _add_block_arguments(features)
    features.set_defaults(func=_cmd_features)

    perturb = subparsers.add_parser("perturb", help="sample perturbations of a block")
    _add_block_arguments(perturb)
    perturb.add_argument("--count", type=int, default=3, help="number of perturbations")
    perturb.add_argument(
        "--preserve-count", action="store_true", help="preserve the instruction count"
    )
    perturb.add_argument(
        "--preserve-instruction",
        type=int,
        action="append",
        help="1-based index of an instruction to preserve (repeatable)",
    )
    perturb.add_argument("--seed", type=int, default=0)
    perturb.set_defaults(func=_cmd_perturb)

    space = subparsers.add_parser(
        "space", help="estimate the size of a block's perturbation space (Appendix F)"
    )
    _add_block_arguments(space)
    space.set_defaults(func=_cmd_space)

    optimize = subparsers.add_parser(
        "optimize", help="explanation-guided predicted-cost minimisation"
    )
    _add_block_arguments(optimize)
    _add_model_arguments(optimize)
    optimize.add_argument("--steps", type=int, default=40)
    optimize.add_argument(
        "--unguided", action="store_true", help="disable explanation guidance"
    )
    optimize.add_argument("--seed", type=int, default=0)
    optimize.set_defaults(func=_cmd_optimize)

    dataset = subparsers.add_parser(
        "dataset", help="synthesize a BHive-style dataset and save it as JSON"
    )
    dataset.add_argument("--size", type=int, default=200)
    dataset.add_argument("--min-instructions", type=int, default=2)
    dataset.add_argument("--max-instructions", type=int, default=12)
    dataset.add_argument(
        "--uarchs", nargs="+", default=list(available_microarchitectures())
    )
    dataset.add_argument("--seed", type=int, default=0)
    dataset.add_argument("--output", required=True, help="output JSON path")
    _add_backend_arguments(dataset)
    dataset.set_defaults(func=_cmd_dataset)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Every command with a --seed seeds numpy, which rejects a negative
        # seed only once the work has started, with a traceback.
        if getattr(args, "seed", 0) < 0:
            raise ReproError(f"invalid seed {args.seed}: seeds are non-negative integers")
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
