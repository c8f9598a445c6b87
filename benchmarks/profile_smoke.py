"""cProfile smoke check of the explanation hot path.

Profiles a small batched analytical-model workload, prints the top-20
functions by cumulative time, and asserts two shares of the run:

* the cost model's own batch prediction keeps at least a *floor* share —
  the engine exists to spend its time querying the model, and framework
  code must not quietly grow back around the model calls;
* Γ (perturbation generation, ``perturb_many``) stays under a *ceiling*
  share — a Γ share creeping over the ceiling means perturbation has
  become the hot loop's bottleneck again (the Amdahl budget
  ``docs/performance.md`` tracks).

Run standalone (exits non-zero when either bound is violated):

    PYTHONPATH=src python benchmarks/profile_smoke.py
    PYTHONPATH=src python benchmarks/profile_smoke.py --min-model-share 0.1
    PYTHONPATH=src python benchmarks/profile_smoke.py --max-gamma-share 0.5
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.data.synthesis import BlockSynthesizer
from repro.explain.config import ExplainerConfig
from repro.explain.explainer import CometExplainer
from repro.models.analytical import AnalyticalCostModel
from repro.models.base import CachedCostModel


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--blocks", type=int, default=4)
    parser.add_argument("--min-size", type=int, default=4)
    parser.add_argument("--max-size", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--min-model-share",
        type=float,
        default=0.10,
        help="required share of total profiled time spent inside the inner "
        "model's _predict_batch (cumulative)",
    )
    parser.add_argument(
        "--max-gamma-share",
        type=float,
        default=0.55,
        help="maximum share of total profiled time spent inside Γ "
        "(perturb_many, cumulative)",
    )
    parser.add_argument("--top", type=int, default=20)
    return parser.parse_args(argv)


def model_share(stats: pstats.Stats) -> float:
    """Cumulative-time share of the inner model's batch prediction.

    The marker is matched on function name so the check survives
    line-number drift; matching on ``analytical.py`` keeps it pinned to the
    analytical model's fused kernel.
    """
    total = stats.total_tt
    if total <= 0.0:
        raise SystemExit("profile captured no time at all")
    model = 0.0
    for (filename, _line, name), entry in stats.stats.items():
        if name == "_predict_batch" and filename.endswith("analytical.py"):
            model += entry[3]
    return model / total


def gamma_share(stats: pstats.Stats) -> float:
    """Cumulative-time share of Γ: perturbation generation end to end.

    ``perturb_many`` is the perturber's one batched entry point; matching on
    ``algorithm.py`` keeps the check pinned to the perturber even if
    same-named methods appear elsewhere.
    """
    total = stats.total_tt
    if total <= 0.0:
        raise SystemExit("profile captured no time at all")
    gamma = 0.0
    for (filename, _line, name), entry in stats.stats.items():
        if name == "perturb_many" and filename.endswith("algorithm.py"):
            gamma += entry[3]
    return gamma / total


def main(argv=None) -> int:
    args = parse_args(argv)
    blocks = BlockSynthesizer(rng=args.seed).generate_many(
        args.blocks,
        min_instructions=args.min_size,
        max_instructions=args.max_size,
        rng=args.seed + 1,
    )
    model = CachedCostModel(AnalyticalCostModel("hsw"))
    explainer = CometExplainer(
        model,
        ExplainerConfig(epsilon=0.2, relative_epsilon=0.0, batch_queries=True),
        rng=args.seed,
    )
    explainer.explain(blocks[0], rng=args.seed)  # warm caches/tables

    profiler = cProfile.Profile()
    profiler.enable()
    explainer.explain_many(blocks, rng=args.seed + 1)
    profiler.disable()

    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(args.top)
    share = model_share(stats)
    print(f"inner-model _predict_batch share of total time: {share:.1%}")
    gamma = gamma_share(stats)
    print(f"gamma perturb_many share of total time: {gamma:.1%}")
    failed = False
    if share < args.min_model_share:
        print(
            f"FAIL: model share {share:.1%} is below the "
            f"{args.min_model_share:.1%} floor — framework overhead has "
            "grown around the model calls",
            file=sys.stderr,
        )
        failed = True
    else:
        print(f"OK: model share meets the {args.min_model_share:.1%} floor")
    if gamma > args.max_gamma_share:
        print(
            f"FAIL: gamma share {gamma:.1%} is above the "
            f"{args.max_gamma_share:.1%} ceiling — perturbation generation "
            "has crept back into the hot loop",
            file=sys.stderr,
        )
        failed = True
    else:
        print(f"OK: gamma share is under the {args.max_gamma_share:.1%} ceiling")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
