"""Table 2: accuracy of COMET's explanations against the crude model ``C``.

For every block in the explanation test set the crude analytical model gives
a ground-truth explanation (the features attaining the maximum cost); an
explanation method is scored accurate on a block if it names at least one
ground-truth feature and nothing else.  COMET is compared against the random
and fixed baselines on Haswell and Skylake, averaged over several seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bb.block import BasicBlock
from repro.eval.baselines import FixedExplanationBaseline, RandomExplanationBaseline
from repro.eval.context import EvaluationContext
from repro.eval.metrics import accuracy_rate, explanation_accuracy, summarize_mean_std
from repro.explain.config import ExplainerConfig
from repro.models.analytical import AnalyticalCostModel, ground_truth_explanations
from repro.runtime.backend import BackendSource
from repro.runtime.session import ExplanationSession
from repro.utils.tables import format_mean_std, render_table


@dataclass
class AccuracyResult:
    """Accuracy of the three explanation methods for one experiment run."""

    microarchs: Tuple[str, ...]
    #: method name -> microarch -> (mean accuracy %, std)
    accuracy: Dict[str, Dict[str, Tuple[float, float]]]
    blocks_evaluated: int
    seeds: int

    def render(self) -> str:
        """Text rendering in the shape of the paper's Table 2."""
        headers = ["Explanation"] + [
            f"Acc.(%) over C_{m.upper()}" for m in self.microarchs
        ]
        rows = []
        for method in ("Random", "Fixed", "COMET"):
            row: List[object] = [method]
            for microarch in self.microarchs:
                mean, std = self.accuracy[method][microarch]
                if method == "Fixed":
                    row.append(f"{mean:.2f}")
                else:
                    row.append(format_mean_std(mean, std))
            rows.append(row)
        return render_table(
            headers,
            rows,
            title=f"Table 2: explanation accuracy over the crude cost model "
            f"({self.blocks_evaluated} blocks, {self.seeds} seeds)",
        )


def _comet_accuracy_for_seed(
    blocks: Sequence[BasicBlock],
    model: AnalyticalCostModel,
    config: ExplainerConfig,
    seed,
    *,
    backend: BackendSource = None,
) -> float:
    with ExplanationSession(model, config, backend=backend) as session:
        explanations = session.explain_many(blocks, rng=seed)
    outcomes = [
        explanation_accuracy(
            explanation.features, ground_truth_explanations(block, model)
        )
        for block, explanation in zip(blocks, explanations)
    ]
    return accuracy_rate(outcomes)


def _random_accuracy_for_seed(
    blocks: Sequence[BasicBlock], model: AnalyticalCostModel, seed
) -> float:
    baseline = RandomExplanationBaseline(blocks, model, rng=seed)
    outcomes = []
    for block in blocks:
        truth = ground_truth_explanations(block, model)
        outcomes.append(explanation_accuracy(baseline.explain(block), truth))
    return accuracy_rate(outcomes)


def _fixed_accuracy(blocks: Sequence[BasicBlock], model: AnalyticalCostModel) -> float:
    baseline = FixedExplanationBaseline(blocks, model)
    outcomes = []
    for block in blocks:
        truth = ground_truth_explanations(block, model)
        outcomes.append(explanation_accuracy(baseline.explain(block), truth))
    return accuracy_rate(outcomes)


def run_accuracy_experiment(
    context: Optional[EvaluationContext] = None,
    *,
    blocks: Optional[Sequence[BasicBlock]] = None,
    seeds: Optional[int] = None,
    backend: BackendSource = None,
) -> AccuracyResult:
    """Run the Table 2 experiment and return its result object."""
    context = context or EvaluationContext.shared()
    settings = context.settings
    blocks = list(blocks) if blocks is not None else context.test_blocks()
    seeds = seeds if seeds is not None else settings.seeds
    config = settings.crude_explainer_config()

    accuracy: Dict[str, Dict[str, Tuple[float, float]]] = {
        "Random": {},
        "Fixed": {},
        "COMET": {},
    }
    for microarch in settings.microarchs:
        model = context.crude_model(microarch)
        comet_scores = [
            _comet_accuracy_for_seed(blocks, model, config, 1000 + seed, backend=backend)
            for seed in range(seeds)
        ]
        random_scores = [
            _random_accuracy_for_seed(blocks, model, 2000 + seed)
            for seed in range(seeds)
        ]
        fixed_score = _fixed_accuracy(blocks, model)
        accuracy["COMET"][microarch] = summarize_mean_std(comet_scores)
        accuracy["Random"][microarch] = summarize_mean_std(random_scores)
        accuracy["Fixed"][microarch] = (fixed_score, 0.0)

    return AccuracyResult(
        microarchs=tuple(settings.microarchs),
        accuracy=accuracy,
        blocks_evaluated=len(blocks),
        seeds=seeds,
    )
