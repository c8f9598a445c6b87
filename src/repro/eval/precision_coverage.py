"""Table 3: average precision and coverage of COMET's explanations.

The state-of-the-art cost models (the neural Ithemal stand-in and the
simulation-based uiCA stand-in) have no ground-truth explanations, so — as in
the paper — explanation quality is reported through the empirical precision
(faithfulness proxy) and coverage (generalisability proxy) of the returned
feature sets, averaged over the explanation test set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bb.block import BasicBlock
from repro.eval.context import EvaluationContext
from repro.eval.metrics import summarize_mean_std
from repro.explain.explanation import Explanation
from repro.runtime.backend import BackendSource
from repro.runtime.session import ExplanationSession
from repro.utils.tables import format_mean_std, render_table


@dataclass
class PrecisionCoverageRow:
    """One row of Table 3: a (model, micro-architecture) pair."""

    model_label: str
    microarch: str
    precision_mean: float
    precision_std: float
    coverage_mean: float
    coverage_std: float
    explanations: List[Explanation]

    def as_cells(self) -> List[object]:
        return [
            f"{self.model_label} ({self.microarch.upper()})",
            format_mean_std(self.precision_mean, self.precision_std),
            format_mean_std(self.coverage_mean, self.coverage_std),
        ]


@dataclass
class PrecisionCoverageResult:
    """All rows of Table 3."""

    rows: List[PrecisionCoverageRow]
    blocks_evaluated: int

    def render(self) -> str:
        return render_table(
            ["Model", "Av. Precision", "Av. Coverage"],
            [row.as_cells() for row in self.rows],
            title=f"Table 3: average precision and coverage of COMET's explanations "
            f"({self.blocks_evaluated} blocks)",
        )


def explain_blocks(
    model,
    blocks: Sequence[BasicBlock],
    config,
    seed,
    *,
    backend: BackendSource = None,
) -> List[Explanation]:
    """Explain every block through one session (shared helper).

    The session spawns the same independent per-block random streams the
    harness always used; it adds the shared cache wrapper and — when
    ``backend`` says so — process fan-out of the model queries.
    """
    with ExplanationSession(model, config, backend=backend) as session:
        return session.explain_many(blocks, rng=seed)


def run_precision_coverage_experiment(
    context: Optional[EvaluationContext] = None,
    *,
    models: Sequence[str] = ("ithemal", "uica"),
    blocks: Optional[Sequence[BasicBlock]] = None,
    seed: int = 11,
    backend: BackendSource = None,
) -> PrecisionCoverageResult:
    """Run the Table 3 experiment for the given models and micro-architectures."""
    context = context or EvaluationContext.shared()
    settings = context.settings
    blocks = list(blocks) if blocks is not None else context.test_blocks()

    labels = {"ithemal": "Ithemal (I)", "uica": "uiCA (U)"}
    rows: List[PrecisionCoverageRow] = []
    for model_name in models:
        for microarch in settings.microarchs:
            model = context.model(model_name, microarch)
            explanations = explain_blocks(
                model, blocks, settings.explainer_config, seed, backend=backend
            )
            precision_mean, precision_std = summarize_mean_std(
                [e.precision for e in explanations]
            )
            coverage_mean, coverage_std = summarize_mean_std(
                [e.coverage for e in explanations]
            )
            rows.append(
                PrecisionCoverageRow(
                    model_label=labels.get(model_name, model_name),
                    microarch=microarch,
                    precision_mean=precision_mean,
                    precision_std=precision_std,
                    coverage_mean=coverage_mean,
                    coverage_std=coverage_std,
                    explanations=explanations,
                )
            )
    return PrecisionCoverageResult(rows=rows, blocks_evaluated=len(blocks))
