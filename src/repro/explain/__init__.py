"""COMET: the cost-model explanation framework (the paper's core contribution).

Public entry point::

    from repro.explain import CometExplainer, ExplainerConfig

    explainer = CometExplainer(cost_model, ExplainerConfig(epsilon=0.5))
    explanation = explainer.explain(block)
    print(explanation.describe())

The explainer assumes only query access to the cost model, extracts the
block's candidate features, and runs an Anchors-style beam search whose
precision estimates use KL-LUCB confidence bounds over samples drawn from the
block perturbation algorithm Γ.
"""

from repro.explain.config import ExplainerConfig
from repro.explain.explanation import Explanation
from repro.explain.precision import (
    kl_bernoulli,
    bernoulli_upper_bound,
    bernoulli_lower_bound,
    confidence_beta,
    PrecisionEstimator,
)
from repro.explain.coverage import CoverageEstimator
from repro.explain.anchors import AnchorSearch, AnchorCandidate
from repro.explain.explainer import CometExplainer, explain_block

__all__ = [
    "ExplainerConfig",
    "Explanation",
    "kl_bernoulli",
    "bernoulli_upper_bound",
    "bernoulli_lower_bound",
    "confidence_beta",
    "PrecisionEstimator",
    "CoverageEstimator",
    "AnchorSearch",
    "AnchorCandidate",
    "CometExplainer",
    "explain_block",
]
