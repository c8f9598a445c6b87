"""Output checks.  Each operation that fails one counts as a failed one."""

from __future__ import annotations

import json
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.bb.block import BasicBlock
from repro.bb.features import Feature, extract_features
from repro.explain.explanation import Explanation
from repro.perturb.sampler import PerturbationSampler
from repro.reporting.export import feature_to_dict


def _normalised(payload):
    """A JSON round trip, so tuples and lists compare equal."""
    return json.loads(json.dumps(payload))


def explanation_problem(explanation: Explanation, threshold: float) -> Optional[str]:
    """Why an in-process explanation is wrong, or ``None``.

    Every anchor feature must be a feature of the explained block, and a
    certified anchor's precision estimate must clear the threshold.
    """
    allowed = set(extract_features(explanation.block))
    for feature in explanation.features:
        if feature not in allowed:
            return f"anchor feature not in block: {feature.describe()}"
    if explanation.meets_threshold and explanation.precision < threshold:
        return (
            f"certified anchor has precision {explanation.precision:.3f} "
            f"< {threshold:.3f}"
        )
    return None


def response_problem(response: dict, block: BasicBlock, threshold: float) -> Optional[str]:
    """Why one service response is wrong, or ``None`` (same rules)."""
    if response.get("status") != "done":
        return f"status {response.get('status')}: {response.get('error')}"
    explanations = response.get("explanations") or []
    if len(explanations) != 1:
        return f"expected one explanation, got {len(explanations)}"
    explanation = explanations[0]
    allowed = [_normalised(feature_to_dict(f)) for f in extract_features(block)]
    for feature in explanation["features"]:
        if feature not in allowed:
            return f"anchor feature not in block: {feature.get('description')}"
    if explanation["meets_threshold"] and explanation["precision"] < threshold:
        return (
            f"certified anchor has precision {explanation['precision']:.3f} "
            f"< {threshold:.3f}"
        )
    return None


def comparable(payload: dict) -> dict:
    """An explanation dictionary without ``num_queries``.

    The query count is the one field that legitimately depends on how warm
    the serving session's query cache was, so parity checks ignore it.
    """
    return {key: value for key, value in _normalised(payload).items() if key != "num_queries"}


def same_explanation(left: Explanation, right: Explanation) -> bool:
    """Field-for-field equality except ``num_queries``."""
    return (
        left.block.key() == right.block.key()
        and left.features == right.features
        and left.prediction == right.prediction
        and left.precision == right.precision
        and left.coverage == right.coverage
        and left.meets_threshold == right.meets_threshold
        and left.epsilon == right.epsilon
        and left.precision_samples == right.precision_samples
        and left.candidates_evaluated == right.candidates_evaluated
    )


def features_from_dicts(block: BasicBlock, payloads: Sequence[dict]) -> List[Feature]:
    """Map wire feature dictionaries back to the block's feature objects."""
    by_payload = {
        json.dumps(_normalised(feature_to_dict(f)), sort_keys=True): f
        for f in extract_features(block)
    }
    return [by_payload[json.dumps(p, sort_keys=True)] for p in payloads]


def heldout_precision(
    model,
    block: BasicBlock,
    features: Iterable[Feature],
    prediction: float,
    tolerance: float,
    perturbation,
    seed: int,
    samples: int = 200,
) -> float:
    """Precision of an anchor re-scored on fresh Γ samples.

    Draws ``samples`` perturbations that keep ``features`` from a stream the
    search never saw, predicts them through ``model`` and returns the share
    whose prediction stays inside the explanation's tolerance ball.
    """
    sampler = PerturbationSampler(block, perturbation, rng=seed)
    perturbed = sampler.sample(tuple(features), samples)
    values = np.asarray(model.predict_batch(perturbed), dtype=float)
    return float(np.mean(np.abs(values - prediction) <= tolerance))
