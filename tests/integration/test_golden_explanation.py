"""Golden end-to-end regression: one seeded explanation, pinned bit-for-bit.

``golden_explanation.json`` is a checked-in snapshot of everything a seeded
end-to-end explanation produces for the paper's division block on the crude
model — the block, the anchor features, the precision/coverage numbers, the
query count.  The direct explainer, the session runtime and the warm service
must all reproduce it exactly, so a refactor anywhere in the stack (sampler,
estimator, cache, backend, service) that silently drifts results fails here
first.

Regenerating (only after an *intentional* semantic change)::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/integration/test_golden_explanation.py -q

then commit the updated JSON alongside the change that justified it.
"""

import json
import os
from pathlib import Path

import pytest

from repro.bb.block import BasicBlock
from repro.explain.config import ExplainerConfig
from repro.explain.explainer import CometExplainer
from repro.models.analytical import AnalyticalCostModel
from repro.models.base import CachedCostModel
from repro.reporting.export import explanation_to_dict
from repro.runtime.session import ExplanationSession
from repro.service import ExplanationService

GOLDEN_PATH = Path(__file__).parent / "golden_explanation.json"
REGEN_ENV_VAR = "REPRO_REGEN_GOLDEN"

#: The paper's Listing-2-style division block (also used by the CLI docs).
GOLDEN_BLOCK = (
    "mov ecx, edx\n"
    "xor edx, edx\n"
    "lea rax, [rcx + rax - 1]\n"
    "div rcx\n"
    "mov rdx, rcx\n"
    "imul rax, rcx"
)
GOLDEN_SEED = 2024
GOLDEN_CONFIG = ExplainerConfig(
    epsilon=0.2,
    relative_epsilon=0.0,
    coverage_samples=150,
    max_precision_samples=80,
    min_precision_samples=16,
    batch_size=8,
)


def _compute_golden() -> dict:
    block = BasicBlock.from_text(GOLDEN_BLOCK)
    model = CachedCostModel(AnalyticalCostModel("hsw"))
    explanation = CometExplainer(model, GOLDEN_CONFIG).explain(block, rng=GOLDEN_SEED)
    payload = explanation_to_dict(explanation)
    payload["seed"] = GOLDEN_SEED
    payload["precision_samples"] = explanation.precision_samples
    payload["candidates_evaluated"] = explanation.candidates_evaluated
    return payload


@pytest.fixture(scope="module")
def golden() -> dict:
    if os.environ.get(REGEN_ENV_VAR):
        GOLDEN_PATH.write_text(json.dumps(_compute_golden(), indent=2) + "\n")
    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH} is missing; regenerate it with {REGEN_ENV_VAR}=1"
    )
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenExplanation:
    def test_direct_explainer_reproduces_golden(self, golden):
        assert _compute_golden() == golden

    def test_golden_is_a_meaningful_explanation(self, golden):
        # Sanity on the artifact itself, so a bad regeneration can't pin noise.
        assert golden["meets_threshold"] is True
        assert golden["features"], "golden anchor must be non-empty"
        assert 0.0 < golden["precision"] <= 1.0
        assert 0.0 < golden["coverage"] <= 1.0
        described = " ".join(f["description"] for f in golden["features"])
        assert "div" in described or "RAW" in described

    def test_session_runtime_reproduces_golden(self, golden):
        block = BasicBlock.from_text(GOLDEN_BLOCK)
        with ExplanationSession(AnalyticalCostModel("hsw"), GOLDEN_CONFIG) as session:
            explanation = session.explain(block, rng=GOLDEN_SEED)
        payload = explanation_to_dict(explanation)
        for key in ("block", "prediction", "precision", "coverage",
                    "meets_threshold", "features", "num_queries"):
            assert payload[key] == golden[key], key

    @pytest.mark.parametrize("dispatchers", [1, 4])
    @pytest.mark.parametrize("continuous_batching", [False, True])
    def test_warm_service_reproduces_golden(
        self, golden, dispatchers, continuous_batching
    ):
        """The single-dispatcher oracle, the 4-dispatcher scheduler and the
        continuous batcher must all serve the golden payload, warm and cold
        alike."""
        block = BasicBlock.from_text(GOLDEN_BLOCK)
        with ExplanationService(
            model="crude",
            config=GOLDEN_CONFIG,
            dispatchers=dispatchers,
            continuous_batching=continuous_batching,
        ) as service:
            # Twice: the warm (second) request must be as golden as the first.
            first = service.explain(block, seed=GOLDEN_SEED)[0]
            second = service.explain(block, seed=GOLDEN_SEED)[0]
        for explanation in (first, second):
            payload = explanation_to_dict(explanation)
            for key in ("block", "prediction", "precision", "coverage",
                        "meets_threshold", "features"):
                assert payload[key] == golden[key], key

    @pytest.mark.parametrize("continuous_batching", [False, True])
    @pytest.mark.parametrize(
        "cache_state", ["disabled", "cold", "warm", "warm-restart"]
    )
    def test_result_cache_state_matrix_reproduces_golden(
        self, golden, tmp_path, cache_state, continuous_batching
    ):
        """Cold == warm == disabled == golden, bit-for-bit, fused or not.

        The result cache memoizes whole explanations, so every cache
        temperature must serve the same payload the no-cache
        single-dispatcher oracle (the golden JSON itself) produces:

        * ``disabled`` — no cache (``result_cache=False``);
        * ``cold`` — an empty store, first touch computes and writes through;
        * ``warm`` — the same service answering a repeat from tier 0;
        * ``warm-restart`` — a *new* service process-life answering from the
          on-disk tier a previous life wrote.

        ``num_queries`` is excluded from the golden comparison here as in
        every warm-service test: it counts *uncached inner-model* queries,
        which depend on shared query-LRU warmth by design.  Its attribution
        rule under the result cache — a hit returns the stored payload
        verbatim, so a hit's ``num_queries`` is the *storing* computation's
        count — is pinned separately below.
        """
        block = BasicBlock.from_text(GOLDEN_BLOCK)
        path = tmp_path / "golden.cache"
        result_cache = False if cache_state == "disabled" else str(path)
        if cache_state == "warm-restart":
            with ExplanationService(
                model="crude", config=GOLDEN_CONFIG, result_cache=str(path)
            ) as warmer:
                warmer.explain(block, seed=GOLDEN_SEED)
        with ExplanationService(
            model="crude",
            config=GOLDEN_CONFIG,
            dispatchers=1,
            continuous_batching=continuous_batching,
            result_cache=result_cache,
        ) as service:
            first = service.explain(block, seed=GOLDEN_SEED)[0]
            second = service.explain(block, seed=GOLDEN_SEED)[0]
            stats = service.stats()
        for explanation in (first, second):
            payload = explanation_to_dict(explanation)
            for key in ("block", "prediction", "precision", "coverage",
                        "meets_threshold", "features"):
                assert payload[key] == golden[key], key
        if cache_state == "disabled":
            assert stats.result_cache is None
        else:
            assert stats.result_cache is not None
            assert stats.result_cache.hits > 0, "cache-enabled arm never hit"

    def test_cache_hit_returns_stored_payload_verbatim(self, golden, tmp_path):
        """num_queries attribution: a hit is the storing computation's
        payload byte-for-byte — including its query count — not a fresh
        count of the (zero) queries the hit itself issued."""
        block = BasicBlock.from_text(GOLDEN_BLOCK)
        with ExplanationService(
            model="crude",
            config=GOLDEN_CONFIG,
            result_cache=str(tmp_path / "verbatim.cache"),
        ) as service:
            first = explanation_to_dict(service.explain(block, seed=GOLDEN_SEED)[0])
            second = explanation_to_dict(service.explain(block, seed=GOLDEN_SEED)[0])
            assert service.stats().result_cache.hits >= 1
        assert second == first  # the whole dict, num_queries included

    def test_golden_holds_across_backends(self, golden):
        block = BasicBlock.from_text(GOLDEN_BLOCK)
        with ExplanationSession(
            AnalyticalCostModel("hsw"), GOLDEN_CONFIG, backend="process", workers=2
        ) as session:
            explanation = session.explain(block, rng=GOLDEN_SEED)
        payload = explanation_to_dict(explanation)
        for key in ("prediction", "precision", "coverage", "meets_threshold",
                    "features", "num_queries"):
            assert payload[key] == golden[key], key
