"""Seeded parity of the batched explanation pipeline.

The batched query engine must be a pure throughput optimisation: given the
same random seed, answering a refinement round's blocks with one batched
model call has to produce *exactly* the explanation that the sequential
one-query-per-block path produces.  These tests pin that
bit-for-bit contract (and seeded determinism generally), plus the round
protocol of the KL-LUCB estimator that both paths serve.
"""

import numpy as np
import pytest

from repro.bb.block import BasicBlock
from repro.bb.features import extract_features
from repro.explain.config import ExplainerConfig
from repro.explain.explainer import CometExplainer
from repro.explain.precision import PrecisionEstimator
from repro.models.analytical import AnalyticalCostModel
from repro.models.base import CachedCostModel
from repro.models.mca import PortPressureCostModel
from repro.perturb.config import PerturbationConfig, ReplacementScheme
from repro.runtime.backend import available_backends, resolve_backend
from repro.runtime.session import ExplanationSession

from tests.conftest import FAST_CONFIG
from tests.explain.conftest import answer_estimator_rounds


def _explain(block, *, batched: bool, seed: int):
    config = FAST_CONFIG.with_overrides(batch_queries=batched)
    model = CachedCostModel(AnalyticalCostModel("hsw"))
    return CometExplainer(model, config, rng=seed).explain(block)


def _fingerprint(explanation):
    # Deliberately local (not tests.conftest.explanation_fingerprint): this
    # module pins num_queries parity too, which only holds for the unsharded
    # paths compared here.
    return (
        tuple(f.describe() for f in explanation.features),
        explanation.precision,
        explanation.coverage,
        explanation.precision_samples,
        explanation.num_queries,
        explanation.meets_threshold,
    )


class TestBatchedSequentialParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    def test_seeded_explanations_identical(self, tiny_blocks, seed):
        for block in tiny_blocks:
            batched = _explain(block, batched=True, seed=seed)
            sequential = _explain(block, batched=False, seed=seed)
            assert _fingerprint(batched) == _fingerprint(sequential)

    def test_parity_holds_with_dependency_heavy_block(self):
        block = BasicBlock.from_text(
            "mov ecx, edx\nxor edx, edx\nlea rax, [rcx + rax - 1]\n"
            "div rcx\nmov rdx, rcx\nimul rax, rcx"
        )
        for seed in (0, 11):
            assert _fingerprint(_explain(block, batched=True, seed=seed)) == (
                _fingerprint(_explain(block, batched=False, seed=seed))
            )

    @pytest.mark.parametrize("batched", [True, False])
    def test_seeded_determinism(self, tiny_blocks, batched):
        first = _explain(tiny_blocks[0], batched=batched, seed=9)
        second = _explain(tiny_blocks[0], batched=batched, seed=9)
        assert _fingerprint(first) == _fingerprint(second)

    def test_batched_is_default(self):
        assert ExplainerConfig().batch_queries is True


class TestReferenceGamma:
    """The full explainer on the scalar reference Γ (``vectorized=False``),
    the oracle engine the wave engine's retries also run on."""

    CONFIG = FAST_CONFIG.with_overrides(
        perturbation=PerturbationConfig(vectorized=False)
    )

    def _explain(self, block, *, batched):
        model = CachedCostModel(AnalyticalCostModel("hsw"))
        config = self.CONFIG.with_overrides(batch_queries=batched)
        return CometExplainer(model, config, rng=3).explain(block)

    def test_explanations_are_sound_and_path_independent(self, tiny_blocks):
        certified = 0
        for block in tiny_blocks:
            batched = self._explain(block, batched=True)
            sequential = self._explain(block, batched=False)
            assert _fingerprint(batched) == _fingerprint(sequential)
            assert set(batched.features) <= set(extract_features(block))
            if batched.meets_threshold:
                certified += 1
                assert batched.precision >= self.CONFIG.precision_threshold
        assert certified, "no anchor was certified; the precision check is vacuous"

    def test_whole_instruction_scheme_runs_end_to_end(self, tiny_blocks):
        # The wave engine hands this scheme to the reference engine whatever
        # ``vectorized`` says, so both settings explain identically.
        results = {}
        for vectorized in (True, False):
            config = FAST_CONFIG.with_overrides(
                perturbation=PerturbationConfig(
                    replacement_scheme=ReplacementScheme.WHOLE_INSTRUCTION,
                    vectorized=vectorized,
                )
            )
            model = CachedCostModel(AnalyticalCostModel("hsw"))
            explanations = CometExplainer(model, config, rng=4).explain_many(
                tiny_blocks, rng=4
            )
            results[vectorized] = [_fingerprint(e) for e in explanations]
            for block, explanation in zip(tiny_blocks, explanations):
                assert set(explanation.features) <= set(extract_features(block))
        assert results[True] == results[False]


class TestBackendParity:
    """Seeded explanations must not depend on the execution substrate.

    Backends decide only where deterministic predictions run, so for a fixed
    rng the serial and process backends must produce identical explanations
    — through both ``explain`` and the ``explain_many`` fleet path.
    Exercised on a simulator-style model (the kind that actually fans out).
    """

    def _fleet(self, tiny_blocks, backend_name, seed):
        model = CachedCostModel(PortPressureCostModel("hsw"))
        with ExplanationSession(
            model, FAST_CONFIG, backend=backend_name, workers=2
        ) as session:
            return [_fingerprint(e) for e in session.explain_many(tiny_blocks, rng=seed)]

    def test_explain_many_identical_across_backends(self, tiny_blocks):
        assert self._fleet(tiny_blocks[:2], "serial", 7) == self._fleet(
            tiny_blocks[:2], "process", 7
        )

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_explain_identical_across_backends(self, tiny_blocks, backend_name):
        baseline = CometExplainer(
            CachedCostModel(PortPressureCostModel("hsw")), FAST_CONFIG
        ).explain(tiny_blocks[0], rng=13)
        with resolve_backend(backend_name, 2) as backend:
            explainer = CometExplainer(
                CachedCostModel(PortPressureCostModel("hsw")),
                FAST_CONFIG,
                backend=backend,
            )
            routed = explainer.explain(tiny_blocks[0], rng=13)
        assert _fingerprint(baseline) == _fingerprint(routed)


class TestEstimatorRoundSemantics:
    """The KL-LUCB estimator's round protocol, which every search serves."""

    def test_selects_best_arm(self):
        estimator = PrecisionEstimator(3, max_samples=300)
        top, _ = answer_estimator_rounds(
            estimator.select_top_rounds(1), [0.15, 0.9, 0.5], seed=0
        )
        assert top == [1]

    def test_minimum_fill_is_one_round(self):
        estimator = PrecisionEstimator(2, min_samples=20)
        _, rounds = answer_estimator_rounds(
            estimator.select_top_rounds(1), [0.5, 0.6], seed=0
        )
        assert rounds[0] == [(0, 20), (1, 20)]
        # Refinement rounds draw for the weakest winner and the strongest
        # challenger only.
        assert all(len(requests) <= 2 for requests in rounds[1:])

    def test_requests_clamped_to_budget(self):
        estimator = PrecisionEstimator(1, min_samples=10, max_samples=25)
        step = estimator._request_round([(0, 10), (0, 10), (0, 10)])
        assert next(step) == [(0, 10), (0, 10), (0, 5)]
        with pytest.raises(StopIteration):
            step.send([np.ones(count, dtype=bool) for count in (10, 10, 5)])
        assert int(estimator._trials[0]) == 25

    def test_certify_threshold_rounds(self):
        estimator = PrecisionEstimator(1, max_samples=400)
        (meets, precision, _), _ = answer_estimator_rounds(
            estimator.certify_threshold_rounds(0, 0.7), [0.95], seed=0
        )
        assert meets and precision > 0.8

    def test_arm_count_must_be_positive(self):
        with pytest.raises(ValueError):
            PrecisionEstimator(-1)

    def test_mismatched_outcome_count_rejected(self):
        estimator = PrecisionEstimator(1)
        step = estimator._request_round([(0, 5)])
        assert next(step) == [(0, 5)]
        with pytest.raises(ValueError, match="0 outcome sequences for 1 requests"):
            step.send([])

    def test_numpy_outcomes_accepted(self):
        estimator = PrecisionEstimator(1, min_samples=8)
        _, rounds = answer_estimator_rounds(
            estimator._request_round(estimator._minimum_fill_requests()), [1.0], seed=0
        )
        assert rounds == [[(0, 8)]]
        assert (int(estimator._trials[0]), int(estimator._successes[0])) == (8, 8)
