"""Tests for the anchor search and the public explainer API.

These tests use cost models whose behaviour is known analytically (constant
models, instruction-count models, the crude model ``C``) so the expected
explanation is unambiguous without large sample budgets.
"""

import pytest

from repro.bb.block import BasicBlock
from repro.bb.features import (
    DependencyFeature,
    FeatureKind,
    InstructionFeature,
    NumInstructionsFeature,
)
from repro.explain.anchors import AnchorSearch
from repro.explain.config import ExplainerConfig
from repro.explain.explainer import (
    CometExplainer,
    answer_rounds,
    explain_block,
    search_block_rounds,
)
from repro.explain.explanation import Explanation
from repro.models.analytical import AnalyticalCostModel
from repro.models.base import CallableCostModel

from tests.conftest import record_searches

FAST_CONFIG = ExplainerConfig(
    epsilon=0.2,
    relative_epsilon=0.0,
    coverage_samples=150,
    max_precision_samples=80,
    min_precision_samples=16,
    batch_size=8,
)


@pytest.fixture
def div_block():
    return BasicBlock.from_text(
        "mov ecx, edx\nxor edx, edx\nlea rax, [rcx + rax - 1]\n"
        "div rcx\nmov rdx, rcx\nimul rax, rcx"
    )


@pytest.fixture
def cheap_block():
    return BasicBlock.from_text(
        "add rax, rbx\nsub rcx, rdx\nxor rsi, rdi\nand r8, r9\n"
        "or r10, r11\nadd r12, r13\nsub r14, r15\nand rbx, rax"
    )


class TestAgainstSyntheticModels:
    def test_constant_model_gets_empty_explanation(self, div_block):
        model = CallableCostModel(lambda b: 5.0, name="constant")
        explanation = CometExplainer(model, FAST_CONFIG, rng=0).explain(div_block)
        assert explanation.features == ()
        assert explanation.meets_threshold
        assert explanation.coverage == pytest.approx(1.0)

    def test_count_model_explained_by_count(self, cheap_block):
        model = CallableCostModel(lambda b: float(b.num_instructions), name="count")
        explanation = CometExplainer(model, FAST_CONFIG, rng=1).explain(cheap_block)
        assert explanation.meets_threshold
        assert explanation.feature_kinds == {FeatureKind.NUM_INSTRUCTIONS}

    def test_div_presence_model_explained_by_div_instruction(self, div_block):
        model = CallableCostModel(
            lambda b: 25.0 if any(i.mnemonic == "div" for i in b) else 1.0,
            name="has-div",
        )
        explanation = CometExplainer(model, FAST_CONFIG, rng=2).explain(div_block)
        assert explanation.meets_threshold
        assert any(
            isinstance(f, InstructionFeature) and f.mnemonic == "div"
            for f in explanation.features
        )


class TestAgainstCrudeModel:
    def test_division_dependency_identified(self, div_block):
        model = AnalyticalCostModel("hsw")
        explanation = CometExplainer(model, FAST_CONFIG, rng=3).explain(div_block)
        assert explanation.meets_threshold
        kinds = {type(f) for f in explanation.features}
        assert kinds <= {DependencyFeature, InstructionFeature}
        described = " ".join(f.describe() for f in explanation.features)
        assert "div" in described or "RAW" in described

    def test_prediction_recorded(self, div_block):
        model = AnalyticalCostModel("hsw")
        explanation = CometExplainer(model, FAST_CONFIG, rng=4).explain(div_block)
        assert explanation.prediction == pytest.approx(model.predict(div_block))

    def test_queries_counted(self, div_block):
        model = AnalyticalCostModel("hsw")
        before = model.query_count
        explanation = CometExplainer(model, FAST_CONFIG, rng=5).explain(div_block)
        assert explanation.num_queries > 50
        assert model.query_count - before >= explanation.num_queries

    def test_explanations_reproducible_with_seed(self, div_block):
        model = AnalyticalCostModel("hsw")
        a = CometExplainer(model, FAST_CONFIG, rng=6).explain(div_block)
        b = CometExplainer(model, FAST_CONFIG, rng=6).explain(div_block)
        assert [f.describe() for f in a.features] == [f.describe() for f in b.features]
        assert a.precision == pytest.approx(b.precision)

    def test_explain_many_independent_streams(self, div_block, cheap_block):
        model = AnalyticalCostModel("hsw")
        explanations = CometExplainer(model, FAST_CONFIG, rng=7).explain_many(
            [div_block, cheap_block]
        )
        assert len(explanations) == 2
        assert all(isinstance(e, Explanation) for e in explanations)

    def test_explain_block_convenience(self, div_block):
        explanation = explain_block(
            AnalyticalCostModel("hsw"), div_block, config=FAST_CONFIG, rng=8
        )
        assert explanation.precision > 0.5


class TestAnchorSearchInternals:
    def test_candidate_features_cover_block(self, div_block):
        search = AnchorSearch(AnalyticalCostModel("hsw"), div_block, FAST_CONFIG, rng=9)
        kinds = {f.kind for f in search.candidate_features}
        assert kinds == {
            FeatureKind.INSTRUCTION,
            FeatureKind.DEPENDENCY,
            FeatureKind.NUM_INSTRUCTIONS,
        }

    def test_search_records_evaluated_candidates(self, div_block, monkeypatch):
        searches = record_searches(monkeypatch)
        model = AnalyticalCostModel("hsw")
        explanation = answer_rounds(
            search_block_rounds(model, div_block, FAST_CONFIG, 10), model
        )
        (search,) = searches
        assert explanation.candidates_evaluated == len(search.evaluated) > 0
        # The explanation is one of the candidates the search evaluated.
        assert any(
            (c.features, c.precision, c.coverage, c.precision_samples)
            == (
                explanation.features,
                explanation.precision,
                explanation.coverage,
                explanation.precision_samples,
            )
            for c in search.evaluated
        )

    def test_fallback_when_nothing_meets_threshold(self, cheap_block):
        # A model driven by a feature COMET cannot express (the exact operand
        # registers of every instruction) never reaches the threshold, so the
        # search must return its best fallback with the flag cleared.
        def operand_hash_model(block):
            return float(sum(len(str(i)) for i in block) % 17)

        model = CallableCostModel(operand_hash_model, name="operand-hash")
        config = FAST_CONFIG.with_overrides(epsilon=0.01, max_anchor_size=2, delta=0.01)
        explanation = CometExplainer(model, config, rng=11).explain(cheap_block)
        assert isinstance(explanation.meets_threshold, bool)
        assert explanation.precision <= 1.0


class TestExplanationObject:
    def test_describe_lists_features(self, div_block):
        explanation = explain_block(
            AnalyticalCostModel("hsw"), div_block, config=FAST_CONFIG, rng=12
        )
        text = explanation.describe()
        assert "precision" in text and "coverage" in text

    def test_to_dict_round_trip(self, div_block):
        explanation = explain_block(
            AnalyticalCostModel("hsw"), div_block, config=FAST_CONFIG, rng=13
        )
        payload = explanation.to_dict()
        assert payload["model"].startswith("crude-analytical")
        assert payload["size"] == len(explanation.features)
        assert isinstance(payload["features"], list)

    def test_fine_grained_flag(self, div_block):
        explanation = Explanation(
            block=div_block,
            model_name="m",
            prediction=1.0,
            features=(NumInstructionsFeature(6),),
            precision=0.9,
            coverage=0.5,
            meets_threshold=True,
            epsilon=0.5,
        )
        assert not explanation.is_fine_grained
        assert explanation.contains_kind(FeatureKind.NUM_INSTRUCTIONS)
